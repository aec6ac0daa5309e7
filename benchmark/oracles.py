"""Checks made apart from the program.

Nothing here imports the package: the constraints are read back from the
generated model text with a parser of this module's own, probabilities
are recomputed with plain numpy, and the reference max-entropy joint
comes from a Newton solve of the dual written here.  Each check returns
a list of problems; an empty list means the output passed.

Tables follow the package's documented state order: the last scope
variable is the least significant bit of the state index.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# Largest gap allowed between an answer of a solve stopped at residual
# tolerance 1e-4 (decomposed or successive) and the reference joint.  The
# largest clique-marginal gap seen on the benchmark's models is 8.2e-4
# (decomposed ring-16); 5e-3 leaves six-fold room and still catches a
# table that is off by a percent.
ANSWER_BOUND = 5e-3
SEPARATOR_TOL = 1e-9
WITNESS_TOL = 1e-6

_LIT = re.compile(r"(~?)([A-Za-z_][A-Za-z_0-9]*)")


@dataclass(frozen=True)
class Cons:
    """P(target | cond) = value when `target` is set, else P(cond) = value.
    Literals are (name, positive) pairs."""

    target: tuple[str, bool] | None
    cond: tuple[tuple[str, bool], ...]
    value: float

    @property
    def scope(self) -> frozenset[str]:
        names = {n for n, _ in self.cond}
        if self.target:
            names.add(self.target[0])
        return frozenset(names)


def read_model(text: str) -> tuple[list[str], list[Cons]]:
    """Variable names and constraints of a model file, in declaration
    order."""
    names: list[str] = []
    cons: list[Cons] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vars"):
            names = line.split()[1:]
            continue
        body, value = line[2:].split(")=")
        left, _, right = body.partition("|")
        lits = lambda s: tuple((m.group(2), m.group(1) == "") for m in _LIT.finditer(s))
        if right:
            (tgt,) = lits(left)
            cons.append(Cons(tgt, lits(right), float(value)))
        else:
            cons.append(Cons(None, lits(left), float(value)))
    return names, cons


def _mask(scope: tuple[str, ...], lits) -> np.ndarray:
    k = len(scope)
    idx = np.arange(1 << k)
    mask = np.ones(1 << k, dtype=bool)
    for name, positive in lits:
        bit = (idx >> (k - 1 - scope.index(name))) & 1
        mask &= bit == (1 if positive else 0)
    return mask


def residual(probs: np.ndarray, scope: tuple[str, ...], c: Cons) -> float:
    """|current - value| for one constraint on a table over `scope`;
    1.0 when a conditioning event is empty."""
    ev = _mask(scope, c.cond)
    if c.target is None:
        return abs(float(probs[ev].sum()) - c.value)
    den = float(probs[ev].sum())
    if den < 1e-12:
        return 1.0
    num = float(probs[ev & _mask(scope, [c.target])].sum())
    return abs(num / den - c.value)


def marginal(probs: np.ndarray, scope: tuple[str, ...], sub: tuple[str, ...]) -> np.ndarray:
    k = len(scope)
    idx = np.arange(1 << k)
    out = np.zeros(1 << k, dtype=np.int64)
    for name in sub:
        out = (out << 1) | ((idx >> (k - 1 - scope.index(name))) & 1)
    return np.bincount(out, weights=probs, minlength=1 << len(sub))


def event_probability(probs, scope, event, given=()) -> float:
    g = _mask(scope, given)
    return float(probs[g & _mask(scope, event)].sum()) / float(probs[g].sum())


def me_reference(names: list[str], cons: list[Cons]) -> np.ndarray:
    """Max-entropy joint under the constraints, by damped Newton on the
    dual of max H(p) s.t. A p = b (rows as in the linear encoding:
    (1-v) 1[E,x] - v 1[E,~x] for conditionals, 1[E] - v for cells)."""
    scope = tuple(names)
    rows = []
    for c in cons:
        ev = _mask(scope, c.cond)
        if c.target is None:
            rows.append(ev - c.value)
        else:
            tgt = _mask(scope, [c.target])
            rows.append(np.where(ev & tgt, 1.0 - c.value, 0.0) - np.where(ev & ~tgt, c.value, 0.0))
    a = np.array(rows, dtype=float)
    lam = np.zeros(len(rows))

    def dual(lam):
        e = a.T @ lam
        m = e.max()
        w = np.exp(e - m)
        return m + np.log(w.sum()), w / w.sum()

    f, p = dual(lam)
    for _ in range(200):
        g = a @ p
        if np.abs(g).max() < 1e-13:
            break
        ap = a * p
        h = ap @ a.T - np.outer(g, g)
        step = np.linalg.solve(h + 1e-14 * np.eye(len(lam)), g)
        t = 1.0
        while True:
            f_new, p_new = dual(lam - t * step)
            if f_new <= f - 1e-4 * t * float(g @ step) or t < 1e-10:
                break
            t *= 0.5
        lam, f, p = lam - t * step, f_new, p_new
    return p


def chordal(nodes, edges: set[frozenset[str]]) -> bool:
    """Maximum cardinality search, then the perfect-elimination test."""
    adj = {v: set() for v in nodes}
    for e in edges:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    weight = {v: 0 for v in nodes}
    order: list[str] = []
    left = set(nodes)
    while left:
        v = max(sorted(left), key=lambda u: weight[u])
        order.append(v)
        left.remove(v)
        for u in adj[v] & left:
            weight[u] += 1
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [u for u in adj[v] if pos[u] < pos[v]]
        if earlier:
            parent = max(earlier, key=lambda u: pos[u])
            if not set(earlier) - {parent} <= adj[parent]:
                return False
    return True


def check_decomposition(names, cons: list[Cons], fill, cliques, order, anchors, cost,
                        neighbor_edges=None) -> list[str]:
    """The filled graph contains the neighbour graph and is chordal; the
    cliques are exactly its maximal cliques; the order has the
    running-intersection property; every constraint fits in a clique;
    and the cost is the sum of 2^|C|."""
    bad = []
    if neighbor_edges is None:
        neighbor_edges = set()
        for c in cons:
            if c.target is not None:
                s = sorted(c.scope)
                neighbor_edges |= {frozenset((u, v)) for i, u in enumerate(s) for v in s[i + 1:]}
    filled = set(neighbor_edges) | set(fill)
    if not chordal(names, filled):
        bad.append("filled graph is not chordal")
    adj = {v: set() for v in names}
    for e in filled:
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    for cl in cliques:
        if any(v not in adj[u] for u in cl for v in cl if u != v):
            bad.append(f"clique {sorted(cl)} is not complete")
        outside = set(names) - cl
        if any(cl <= adj[w] for w in outside):
            bad.append(f"clique {sorted(cl)} is not maximal")
    for e in filled:
        if not any(e <= cl for cl in cliques):
            bad.append(f"edge {sorted(e)} lies in no clique")
    if set().union(*cliques) != set(names):
        bad.append("cliques do not cover the variables")
    if sorted(map(sorted, order)) != sorted(map(sorted, cliques)) or len(set(order)) != len(order):
        bad.append("order is not a permutation of the cliques")
    seen: set[str] = set()
    for i, cl in enumerate(order):
        if i and not (anchors[i] is not None and 0 <= anchors[i] < i and cl & seen <= order[anchors[i]]):
            bad.append(f"running intersection fails at position {i}")
        seen |= cl
    for c in cons:
        if not any(c.scope <= cl for cl in cliques):
            bad.append(f"constraint scope {sorted(c.scope)} fits in no clique")
    if cost != sum(1 << len(cl) for cl in cliques):
        bad.append(f"cost {cost} is not the sum of 2^|C|")
    return bad


def moral_separated(nodes, arcs: set[tuple[str, str]], x: str, y: str, given) -> bool:
    """x and y separated by `given` in the moral graph of the ancestral
    set of {x, y} and `given` (Lauritzen et al. 1990; valid for directed
    graphs with cycles by Spirtes 1995)."""
    parents = {v: set() for v in nodes}
    for u, v in arcs:
        parents[v].add(u)
    anc, stack = set(), [x, y, *given]
    while stack:
        v = stack.pop()
        if v not in anc:
            anc.add(v)
            stack.extend(parents[v])
    und = {v: set() for v in anc}
    for v in anc:
        ps = parents[v] & anc
        for u in ps:
            und[u].add(v)
            und[v].add(u)
        for u in ps:
            und[u] |= ps - {u}
    blocked = set(given)
    seen, stack = {x}, [x]
    while stack:
        v = stack.pop()
        for w in und[v]:
            if w == y:
                return False
            if w not in seen and w not in blocked:
                seen.add(w)
                stack.append(w)
    return True


def check_witness(probs, scope, cons: list[Cons]) -> list[str]:
    """A witness is a distribution that meets every constraint whose
    scope lies inside its own."""
    bad = []
    if probs.min() < -WITNESS_TOL or abs(float(probs.sum()) - 1.0) > WITNESS_TOL:
        bad.append(f"witness over {scope} is not a distribution")
    for c in cons:
        if c.scope <= set(scope) and residual(probs, scope, c) > WITNESS_TOL:
            bad.append(f"witness over {scope} misses a constraint by "
                       f"{residual(probs, scope, c):.2e}")
    return bad
