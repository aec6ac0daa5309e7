"""Dense joint probability tables over subsets of binary variables.

A table stores one probability per state of its scope.  States are
indexed with the last scope variable as the least significant bit, so
index 0 is the all-false state and the highest index the all-true state.
`probability` is the one event mask-and-sum, and `side_scan` the one
reader of constraints against a table, used by `residuals`, the dual's
Newton stop and the successive-updating loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import (ConditionalConstraint, Constraint, ConstraintSet, Literal,
                    MarginalConstraint, NeighborGraph)

SCOPE_CAP = 20          # 2^20 states; guards accidental state-space explosion
PROB_FLOOR = 1e-12      # conditioning events below this are treated as empty
DEFAULT_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class JointTable:
    scope: tuple[str, ...]
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        scope = tuple(self.scope)
        if not scope:
            raise ValueError("empty scope")
        if len(set(scope)) != len(scope):
            raise ValueError(f"scope has repeated variables: {scope}")
        if len(scope) > SCOPE_CAP:
            raise ValueError(f"scope of {len(scope)} variables exceeds cap {SCOPE_CAP}")
        probs = np.array(self.probs, dtype=float)  # own copy; frozen below
        if probs.shape != (1 << len(scope),):
            raise ValueError(f"expected {1 << len(scope)} probabilities, got {probs.shape}")
        if not np.isfinite(probs).all():  # NaN passes every comparison below
            raise ValueError("non-finite probability")
        if probs.min() < -1e-12:
            raise ValueError(f"negative probability {probs.min()}")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        probs = np.maximum(probs, 0.0)
        probs.setflags(write=False)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "probs", probs)

    @property
    def size(self) -> int:
        return self.probs.size


def uniform(scope: Sequence[str]) -> JointTable:
    scope = tuple(scope)
    if not 1 <= len(scope) <= SCOPE_CAP:
        raise ValueError(f"scope size {len(scope)} outside [1, {SCOPE_CAP}]")
    n = 1 << len(scope)
    return JointTable(scope, np.full(n, 1.0 / n))


def event_mask(scope: Sequence[str], literals: Iterable[Literal]) -> np.ndarray:
    """Mask over states satisfying every literal.  Contradictory literals
    yield the empty event."""
    scope = tuple(scope)
    states = np.arange(1 << len(scope))
    mask = np.ones(states.size, dtype=bool)
    for lit in literals:
        if lit.name not in scope:
            raise ValueError(f"variable {lit.name!r} not in scope {scope}")
        mask &= ((states >> (len(scope) - 1 - scope.index(lit.name))) & 1) == lit.positive
    return mask


def probability(table: JointTable, literals: Iterable[Literal]) -> float:
    return float(table.probs[event_mask(table.scope, literals)].sum())


def constraint_sides(scope: Sequence[str], c: Constraint) -> tuple[np.ndarray, np.ndarray]:
    """Masks (a, b) over the states of `scope` that put any constraint in
    the form P(a | a or b) = v: a conditional P(x|E)=v has a = E&x and
    b = E&~x, a cell P(E)=v has a = E and b = ~E."""
    if isinstance(c, ConditionalConstraint):
        cond = event_mask(scope, c.condition)
        tgt = event_mask(scope, [c.target])
        return cond & tgt, cond & ~tgt
    ev = event_mask(scope, c.literals)
    return ev, ~ev


def project_index(scope: Sequence[str], sub: Sequence[str]) -> np.ndarray:
    """For each state of `scope`, the index of its restriction to `sub`
    (a state of `sub`, in the order given)."""
    scope = tuple(scope)
    k = len(scope)
    idx = np.arange(1 << k)
    out = np.zeros(1 << k, dtype=np.int64)
    for name in sub:
        if name not in scope:
            raise ValueError(f"variable {name!r} not in scope {scope}")
        out = (out << 1) | ((idx >> (k - 1 - scope.index(name))) & 1)
    return out


def join_layout(scopes: Sequence[tuple[str, ...]], anchors: Sequence[int | None]) -> tuple:
    """Tables over the ordered `scopes`, back to back in one flat vector:
    each table's offset (the total size last), and per table i with an
    anchor j the edge (i, j, separator in i's order, i's index map, j's
    index map), by `project_index`.  An empty separator keeps its edge."""
    offsets = np.cumsum([0] + [1 << len(s) for s in scopes]).tolist()
    seps = [(i, j, tuple(n for n in scopes[i] if n in scopes[j]))
            for i, j in enumerate(anchors) if j is not None]
    return offsets, [(i, j, s, project_index(scopes[i], s), project_index(scopes[j], s))
                     for i, j, s in seps]


def marginalize(table: JointTable, subscope: Sequence[str]) -> JointTable:
    """Sum the table down to `subscope`, in the order given."""
    subscope = tuple(subscope)
    if not subscope:
        raise ValueError("empty subscope")
    sub = project_index(table.scope, subscope)
    out = np.bincount(sub, weights=table.probs, minlength=1 << len(subscope))
    return JointTable(subscope, out)


def side_scan(sides: Sequence[tuple[np.ndarray, np.ndarray]], values: Sequence[float]
              ) -> Callable:
    """`scan(p, floor_free=False)` reads constraints P(a | a or b) = v, with
    (a, b) index arrays into the state vector p: the masses (a sides, then
    b sides) from one `bincount`, the signed residuals (NaN where
    undefined) and their magnitudes, 1.0 where the event has (near) zero
    mass.  While no entry of p is below PROB_FLOOR (`floor_free`) no
    event that holds in some state is undefined, and no guard is run."""
    n = len(sides)
    flat = [a for a, _ in sides] + [b for _, b in sides]
    index = np.concatenate(flat) if flat else np.zeros(0, np.intp)
    bins = np.repeat(np.arange(2 * n), [s.size for s in flat])
    values = np.array(values, dtype=float)
    events_nonempty = all(a.size + b.size for a, b in sides)

    def scan(p: np.ndarray, floor_free: bool = False):
        mass = np.bincount(bins, p[index], 2 * n)
        s1, total = mass[:n], mass[:n] + mass[n:]
        if floor_free and events_nonempty:
            r = s1 / total - values
            return mass, r, np.abs(r)
        defined = total >= PROB_FLOOR
        r = np.where(defined, s1 / np.maximum(total, PROB_FLOOR) - values, np.nan)
        return mass, r, np.where(defined, np.abs(r), 1.0)

    return scan


def constraint_scan(scope: Sequence[str], cs: ConstraintSet) -> Callable:
    """`side_scan` of a constraint set over the states of one table."""
    sides = [tuple(np.flatnonzero(s) for s in constraint_sides(scope, c)) for c in cs]
    return side_scan(sides, [c.value for c in cs])


@dataclass(frozen=True)
class ResidualEntry:
    constraint: Constraint
    current: float | None   # None when a and b have ~zero mass together
    residual: float | None  # current - constraint.value, signed

    @property
    def magnitude(self) -> float:
        # undefined conditionals count as maximally violated for scheduling
        return 1.0 if self.residual is None else abs(self.residual)


@dataclass(frozen=True)
class ResidualReport:
    entries: tuple[ResidualEntry, ...]
    universal: float  # sum of all state probabilities minus 1

    @property
    def max_magnitude(self) -> float:
        mags = [e.magnitude for e in self.entries]
        mags.append(abs(self.universal))
        return max(mags)


def residuals(table: JointTable, cs: ConstraintSet) -> ResidualReport:
    """Each constraint read as P(a | a or b) by its `constraint_scan`, as
    the successive solvers schedule by: P(x|E) for a conditional, P(E)
    over the table's total for a cell; None below PROB_FLOOR."""
    mass, r, _ = constraint_scan(table.scope, cs)(table.probs)
    entries = []
    for c, s1, s0, resid in zip(cs, *mass.reshape(2, -1).tolist(), r.tolist()):
        defined = not math.isnan(resid)
        entries.append(ResidualEntry(c, s1 / (s1 + s0) if defined else None,
                                     resid if defined else None))
    return ResidualReport(tuple(entries), float(table.probs.sum()) - 1.0)


def check_ci(table: JointTable, x: str, y: str, given: Iterable[str] = (),
             tol: float = DEFAULT_CHECK_TOL) -> bool:
    """Numerical conditional-independence test: x independent of y given
    each assignment of `given` that carries more than `tol` mass."""
    given = tuple(given)
    if x == y or x in given or y in given:
        raise ValueError("x, y, and the conditioning set must be disjoint")
    axes = given + (x, y)
    arr = marginalize(table, axes).probs.reshape((2,) * len(axes))
    flat = arr.reshape(-1, 2, 2)
    for block in flat:
        mass = block.sum()
        if mass <= tol:
            continue
        pxy = block[1, 1] / mass
        px = block[1, :].sum() / mass
        py = block[:, 1].sum() / mass
        if abs(pxy - px * py) > tol:
            return False
    return True


def check_mrf(table: JointTable, ng: NeighborGraph, tol: float = DEFAULT_CHECK_TOL) -> bool:
    """Check the Markov property: each variable's conditional given all
    others equals its conditional given its neighbors alone, at every
    full assignment of positive probability."""
    scope = table.scope
    if set(scope) != set(ng.nodes):
        raise ValueError("table scope must cover exactly the graph nodes")
    arr = table.probs.reshape((2,) * len(scope))
    for i, x in enumerate(scope):
        nbrs = ng.neighbors(x)
        p = np.moveaxis(arr, i, -1)  # axes: scope minus x (order kept), then x
        rest = [n for n in scope if n != x]
        tot = p.sum(axis=-1)
        q = p
        for j, name in enumerate(rest):
            if name not in nbrs:
                q = q.sum(axis=j, keepdims=True)
        qtot = q.sum(axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            full_cond = np.where(tot > PROB_FLOOR, p[..., 1] / np.maximum(tot, PROB_FLOOR), 0.0)
            nbr_cond = np.where(qtot > PROB_FLOOR, q[..., 1] / np.maximum(qtot, PROB_FLOOR), 0.0)
        diff = np.abs(full_cond - nbr_cond)
        if diff[tot > PROB_FLOOR].size and diff[tot > PROB_FLOOR].max() > tol:
            return False
    return True
