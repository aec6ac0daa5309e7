"""Shared fixtures: canonical models, frozen oracle values, random
generators used by the property suites, and slow reference algorithms
the fast ones are checked against.

Frozen tables were computed by independent routes (direct primal
maximization with SLSQP for the max-entropy joints; 30-digit closed-form
arithmetic for the single-update posterior) and are cross-checked against
the package's own solvers in the tests.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse

from maxentbn import (AnnealOptions, BeliefNetwork, ConditionalConstraint,
                      Decomposition, JointTable, Literal, MarginalConstraint,
                      Model, NeighborGraph, ParseError, RipOrder, SolverOptions,
                      UnreachableConstraintError, UpdateTrace, parse_model, uniform)
from maxentbn.consistency import NULLSPACE_TOL
from maxentbn.graphops import ANNEAL_COOLING, ANNEAL_MOVES, ANNEAL_PROBES, clique_cost
from maxentbn.dist import (PROB_FLOOR, ResidualEntry, ResidualReport, constraint_sides,
                           event_mask, probability, project_index)
from maxentbn.mce import (DEFAULT_SUCCESSIVE_TOL, SCHEDULE_ROUND_ROBIN,
                          TraceEvent, conditional_update)

# Directed 2-cycle model: P(A|B)=0.7, P(B|A)=0.8.
FIG21_TEXT = "vars A B\nP(A|B)=0.7\nP(B|A)=0.8\n"

# Four-variable model with the C<->D cycle.  The conditional table uses the
# diagonal orientation consistent with this example's reference linear
# equations and result tables (see notes in the test module).
MINING_TEXT = """vars A B C D
P(A)=0.2
P(B)=0.7
P(C|A,D)=0.6
P(C|~A,D)=0.2
P(C|A,~D)=0.2
P(C|~A,~D)=0.1
P(D|B,C)=0.8
P(D|~B,C)=0.3
P(D|B,~C)=0.4
P(D|~B,~C)=0.2
"""

QUAD_TEXT = "vars A B\nP(A|~B)=0.2\nP(A|B)=0.7\nP(B|~A)=0.1\nP(B|A)=0.8\n"

CONTRADICTION_TEXT = ("vars A B C\nP(B|A)=1\nP(B|~A)=1\n"
                      "P(B|C)=0\nP(B|~C)=0\n")

# P(A,C) lies in no clique of the neighbor graph's cover {A,B}, {B,C}, and
# it contradicts P(A)=0.1: a clique-local check that left it out would call
# the set consistent.
HOMELESS_TEXT = "vars A B C\nP(A|B)=0.5\nP(C|B)=0.5\nP(A)=0.1\nP(A,C)=0.9\n"
HOMELESS_ERROR = (r"constraint P\(A,C\)=0\.9 fits in no clique of the decomposition; "
                  "see the marginal scope-rule warnings")

# C and D each copy A through B, so P(C)=0.2 and P(D)=0.7 cannot both hold.
# Each clique ({A,B}, {A,C}, {B,D}) passes alone and against its anchor
# {A,B}; only the joint tree LP sees that C and D disagree about A.
PAIRWISE_BLIND_TEXT = ("vars A B C D\nP(C|A)=1\nP(C|~A)=0\nP(C)=0.2\nP(B|A)=1\n"
                       "P(B|~A)=0\nP(D|B)=1\nP(D|~B)=0\nP(D)=0.7\n")

# Six-node ring-of-triangles neighbor graph whose raw clique cover is not
# acyclic; the reference answer resolves it with a single chord.
SIXRING_EDGES = [("A", "C"), ("A", "F"), ("C", "F"), ("B", "D"), ("B", "E"),
                 ("D", "E"), ("C", "D"), ("E", "F")]

# Exact ME joint of the 2-cycle model, scope (A, B); printed reference
# rounds to (0.2808, 0.1836, 0.1071, 0.4285).  Computed by primal SLSQP;
# agrees with the dual solver to 2e-9.
FIG21_JOINT = np.array([0.280750117882, 0.183638267775,
                        0.107122322869, 0.428489291474])

# Printed approximation after two interleaved applications of each
# constraint starting from uniform.
FIG21_TWO_EACH = np.array([0.2807, 0.1808, 0.1075, 0.4299])

# Exact ME joint of the mining model, scope (A, B, C, D); primal SLSQP,
# agrees with the dual solver to 4e-9.
MINING_JOINT = np.array([
    0.155763417635, 0.040292222438, 0.033122143841, 0.010622907248,
    0.292173349110, 0.201541762678, 0.016648608020, 0.049835589031,
    0.029986256474, 0.006145196089, 0.014346891314, 0.009720964961,
    0.056246747667, 0.030738301840, 0.007211359721, 0.045604281933])

# Reference exact-ME marginal tables for the mining model.
MINING_ACD = np.array([0.4479, 0.2419, 0.0498, 0.0604,
                       0.0862, 0.0369, 0.0216, 0.0553])
MINING_BCD = np.array([0.1857, 0.0464, 0.0474, 0.0203,
                       0.3484, 0.2323, 0.0239, 0.0954])

# Reference cycle-by-cycle decomposed-updating tables (cycles 2..5).
TABLE71 = {
    2: (np.array([0.444003, 0.243843, 0.042686, 0.068039,
                  0.094973, 0.032127, 0.020544, 0.053785]),
        np.array([0.200033, 0.050008, 0.036707, 0.015732,
                  0.338943, 0.225962, 0.026523, 0.106092])),
    3: (np.array([0.439272, 0.247594, 0.048808, 0.061898,
                  0.091531, 0.035206, 0.022883, 0.052808]),
        np.array([0.193179, 0.049959, 0.042916, 0.015804,
                  0.337624, 0.232840, 0.028775, 0.098903])),
    4: (np.array([0.446850, 0.242888, 0.046578, 0.063684,
                  0.090022, 0.034535, 0.021113, 0.054330]),
        np.array([0.193906, 0.048530, 0.042647, 0.018209,
                  0.342965, 0.228894, 0.025045, 0.099804])),
    5: (np.array([0.444434, 0.244491, 0.049382, 0.061123,
                  0.088470, 0.035993, 0.022118, 0.053990]),
        np.array([0.190041, 0.048267, 0.045553, 0.018225,
                  0.342863, 0.232217, 0.025946, 0.096887])),
}

# Closed-form posterior of uniform (A, B) under P(A|B)=0.7:
# t = 3/7, factors t^0.7 / t^-0.3 on the B states, renormalized.
COND_UPDATE_07 = np.array([0.26027956067758815, 0.14383226359344711,
                           0.26027956067758815, 0.33560861505137658])


def fig21() -> Model:
    return parse_model(FIG21_TEXT)


def mining() -> Model:
    return parse_model(MINING_TEXT)


def quad() -> Model:
    return parse_model(QUAD_TEXT)


def contradiction() -> Model:
    return parse_model(CONTRADICTION_TEXT)


def homeless() -> Model:
    return parse_model(HOMELESS_TEXT)


def model_of(names: str, *constraints) -> Model:
    """Short-hand model builder, e.g. model_of("AB", cc("A", "B", 0.7))."""
    return Model(tuple(names), tuple(constraints))


def conditionals(m: Model) -> tuple[ConditionalConstraint, ...]:
    """The model's conditional constraints, in declaration order."""
    return tuple(c for c in m.constraints if isinstance(c, ConditionalConstraint))


def cc(target: str, condition: str, value: float) -> ConditionalConstraint:
    """cc("A", "B,~C", 0.7) -> P(A|B,~C)=0.7."""
    lits = tuple(_lit(s) for s in condition.split(",") if s)
    return ConditionalConstraint(_lit(target), lits, value)


def mc(literals: str, value: float) -> MarginalConstraint:
    return MarginalConstraint(tuple(_lit(s) for s in literals.split(",") if s), value)


def _lit(s: str) -> Literal:
    s = s.strip()
    return Literal(s[1:], False) if s.startswith("~") else Literal(s, True)


def serialize_model(model: Model) -> str:
    """Inverse of parse_model; parse(serialize(m)) == m."""
    lines = ["vars " + " ".join(model.names)]
    lines.extend(str(c) for c in model.constraints)
    return "\n".join(lines) + "\n"


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Cursor:
    """Single-line scanner with 1-based column reporting."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str, column: int | None = None) -> ParseError:
        return ParseError(message, self.lineno, (self.pos if column is None else column) + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s: str) -> None:
        if not self.peek(s):
            raise self.error(f"expected {s!r}")
        self.pos += len(s)

    def name(self) -> tuple[str, int]:
        self.skip_ws()
        m = _NAME_RE.match(self.text, self.pos)
        if not m:
            raise self.error("expected a variable name")
        self.pos = m.end()
        return m.group(0), m.start() + 1


def _parse_literal(cur: _Cursor) -> tuple[Literal, int]:
    negated = cur.peek("~")
    if negated:
        cur.take("~")
    nm, col = cur.name()
    return Literal(nm, not negated), col


def _parse_literal_list(cur: _Cursor) -> list[tuple[Literal, int]]:
    lits = [_parse_literal(cur)]
    while cur.peek(","):
        cur.take(",")
        lits.append(_parse_literal(cur))
    return lits


def parse_model_cursor(text: str) -> Model:
    """The character-cursor parser that `parse_model` replaced, kept as
    its oracle: it reads a constraint file the same way, with the same
    errors, token by token.

    Grammar (line oriented, '#' starts a comment)::

        file       := varsline constraint*
        varsline   := "vars" name+
        constraint := "P(" literal ("," literal)* ["|" literal ("," literal)*] ")" "=" float
        literal    := ["~"] name

    A constraint with a "|" part is conditional and takes a single target
    literal; without "|" it is a marginal over the listed literals.
    """
    content: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines()):
        stripped = raw.split("#", 1)[0]
        if stripped.strip():
            content.append((i + 1, stripped))
    if not content:
        raise ParseError("empty model: expected a 'vars' line", 1, 1)

    lineno, line = content[0]
    cur = _Cursor(line, lineno)
    kw, col = cur.name()
    if kw != "vars":
        raise ParseError("model must start with a 'vars' line", lineno, col)
    names: list[str] = []
    declared: set[str] = set()
    while not cur.at_end():
        nm, col = cur.name()
        if nm in declared:
            raise ParseError(f"variable {nm!r} declared twice", lineno, col)
        declared.add(nm)
        names.append(nm)
    if not names:
        raise ParseError("'vars' line declares no variables", lineno, len(line) + 1)

    constraints: list[ConditionalConstraint | MarginalConstraint] = []
    seen_cells: set = set()
    for lineno, line in content[1:]:
        cur = _Cursor(line, lineno)
        cur.take("P")
        cur.take("(")
        left = _parse_literal_list(cur)
        condition: list[tuple[Literal, int]] | None = None
        if cur.peek("|"):
            cur.take("|")
            condition = _parse_literal_list(cur)
        cur.take(")")
        cur.take("=")
        cur.skip_ws()
        value_col = cur.pos + 1
        value_text = line[cur.pos:].strip()
        try:
            value = float(value_text)
        except ValueError:
            raise ParseError(f"invalid probability value {value_text!r}", lineno, value_col)
        if not 0.0 <= value <= 1.0:
            raise ParseError(f"probability {value_text} outside [0,1]", lineno, value_col)

        for lit, col in left + (condition or []):
            if lit.name not in declared:
                raise ParseError(f"undeclared variable {lit.name!r}", lineno, col)

        if condition is not None:
            if len(left) != 1:
                raise ParseError("conditional constraint takes a single target literal",
                                 lineno, left[1][1])
            target, _ = left[0]
            cond_names: set[str] = set()
            for lit, col in condition:
                if lit.name == target.name:
                    raise ParseError(f"target {target.name!r} appears in its own condition",
                                     lineno, col)
                if lit.name in cond_names:
                    raise ParseError(f"variable {lit.name!r} repeated in condition", lineno, col)
                cond_names.add(lit.name)
            if not target.positive:
                target = Literal(target.name, True)
                value = 1.0 - value
            cond = tuple(lit for lit, _ in condition)
            cell = (target.name, frozenset((l.name, l.positive) for l in cond))
            if cell in seen_cells:
                raise ParseError(f"duplicate constraint on P({target.name}|...)", lineno, 1)
            seen_cells.add(cell)
            constraints.append(ConditionalConstraint(target, cond, value))
        else:
            marg_names: set[str] = set()
            for lit, col in left:
                if lit.name in marg_names:
                    raise ParseError(f"variable {lit.name!r} repeated in constraint", lineno, col)
                marg_names.add(lit.name)
            lits = tuple(lit for lit, _ in left)
            cell = frozenset((l.name, l.positive) for l in lits)
            if cell in seen_cells:
                raise ParseError("duplicate constraint on the same cell", lineno, 1)
            seen_cells.add(cell)
            constraints.append(MarginalConstraint(lits, value))

    return Model(tuple(names), tuple(constraints))


def random_positive_table(rng: np.random.Generator, k: int) -> np.ndarray:
    p = rng.random(1 << k) + 0.05
    return p / p.sum()


def random_model(rng: np.random.Generator, n_vars: int | None = None,
                 n_conditionals: int | None = None,
                 n_marginals: int | None = None,
                 value_range: tuple[float, float] = (0.05, 0.95)) -> Model:
    """Random constraint model with interior probability values; roughly
    half of the draws at 4-6 variables are globally inconsistent."""
    n = n_vars if n_vars is not None else int(rng.integers(4, 7))
    names = "ABCDEFGH"[:n]
    lo, hi = value_range
    constraints = []
    cells = set()
    n_cond = n_conditionals if n_conditionals is not None else int(rng.integers(4, 10))
    for _ in range(n_cond):
        target = names[rng.integers(n)]
        others = [v for v in names if v != target]
        size = int(rng.integers(1, min(3, len(others)) + 1))
        cond_vars = sorted(rng.choice(others, size=size, replace=False))
        cond = tuple(Literal(v, bool(rng.integers(2))) for v in cond_vars)
        cell = (target, frozenset((l.name, l.positive) for l in cond))
        if cell in cells:
            continue
        cells.add(cell)
        constraints.append(ConditionalConstraint(
            Literal(target), cond, float(rng.uniform(lo, hi))))
    n_marg = n_marginals if n_marginals is not None else int(rng.integers(0, 4))
    for _ in range(n_marg):
        var = names[rng.integers(n)]
        lit = Literal(var, bool(rng.integers(2)))
        cell = frozenset([(lit.name, lit.positive)])
        if cell in cells:
            continue
        cells.add(cell)
        constraints.append(MarginalConstraint((lit,), float(rng.uniform(lo, hi))))
    return Model(tuple(names), tuple(constraints))


def random_hypergraph(rng: np.random.Generator, max_vertices: int = 8,
                      max_edges: int = 6):
    """Random hypergraph, as its tuple of hyperedges; mixes raw random
    subsets with clique covers of random chordal-ish graphs so both
    acyclic and cyclic cases are common."""
    from maxentbn import NeighborGraph, maximal_cliques

    n = int(rng.integers(2, max_vertices + 1))
    names = tuple("ABCDEFGH"[:n])
    if rng.random() < 0.65:
        m = int(rng.integers(1, max_edges + 1))
        edges = []
        for _ in range(m):
            size = int(rng.integers(min(2, n), min(4, n) + 1))
            edges.append(frozenset(rng.choice(names, size=size, replace=False)))
        return tuple(edges)
    # clique cover of a random graph (acyclic iff the graph is chordal)
    pairs = list(itertools.combinations(names, 2))
    chosen = frozenset(frozenset(p) for p in pairs if rng.random() < 0.45)
    g = NeighborGraph(names, chosen)
    cliques = tuple(maximal_cliques(g))[:max_edges]
    return cliques


def ring_model(n: int, seed: int = 0) -> Model:
    """Pairwise MRF on a ring of n >= 3 binary variables X0..X{n-1},
    stated by its exact conditionals, so consistent by construction.

    With spins s = +1 (true) / -1 (false), p(x) is proportional to
    exp(sum_i h_i s_i + J_i s_i s_{i+1}), indices mod n, where h and J are
    drawn from U(-1, 1) by a generator seeded with `seed`.  Each variable
    gets the four constraints P(X_i | +-X_{i-1}, +-X_{i+1}), whose values
    the MRF fixes in closed form: the logistic function of twice the
    local field h_i + J_{i-1} s_{i-1} + J_i s_{i+1}.
    """
    rng = np.random.default_rng(seed)
    h = rng.uniform(-1.0, 1.0, n)
    coupling = rng.uniform(-1.0, 1.0, n)  # coupling[i] joins i and i+1
    names = [f"X{i}" for i in range(n)]
    constraints = []
    for i in range(n):
        left, right = (i - 1) % n, (i + 1) % n
        for s_left, s_right in itertools.product((1, -1), repeat=2):
            field = h[i] + coupling[left] * s_left + coupling[i] * s_right
            constraints.append(ConditionalConstraint(
                Literal(names[i]),
                (Literal(names[left], s_left > 0), Literal(names[right], s_right > 0)),
                1.0 / (1.0 + math.exp(-2.0 * field))))
    return Model(tuple(names), tuple(constraints))


def grid_model(height: int, seed: int = 0) -> Model:
    """Pairwise MRF on a 3 x `height` grid of binary variables G{r}_{c},
    consistent by construction like `ring_model`: each variable gets its
    conditional given every assignment of its grid neighbours, the
    logistic function of twice its local field, with h and J from
    U(-1, 1) drawn by a generator seeded with `seed`."""
    at = {(r, c): 3 * c + r for c in range(height) for r in range(3)}
    names = [f"G{r}_{c}" for (r, c) in sorted(at, key=at.get)]
    edges = [(i, at[(r + dr, c + dc)]) for (r, c), i in at.items()
             for dr, dc in ((1, 0), (0, 1)) if (r + dr, c + dc) in at]
    rng = np.random.default_rng(seed)
    h = rng.uniform(-1.0, 1.0, len(names))
    nbrs = [[] for _ in names]
    for (u, v), j in zip(edges, rng.uniform(-1.0, 1.0, len(edges))):
        nbrs[u].append((v, j))
        nbrs[v].append((u, j))
    constraints = []
    for i, name in enumerate(names):
        for signs in itertools.product((1, -1), repeat=len(nbrs[i])):
            field = h[i] + sum(j * s for (_, j), s in zip(nbrs[i], signs))
            constraints.append(ConditionalConstraint(
                Literal(name), tuple(Literal(names[k], s > 0) for (k, _), s in zip(nbrs[i], signs)),
                1.0 / (1.0 + math.exp(-2.0 * field))))
    return Model(tuple(names), tuple(constraints))


def rip_order_bfs(h):
    """Reference running-intersection search: breadth-first extension over
    subsets of hyperedges, appending a set when its overlap with the
    union of the chosen ones lies inside a single chosen set.
    Exponential in the number of hyperedges."""
    edges = list(h)
    n = len(edges)
    if n == 0:
        return RipOrder((), ())
    unions: dict[int, frozenset[str]] = {0: frozenset()}
    parent: dict[int, tuple[int, int, int | None]] = {}  # state -> (prev, edge, anchor)
    frontier = [0]
    full = (1 << n) - 1
    seen = {0}
    while frontier:
        nxt = []
        for state in frontier:
            if state == full:
                break
            union = unions[state]
            for i in range(n):
                bit = 1 << i
                if state & bit or (state | bit) in seen:
                    continue
                inter = edges[i] & union
                anchor = None
                if state == 0:
                    ok = True
                else:
                    ok = False
                    for j in range(n):
                        if state & (1 << j) and inter <= edges[j]:
                            anchor, ok = j, True
                            break
                if ok:
                    new = state | bit
                    seen.add(new)
                    unions[new] = union | edges[i]
                    parent[new] = (state, i, anchor)
                    nxt.append(new)
        if full in seen:
            break
        frontier = nxt
    if full not in seen:
        return None
    chain: list[tuple[int, int | None]] = []
    state = full
    while state:
        prev, i, anchor = parent[state]
        chain.append((i, anchor))
        state = prev
    chain.reverse()
    index_of = {edge_i: pos for pos, (edge_i, _) in enumerate(chain)}
    order = tuple(edges[i] for i, _ in chain)
    anchors = tuple(None if a is None else index_of[a] for _, a in chain)
    return RipOrder(order, anchors)


def separator_oracle(rip, i):
    """Set i's overlap with the union of every earlier set of a RIP
    order: the separator by its definition."""
    earlier = set()
    for s in rip.order[:i]:
        earlier |= s
    return frozenset(rip.order[i] & earlier)


def is_chordal(adj: dict[str, set[str]]) -> bool:
    """Reference chordality test: a graph is chordal iff repeatedly
    deleting a simplicial vertex (one whose neighbours are pairwise
    adjacent) empties it."""
    work = {v: set(ns) for v, ns in adj.items()}
    while work:
        for v in sorted(work):
            if all(w in work[u] for u, w in itertools.combinations(work[v], 2)):
                for u in work[v]:
                    work[u].discard(v)
                del work[v]
                break
        else:
            return False
    return True


def eliminate_sets(adj: dict[str, set[str]], next_vertex):
    """Reference vertex elimination, in its first form on sets of names:
    eliminate every vertex, each time the one `next_vertex` picks from the
    remaining graph, joining its remaining neighbours pairwise.  Returns
    the elimination order, the fill edges, and the maximal cliques of the
    filled graph in elimination order."""
    work = {v: set(ns) for v, ns in adj.items()}
    order, fill, cliques = [], set(), []
    while work:
        v = next_vertex(work)
        ns = work.pop(v)
        for u in ns:
            work[u].discard(v)
        for u, w in itertools.combinations(ns, 2):
            if w not in work[u]:
                work[u].add(w)
                work[w].add(u)
                fill.add(frozenset((u, w)))
        order.append(v)
        cliques.append(frozenset(ns) | {v})
    # a vertex's clique can lie only inside that of a vertex eliminated earlier
    maximal = [c for i, c in enumerate(cliques) if not any(c < d for d in cliques[:i])]
    return order, frozenset(fill), maximal


def min_fill_sets(work: dict[str, set[str]]) -> str:
    """Reference min-fill pick: the vertex whose elimination adds the
    fewest fill edges, ties by name."""
    def fill_needed(v):
        ns = work[v]
        return sum(len(ns - work[u]) - 1 for u in ns) // 2

    return min(sorted(work), key=fill_needed)


def _decomposition_of(fill, cliques):
    return Decomposition(fill, tuple(sorted(cliques, key=lambda c: tuple(sorted(c)))))


def fill_in_greedy_oracle(g) -> Decomposition:
    """Reference `graphops.fill_in_greedy`: set-based min-fill elimination."""
    _, fill, cliques = eliminate_sets(g.adjacency(), min_fill_sets)
    return _decomposition_of(fill, cliques)


def fill_in_anneal_oracle(g, opts=None) -> Decomposition:
    """Reference `graphops.fill_in_anneal` in its first form: the same
    schedule, draws and (cost, fill size, sorted fill edges) tie-break,
    with every probe and move eliminated from scratch on sets."""
    opts = opts or AnnealOptions()
    adj = g.adjacency()
    greedy_order, fill, cliques = eliminate_sets(adj, min_fill_sets)
    if not fill:
        return _decomposition_of(fill, cliques)

    def key_of(cost, fill):
        return (cost, len(fill), tuple(sorted(tuple(sorted(e)) for e in fill)))

    def evaluate(order):
        it = iter(order)
        _, fill, cliques = eliminate_sets(adj, lambda work: next(it))
        return clique_cost(cliques), fill, cliques

    greedy_cost = clique_cost(cliques)
    best_key, best = key_of(greedy_cost, fill), (fill, cliques)
    n = len(greedy_order)
    for child in np.random.SeedSequence(opts.seed).spawn(opts.restarts):
        rng = np.random.default_rng(child)
        state = list(greedy_order)
        cur_cost = greedy_cost
        probes = [evaluate([state[k] for k in rng.permutation(n)])[0]
                  for _ in range(ANNEAL_PROBES)]
        t = float(max(probes) - min(probes)) or 1.0
        t_floor = t * 1e-3
        frozen = False
        while t > t_floor and not frozen:
            frozen = True
            for _ in range(ANNEAL_MOVES):
                i, j = int(rng.integers(n)), int(rng.integers(n - 1))
                j += j >= i
                state[i], state[j] = state[j], state[i]
                new_cost, fill, cliques = evaluate(state)
                if new_cost <= cur_cost or rng.random() < math.exp((cur_cost - new_cost) / t):
                    frozen = frozen and new_cost == cur_cost
                    cur_cost = new_cost
                    key = key_of(new_cost, fill)
                    if key < best_key:
                        best_key, best = key, (fill, cliques)
                else:
                    state[i], state[j] = state[j], state[i]
            t *= ANNEAL_COOLING
    return _decomposition_of(*best)


def random_graph(rng: np.random.Generator, n: int, density: float = 0.45) -> NeighborGraph:
    """A random graph on n vertices named V00, V01, ..., declared in a
    random order, each pair joined with probability `density`."""
    nodes = tuple(f"V{i:02d}" for i in rng.permutation(n))
    return NeighborGraph(nodes, frozenset(frozenset(p) for p in itertools.combinations(nodes, 2)
                                          if rng.random() < density))


def jeffrey_raw(probs: np.ndarray, mask: np.ndarray, v: float, label: str = "") -> np.ndarray:
    """Reference Jeffrey update on a raw array: the event `mask` gets mass
    v and its complement 1-v, each rescaled proportionally."""
    pe = float(probs[mask].sum())
    out = np.array(probs)
    if v > 0.0 and pe < PROB_FLOOR:
        raise UnreachableConstraintError(f"{label}: event has zero prior probability")
    if v < 1.0 and 1.0 - pe < PROB_FLOOR:
        raise UnreachableConstraintError(f"{label}: complement has zero prior probability")
    if v > 0.0:
        out[mask] *= v / pe
    else:
        out[mask] = 0.0
    if v < 1.0:
        out[~mask] *= (1.0 - v) / (1.0 - pe)
    else:
        out[~mask] = 0.0
    return out / out.sum()


def conditional_raw(probs: np.ndarray, m1_mask: np.ndarray, m0_mask: np.ndarray,
                    mu: float, label: str = "") -> np.ndarray:
    """Reference exponential-tilt update on a raw array; m1/m0 select the
    conditioning-event states where the target holds / fails."""
    m1 = float(probs[m1_mask].sum())
    m0 = float(probs[m0_mask].sum())
    if m1 + m0 < PROB_FLOOR:
        raise UnreachableConstraintError(
            f"{label}: conditioning event has zero prior probability")
    out = np.array(probs)
    if mu >= 1.0 or mu <= 0.0:
        keep_mass, drop = (m1, m0_mask) if mu >= 1.0 else (m0, m1_mask)
        if keep_mass < PROB_FLOOR:
            raise UnreachableConstraintError(
                f"{label}: required half of the event has zero mass")
        out[drop] = 0.0
        return out / out.sum()
    if m1 < PROB_FLOOR or m0 < PROB_FLOOR:
        raise UnreachableConstraintError(
            f"{label}: prior cannot reach an interior conditional value")
    t = ((1.0 - mu) * m1) / (mu * m0)
    out[m0_mask] *= t ** mu
    out[m1_mask] *= t ** (mu - 1.0)
    return out / out.sum()


def oracle_update(prior, c):
    """Reference single-constraint update: Jeffrey's rule for a cell
    constraint, the exponential tilt for a conditional one."""
    scope = prior.scope
    if isinstance(c, ConditionalConstraint):
        cond = event_mask(scope, c.condition)
        tgt = event_mask(scope, [c.target])
        out = conditional_raw(prior.probs, cond & tgt, cond & ~tgt, c.value, str(c))
    else:
        out = jeffrey_raw(prior.probs, event_mask(scope, c.literals), c.value, str(c))
    return JointTable(scope, out)


def conditional(table: JointTable, target: Literal, given=()) -> float:
    """P(target | given) read off the table."""
    denom = probability(table, given)
    if denom < PROB_FLOOR:
        raise ValueError(f"conditioning event has probability {denom}; conditional undefined")
    return probability(table, [*given, target]) / denom


def constraint_current(table, c):
    """Reference reading of a constraint off event masks: P(x|E) for a
    conditional (None when E has less than PROB_FLOOR), P(E) for a cell."""
    if isinstance(c, ConditionalConstraint):
        try:
            return conditional(table, c.target, c.condition)
        except ValueError:
            return None
    return probability(table, c.literals)


def residuals_masks(table, cs):
    """Reference `dist.residuals` on `constraint_current`."""
    entries = []
    for c in cs:
        cur = constraint_current(table, c)
        resid = None if cur is None else cur - c.value
        entries.append(ResidualEntry(c, cur, resid))
    return ResidualReport(tuple(entries), float(table.probs.sum()) - 1.0)


def successive_solve_oracle(prior, cs, opts=None):
    """Reference successive updating on the full joint: recompute every
    residual with `residuals_masks` before each step and apply
    `oracle_update`.  Returns (table, UpdateTrace)."""
    opts = opts or SolverOptions()
    tol = opts.tolerance if opts.tolerance is not None else DEFAULT_SUCCESSIVE_TOL
    table = prior
    events = []
    n = len(cs)
    if n == 0:
        return table, UpdateTrace((), True, 0)
    converged = False
    cycle = 0
    while cycle < opts.max_cycles and not converged:
        cycle += 1
        for step in range(n):
            rep = residuals_masks(table, cs)
            if rep.max_magnitude <= tol:
                converged = True
                break
            if opts.schedule == SCHEDULE_ROUND_ROBIN:
                entry = rep.entries[step]
            else:
                entry = max(rep.entries, key=lambda e: e.magnitude)
            table = oracle_update(table, entry.constraint)
            events.append(TraceEvent(cycle, entry.constraint, entry.residual))
    if not converged:
        converged = residuals_masks(table, cs).max_magnitude <= tol
    cycles_used = events[-1].cycle if events else 0
    return table, UpdateTrace(tuple(events), converged, cycles_used)


def jeffrey_update(prior, mc):
    """Jeffrey's rule by the package's update rule: the event block gets
    mass v and its complement 1-v, each rescaled proportionally."""
    return conditional_update(prior, mc)


def subset_marginal_update(table, new_marginal):
    """Reference partial Jeffrey update: scale each block of the table so
    its marginal on the subscope equals `new_marginal`; conditionals
    within each block are untouched."""
    sub = new_marginal.scope
    if not set(sub) <= set(table.scope):
        raise ValueError(f"{sub} is not a subscope of {table.scope}")
    subidx = project_index(table.scope, sub)
    current = np.bincount(subidx, weights=table.probs, minlength=new_marginal.probs.size)
    target = new_marginal.probs
    if np.any((target > PROB_FLOOR) & (current < PROB_FLOOR)):
        raise UnreachableConstraintError(
            "new marginal is positive where the current marginal is zero")
    factors = np.divide(target, current, out=np.zeros_like(target),
                        where=current > 0.0)
    out = table.probs * factors[subidx]
    return JointTable(table.scope, out / out.sum())


class _ListKernel:
    """Reference single-constraint update on a table held as a list of
    floats, with index lists (a, b) from `dist.constraint_sides`."""

    def __init__(self, c, scope, table):
        a, b = constraint_sides(scope, c)
        self.constraint, self.table, self.value = c, table, c.value
        self.a = np.flatnonzero(a).tolist()
        self.b = np.flatnonzero(b).tolist()

    def masses(self, p):
        s1 = 0.0
        for i in self.a:
            s1 += p[i]
        s0 = 0.0
        for i in self.b:
            s0 += p[i]
        return s1, s0

    def residual(self, p):
        s1, s0 = self.masses(p)
        return None if s1 + s0 < PROB_FLOOR else s1 / (s1 + s0) - self.value

    def apply(self, p):
        s1, s0 = self.masses(p)
        v, label = self.value, str(self.constraint)
        if s1 + s0 < PROB_FLOOR:
            raise UnreachableConstraintError(
                f"{label}: conditioning event has zero prior probability")
        if v >= 1.0 or v <= 0.0:
            keep_mass, drop = (s1, self.b) if v >= 1.0 else (s0, self.a)
            if keep_mass < PROB_FLOOR:
                raise UnreachableConstraintError(
                    f"{label}: required half of the event has zero mass")
            for i in drop:
                p[i] = 0.0
        else:
            if s1 < PROB_FLOOR or s0 < PROB_FLOOR:
                raise UnreachableConstraintError(
                    f"{label}: prior cannot reach an interior conditional value")
            t = ((1.0 - v) * s1) / (v * s0)
            f0, f1 = t ** v, t ** (v - 1.0)
            for i in self.b:
                p[i] *= f0
            for i in self.a:
                p[i] *= f1
        inv = 1.0 / sum(p)
        p[:] = [x * inv for x in p]


def solve_decomposed_oracle(model, rip, opts=None):
    """Reference decomposed successive updating on lists of floats: every
    residual recomputed before each step, and after each update a
    depth-first pass that marginalizes both cliques of every separator
    afresh, skips a separator whose two marginals agree to 1e-15 (and
    the subtree behind it), and renormalizes each receiving clique.  Each
    constraint's clique (the first in RIP order that holds it) and each
    separator (the overlap with all earlier cliques) are found here by
    definition, not by the package's routines.  `rip` is the running-
    intersection order of a decomposition or of the solver's merged tree.
    Returns (clique tables, UpdateTrace, error or None)."""
    opts = opts or SolverOptions()
    tol = opts.tolerance if opts.tolerance is not None else DEFAULT_SUCCESSIVE_TOL
    scopes = [model.ordered_scope(c) for c in rip.order]
    probs = [uniform(s).probs.tolist() for s in scopes]
    homes = []
    for c in model.constraints:
        for h, clique in enumerate(rip.order):
            if c.scope <= clique:
                homes.append(h)
                break
        else:
            raise ValueError(f"constraint {c} fits in no clique")
    kernels = [_ListKernel(c, scopes[h], h) for c, h in zip(model.constraints, homes)]
    adjacency = {}
    for child in range(1, len(scopes)):
        parent = rip.anchors[child]
        sep = model.ordered_scope(separator_oracle(rip, child))
        if sep:
            sub_c = project_index(scopes[child], sep).tolist()
            sub_p = project_index(scopes[parent], sep).tolist()
            ns = 1 << len(sep)
            adjacency.setdefault(child, []).append((parent, sub_c, sub_p, ns))
            adjacency.setdefault(parent, []).append((child, sub_p, sub_c, ns))

    def propagate(start):
        stack = [(start, -1)]
        while stack:
            node, came = stack.pop()
            for other, sub_n, sub_o, ns in adjacency.get(node, ()):
                if other == came:
                    continue
                marg_n, marg_o = [0.0] * ns, [0.0] * ns
                for i, s in enumerate(sub_n):
                    marg_n[s] += probs[node][i]
                for i, s in enumerate(sub_o):
                    marg_o[s] += probs[other][i]
                if max(abs(a - b) for a, b in zip(marg_n, marg_o)) <= 1e-15:
                    continue
                for a, b in zip(marg_n, marg_o):
                    if a > PROB_FLOOR and b < PROB_FLOOR:
                        raise UnreachableConstraintError(
                            "separator marginal is positive where the "
                            "receiving clique has zero mass")
                factors = [a / b if b > 0.0 else 0.0 for a, b in zip(marg_n, marg_o)]
                po = [x * factors[s] for x, s in zip(probs[other], sub_o)]
                inv = 1.0 / sum(po)
                probs[other] = [x * inv for x in po]
                stack.append((other, node))

    events, error, converged = [], None, not kernels
    cycle = cycles_used = 0
    while cycle < opts.max_cycles and not converged and error is None:
        cycle += 1
        for step in range(len(kernels)):
            resids = [k.residual(probs[k.table]) for k in kernels]
            mags = [1.0 if r is None else abs(r) for r in resids]
            best = step if opts.schedule == SCHEDULE_ROUND_ROBIN else mags.index(max(mags))
            if max(mags) <= tol:
                converged = True
                break
            k = kernels[best]
            try:
                k.apply(probs[k.table])
                propagate(k.table)
            except UnreachableConstraintError as exc:
                error = str(exc)
                break
            events.append(TraceEvent(cycle, k.constraint, resids[best]))
            cycles_used = cycle
    if error is None and not converged:
        converged = all((1.0 if r is None else abs(r)) <= tol
                        for r in (k.residual(probs[k.table]) for k in kernels))
    tables = [JointTable(s, np.array(p) / sum(p)) for s, p in zip(scopes, probs)]
    return tables, UpdateTrace(tuple(events), converged, cycles_used), error


def descendants(net, x: str) -> frozenset[str]:
    """All variables reachable from x along directed paths of length >= 1;
    includes x itself only when x lies on a directed cycle."""
    if x not in net.nodes:
        raise ValueError(f"unknown variable {x!r}")
    seen: set[str] = set()
    frontier = [x]
    while frontier:
        u = frontier.pop()
        new = {v for (a, v) in net.edges if a == u} - seen
        seen |= new
        frontier += new
    return frozenset(seen)


def d_separated_paths(net, x: str, y: str, se=()) -> bool:
    """Reference generalized d-separation by enumeration: every simple
    undirected x-y path, and every arc-direction choice on it where both
    directions exist, is tested link pair by link pair.  Head-to-head at
    z needs z or a descendant of z in `se`; any other meeting needs z
    outside it.  Exponential in the graph's size."""
    se = frozenset(se)
    und: dict[str, set[str]] = {v: set() for v in net.nodes}
    for u, v in net.edges:
        und[u].add(v)
        und[v].add(u)
    desc_hits = {v: bool(({v} | descendants(net, v)) & se) for v in net.nodes}

    def directions(u: str, v: str) -> list[bool]:
        # True: arrow u -> v (head at v); one entry per existing arc
        out = []
        if (u, v) in net.edges:
            out.append(True)
        if (v, u) in net.edges:
            out.append(False)
        return out

    def link_path_unblocked(nodes: list[str]) -> bool:
        options = [directions(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)]
        for combo in itertools.product(*options):
            blocked = False
            for i in range(1, len(nodes) - 1):
                into_z = combo[i - 1]          # previous link points into z
                out_of_z = combo[i]            # next link points away from z
                z = nodes[i]
                if into_z and not out_of_z:    # head-to-head at z
                    if not desc_hits[z]:
                        blocked = True
                        break
                else:                          # head-to-tail or tail-to-tail
                    if z in se:
                        blocked = True
                        break
            if not blocked:
                return True
        return False

    stack: list[list[str]] = [[x]]
    while stack:
        path = stack.pop()
        last = path[-1]
        for w in sorted(und[last]):
            if w in path:
                continue
            if w == y:
                if link_path_unblocked(path + [w]):
                    return False
            else:
                stack.append(path + [w])
    return True


def moral_separated(net, x: str, y: str, se=()) -> bool:
    """Reference separation by the moral-ancestral criterion: `se`
    separates x from y in the moral graph of the ancestral set of
    {x, y} and `se` (Lauritzen et al. 1990; Spirtes 1995 for directed
    graphs with cycles)."""
    parents: dict[str, set[str]] = {v: set() for v in net.nodes}
    for u, v in net.edges:
        if u != v:
            parents[v].add(u)
    anc, stack = set(), [x, y, *se]
    while stack:
        v = stack.pop()
        if v not in anc:
            anc.add(v)
            stack.extend(parents[v])
    moral: dict[str, set[str]] = {v: set() for v in anc}
    for v in anc:
        for u, w in itertools.combinations(sorted(parents[v] | {v}), 2):
            moral[u].add(w)
            moral[w].add(u)
    seen, stack = {x, *se}, [x]
    while stack:
        for w in moral[stack.pop()]:
            if w == y:
                return False
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return True


def random_digraph(rng: np.random.Generator, n: int):
    """Random directed graph on n nodes: each pair is unjoined, joined one
    way, or joined both ways, and a node may carry a self-arc, so
    directed cycles and nodes that are their own descendants are
    common."""
    names = tuple("ABCDEFGH"[:n])
    edges = set()
    for u, v in itertools.combinations(names, 2):
        kind = rng.random()
        if kind < 0.2:
            edges |= {(u, v), (v, u)}
        elif kind < 0.35:
            edges.add((u, v))
        elif kind < 0.5:
            edges.add((v, u))
    edges |= {(v, v) for v in names if rng.random() < 0.1}
    return BeliefNetwork(names, frozenset(edges))


def solve_feasible_dense(a_eq: np.ndarray, b_eq: np.ndarray) -> np.ndarray | None:
    """Reference feasibility LP in its first form: maximize t over
    (x, t) subject to a_eq x = b_eq, the n rows t <= x_j as a dense
    (-I | 1) block, x >= 0 and 0 <= t <= 1.  Returns x, or None."""
    n = a_eq.shape[1]
    a_aug = np.hstack([a_eq, np.zeros((a_eq.shape[0], 1))])
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = scipy.optimize.linprog(
        c=c, A_eq=a_aug, b_eq=b_eq, A_ub=a_ub, b_ub=np.zeros(n),
        bounds=[(0.0, None)] * n + [(0.0, 1.0)], method="highs")
    if res.status == 0:
        return np.maximum(res.x[:n], 0.0)
    if res.status == 2:
        return None
    raise RuntimeError(f"feasibility solve failed: {res.message}")


def tree_lp_dense(systems, anchors):
    """Reference equality system (a_eq, b_eq) of
    `consistency._tree_witnesses`, in its first form: every constraint row
    encoded on its own from event masks, and each table's rows, its
    normalization row and each separator-agreement block built as a
    full-width block matrix, then stacked."""
    offs = np.cumsum([0] + [ls.size for ls in systems])

    def block(i, m):
        out = np.zeros((m.shape[0], int(offs[-1])))
        out[:, offs[i]:offs[i + 1]] = m
        return out

    rows, rhs = [], []
    for i, ls in enumerate(systems):
        coeffs = []
        for c in ls.constraints:
            if isinstance(c, ConditionalConstraint):
                cond = event_mask(ls.scope, c.condition)
                tgt = event_mask(ls.scope, [c.target])
                a, b = cond & tgt, cond & ~tgt
            else:
                a = event_mask(ls.scope, c.literals)
                b = ~a
            row = np.zeros(ls.size)
            row[a] = 1.0 - c.value
            row[b] = -c.value
            coeffs.append(row)
        rows += [block(i, np.array(coeffs).reshape(-1, ls.size)),
                 block(i, np.ones((1, ls.size)))]
        rhs += [0.0] * len(coeffs) + [1.0]
    for i, j in enumerate(anchors):
        si = systems[i].scope
        sep = () if j is None else tuple(n for n in si if n in systems[j].scope)
        if sep:
            rows.append(block(i, marginalization_matrix(si, sep))
                        - block(j, marginalization_matrix(systems[j].scope, sep)))
            rhs += [0.0] * (1 << len(sep))
    return np.vstack(rows), np.array(rhs)


def tree_lp_csc(systems, anchors):
    """Reference LP input as the dense build handed it to HiGHS: the
    dense a_eq of `tree_lp_dense` as csc_matrix, with the column a_eq 1
    appended."""
    a_eq, b_eq = tree_lp_dense(systems, anchors)
    return scipy.sparse.hstack([scipy.sparse.csc_matrix(a_eq),
                                scipy.sparse.csc_matrix(a_eq.sum(axis=1, keepdims=True))],
                               format="csc"), b_eq


def rank_nontrivial_nullspace(ls) -> bool:
    """Reference rank pre-test: build the full null-space basis and ask
    whether it has a column."""
    m = ls.matrix
    if m.shape[0] == 0:
        return True
    return scipy.linalg.null_space(m, rcond=NULLSPACE_TOL).shape[1] > 0


@dataclass(frozen=True)
class SolutionSpace:
    """Reference null-space view of a constraint system: the subspace of
    state vectors its homogeneous rows admit."""

    scope: tuple[str, ...]
    basis: np.ndarray  # orthonormal columns spanning the homogeneous solutions

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def contains(self, vector: np.ndarray, tol: float = 1e-9) -> bool:
        v = np.asarray(vector, dtype=float)
        resid = v - self.basis @ (self.basis.T @ v)
        return bool(np.abs(resid).max() <= tol * max(1.0, np.abs(v).max()))


def solution_space(ls) -> SolutionSpace:
    """Orthonormal basis of the homogeneous solutions of a linear system."""
    m = ls.matrix
    if m.shape[0] == 0:
        return SolutionSpace(ls.scope, np.eye(ls.size))
    basis = scipy.linalg.null_space(m, rcond=NULLSPACE_TOL)
    return SolutionSpace(ls.scope, basis)


def marginalization_matrix(scope, subscope) -> np.ndarray:
    """0/1 matrix summing full states down to subscope states."""
    sub = project_index(scope, subscope)
    m = np.zeros((1 << len(tuple(subscope)), sub.size))
    m[sub, np.arange(sub.size)] = 1.0
    return m


def project_space(ss: SolutionSpace, subscope) -> SolutionSpace:
    """Image of the solution space under marginalization to subscope."""
    subscope = tuple(subscope)
    if not set(subscope) <= set(ss.scope):
        raise ValueError("subscope must be contained in the scope")
    m = marginalization_matrix(ss.scope, subscope)
    image = m @ ss.basis
    if image.size == 0:
        return SolutionSpace(subscope, np.zeros((1 << len(subscope), 0)))
    u, s, _ = np.linalg.svd(image, full_matrices=False)
    rank = int(np.sum(s > NULLSPACE_TOL * max(1.0, s[0] if s.size else 0.0)))
    return SolutionSpace(subscope, u[:, :rank])
