"""Constraint-consistency checking.

Globally: a constraint set is satisfiable iff there is a nonnegative,
normalized solution to its linear-equality encoding, decided here by
linear-programming feasibility with a null-space rank test as a fast
necessary filter.  Locally: on an acyclic clique decomposition it is
enough to check the first clique alone and every later clique against its
running-intersection anchor, which keeps each feasibility problem at
clique size instead of the full state space.

scipy is imported on first use, by the LP (`_solve_feasible`) and the
SVD of the rank test, so that importing the package costs numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dist
from .dist import SCOPE_CAP, JointTable
from .graphops import Decomposition, Hypergraph, constraint_homes, graham_acyclic
from .model import Constraint, ConstraintSet, Model

NULLSPACE_TOL = 1e-10


@dataclass(frozen=True)
class LinearSystem:
    """Homogeneous encoding of a constraint set over one scope: row k of
    `matrix` is constraint k, right-hand side 0.  The normalization row
    (all ones, right-hand side 1) is implied and kept out."""

    scope: tuple[str, ...]
    constraints: tuple[Constraint, ...]
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return 1 << len(self.scope)


def to_linear(cs: ConstraintSet, scope: Sequence[str]) -> LinearSystem:
    """Encode every constraint whose variables fit in `scope` as the row
    (1-v)*sum(a) - v*sum(b) = 0, with (a, b) from `dist.constraint_sides`.

    Conditional P(x|E)=v:  (1-v)*sum(E&x) - v*sum(E&~x) = 0.
    Cell P(E)=v:           sum(E) - v*sum(all) = 0.
    """
    scope = tuple(scope)
    fits = tuple(c for c in cs if c.scope <= set(scope))
    matrix = np.zeros((len(fits), 1 << len(scope)))
    for row, c in zip(matrix, fits):
        a, b = dist.constraint_sides(scope, c)
        row[a] = 1.0 - c.value
        row[b] = -c.value
    return LinearSystem(scope, fits, matrix)


def rank_nontrivial(ls: LinearSystem) -> bool:
    """The necessary condition: the homogeneous system admits a nonzero
    solution (otherwise no distribution can satisfy the constraints), so
    its rank is below the number of states: always, with fewer rows than
    states; else as counted by singular values above NULLSPACE_TOL times the largest."""
    if len(ls.matrix) < ls.size:
        return True
    import scipy.linalg
    s = scipy.linalg.svdvals(ls.matrix)
    return int(np.sum(s > NULLSPACE_TOL * np.amax(s, initial=0.0))) < ls.size


def _solve_feasible(a_eq: np.ndarray, b_eq: np.ndarray) -> np.ndarray | None:
    """Nonnegative solution of a_eq x = b_eq, or None.

    Among feasible points, maximizes the smallest entry t so witnesses
    stay interior whenever the constraints allow it (a pure vertex
    solution may park whole conditioning events at zero mass).  Written
    as x = y + t*1 with y >= 0, the bounds t <= x_j need no rows: the LP
    is a_eq y + (a_eq 1) t = b_eq with 0 <= t <= 1, and x is y + t.
    HiGHS is handed the augmented matrix in sparse form, so no dense copy
    of a_eq is made.
    """
    import scipy.optimize
    import scipy.sparse
    n = a_eq.shape[1]
    a_aug = scipy.sparse.hstack([scipy.sparse.csc_matrix(a_eq),
                                 scipy.sparse.csc_matrix(a_eq.sum(axis=1, keepdims=True))],
                                format="csc")
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = scipy.optimize.linprog(
        c=c, A_eq=a_aug, b_eq=b_eq,
        bounds=[(0.0, None)] * n + [(0.0, 1.0)], method="highs")
    if res.status == 0:
        return np.maximum(res.x[:n] + res.x[-1], 0.0)
    if res.status == 2:
        return None
    raise RuntimeError(f"feasibility solve failed: {res.message}")


def nonneg_feasible(ls: LinearSystem) -> np.ndarray | None:
    """A probability vector satisfying all rows, or None.

    Phase-one style feasibility via linear programming.
    """
    sol = _tree_witnesses([ls], [None])
    return None if sol is None else sol[0]


def _tree_witnesses(systems: Sequence[LinearSystem], anchors: Sequence[int | None]
                    ) -> list[np.ndarray] | None:
    """One feasibility problem over several tables jointly: table i is a
    distribution over `systems[i].scope` satisfying that system's rows,
    and agrees with table `anchors[i]` (None for none) on their shared
    variables.  Along a running-intersection order solutions glue into a
    full joint distribution, so existence matches global consistency.
    Returns the normalized tables, or None when infeasible."""
    offs = np.cumsum([0] + [ls.size for ls in systems])
    seps = [() if j is None else tuple(n for n in ls.scope if n in systems[j].scope)
            for ls, j in zip(systems, anchors)]
    # table by table its rows and normalization row, then separator blocks
    height = sum(len(ls.matrix) + 1 for ls in systems) + sum(1 << len(s) for s in seps if s)
    a_eq = np.zeros((height, int(offs[-1])))
    b_eq = np.zeros(height)
    r = 0
    for i, ls in enumerate(systems):
        k = len(ls.matrix)
        a_eq[r:r + k, offs[i]:offs[i + 1]] = ls.matrix
        a_eq[r + k, offs[i]:offs[i + 1]] = 1.0
        b_eq[r + k] = 1.0
        r += k + 1
    for i, (j, sep) in enumerate(zip(anchors, seps)):
        if sep:
            for t, sign in ((i, 1.0), (j, -1.0)):
                sub = dist.project_index(systems[t].scope, sep)
                a_eq[r + sub, offs[t] + np.arange(sub.size)] = sign
            r += 1 << len(sep)
    x = _solve_feasible(a_eq, b_eq)
    if x is None:
        return None
    parts = [x[offs[i]:offs[i + 1]] for i in range(len(systems))]
    return [p / p.sum() for p in parts]


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    rank_ok: bool | None       # null-space pre-test (None when not run)
    feasible: bool | None      # LP feasibility (None when skipped)
    witnesses: tuple[tuple[frozenset[str], JointTable], ...]
    culprit: tuple[frozenset[str], frozenset[str]] | None = None
    note: str = ""

    @property
    def verdict(self) -> str:
        return "consistent" if self.consistent else "inconsistent"


def global_consistent(model: Model) -> ConsistencyReport:
    """Global check over the full state space: rank pre-test first,
    then nonnegative feasibility."""
    if len(model.variables) > SCOPE_CAP:
        raise ValueError(
            f"{len(model.variables)} variables exceed the global-check cap "
            f"{SCOPE_CAP}; use a decomposition and local_check")
    ls = to_linear(model.constraints, model.names)
    if not rank_nontrivial(ls):
        return ConsistencyReport(False, rank_ok=False, feasible=None, witnesses=())
    p = nonneg_feasible(ls)
    if p is None:
        return ConsistencyReport(False, rank_ok=True, feasible=False, witnesses=())
    scope = model.names
    witness = JointTable(scope, p)
    return ConsistencyReport(True, rank_ok=True, feasible=True,
                             witnesses=((frozenset(scope), witness),))


def pairwise_consistent(model: Model, clique_i: frozenset[str], clique_j: frozenset[str]
                        ) -> tuple[bool, tuple[JointTable, JointTable] | None]:
    """True iff each clique admits a distribution satisfying its own
    constraints such that the two agree on the shared variables; decided
    as one joint feasibility problem."""
    systems = [to_linear(model.constraints, model.ordered_scope(c)) for c in (clique_i, clique_j)]
    sol = _tree_witnesses(systems, (None, 0))
    if sol is None:
        return False, None
    return True, (JointTable(systems[0].scope, sol[0]), JointTable(systems[1].scope, sol[1]))


def local_check(model: Model, d: Decomposition) -> ConsistencyReport:
    """Consistency over an acyclic decomposition, checked clique-locally.

    Every constraint must have a home clique (`graphops.constraint_homes`).
    One joint per-clique feasibility problem along the running-intersection
    order decides, and yields witnesses that calibrate on the separators.
    When it is infeasible, the culprit is the first failing relaxation of
    it: the first clique alone, then each later clique paired with its
    anchor.  All of these pass only when the chain of pairwise checks
    misses a longer-range contradiction.  Each clique is encoded once, and
    its rows serve every one of these problems.
    """
    hg = Hypergraph(tuple(sorted(set().union(*d.cliques))), d.cliques)
    if not graham_acyclic(hg):
        raise ValueError("decomposition is not acyclic; local check inapplicable")
    constraint_homes(model, d)
    order, anchors = d.rip.order, d.rip.anchors
    systems = [to_linear(model.constraints, model.ordered_scope(c)) for c in order]
    sol = _tree_witnesses(systems, anchors)
    if sol is not None:
        return ConsistencyReport(True, rank_ok=None, feasible=True, witnesses=tuple(
            (c, JointTable(ls.scope, p)) for c, ls, p in zip(order, systems, sol)))
    if nonneg_feasible(systems[0]) is None:
        culprit = (order[0], order[0])
    else:
        culprit = next(((order[i], order[j]) for i, j in enumerate(anchors)
                        if i and _tree_witnesses([systems[i], systems[j]], (None, 0)) is None),
                       None)
    return ConsistencyReport(
        False, rank_ok=None, feasible=False, witnesses=(), culprit=culprit,
        note="" if culprit else "anchor-pairwise checks passed but no jointly "
                                "calibrated per-clique tables exist")


def format_report(report: ConsistencyReport, model: Model | None = None,
                  show_witnesses: bool = False) -> str:
    lines = [report.verdict]
    if model is not None:
        for clique, _ in report.witnesses:
            scope = ",".join(model.ordered_scope(clique))
            count = sum(1 for c in model.constraints if c.scope <= clique)
            lines.append(f"clique {{{scope}}}: {count} constraints")
    if report.culprit is not None:
        a, b = report.culprit
        lines.append("culprit: {%s} vs {%s}" % (",".join(sorted(a)), ",".join(sorted(b))))
    if report.note:
        lines.append(f"note: {report.note}")
    if show_witnesses:
        for _, table in report.witnesses:
            lines.append(dist.serialize_table(table).rstrip("\n"))
    return "\n".join(lines) + "\n"
