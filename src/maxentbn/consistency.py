"""Constraint-consistency checking.

A constraint set is satisfiable iff its homogeneous linear encoding (a
`LinearSystem`, one row per constraint) has a nonnegative, normalized
solution.  Globally: a null-space rank test as a fast necessary filter,
then one LP over all 2^n states.  Locally, on an acyclic decomposition:
one LP over the clique tables joined on their separators.  The LP
writes each row from `dist.constraint_sides` into one reused buffer;
only the rank test (K >= 2^n) and `mce.DualProblem` read the dense rows.

scipy is imported on first use, by the LP alone (`_tree_witnesses`
builds its sparse matrix, `_solve_feasible` runs it); the rank test's
SVD is numpy's, so a check that the rank test settles loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import dist
from .dist import SCOPE_CAP, JointTable
from .graphops import Decomposition, constraint_homes
from .model import Constraint, ConstraintSet, Model

NULLSPACE_TOL = 1e-10


def _write_row(out: np.ndarray, scope: tuple[str, ...], c: Constraint) -> None:
    """Write c's row, (1-v)*sum(a) - v*sum(b) = 0, into the zeros of `out`,
    with (a, b) from `dist.constraint_sides`: a = E&x, b = E&~x for P(x|E)=v."""
    a, b = dist.constraint_sides(scope, c)
    out[a], out[b] = 1.0 - c.value, -c.value


@dataclass(frozen=True)
class LinearSystem:
    """Homogeneous encoding of the constraints over one scope, a row each
    (`matrix`, right-hand side 0); the normalization row is implied."""

    scope: tuple[str, ...]
    constraints: tuple[Constraint, ...]

    @property
    def size(self) -> int:
        return 1 << len(self.scope)

    @property
    def matrix(self) -> np.ndarray:
        """The K x 2^n rows, built anew from the constraints when read."""
        out = np.zeros((len(self.constraints), self.size))
        for row, c in zip(out, self.constraints):
            _write_row(row, self.scope, c)
        return out


def to_linear(cs: ConstraintSet, scope: Sequence[str]) -> LinearSystem:
    """The system of every constraint whose variables fit in `scope`."""
    return LinearSystem(tuple(scope), tuple(c for c in cs if c.scope <= set(scope)))


def rank_nontrivial(ls: LinearSystem) -> bool:
    """The necessary condition: the homogeneous system admits a nonzero
    solution (otherwise no distribution can satisfy the constraints), so
    its rank is below the number of states: always, with fewer rows than
    states; else as counted by singular values above NULLSPACE_TOL times the largest."""
    if len(ls.constraints) < ls.size:
        return True
    s = np.linalg.svd(ls.matrix, compute_uv=False)
    return int(np.sum(s > NULLSPACE_TOL * np.amax(s, initial=0.0))) < ls.size


def _solve_feasible(a_aug, b_eq: np.ndarray, presolve: bool) -> np.ndarray | None:
    """Nonnegative solution of a_eq x = b_eq, or None, from the sparse
    augmented matrix a_aug = (a_eq | a_eq 1).

    Among feasible points, maximizes the smallest entry t so witnesses
    stay interior whenever the constraints allow it (a pure vertex
    solution may park whole conditioning events at zero mass).  Written
    as x = y + t*1 with y >= 0, the bounds t <= x_j need no rows: the LP
    is a_eq y + (a_eq 1) t = b_eq with 0 <= t <= 1, and x is y + t.

    `presolve` switches HiGHS's presolve; the LP handed over, its status
    and its optimal t are the same either way.  It pays on tables coupled
    through separator rows.  On one table, whose rows are each a quarter
    to half dense over all its states, it costs more time and memory
    than the simplex solve it prepares (README gives the timings).
    """
    import scipy.optimize
    n = a_aug.shape[1] - 1
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = scipy.optimize.linprog(
        c=c, A_eq=a_aug, b_eq=b_eq,
        bounds=[(0.0, None)] * n + [(0.0, 1.0)], method="highs",
        options={"presolve": presolve})
    if res.status == 0:
        return np.maximum(res.x[:n] + res.x[-1], 0.0)
    if res.status == 2:
        return None
    raise RuntimeError(f"feasibility solve failed: {res.message}")


def nonneg_feasible(ls: LinearSystem) -> np.ndarray | None:
    """A probability vector satisfying all rows, found by the LP, or None."""
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
    import scipy.sparse
    offs, edges = dist.join_layout([ls.scope for ls in systems], anchors)
    # (a_eq | a_eq 1) as triplets: table by table its rows and normalization row,
    # then separator blocks; sums is the last column
    rows, cols, vals, sums, b_eq = [], [], [], [], []
    dense_row = np.zeros(offs[-1])  # sums a row in the order a dense a_eq does
    for i, ls in enumerate(systems):
        lo, hi = offs[i], offs[i + 1]
        row = dense_row[lo:hi]
        for c in ls.constraints:
            _write_row(row, ls.scope, c)
            at = np.flatnonzero(row)
            rows.append(np.full(at.size, len(b_eq)))
            cols.append(lo + at)
            vals.append(row[at])
            sums.append(dense_row.sum())
            b_eq.append(0.0)
            row[:] = 0.0
        rows.append(np.full(ls.size, len(b_eq)))
        cols.append(np.arange(lo, hi))
        vals.append(np.ones(ls.size))
        sums.append(float(ls.size))
        b_eq.append(1.0)
    for i, j, sep, sub_i, sub_j in edges:
        if sep:
            for t, sub, sign in ((i, sub_i, 1.0), (j, sub_j, -1.0)):
                rows.append(len(b_eq) + sub)
                cols.append(offs[t] + np.arange(sub.size))
                vals.append(np.full(sub.size, sign))
            # each separator state has the same count of entries in each table
            sums += [(systems[i].size - systems[j].size) / (1 << len(sep))] * (1 << len(sep))
            b_eq += [0.0] * (1 << len(sep))
    at = np.flatnonzero(sums)  # dense-to-sparse drops zero coefficients
    rows.append(at)
    cols.append(np.full(at.size, offs[-1]))
    vals.append(np.asarray(sums)[at])
    # int32 indices, as the CSC arrays take, so that no int64 copy is kept
    rows, cols = (np.concatenate(x, dtype=np.int32) for x in (rows, cols))
    a_aug = scipy.sparse.csc_matrix((np.concatenate(vals), (rows, cols)),
                                    shape=(len(b_eq), offs[-1] + 1))
    del rows, cols, vals  # freed before HiGHS runs, which lowers the peak RSS
    # presolve pays only where separator rows couple tables
    x = _solve_feasible(a_aug, np.array(b_eq), presolve=len(systems) > 1)
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


def global_consistent(model: Model) -> ConsistencyReport:
    """Global check over the full state space: rank pre-test first,
    then nonnegative feasibility."""
    if len(model.names) > SCOPE_CAP:
        raise ValueError(
            f"{len(model.names)} variables exceed the global-check cap "
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


def local_check(model: Model, d: Decomposition) -> ConsistencyReport:
    """Consistency over an acyclic decomposition, checked clique-locally.

    Every constraint must have a home clique (`graphops.constraint_homes`).
    One joint per-clique feasibility problem along the running-intersection
    order decides, and yields witnesses that calibrate on the separators.
    When it is infeasible, the culprit is the first failing relaxation of
    it: the first clique alone, then each later clique paired with its
    anchor.  All of these pass only when the chain of pairwise checks
    misses a longer-range contradiction.  Each of these LPs writes its rows
    from the constraints (`dist.constraint_sides`) as it is built, so a
    clique is encoded once for each LP that holds it; the LP costs far more.
    """
    constraint_homes(model, d)
    order, anchors = d.rip.order, d.rip.anchors
    systems = [to_linear(model.constraints, model.ordered_scope(c)) for c in order]
    sol = _tree_witnesses(systems, anchors)
    if sol is not None:
        return ConsistencyReport(True, rank_ok=None, feasible=True, witnesses=tuple(
            (c, JointTable(ls.scope, p)) for c, ls, p in zip(order, systems, sol)))
    # with one clique, the first relaxation is the LP that just failed
    if len(systems) == 1 or nonneg_feasible(systems[0]) is None:
        culprit = (order[0], order[0])
    else:
        culprit = next(((order[i], order[j]) for i, j in enumerate(anchors)
                        if i and _tree_witnesses([systems[i], systems[j]], (None, 0)) is None),
                       None)
    return ConsistencyReport(
        False, rank_ok=None, feasible=False, witnesses=(), culprit=culprit,
        note="" if culprit else "anchor-pairwise checks passed but no jointly "
                                "calibrated per-clique tables exist")
