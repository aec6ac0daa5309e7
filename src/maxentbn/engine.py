"""Decomposed solving: successive updating on join-tree tables with propagation.

Each constraint lives in its home clique, the first clique of an acyclic
decomposition in running-intersection order that holds its scope
(`graphops.constraint_homes`).  The solver applies the single-constraint
update with the largest current residual, re-calibrates the other tables
along the join tree, and repeats until every residual is inside
tolerance.

The update rule and the loop are `mce`'s (`Kernel`, `_successive`), the
same ones `mce.successive_solve` runs on the full joint; this module adds
the tables and the propagation.  The tables are those of a coarser
junction tree, the solver tree (`graphops.merge_cliques`): walking the
running-intersection order, each clique joins its anchor's table while
the merged scope has at most SOLVER_TABLE_VARS variables.  All tables are
slices of one float64 state vector.  Propagation is Hugin's (Jensen,
Lauritzen & Olesen 1990): each join edge stores its separator marginal,
and a pass from the updated table scales every receiver by the ratio of
the sender's new marginal to the stored one.  That is one
marginalization per edge, and a receiver stays normalized.  While no
entry of the state vector is below `PROB_FLOOR` a pass needs no
zero-mass check, and each edge costs four numpy calls: `bincount`,
divide, gather, multiply.  At 32 states a table is so small that the
number of calls, not the arithmetic, sets the cost of a step, so fewer
and larger tables make a step cheaper.  On `tests/helpers.ring_model(16,
0)` the twelve 32-state cliques become six 64-state tables; an update
took about 40 us instead of 55-66, and the pass 43% of it instead of
64% (2-vCPU VM).  On the benchmark's decomposed-solve models a budget
of 7 variables was no faster and one of 8 was slower: larger tables make
the scan of the constraints' sides grow.  The report stays per clique of
the decomposition: its tables, built at the end, are marginals of the
merged tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import dist, mce
from .dist import PROB_FLOOR, JointTable, marginalize
from .graphops import Decomposition, constraint_homes, merge_cliques
from .mce import UpdateTrace
from .model import Constraint, Literal, Model
from .options import DEFAULT_SUCCESSIVE_TOL, SolverOptions, UnreachableConstraintError

# The solver merges cliques into tables of at most this many variables
# (64 states); see the module docstring for how it was chosen.
SOLVER_TABLE_VARS = 6


@dataclass
class CliqueState:
    scope: tuple[str, ...]
    table: JointTable
    constraints: tuple[Constraint, ...]


@dataclass(frozen=True)
class JoinEdge:
    child: int       # index into the RIP order
    parent: int      # the child's anchor
    separator: tuple[str, ...]


@dataclass
class SolveReport:
    cliques: list[CliqueState]
    join_edges: tuple[JoinEdge, ...]
    final_residuals: tuple[float, ...]  # magnitudes, constraint declaration order
    converged: bool
    cycles: int
    trace: UpdateTrace
    error: str | None = None


def solve_decomposed(model: Model, d: Decomposition,
                     opts: SolverOptions | None = None,
                     record: bool = True) -> SolveReport:
    """Successive updating over the cliques of a decomposition.

    One cycle is one constraint application per constraint in the model;
    at every step the solver picks a constraint, applies its closed-form
    update to its table, and eagerly re-calibrates the other tables
    along the join tree.  The gradient schedule picks the largest-residual
    constraint (ties by declaration order); round-robin applies step s of
    each cycle to the s-th constraint in declaration order.
    The tables are those of the solver tree, `d`'s cliques merged into
    groups of up to SOLVER_TABLE_VARS variables (`graphops.merge_cliques`);
    the report's tables and join edges are per clique of `d`, each table
    a marginal of its group's.  With record=False the trace is skipped.
    """
    opts = opts or SolverOptions()
    homes = constraint_homes(model, d)
    tree = merge_cliques(d, SOLVER_TABLE_VARS)
    scopes = [model.ordered_scope(c) for c in tree.rip.order]
    offsets, edges = dist.join_layout(scopes, tree.rip.anchors)
    p = np.concatenate([dist.uniform(s).probs for s in scopes])
    views = [p[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    # a constraint's table is its home clique's group, which is, by the
    # running intersection, the first group whose scope holds it
    kernels = [mce.Kernel(c, scopes[g], g, offsets[g])
               for c, g in zip(model.constraints, (tree.groups[h] for h in homes))]

    # One stored marginal per join edge; the uniform start is calibrated.
    # At the end of every pass each stored entry is a sum of current
    # entries of p, so while p has no entry below PROB_FLOOR no stored
    # entry has one either and the zero-mass check can be skipped.
    stored: list[np.ndarray] = []
    adjacency: dict[int, list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
    for child, parent, sep, sub_c, sub_p in edges:
        if sep:
            adjacency.setdefault(child, []).append((parent, len(stored), sub_c, sub_p))
            adjacency.setdefault(parent, []).append((child, len(stored), sub_p, sub_c))
            stored.append(dist.uniform(sep).probs.copy())

    # per start table, the directed edges (edge, sender, receiver,
    # sub_sender, sub_receiver, separator states) in depth-first order
    passes = []
    for start in range(len(scopes)):
        out, stack = [], [(start, -1)]
        while stack:
            node, came = stack.pop()
            for other, e, sub_n, sub_o in adjacency.get(node, ()):
                if other != came:
                    out.append((e, views[node], views[other], sub_n, sub_o, stored[e].size))
                    stack.append((other, node))
        passes.append(out)

    def propagate(start: int, floor_free: bool) -> None:
        """Hugin pass from `start`: each receiver is scaled by the ratio
        of the sender's separator marginal to the stored one."""
        if floor_free:
            for e, send, recv, sub_n, sub_o, ns in passes[start]:
                new = np.bincount(sub_n, send, ns)
                recv *= (new / stored[e])[sub_o]
                stored[e] = new
            return
        for e, send, recv, sub_n, sub_o, ns in passes[start]:
            new = np.bincount(sub_n, send, ns)
            old = stored[e]
            if np.any((new > PROB_FLOOR) & (old < PROB_FLOOR)):
                raise UnreachableConstraintError(
                    "separator marginal is positive where the "
                    "receiving clique has zero mass")
            recv *= np.divide(new, old, out=np.zeros(ns), where=old > 0.0)[sub_o]
            stored[e] = new

    trace, magnitudes, error = mce._successive(p, kernels, opts, record, propagate)
    # each clique of d reads its marginal of its group's slice of p
    states, cliques = [], [model.ordered_scope(cl) for cl in d.rip.order]
    for i, (s, g) in enumerate(zip(cliques, tree.groups)):
        m = np.bincount(dist.project_index(scopes[g], s), views[g], 1 << len(s))
        states.append(CliqueState(s, JointTable(s, m / m.sum()),
                                  tuple(c for c, h in zip(model.constraints, homes) if h == i)))
    join_edges = tuple(JoinEdge(*e[:3]) for e in dist.join_layout(cliques, d.rip.anchors)[1])
    return SolveReport(states, join_edges, magnitudes, trace.converged,
                       trace.cycles, trace, None if error is None else str(error))


def query(report: SolveReport, event: list[Literal], given: list[Literal] = ()) -> float:
    """Probability of `event` (optionally conditioned) read from the first
    clique containing every queried variable."""
    order = [l.name for l in (*event, *given)]  # unknown names are reported in this order
    known = {v for s in report.cliques for v in s.scope}
    for v in order:
        if v not in known:
            raise ValueError(f"unknown variable {v!r}")
    names = set(order)
    for state in report.cliques:
        if names.issubset(state.scope):
            denom = dist.probability(state.table, given) if given else 1.0
            if denom < PROB_FLOOR:
                raise ValueError("conditioning event has zero probability")
            return dist.probability(state.table, [*given, *event]) / denom
    raise ValueError(
        f"variables {sorted(names)} span multiple cliques; answering would "
        "need cross-clique propagation, which this tool does not perform")


@dataclass(frozen=True)
class BenchReport:
    dual_seconds: float
    successive_seconds: float
    max_marginal_deviation: float
    tolerance: float

    @property
    def speedup(self) -> float:
        return self.dual_seconds / self.successive_seconds


def bench(model: Model, d: Decomposition, opts: SolverOptions | None = None,
          repeats: int = 3) -> tuple[BenchReport, SolveReport, JointTable]:
    """Time the full-joint dual solve against decomposed successive
    updating at the same residual tolerance.

    Reports the smallest wall time over `repeats` runs of each method
    (timed runs skip trace recording) and the largest per-state gap
    between the decomposed clique tables and the exact joint's
    marginals.  The returned SolveReport is the last timed run's, so it
    carries no trace.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    opts = opts or SolverOptions()
    timed_opts = replace(opts, tolerance=opts.tolerance or DEFAULT_SUCCESSIVE_TOL)
    prior = dist.uniform(model.names)

    dual_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        joint = mce.mce_dual_solve(prior, model.constraints, timed_opts)
        dual_best = min(dual_best, time.perf_counter() - t0)

    succ_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = solve_decomposed(model, d, timed_opts, record=False)
        succ_best = min(succ_best, time.perf_counter() - t0)

    deviation = 0.0
    for state in report.cliques:
        exact = marginalize(joint, state.scope)
        deviation = max(deviation, float(np.abs(exact.probs - state.table.probs).max()))
    return (BenchReport(dual_best, succ_best, deviation, timed_opts.tolerance), report, joint)
