"""Decomposed solving: per-clique successive updating with propagation.

Each clique of an acyclic decomposition holds a dense table over its own
variables.  Each constraint lives in its home clique, the first one in
running-intersection order that holds its scope (`graphops.constraint_homes`).
The solver applies the single-constraint update with the largest current
residual, then re-calibrates the other cliques along the join tree, and
repeats until every residual is inside tolerance.

The update rule and the loop are `mce`'s (`Kernel`, `_successive`), the
same ones `mce.successive_solve` runs on the full joint; this module adds
the clique tables and the propagation.  All clique tables are slices of
one float64 state vector.  Propagation is Hugin's (Jensen, Lauritzen &
Olesen 1990): each join edge stores its separator marginal, and a pass
from the updated clique scales every receiver by the ratio of the
sender's new marginal to the stored one.  That is one marginalization per
edge, and a receiver stays normalized.  While no entry of the state
vector is below `PROB_FLOOR` a pass needs no zero-mass check, and each
edge costs four numpy calls: `bincount`, divide, gather, multiply.
Tables this small make the number of calls, not the arithmetic, the cost
of a step: on `tests/helpers.ring_model(16, 0)` the pass takes about 60%
of a step.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import dist, mce
from .dist import PROB_FLOOR, JointTable, marginalize
from .graphops import Decomposition, constraint_homes
from .mce import SolverOptions, UnreachableConstraintError, UpdateTrace
from .model import Constraint, Literal, Model


@dataclass
class CliqueState:
    clique: frozenset[str]
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
    snapshots: Sequence[list[JointTable]]  # clique tables at each cycle boundary
    final_residuals: tuple[float, ...]  # magnitudes, constraint declaration order
    converged: bool
    cycles: int
    trace: UpdateTrace
    error: str | None = None


class _Snapshots(Sequence):
    """The clique tables at each cycle boundary, kept as one copy of the
    state vector per cycle and built into tables when read."""

    def __init__(self, vectors: list[np.ndarray],
                 tables: Callable[[np.ndarray], list[JointTable]]):
        self._vectors = vectors
        self._tables = tables

    def __len__(self) -> int:
        return len(self._vectors)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._tables(q) for q in self._vectors[i]]
        return self._tables(self._vectors[i])


def _join_edges(model: Model, d: Decomposition) -> tuple[JoinEdge, ...]:
    return tuple(JoinEdge(i, d.rip.anchors[i], model.ordered_scope(d.rip.separator(i)))
                 for i in range(1, len(d.rip.order)))


def solve_decomposed(model: Model, d: Decomposition,
                     opts: SolverOptions | None = None,
                     record: bool = True) -> SolveReport:
    """Successive updating over the cliques of a decomposition.

    One cycle is one constraint application per constraint in the model;
    at every step the solver picks a constraint, applies its closed-form
    update to its clique, and eagerly re-calibrates the other cliques
    along the join tree.  The gradient schedule picks the largest-residual
    constraint (ties by declaration order); round-robin applies step s of
    each cycle to the s-th constraint in declaration order.
    With record=False the trace and per-cycle snapshots are skipped.
    """
    opts = opts or SolverOptions()
    homes = constraint_homes(model, d)
    scopes = [model.ordered_scope(c) for c in d.rip.order]
    offsets = np.cumsum([0] + [1 << len(s) for s in scopes]).tolist()
    p = np.concatenate([dist.uniform(s).probs for s in scopes])
    views = [p[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    edges = _join_edges(model, d)
    kernels = [mce.Kernel(c, scopes[home], home, offsets[home])
               for c, home in zip(model.constraints, homes)]

    # One stored marginal per join edge; the uniform start is calibrated.
    # At the end of every pass each stored entry is a sum of current
    # entries of p, so while p has no entry below PROB_FLOOR no stored
    # entry has one either and the zero-mass check can be skipped.
    stored: list[np.ndarray] = []
    adjacency: dict[int, list[tuple[int, int, np.ndarray, np.ndarray]]] = {}
    for e in edges:
        if not e.separator:
            continue
        sub_c = dist.project_index(scopes[e.child], e.separator)
        sub_p = dist.project_index(scopes[e.parent], e.separator)
        adjacency.setdefault(e.child, []).append((e.parent, len(stored), sub_c, sub_p))
        adjacency.setdefault(e.parent, []).append((e.child, len(stored), sub_p, sub_c))
        stored.append(dist.uniform(e.separator).probs.copy())

    # per start clique, the directed edges (edge, sender, receiver,
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

    def tables(q: np.ndarray) -> list[JointTable]:
        return [JointTable(s, q[lo:hi] / q[lo:hi].sum())
                for s, lo, hi in zip(scopes, offsets, offsets[1:])]

    vectors: list[np.ndarray] = []
    run = mce._successive(p, kernels, opts, record, propagate,
                          (lambda: vectors.append(p.copy())) if record else None)
    states = [CliqueState(cl, s, t, tuple(k.constraint for k in kernels if k.table == i))
              for i, (cl, s, t) in enumerate(zip(d.rip.order, scopes, tables(p)))]
    trace = UpdateTrace(tuple(run.events), run.converged, run.cycles)
    return SolveReport(states, edges, _Snapshots(vectors, tables), run.magnitudes,
                       run.converged, run.cycles, trace, None if run.error is None else str(run.error))


def query(report: SolveReport, event: list[Literal], given: list[Literal] = ()) -> float:
    """Probability of `event` (optionally conditioned) read from the first
    clique containing every queried variable."""
    names = {l.name for l in event} | {l.name for l in given}
    unknown = sorted(names.difference(*(s.clique for s in report.cliques)))
    if unknown:
        raise ValueError(f"unknown variable {unknown[0]!r}")
    for state in report.cliques:
        if names <= state.clique:
            if given:
                given_mask = dist.event_mask(state.scope, given)
                denom = float(state.table.probs[given_mask].sum())
                if denom < PROB_FLOOR:
                    raise ValueError("conditioning event has zero probability")
                num = float(state.table.probs[
                    given_mask & dist.event_mask(state.scope, event)].sum())
                return num / denom
            return dist.probability(state.table, event)
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
    marginals.  The returned SolveReport comes from one extra recorded,
    untimed run.
    """
    opts = opts or SolverOptions()
    timed_opts = replace(opts, tolerance=opts.tolerance or mce.DEFAULT_SUCCESSIVE_TOL)
    prior = dist.uniform(model.names)

    dual_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        joint = mce.mce_dual_solve(prior, model.constraints, timed_opts)
        dual_best = min(dual_best, time.perf_counter() - t0)

    succ_best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve_decomposed(model, d, timed_opts, record=False)
        succ_best = min(succ_best, time.perf_counter() - t0)
    report = solve_decomposed(model, d, timed_opts)

    deviation = 0.0
    for state in report.cliques:
        exact = marginalize(joint, state.scope)
        deviation = max(deviation, float(np.abs(exact.probs - state.table.probs).max()))
    return (BenchReport(dual_best, succ_best, deviation, timed_opts.tolerance), report, joint)


def format_bench(b: BenchReport) -> str:
    return (f"tolerance: {b.tolerance:g}\n"
            f"dual solve: {b.dual_seconds * 1e3:.3f} ms\n"
            f"decomposed successive: {b.successive_seconds * 1e3:.3f} ms\n"
            f"speedup: {b.speedup:.2f}x\n"
            f"max marginal deviation: {b.max_marginal_deviation:.2e}\n")
