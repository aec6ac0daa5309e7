"""Decomposed solving: per-clique successive updating with propagation.

Each clique of an acyclic decomposition holds a dense table over its own
variables.  Constraints are assigned to the first clique (in
running-intersection order) containing their scope.  The solver applies
the single-constraint update with the largest current residual, then
pushes the changed clique's separator marginals outward along the join
tree, and repeats until every residual is inside tolerance.

The inner loop runs on plain floats with precomputed state-index lists:
clique tables at this tool's scale hold at most a few hundred entries,
where list arithmetic is well ahead of per-call array overhead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import dist, mce
from .dist import PROB_FLOOR, JointTable, marginalize
from .graphops import Decomposition
from .mce import (SolverOptions, TraceEvent, UnreachableConstraintError,
                  UpdateTrace, array_checksum)
from .model import ConditionalConstraint, Constraint, Literal, Model


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
    snapshots: list[list[JointTable]]  # clique tables at each cycle boundary
    final_residuals: tuple[float, ...]  # magnitudes, constraint declaration order
    converged: bool
    cycles: int
    trace: UpdateTrace
    error: str | None = None


def _subindex(scope: tuple[str, ...], sub: tuple[str, ...]) -> np.ndarray:
    """For each state of `scope`, the index of its restriction to `sub`."""
    k = len(scope)
    idx = np.arange(1 << k)
    out = np.zeros(1 << k, dtype=np.int64)
    for name in sub:
        pos = scope.index(name)
        out = (out << 1) | ((idx >> (k - 1 - pos)) & 1)
    return out


def subset_marginal_update(table: JointTable, new_marginal: JointTable) -> JointTable:
    """Scale each block of the table so its marginal on the subscope
    equals `new_marginal` (partial Jeffrey update); conditionals within
    each block are untouched."""
    sub = new_marginal.scope
    if not set(sub) <= set(table.scope):
        raise ValueError(f"{sub} is not a subscope of {table.scope}")
    subidx = _subindex(table.scope, sub)
    current = np.bincount(subidx, weights=table.probs, minlength=new_marginal.probs.size)
    target = new_marginal.probs
    if np.any((target > PROB_FLOOR) & (current < PROB_FLOOR)):
        raise UnreachableConstraintError(
            "new marginal is positive where the current marginal is zero")
    factors = np.divide(target, current, out=np.zeros_like(target),
                        where=current > 0.0)
    out = table.probs * factors[subidx]
    return JointTable(table.scope, out / out.sum())


def _assign_constraints(model: Model, d: Decomposition) -> list[int]:
    """Clique index (first fit in RIP order) per constraint, declaration
    order."""
    homes = []
    for c in model.constraints:
        for i, clique in enumerate(d.rip.order):
            if c.scope <= clique:
                homes.append(i)
                break
        else:
            raise ValueError(f"constraint {c} fits in no clique")
    return homes


def _join_edges(model: Model, d: Decomposition) -> tuple[JoinEdge, ...]:
    edges = []
    for i in range(1, len(d.rip.order)):
        j = d.rip.anchors[i]
        sep = model.ordered_scope(d.rip.separator(i))
        edges.append(JoinEdge(i, j, sep))
    return tuple(edges)


class _Kernel:
    """One constraint against its home clique, as flat index lists."""

    __slots__ = ("constraint", "clique", "value", "conditional", "a_idx", "b_idx")

    def __init__(self, c: Constraint, clique: int, scope: tuple[str, ...]):
        self.constraint = c
        self.clique = clique
        self.value = c.value
        self.conditional = isinstance(c, ConditionalConstraint)
        if self.conditional:
            cond = dist.event_mask(scope, c.condition)
            tgt = dist.event_mask(scope, [c.target])
            self.a_idx = np.flatnonzero(cond & tgt).tolist()    # event, target holds
            self.b_idx = np.flatnonzero(cond & ~tgt).tolist()   # event, target fails
        else:
            ev = dist.event_mask(scope, c.literals)
            self.a_idx = np.flatnonzero(ev).tolist()
            self.b_idx = np.flatnonzero(~ev).tolist()

    def residual(self, p: list[float]) -> float | None:
        """Signed residual, or None when the conditioning event is empty."""
        s1 = 0.0
        for i in self.a_idx:
            s1 += p[i]
        if not self.conditional:
            return s1 - self.value
        s0 = 0.0
        for i in self.b_idx:
            s0 += p[i]
        if s1 + s0 < PROB_FLOOR:
            return None
        return s1 / (s1 + s0) - self.value

    def apply(self, p: list[float]) -> None:
        """In-place single-constraint update; mirrors the closed-form
        rules in `mce` (jeffrey_raw / conditional_raw)."""
        label = str(self.constraint)
        s1 = 0.0
        for i in self.a_idx:
            s1 += p[i]
        s0 = 0.0
        for i in self.b_idx:
            s0 += p[i]
        v = self.value
        if self.conditional:
            if s1 + s0 < PROB_FLOOR:
                raise UnreachableConstraintError(
                    f"{label}: conditioning event has zero prior probability")
            if v >= 1.0 or v <= 0.0:
                keep_mass, drop = (s1, self.b_idx) if v >= 1.0 else (s0, self.a_idx)
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
                f0 = t ** v
                f1 = t ** (v - 1.0)
                for i in self.b_idx:
                    p[i] *= f0
                for i in self.a_idx:
                    p[i] *= f1
        else:
            if v > 0.0 and s1 < PROB_FLOOR:
                raise UnreachableConstraintError(
                    f"{label}: event has zero prior probability")
            if v < 1.0 and 1.0 - s1 < PROB_FLOOR:
                raise UnreachableConstraintError(
                    f"{label}: complement has zero prior probability")
            fin = v / s1 if v > 0.0 else 0.0
            fout = (1.0 - v) / (1.0 - s1) if v < 1.0 else 0.0
            for i in self.a_idx:
                p[i] *= fin
            for i in self.b_idx:
                p[i] *= fout
        total = 0.0
        for x in p:
            total += x
        inv = 1.0 / total
        for i in range(len(p)):
            p[i] *= inv


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
    tol = opts.tolerance if opts.tolerance is not None else mce.DEFAULT_SUCCESSIVE_TOL
    homes = _assign_constraints(model, d)
    scopes = [model.ordered_scope(c) for c in d.rip.order]
    probs: list[list[float]] = [dist.uniform(s).probs.tolist() for s in scopes]
    edges = _join_edges(model, d)
    kernels = [_Kernel(c, home, scopes[home])
               for c, home in zip(model.constraints, homes)]

    # per-direction propagation maps: (other, sub_self, sub_other, sep size)
    adjacency: dict[int, list[tuple[int, list[int], list[int], int]]] = {}
    for e in edges:
        if not e.separator:
            continue
        ns = 1 << len(e.separator)
        sub_c = _subindex(scopes[e.child], e.separator).tolist()
        sub_p = _subindex(scopes[e.parent], e.separator).tolist()
        adjacency.setdefault(e.child, []).append((e.parent, sub_c, sub_p, ns))
        adjacency.setdefault(e.parent, []).append((e.child, sub_p, sub_c, ns))

    def propagate(start: int) -> None:
        stack = [(start, -1)]
        while stack:
            node, came = stack.pop()
            for other, sub_n, sub_o, ns in adjacency.get(node, ()):
                if other == came:
                    continue
                pn, po = probs[node], probs[other]
                marg_n = [0.0] * ns
                for i, s in enumerate(sub_n):
                    marg_n[s] += pn[i]
                marg_o = [0.0] * ns
                for i, s in enumerate(sub_o):
                    marg_o[s] += po[i]
                if max(abs(a - b) for a, b in zip(marg_n, marg_o)) <= 1e-15:
                    continue
                factors = [0.0] * ns
                for s in range(ns):
                    if marg_n[s] > PROB_FLOOR and marg_o[s] < PROB_FLOOR:
                        raise UnreachableConstraintError(
                            "separator marginal is positive where the "
                            "receiving clique has zero mass")
                    if marg_o[s] > 0.0:
                        factors[s] = marg_n[s] / marg_o[s]
                total = 0.0
                for i, s in enumerate(sub_o):
                    po[i] *= factors[s]
                    total += po[i]
                inv = 1.0 / total
                for i in range(len(po)):
                    po[i] *= inv
                stack.append((other, node))

    def tables() -> list[JointTable]:
        out = []
        for s, p in zip(scopes, probs):
            arr = np.array(p)
            out.append(JointTable(s, arr / arr.sum()))
        return out

    n = len(kernels)
    events: list[TraceEvent] = []
    snapshots: list[list[JointTable]] = []
    converged = n == 0
    error = None
    cycle = 0
    cycles_used = 0
    while cycle < opts.max_cycles and not converged and error is None:
        cycle += 1
        applied_this_cycle = 0
        for step in range(n):
            best, best_mag, best_resid = -1, -1.0, None
            for j, k in enumerate(kernels):
                r = k.residual(probs[k.clique])
                mag = 1.0 if r is None else abs(r)
                if mag > best_mag:
                    best, best_mag, best_resid = j, mag, r
            if best_mag <= tol:
                converged = True
                break
            if opts.schedule == mce.SCHEDULE_ROUND_ROBIN:
                best = step
                best_resid = kernels[step].residual(probs[kernels[step].clique])
            k = kernels[best]
            try:
                k.apply(probs[k.clique])
                propagate(k.clique)
            except UnreachableConstraintError as exc:
                error = str(exc)
                break
            applied_this_cycle += 1
            if record:
                events.append(TraceEvent(cycle, k.constraint, best_resid,
                                         array_checksum(np.array(probs[k.clique]))))
        if applied_this_cycle:
            cycles_used = cycle
            if record:
                snapshots.append(tables())
    final_tables = tables()
    final_resids = [k.residual(probs[k.clique]) for k in kernels]
    final_mags = tuple(1.0 if r is None else abs(r) for r in final_resids)
    if error is None and not converged:
        converged = max(final_mags, default=0.0) <= tol
    states = [CliqueState(cl, s, t, tuple(k.constraint for k in kernels if k.clique == i))
              for i, (cl, s, t) in enumerate(zip(d.rip.order, scopes, final_tables))]
    trace = UpdateTrace(tuple(events), converged, cycles_used)
    return SolveReport(states, edges, snapshots, final_mags, converged,
                       cycles_used, trace, error)


def query(report: SolveReport, event: list[Literal], given: list[Literal] = ()) -> float:
    """Probability of `event` (optionally conditioned) read from the first
    clique containing every queried variable."""
    names = {l.name for l in event} | {l.name for l in given}
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
    opts = opts or SolverOptions(tolerance=1e-4)
    tol = opts.tolerance if opts.tolerance is not None else 1e-4
    timed_opts = SolverOptions(tolerance=tol, max_iterations=opts.max_iterations,
                               max_cycles=opts.max_cycles, schedule=opts.schedule)
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
    return (BenchReport(dual_best, succ_best, deviation, tol), report, joint)


def format_bench(b: BenchReport) -> str:
    return (f"tolerance: {b.tolerance:g}\n"
            f"dual solve: {b.dual_seconds * 1e3:.3f} ms\n"
            f"decomposed successive: {b.successive_seconds * 1e3:.3f} ms\n"
            f"speedup: {b.speedup:.2f}x\n"
            f"max marginal deviation: {b.max_marginal_deviation:.2e}\n")
