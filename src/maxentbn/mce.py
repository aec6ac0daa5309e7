"""Minimum-cross-entropy solvers for linear probability constraints.

Two routes to the same distribution:

* `mce_dual_solve` — exact convex optimization of the dual of the
  cross-entropy objective, constraints encoded as linear equalities; a
  dual value above -log min(prior) proves the set inconsistent.
* successive updating — one closed-form rule, `Kernel.apply`, projects a
  table onto a single constraint, and one loop, `_successive`, applies
  it under a gradient-threshold or round-robin schedule.  Every table of
  a solve is a slice of one flat float64 state vector, and every
  constraint reads P(a | a or b) = v over a pair of index arrays (a, b)
  into that vector: a conditional tilts the two halves of its
  conditioning event, and for a cell (b the complement of a) the same
  tilt gives Jeffrey's rule.  One `dist.side_scan` per step reads every
  residual and the update's two masses; the dual's Newton stop reads
  its points with the same scan.  `successive_solve` runs the loop on a
  vector that is the full joint; `engine.solve_decomposed` on one that
  holds the tables of a join tree, with Hugin propagation after each
  update.

The tables are small (8 to 128 states on the benchmark's models), so a
step costs what its numpy calls cost, and each step makes a fixed few:
the scan, the argmax that picks the kernel, one `argmin` whose entry
tells the scan whether it may skip its zero-mass guard, and the update.  An
interior update is one multiply of the table's slice by a three-entry
factor, indexed by each state's side, that also renormalizes it.

Both assume strictly positive priors away from constraint boundaries;
boundary values (0 or 1) are applied as hard conditioning.  Only the
dual's CG stage uses scipy, imported on first use.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from . import consistency, dist
from .dist import JointTable, PROB_FLOOR, residuals
from .model import Constraint
from .options import (DEFAULT_DUAL_TOL, DEFAULT_SUCCESSIVE_TOL, SCHEDULE_GRADIENT,
                      SCHEDULE_ROUND_ROBIN, ConvergenceError, SolverOptions,
                      UnreachableConstraintError)


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    constraint: Constraint
    residual_before: float | None  # signed; None if undefined at selection


class UpdateLog(Sequence):
    """The updates of a recorded loop, held as two flat columns: the
    kernel index and the signed residual before the update (NaN where
    undefined), 16 bytes an update.  Every cycle but the last applies
    one update per kernel, so update j is in cycle j // K + 1 for K
    kernels.  A TraceEvent is built only when read.  Only the loop that
    fills the log appends to it."""

    def __init__(self, constraints: Sequence[Constraint]):
        self._constraints = tuple(constraints)  # by kernel index
        self._kernels = array("q")
        self._residuals = array("d")

    def append(self, kernel: int, residual: float) -> None:
        self._kernels.append(kernel)
        self._residuals.append(residual)

    def __len__(self) -> int:
        return len(self._residuals)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._event, range(len(self))[i]))
        return self._event(range(len(self))[i])

    def __eq__(self, other) -> bool:  # equal to the tuple of its events
        if not isinstance(other, (tuple, UpdateLog)):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:  # no object address: equal logs print alike
        return f"UpdateLog({len(self)} updates)"

    def _event(self, j: int) -> TraceEvent:
        r = self._residuals[j]
        return TraceEvent(j // len(self._constraints) + 1,
                          self._constraints[self._kernels[j]], None if math.isnan(r) else r)


@dataclass(frozen=True)
class UpdateTrace:
    events: Sequence[TraceEvent]  # an UpdateLog when the loop recorded
    converged: bool
    cycles: int


class Kernel:
    """One constraint on one table, held as the slice `lo:hi` of the
    solver's flat float64 state vector: `code` marks each state of the
    slice 1 where the constraint's event holds (side a), 2 where it
    fails (side b) and 0 outside both (see `dist.constraint_sides`).
    `table` says which of the solver's tables the slice is."""

    __slots__ = ("constraint", "table", "code", "lo", "hi")

    def __init__(self, c: Constraint, scope: tuple[str, ...], table: int = 0,
                 offset: int = 0):
        a, b = dist.constraint_sides(scope, c)
        self.constraint = c
        self.table = table
        self.lo, self.hi = offset, offset + a.size
        self.code = a + 2 * b

    def apply(self, p: np.ndarray, s1: float, s0: float) -> None:
        """In-place cross-entropy projection onto the constraint, given
        the current masses s1 of a and s0 of b.

        States outside a and b keep their relative weights; b is scaled
        by t^v and a by t^(v-1), where t = ((1-v) * s1) / (v * s0), and
        the table's slice is renormalized in the same multiply.  Boundary
        v is hard conditioning.
        """
        v = self.constraint.value
        if s1 + s0 < PROB_FLOOR:
            raise UnreachableConstraintError(
                f"{self.constraint}: conditioning event has zero prior probability")
        table = p[self.lo:self.hi]
        if v >= 1.0 or v <= 0.0:
            keep_mass, drop = (s1, 2) if v >= 1.0 else (s0, 1)
            if keep_mass < PROB_FLOOR:
                raise UnreachableConstraintError(
                    f"{self.constraint}: required half of the event has zero mass")
            table[self.code == drop] = 0.0
            table *= 1.0 / np.add.reduce(table)
        else:
            if s1 < PROB_FLOOR or s0 < PROB_FLOOR:
                raise UnreachableConstraintError(
                    f"{self.constraint}: prior cannot reach an interior conditional value")
            t = ((1.0 - v) * s1) / (v * s0)
            up, down = t ** (v - 1.0), t ** v
            g = 1.0 / (np.add.reduce(table).item() - s1 - s0 + s1 * up + s0 * down)
            table *= np.array((g, g * up, g * down))[self.code]


def conditional_update(prior: JointTable, c: Constraint) -> JointTable:
    """Closed-form cross-entropy projection onto one constraint, which then
    holds exactly: an exponential tilt for a conditional, Jeffrey's rule for a cell."""
    p = np.array(prior.probs)
    k = Kernel(c, prior.scope)
    k.apply(p, p[k.code == 1].sum(), p[k.code == 2].sum())
    return JointTable(prior.scope, p)


class DualProblem:
    """Dual of: minimize KL(p || prior) subject to the constraint set.

    Each constraint is its homogeneous row in `consistency.LinearSystem`,
    (1-v)*sum(a) - v*sum(b) = 0.  Normalization is folded into the
    partition function, so the dual over the row multipliers is smooth
    and concave with gradient equal to the linear-scale constraint
    residual.
    """

    def __init__(self, prior: JointTable, cs: Sequence[Constraint]):
        self.prior = prior
        self.matrix = consistency.LinearSystem(prior.scope, tuple(cs)).matrix
        self.scan = dist.constraint_scan(prior.scope, cs)
        self.bound = float(-np.log(prior.probs.min()))

    def evaluate(self, lam: np.ndarray) -> tuple[float, np.ndarray]:
        """The dual value -log Z(lam) (to be maximized) and the member p
        of the exponential family at lam.  By weak duality the value is
        at most the least KL(p || prior) among the set's solutions, and
        no KL exceeds `bound` = -log min(prior): a value above it proves
        the set inconsistent, and raises ConvergenceError."""
        expo = -(self.matrix.T @ lam)
        shift = expo.max()
        w = self.prior.probs * np.exp(expo - shift)
        z = w.sum()
        value = float(-(np.log(z) + shift))
        if value > self.bound:
            raise ConvergenceError(
                f"the constraint set is inconsistent: the dual reaches {value:.6g}, above "
                f"{self.bound:.6g}, the most cross-entropy to the prior any distribution has")
        return value, w / z

    def objective(self, lam: np.ndarray) -> float:
        return self.evaluate(lam)[0]

    def gradient(self, lam: np.ndarray) -> np.ndarray:
        return self.matrix @ self.evaluate(lam)[1]

    def hessian(self, p: np.ndarray) -> np.ndarray:
        """Hessian of the dual at the point whose family member is p:
        minus the covariance of the rows under p."""
        ap = self.matrix * p
        mean = ap.sum(axis=1)
        return -(ap @ self.matrix.T) + np.outer(mean, mean)


def _newton_polish(prob: DualProblem, lam: np.ndarray, tol: float,
                   max_iterations: int) -> tuple[np.ndarray, str | None]:
    """Damped Newton ascent from `lam` until residuals (conditional
    scale) are within tolerance.  Returns the last family member p and
    None, or how it stopped short: "stalled" or "reached its N-iteration cap"."""
    f, p = prob.evaluate(lam)
    for _ in range(max_iterations):
        if max(prob.scan(p)[2].max(), abs(p.sum() - 1.0)) <= tol:
            return p, None
        g = prob.matrix @ p
        h = prob.hessian(p)
        ridge = 1e-12 * (1.0 + np.trace(-h) / max(len(lam), 1))
        try:
            step = np.linalg.solve(-h + ridge * np.eye(len(lam)), g)
        except np.linalg.LinAlgError:
            step = g
        alpha = 1.0
        for _ in range(60):
            cand = lam + alpha * step
            fc, pc = prob.evaluate(cand)
            if fc > f + 1e-4 * alpha * float(g @ step):
                break
            alpha *= 0.5
        else:
            # objective flat to machine precision; a full Newton step may
            # still contract the gradient near the optimum
            cand = lam + step
            fc, pc = prob.evaluate(cand)
            if np.abs(prob.matrix @ pc).max() >= np.abs(g).max():
                return p, "stalled"  # flat, yet below the bound: not proven inconsistent
        lam, f, p = cand, fc, pc
    return p, f"reached its {max_iterations}-iteration cap"


def mce_dual_solve(prior: JointTable, cs: Sequence[Constraint],
                   opts: SolverOptions | None = None) -> JointTable:
    """Minimize cross-entropy to the prior subject to all constraints.

    Conjugate gradient on the dual does the bulk of the work; damped
    Newton steps finish to tolerance.  Both read each point they visit
    from one `DualProblem.evaluate`, which raises ConvergenceError once
    the dual value proves the set inconsistent.  Also raises it when the
    residuals stall, as boundary constraints can make them, or are still
    above tolerance after `max_iterations` Newton steps.
    """
    opts = opts or SolverOptions()
    tol = opts.tolerance if opts.tolerance is not None else DEFAULT_DUAL_TOL
    if prior.probs.min() <= 0.0:
        raise ValueError("dual solve requires a strictly positive prior")
    if len(cs) == 0:
        return prior
    import scipy.optimize
    prob = DualProblem(prior, cs)

    def negated(lam: np.ndarray) -> tuple[float, np.ndarray]:
        value, p = prob.evaluate(lam)
        return -value, -(prob.matrix @ p)

    res = scipy.optimize.minimize(negated, np.zeros(len(cs)), jac=True, method="CG",
                                  options={"maxiter": opts.max_iterations, "gtol": tol * 1e-2})
    p, short = _newton_polish(prob, res.x, tol, opts.max_iterations)
    table = JointTable(prior.scope, p)
    if short is not None:
        hint = ("the constraint set may contain boundary constraints" if short == "stalled"
                else "more iterations may converge, or prove the set inconsistent")
        raise ConvergenceError(
            f"dual solve {short} at max residual {residuals(table, cs).max_magnitude:.3g} "
            f"(tolerance {tol:g}); {hint}")
    return table


def _successive(p: np.ndarray, kernels: list[Kernel], opts: SolverOptions,
                record: bool = True,
                propagate: Callable[[int, bool], None] | None = None
                ) -> tuple[UpdateTrace, tuple[float, ...], UnreachableConstraintError | None]:
    """The successive-updating loop over the state vector `p`, in place.

    A cycle is K steps for K kernels, and the loop runs at most
    `max_cycles` cycles.  Each step first sets `floor_free`, that no
    entry of `p` is below `PROB_FLOOR`; then one `dist.side_scan` of the
    kernels' sides gives every residual, and the applied kernel its
    masses.  The gradient schedule applies the kernel with the largest
    residual magnitude (ties by kernel order); round-robin applies kernel
    `step % K`.  After each update `propagate(table, floor_free)` may
    re-calibrate the other tables.  Returns the trace (with `record`, an
    `UpdateLog` of the updates; else no events), the final residual
    magnitudes in kernel order and the error: an unreachable constraint
    stops the loop and is returned, not raised.
    """
    tol = opts.tolerance if opts.tolerance is not None else DEFAULT_SUCCESSIVE_TOL
    round_robin = opts.schedule == SCHEDULE_ROUND_ROBIN
    n = len(kernels)
    scan = dist.side_scan([(np.flatnonzero(k.code == 1) + k.lo, np.flatnonzero(k.code == 2) + k.lo)
                           for k in kernels], [k.constraint.value for k in kernels])
    log = UpdateLog(k.constraint for k in kernels) if record else None
    converged = n == 0
    error = None
    updates = 0
    for step in range(opts.max_cycles * n):
        floor_free = p.item(p.argmin()) >= PROB_FLOOR
        mass, r, mags = scan(p, floor_free)
        best = int(mags.argmax())
        if mags[best] <= tol:
            converged = True
            break
        if round_robin:
            best = step % n
        k = kernels[best]
        try:
            k.apply(p, mass.item(best), mass.item(n + best))
            if propagate is not None:
                propagate(k.table, floor_free)
        except UnreachableConstraintError as exc:
            error = exc
            break
        updates += 1
        if log is not None:
            log.append(best, r.item(best))
    cycles_used = -(-updates // (n or 1))  # every cycle but the last applies n updates
    mags = tuple(scan(p)[2].tolist())
    if error is None and not converged:
        converged = max(mags, default=0.0) <= tol
    return UpdateTrace(() if log is None else log, converged, cycles_used), mags, error


def successive_solve(prior: JointTable, cs: Sequence[Constraint],
                     opts: SolverOptions | None = None) -> tuple[JointTable, UpdateTrace]:
    """Repeatedly apply single-constraint updates to the full joint until
    every residual is within tolerance or the cycle limit is hit.

    The gradient-threshold schedule picks the constraint with the largest
    current residual magnitude (ties by declaration order); round-robin
    applies constraints in declaration order.  One cycle is one update
    per constraint.  Raises UnreachableConstraintError when an update
    meets zero mass where its constraint needs some.
    """
    p = np.array(prior.probs)
    trace, _, error = _successive(p, [Kernel(c, prior.scope) for c in cs], opts or SolverOptions())
    if error is not None:
        raise error
    return JointTable(prior.scope, p), trace
