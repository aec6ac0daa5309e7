"""Minimum-cross-entropy solvers for linear probability constraints.

Two routes to the same distribution:

* `mce_dual_solve` — exact convex optimization of the dual of the
  cross-entropy objective, constraints encoded as linear equalities.
* closed-form single-constraint updates — Jeffrey's rule for marginal
  (cell) constraints and the exponential-tilt rule for conditional
  constraints — composed by `successive_solve` under a gradient-threshold
  or round-robin schedule.

Both assume strictly positive priors away from constraint boundaries;
boundary values (0 or 1) are applied as hard conditioning.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import dist
from .dist import JointTable, PROB_FLOOR, event_mask, residuals
from .model import (ConditionalConstraint, Constraint, ConstraintSet,
                    MarginalConstraint)

DEFAULT_DUAL_TOL = 1e-8
DEFAULT_SUCCESSIVE_TOL = 1e-4

SCHEDULE_GRADIENT = "gradient"
SCHEDULE_ROUND_ROBIN = "round-robin"


class ConvergenceError(RuntimeError):
    """Solver failed to drive residuals below tolerance."""


class UnreachableConstraintError(ValueError):
    """The prior gives zero mass where a constraint demands some."""


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float | None = None      # None: 1e-8 dual, 1e-4 successive
    max_iterations: int = 500           # dual optimizer iterations
    max_cycles: int = 1000              # successive-updating cycles
    schedule: str = SCHEDULE_GRADIENT

    def __post_init__(self):
        if self.tolerance is not None and not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1 or self.max_cycles < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.schedule not in (SCHEDULE_GRADIENT, SCHEDULE_ROUND_ROBIN):
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass(frozen=True)
class TraceEvent:
    cycle: int
    constraint: Constraint
    residual_before: float | None  # signed; None if undefined at selection
    checksum: str                  # digest of the table after the update


@dataclass(frozen=True)
class UpdateTrace:
    events: tuple[TraceEvent, ...]
    converged: bool
    cycles: int

    def to_tsv(self) -> str:
        lines = []
        for e in self.events:
            r = "undefined" if e.residual_before is None else f"{e.residual_before:.6g}"
            lines.append(f"{e.cycle}\t{e.constraint}\t{r}")
        return "\n".join(lines) + ("\n" if lines else "")


def array_checksum(probs: np.ndarray) -> str:
    return hashlib.sha1(np.round(probs, 12).tobytes()).hexdigest()[:12]


def table_checksum(table: JointTable) -> str:
    return array_checksum(table.probs)


def jeffrey_raw(probs: np.ndarray, mask: np.ndarray, v: float, label: str = "") -> np.ndarray:
    """Jeffrey update on a raw probability array; `mask` selects the event."""
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
    """Exponential-tilt update on a raw array; m1/m0 select the event
    states where the target holds / fails."""
    m1 = float(probs[m1_mask].sum())
    m0 = float(probs[m0_mask].sum())
    if m1 + m0 < PROB_FLOOR:
        raise UnreachableConstraintError(
            f"{label}: conditioning event has zero prior probability")
    out = np.array(probs)
    if mu >= 1.0 or mu <= 0.0:
        # hard conditioning: zero out the excluded half
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


def jeffrey_update(prior: JointTable, mc: MarginalConstraint) -> JointTable:
    """Rescale the event block to mass v and its complement to 1-v.

    This is the cross-entropy projection of the prior onto the single
    marginal constraint; the constraint holds exactly afterwards.
    """
    mask = event_mask(prior.scope, mc.literals)
    return JointTable(prior.scope, jeffrey_raw(prior.probs, mask, mc.value, str(mc)))


def conditional_update(prior: JointTable, cc: ConditionalConstraint) -> JointTable:
    """Closed-form cross-entropy projection onto P(target|condition) = mu.

    States outside the conditioning event keep their relative weights;
    inside it, the two halves (target false / target true) are tilted by
    t^mu and t^(mu-1) where t = ((1-mu) * mass_true) / (mu * mass_false),
    then everything is renormalized.  Boundary mu is hard conditioning.
    """
    scope = prior.scope
    cond_mask = event_mask(scope, cc.condition)
    tgt_mask = event_mask(scope, [cc.target])
    out = conditional_raw(prior.probs, cond_mask & tgt_mask, cond_mask & ~tgt_mask,
                          cc.value, str(cc))
    return JointTable(scope, out)


def apply_constraint(prior: JointTable, c: Constraint) -> JointTable:
    if isinstance(c, ConditionalConstraint):
        return conditional_update(prior, c)
    return jeffrey_update(prior, c)


class DualProblem:
    """Dual of: minimize KL(p || prior) subject to the constraint set.

    Conditional constraints become homogeneous rows
    (1-mu)*sum(E & x) - mu*sum(E & ~x) = 0; marginal constraints keep
    their value on the right-hand side (sum(E) = v).  Normalization is
    folded into the partition function, so the dual over the row
    multipliers is smooth and concave with gradient equal to the
    linear-scale constraint residual.
    """

    def __init__(self, prior: JointTable, cs: ConstraintSet):
        self.prior = prior
        self.cs = cs
        rows, rhs = [], []
        scope = prior.scope
        for c in cs:
            if isinstance(c, ConditionalConstraint):
                cond = event_mask(scope, c.condition)
                tgt = event_mask(scope, [c.target])
                row = np.zeros(prior.size)
                row[cond & tgt] = 1.0 - c.value
                row[cond & ~tgt] = -c.value
                rows.append(row)
                rhs.append(0.0)
            else:
                row = event_mask(scope, c.literals).astype(float)
                rows.append(row)
                rhs.append(c.value)
        self.matrix = np.array(rows) if rows else np.zeros((0, prior.size))
        self.rhs = np.array(rhs)

    def _weights(self, lam: np.ndarray) -> np.ndarray:
        expo = -(self.matrix.T @ lam)
        expo -= expo.max()  # overflow guard; cancels in normalization
        return self.prior.probs * np.exp(expo)

    def table(self, lam: np.ndarray) -> JointTable:
        w = self._weights(lam)
        return JointTable(self.prior.scope, w / w.sum())

    def objective(self, lam: np.ndarray) -> float:
        """Dual function value (to be maximized)."""
        expo = -(self.matrix.T @ lam)
        shift = expo.max()
        z = np.log(np.sum(self.prior.probs * np.exp(expo - shift))) + shift
        return float(-(lam @ self.rhs) - z)

    def gradient(self, lam: np.ndarray) -> np.ndarray:
        w = self._weights(lam)
        p = w / w.sum()
        return self.matrix @ p - self.rhs

    def hessian(self, lam: np.ndarray) -> np.ndarray:
        """Hessian of the dual: minus the covariance of the rows under
        the current member of the exponential family."""
        w = self._weights(lam)
        p = w / w.sum()
        ap = self.matrix * p
        mean = ap.sum(axis=1)
        return -(ap @ self.matrix.T) + np.outer(mean, mean)


def _newton_polish(prob: DualProblem, lam: np.ndarray, tol: float,
                   max_iterations: int) -> tuple[np.ndarray, bool]:
    """Damped Newton ascent on the dual until residuals (conditional
    scale) are within tolerance."""
    for _ in range(max_iterations):
        rep = residuals(prob.table(lam), prob.cs)
        if rep.max_magnitude <= tol:
            return lam, True
        g = prob.gradient(lam)
        h = prob.hessian(lam)
        ridge = 1e-12 * (1.0 + np.trace(-h) / max(len(lam), 1))
        try:
            step = np.linalg.solve(-h + ridge * np.eye(len(lam)), g)
        except np.linalg.LinAlgError:
            step = g
        f0 = prob.objective(lam)
        alpha, improved = 1.0, False
        for _ in range(60):
            cand = lam + alpha * step
            if prob.objective(cand) > f0 + 1e-4 * alpha * float(g @ step):
                lam = cand
                improved = True
                break
            alpha *= 0.5
        if not improved:
            # objective flat to machine precision; a full Newton step may
            # still contract the gradient near the optimum
            cand = lam + step
            if np.abs(prob.gradient(cand)).max() < np.abs(g).max():
                lam = cand
            else:
                return lam, False  # stalled: likely inconsistent constraints
    return lam, False


def mce_dual_solve(prior: JointTable, cs: ConstraintSet,
                   opts: SolverOptions | None = None) -> JointTable:
    """Minimize cross-entropy to the prior subject to all constraints.

    Conjugate gradient on the dual does the bulk of the work; damped
    Newton steps finish to tolerance.  Raises ConvergenceError when the
    residuals cannot be driven down (inconsistent constraint sets and
    boundary constraints both surface this way).
    """
    opts = opts or SolverOptions()
    tol = opts.tolerance if opts.tolerance is not None else DEFAULT_DUAL_TOL
    if prior.probs.min() <= 0.0:
        raise ValueError("dual solve requires a strictly positive prior")
    if len(cs) == 0:
        return prior
    prob = DualProblem(prior, cs)
    res = scipy.optimize.minimize(
        lambda lam: -prob.objective(lam),
        np.zeros(len(cs)),
        jac=lambda lam: -prob.gradient(lam),
        method="CG",
        options={"maxiter": opts.max_iterations, "gtol": tol * 1e-2},
    )
    lam, ok = _newton_polish(prob, res.x, tol, opts.max_iterations)
    table = prob.table(lam)
    if not ok:
        rep = residuals(table, cs)
        raise ConvergenceError(
            f"dual solve stalled at max residual {rep.max_magnitude:.3g} "
            f"(tolerance {tol:g}); the constraint set may be inconsistent "
            "or contain boundary constraints")
    return table


def successive_solve(prior: JointTable, cs: ConstraintSet,
                     opts: SolverOptions | None = None) -> tuple[JointTable, UpdateTrace]:
    """Repeatedly apply single-constraint updates until every residual is
    within tolerance or the cycle limit is hit.

    The gradient-threshold schedule picks the constraint with the largest
    current residual magnitude (ties by declaration order); round-robin
    applies constraints in declaration order.  One cycle is one update
    per constraint.
    """
    opts = opts or SolverOptions()
    tol = opts.tolerance if opts.tolerance is not None else DEFAULT_SUCCESSIVE_TOL
    table = prior
    events: list[TraceEvent] = []
    n = len(cs)
    if n == 0:
        return table, UpdateTrace((), True, 0)
    converged = False
    cycle = 0
    while cycle < opts.max_cycles and not converged:
        cycle += 1
        for step in range(n):
            rep = residuals(table, cs)
            if rep.max_magnitude <= tol:
                converged = True
                break
            if opts.schedule == SCHEDULE_ROUND_ROBIN:
                entry = rep.entries[step]
            else:
                entry = max(rep.entries, key=lambda e: e.magnitude)
            table = apply_constraint(table, entry.constraint)
            events.append(TraceEvent(cycle, entry.constraint, entry.residual,
                                     table_checksum(table)))
    if not converged:
        converged = residuals(table, cs).max_magnitude <= tol
    cycles_used = events[-1].cycle if events else 0
    return table, UpdateTrace(tuple(events), converged, cycles_used)
