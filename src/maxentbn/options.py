"""Solver settings and solver errors.

They live apart from the solvers so that the command line can build its
parser, and report a solver's failure, without importing numpy: `mce`
and `engine` import them from here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
    """Solver settings.  Round-robin can need several times the gradient
    schedule's cycles: 910 against 436 decomposed on the test helpers'
    `ring_model(6, 1)`, and over the 1000-cycle cap on `ring_model(8, 1)`."""

    tolerance: float | None = None      # None: 1e-8 dual, 1e-4 successive
    max_iterations: int = 500           # dual optimizer iterations
    max_cycles: int = 1000              # successive-updating cycles
    schedule: str = SCHEDULE_GRADIENT

    def __post_init__(self):
        if self.tolerance is not None and not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        for name in ("max_iterations", "max_cycles"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {getattr(self, name)!r}")
        if self.max_iterations < 1 or self.max_cycles < 1:
            raise ValueError("iteration caps must be at least 1")
        if self.schedule not in (SCHEDULE_GRADIENT, SCHEDULE_ROUND_ROBIN):
            raise ValueError(f"unknown schedule {self.schedule!r}")
