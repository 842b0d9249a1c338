"""Exception types shared across the library."""

from __future__ import annotations


class DimensionMismatch(ValueError):
    """An array argument does not match the model dimensions."""


class AngleOutOfRange(ValueError):
    """Group logarithm requested outside the injectivity radius.

    On SO(3) this fires for rotation angles >= pi - 1e-6, where the
    boundary residual becomes ill conditioned.  Callers either perturb
    the offending endpoint or report the failure.
    """


class NonFinite(ArithmeticError):
    """A simulated state became non-finite (blow-up).

    Carries the index of the first offending step in ``step_index``.
    """

    def __init__(self, step_index: int):
        self.step_index = int(step_index)
        super().__init__(f"non-finite state at step {step_index}")


class SingularRegularity(RuntimeError):
    """The control Hessian is (numerically) singular.

    Control elimination is only defined where d2L/du2 is invertible;
    irregular points are reported, never guessed through.
    """


class NoConvergence(RuntimeError):
    """An iterative solver exhausted its budget without converging."""
