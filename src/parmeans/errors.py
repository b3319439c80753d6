"""Structured exceptions shared across the package."""

from __future__ import annotations


class ParMeansError(ValueError):
    """Base class for all parmeans errors."""


class DomainError(ParMeansError):
    """Arguments outside the mathematical domain of an operation."""


class SaturationError(ParMeansError):
    """A quantity would leave the representable floating range.

    Raised instead of silently producing inf/0 so that scan harnesses
    never accumulate corrupted samples.  The message names the measured
    quantity (an exponent product unless told otherwise), its value
    (.exponent) and the limit it broke (.limit; None when the value
    itself is outside the positive floats).
    """

    def __init__(self, message: str, exponent: float, limit: float | None = 700.0,
                 quantity: str = "exponent product"):
        bound = "" if limit is None else f", limit {limit:g}"
        super().__init__(f"{message} ({quantity} {exponent:.6g}{bound})")
        self.exponent = exponent
        self.limit = limit


class QuadratureError(ParMeansError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved_tol: float, subdivisions: int):
        super().__init__(
            f"{message} (achieved relative tolerance {achieved_tol:.3e} "
            f"after {subdivisions} subdivisions)"
        )
        self.achieved_tol = achieved_tol
        self.subdivisions = subdivisions
