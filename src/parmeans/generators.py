"""Generator functions for the two-parameter homogeneous framework.

A generator is a positive, positively homogeneous f = y^k exp(e(v)), v = ln(x/y),
on the open quadrant minus the diagonal, with first partials.  It carries its
kernel row (e, e1, e2, e3, gen_max, g, c) of core's shape: e(v) = ln f(e^v, 1) up to
a constant, e1 = e' = x f_x/f, e2 = e'' and e3 = e''', all that hgf and convexity
read.  The catalog reuses core's rows for the arithmetic, logarithmic, identric and
Heronian-sum generators and S_{r,s}, and has its own for D = |x - y|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import DomainError, SaturationError
from .stable import expm1_logd3, expm1_minus_z_over_z2, exprel_logd, identric_weight, log_ratio
from .core import _GINI, _HERONIAN2, _IDENTRIC2, _STOLARSKY, GeneratorPair, _rs_kernels

# g of a row derived from value and the partials, whose rounding is unknown: 2 eps g =
# 256 eps on E', sized against 40-digit mpmath (L's T' reached 163 eps in 11500 probes)
DERIVED_ROUNDING = 128.0


@dataclass(frozen=True)
class GeneratorFunction:
    """Contract for the generating function f of H_f.

    value, partial_x and partial_y are defined off the diagonal;
    diagonal_limit (x -> lim_{y->x} f(x, y)) is present only when that
    limit exists and is positive, in which case diagonal_partials holds
    (f_x(1,1), f_y(1,1)) for the p = q = 0 corner.  hgf and convexity read
    only the kernel row.  The row derived when none is given,
    (e, e1, None, None, 1, DERIVED_ROUNDING, 0), has an e off by the rounding of
    value plus 2 eps (|k| + |e1(v)|) and an e1 off by that of the partials
    plus 2 eps |e1'(v)|, the rounding of the normalized coordinate exp(-|v|);
    with no e2 and e3, hgf differences e1 for T'' and T'''.
    """

    label: str
    order: float
    value: Callable[[float, float], float]
    partial_x: Callable[[float, float], float]
    partial_y: Callable[[float, float], float]
    diagonal_limit: Optional[Callable[[float], float]] = None
    diagonal_partials: Optional[tuple[float, float]] = field(default=None)
    # (e, e1, e2, e3, gen_max, g, c) as core's rows; if None, derived, anew by dataclasses.replace
    kernel: Optional[tuple] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        row = self.kernel  # a row derived from the callables of a replaced copy is derived anew
        if row is None or getattr(row[0], "__func__", None) is GeneratorFunction._value_e:
            object.__setattr__(self, "kernel", (self._value_e, self._partials_e1, None, None,
                                                1.0, DERIVED_ROUNDING, 0.0))

    def _partials_e1(self, v: float) -> float:
        """x f_x/f at coordinates normalized so that one equals 1."""
        x, y = (1.0, math.exp(-v)) if v >= 0.0 else (math.exp(v), 1.0)
        if x == y:
            f1 = self.value_at_one()  # DomainError without a diagonal limit, so without partials
            return self.diagonal_partials[0] / f1
        return x * self.partial_x(x, y) / self.value(x, y)

    def _value_e(self, v: float) -> float:
        """ln f(e^v, 1) = k max(v, 0) + ln f at coordinates normalized so that one equals 1."""
        x, y = (1.0, math.exp(-v)) if v >= 0.0 else (math.exp(v), 1.0)
        f = self.value_at_one() if x == y else self.value(x, y)
        return self.order * max(v, 0.0) + math.log(f)

    def value_at_one(self) -> float:
        """f(1, 1) through the diagonal limit; errors if absent."""
        if self.diagonal_limit is None:
            raise DomainError(f"generator {self.label} has no positive diagonal limit")
        return self.diagonal_limit(1.0)


def arithmetic_generator() -> GeneratorFunction:
    return GeneratorFunction(
        label="A",
        order=1.0,
        value=lambda x, y: 0.5 * (x + y),
        partial_x=lambda x, y: 0.5,
        partial_y=lambda x, y: 0.5,
        diagonal_limit=lambda x: x,
        diagonal_partials=(0.5, 0.5),
        kernel=_GINI[:4] + (1.0,) + _GINI[5:],  # the parameter of H_A is 1, not Gini's 2
    )


def logarithmic_generator() -> GeneratorFunction:
    def value(x: float, y: float) -> float:
        if x == y:
            return x
        return (x - y) / log_ratio(x, y)

    # L_x = (e^-v - 1 + v)/v^2 and L_y = (e^v - 1 - v)/v^2 with v = ln(x/y)
    def partial_x(x: float, y: float) -> float:
        return expm1_minus_z_over_z2(-log_ratio(x, y))

    def partial_y(x: float, y: float) -> float:
        return expm1_minus_z_over_z2(log_ratio(x, y))

    return GeneratorFunction(
        label="L",
        order=1.0,
        value=value,
        partial_x=partial_x,
        partial_y=partial_y,
        diagonal_limit=lambda x: x,
        diagonal_partials=(0.5, 0.5),
        kernel=_STOLARSKY,
    )


def identric_generator() -> GeneratorFunction:
    def value(x: float, y: float) -> float:
        if x == y:
            return x
        v = log_ratio(x, y)
        return y * math.exp(v * exprel_logd(v))

    def partial_x(x: float, y: float) -> float:
        return value(x, y) * identric_weight(log_ratio(x, y)) / x

    def partial_y(x: float, y: float) -> float:
        return value(x, y) * (1.0 - identric_weight(log_ratio(x, y))) / y

    return GeneratorFunction(
        label="I",
        order=1.0,
        value=value,
        partial_x=partial_x,
        partial_y=partial_y,
        diagonal_limit=lambda x: x,
        diagonal_partials=(0.5, 0.5),
        kernel=_IDENTRIC2,
    )


def difference_generator() -> GeneratorFunction:
    """D(x, y) = |x - y|; no positive diagonal limit, so each kernel refuses v = 0."""
    def e(v: float) -> float:
        if v == 0.0:
            raise DomainError("generator D has no positive diagonal limit")
        return math.log(abs(math.expm1(v)))

    def e1(v: float) -> float:
        if v == 0.0:
            raise DomainError("generator D has no positive diagonal limit")
        return 1.0 / (-math.expm1(-v))

    def e2(v: float) -> float:
        # -1/(4 sinh^2(v/2)), even in v, formed so that no term overflows
        if v == 0.0:
            raise DomainError("generator D has no positive diagonal limit")
        d2 = math.expm1(-abs(v)) ** 2
        if not d2:
            raise SaturationError("e2 of generator D outside the floating range", v, None, "v")
        return -math.exp(-abs(v)) / d2

    def e3(v: float) -> float:
        # cosh(v/2)/(4 sinh^3(v/2)), odd in v
        if v == 0.0:
            raise DomainError("generator D has no positive diagonal limit")
        return expm1_logd3(v)

    return GeneratorFunction(
        label="D",
        order=1.0,
        value=lambda x, y: abs(x - y),
        partial_x=lambda x, y: math.copysign(1.0, x - y),
        partial_y=lambda x, y: -math.copysign(1.0, x - y),
        diagonal_limit=None,
        diagonal_partials=None,
        kernel=(e, e1, e2, e3, 1.0, 0.0, 0.0),
    )


def heronian_generator() -> GeneratorFunction:
    def value(x: float, y: float) -> float:
        return x + math.sqrt(x) * math.sqrt(y) + y

    return GeneratorFunction(
        label="He",
        order=1.0,
        value=value,
        partial_x=lambda x, y: 1.0 + 0.5 * math.sqrt(y / x),
        partial_y=lambda x, y: 1.0 + 0.5 * math.sqrt(x / y),
        diagonal_limit=lambda x: 3.0 * x,
        diagonal_partials=(1.5, 1.5),
        kernel=_HERONIAN2,
    )


def stolarsky_generator(r: float, s: float) -> GeneratorFunction:
    """S_{r,s}(x, y) = y exp(G(v)), v = ln(x/y), with the row of core's four-parameter
    family (band rule near r = s): G, G1 = G' = x (ln S)_x, and the rest as four_param_F
    reads it."""
    pair = GeneratorPair(r, s)  # finite reals, or DomainError
    row = _rs_kernels(pair.r, pair.s)
    G, G1 = row[:2]

    def value(x: float, y: float) -> float:
        return x if x == y else math.exp(math.log(y) + G(log_ratio(x, y)))

    def partial_x(x: float, y: float) -> float:
        return value(x, y) * G1(log_ratio(x, y)) / x

    def partial_y(x: float, y: float) -> float:
        # Euler relation for the 1-homogeneous S: y (ln S)_y = 1 - x (ln S)_x
        return value(x, y) * (1.0 - G1(log_ratio(x, y))) / y

    return GeneratorFunction(
        label=f"S[{r:g},{s:g}]",
        order=1.0,
        value=value,
        partial_x=partial_x,
        partial_y=partial_y,
        diagonal_limit=lambda x: x,
        diagonal_partials=(0.5, 0.5),
        kernel=row,
    )


def builtin_generators() -> list[GeneratorFunction]:
    """The fixed catalog: A, L, I, D, He (S_{r,s} is built per (r, s))."""
    return [
        arithmetic_generator(),
        logarithmic_generator(),
        identric_generator(),
        difference_generator(),
        heronian_generator(),
    ]
