"""The generic two-parameter homogeneous function H_f and its T machinery.

T(t) = ln f(a^t, b^t).  A generator of order k is f = y^k exp(e(v)) with
v = ln(x/y) and carries its kernel row (e, e1 = e', e2 = e'', e3 = e''',
gen_max, g, c), so with w = ln(a/b) every quantity reads the row at v = t w:

    T = k t ln b + e(t w),  T' = k ln b + w e1(t w),
    T'' = w^2 e2(t w),      I = -e2(v)/(x y),
    T''' = w^3 e3(t w),     J = -(x - y) e3(v)/(x y).

The framework provides the branch-complete evaluator for H_f, core's
engine run on the row at the real w; T', T'' and T''' from the row, three
kernel calls; the cross-derivative quantities I = (ln f)_xy and
J = (x-y)(xI)_x, which are T'' and T''' rescaled, so nothing is
differenced in (x, y); the oracle
exp(int_0^1 T'(tp+(1-t)q) dt) = b^k exp(int_{qw}^{pw} e1 / (p - q)),
which integrates e1 alone and so delivers ln(H_f/b^k) to 1e-12
relative; and the difference-generator function H_D.  w is always
log_ratio(a, b), never ln a - ln b, which cancels near a = b.

TDerivatives is a typing.NamedTuple, as are quadrature.QuadratureResult and
convexity.HessianReport: records that validate nothing and are only read
back, so they are built at tuple cost on the probe path.  Each keeps its
field names and order, its fields cannot be set (AttributeError), and it
unpacks and compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (
    BRANCH_DIAGONAL,
    EvalResult,
    MeanPoint,
    OVERFLOW_LIMIT,
    ParamPair,
    RANGE_LIMIT,
    ZERO_TOL,
    _FLOAT_MAX,
    _STOLARSKY,
    _branch,
    _family_ln,
    _shown,
)
from .errors import DomainError, SaturationError
from .generators import GeneratorFunction
from .quadrature import integrate
from .stable import log_ratio

_EPS = 2.0 ** -52


class TDerivatives(NamedTuple):
    """T-derivative bundle at one probe point t."""

    t: float
    x: float
    y: float
    T1: float
    T2: float
    T3: float
    I_val: float
    J_val: float
    C_val: float


def _saturation_guard(t: float, w: float) -> None:
    """Refuse a t that is no finite real (before t w is formed) and |t w| beyond 700."""
    if not (isinstance(t, (int, float)) and -_FLOAT_MAX <= t <= _FLOAT_MAX):
        raise DomainError(f"t must be a finite real, got {_shown(t)}")
    if abs(t * w) > OVERFLOW_LIMIT:
        raise SaturationError("generator argument a^t not representable", t * w)


def _check_t_interval(f: GeneratorFunction, p: float, q: float) -> None:
    """T' of a generator without a positive diagonal limit has a pole at t = 0."""
    lo, hi = min(p, q), max(p, q)
    if f.diagonal_limit is None and lo <= 0.0 <= hi:
        raise DomainError(f"T' of generator {f.label} is undefined at t = 0 inside [{lo}, {hi}]")


def t_prime(f: GeneratorFunction, t: float, pt: MeanPoint) -> float:
    """T'(t) = k ln b + w e1(t w) by Euler's relation, w = ln(a/b)."""
    w = log_ratio(pt.a, pt.b)
    _saturation_guard(t, w)
    return f.order * math.log(pt.b) + w * f.kernel[1](t * w)


def hf_eval(f: GeneratorFunction, pp: ParamPair, pt: MeanPoint) -> EvalResult:
    """H_f(p, q; a, b): core's engine on the generator's row at the real w, with k ln b.

    |p w gen_max| or |q w gen_max| beyond 700 is refused, and the estimate
    adds the rounding (g, c) of the row's kernels, as for every row: for
    S_{r,s} this is four_param_F's result bit for bit.
    """
    a, b = pt.a, pt.b
    if a == b:
        return EvalResult(a, BRANCH_DIAGONAL, 0.0)
    p, q = pp.p, pp.q
    # only a generator without a diagonal limit (D) pays for the zero-parameter test
    if f.diagonal_limit is None and min(abs(p), abs(q)) <= ZERO_TOL * (1.0 + abs(p) + abs(q)):
        raise DomainError(
            f"zero-parameter branch of H_f needs a positive diagonal limit; "
            f"generator {f.label} has none"
        )
    ln, est = _family_ln(f.kernel, p, q, log_ratio(a, b), f.order * math.log(b))
    return EvalResult(math.exp(ln), _branch(p, q), est)


def hf_integral_oracle(
    f: GeneratorFunction,
    pp: ParamPair,
    pt: MeanPoint,
    max_subdivisions: int = 10_000,
) -> float:
    """exp(int_0^1 T'(tp + (1-t)q) dt), the integral form of H_f, as b^k exp(w mean e1).

    T' = k ln b + w e1(t w) by Euler's relation, with w = ln(a/b), so only
    e1 is integrated, over [q w, p w], to 1e-12 relative: ln(H_f/b^k) comes
    to 1e-12 relative, plus the rounding of k ln b and of the sum.
    Independent of the closed-form evaluators: the integrand is the
    generator's log-partial e1 alone, one stable kernel per node.
    """
    if pt.a == pt.b:
        raise DomainError("integral oracle requires a != b")
    p, q = pp.p, pp.q
    _check_t_interval(f, p, q)
    lb, w = math.log(pt.b), log_ratio(pt.a, pt.b)
    _saturation_guard(p, w)  # every node lies between p w and q w
    _saturation_guard(q, w)
    zp, zq, e1 = p * w, q * w, f.kernel[1]
    if zp == zq:
        mean_g = e1(zq)
    else:
        # abs_tol scales with the interval: the stopping rule of the integral over t in [0, 1]
        mean_g = integrate(e1, zq, zp, abs_tol=1e-15 * abs(zp - zq),
                           max_subdivisions=max_subdivisions).value / (zp - zq)
    return math.exp(f.order * lb + w * mean_g)


def t_derivatives(f: GeneratorFunction, t: float, pt: MeanPoint) -> TDerivatives:
    """T', T'', T''' plus I, J and C at a probe point t with t ln(a/b) != 0 in floats.

    With w = log_ratio(a, b) and v = t w, the row gives T' = k ln b + w e1(v),
    T'' = w^2 e2(v) and T''' = w^3 e3(v), three kernel calls.  Homogeneity gives
    I = -T''/(w^2 x y), J = -(1/y - 1/x) T'''/w^3 and C = (t w)^3/(1/y - 1/x).
    1/x and 1/y come from the logs, so x y is never formed; a field outside
    the floating range raises SaturationError.
    """
    if t == 0.0:
        raise DomainError("J and C are singular at t = 0")
    a, b = pt.a, pt.b
    w = log_ratio(a, b)
    if w == 0.0:
        raise DomainError("t_derivatives requires ln(a/b) != 0")
    _saturation_guard(t, w)  # refuses a t that is no finite real before t ln a is formed
    if t * w == 0.0:
        raise DomainError(f"J and C are singular where t ln(a/b) underflows to 0, at t = {t!r}")
    lb = math.log(b)
    ta, tb = t * math.log(a), t * lb
    if abs(ta) > OVERFLOW_LIMIT or abs(tb) > OVERFLOW_LIMIT:
        raise SaturationError("probe coordinates a^t not representable", max(abs(ta), abs(tb)))
    kernel, v = f.kernel, t * w
    T1, T2, T3 = f.order * lb + w * kernel[1](v), w * w * kernel[2](v), w * w * w * kernel[3](v)
    inv_x, inv_y = math.exp(-ta), math.exp(-tb)
    d = -inv_y * math.expm1(-t * w)  # 1/y - 1/x
    I_val = -(T2 / (w * w)) * inv_x * inv_y
    J_val = -d * (T3 / (w * w * w))
    C_val = (t * w) ** 3 / d
    # x - x is 0 for a finite x and NaN for an infinite or NaN one
    if (I_val - I_val) + (J_val - J_val) + (C_val - C_val) != 0.0:
        for name, bad in (("I", I_val), ("J", J_val), ("C", C_val)):
            if not math.isfinite(bad):
                raise SaturationError(f"{name} outside the floating range", bad, None, name)
    return TDerivatives(t, a ** t, b ** t, T1, T2, T3, I_val, J_val, C_val)


def hd_eval(pp: ParamPair, pt: MeanPoint) -> EvalResult:
    """H_D(p, q; a, b), the two-parameter function of the difference |x - y|.

    Not a mean: values may leave [min(a,b), max(a,b)].  The diagonal
    a = b and zero parameters are outside the definition (D has no
    positive diagonal limit) and are rejected.
    """
    ln, est = _hd_ln(pp.p, pp.q, log_ratio(pt.a, pt.b), math.log(pt.b))
    return EvalResult(math.exp(ln), _branch(pp.p, pp.q), est)


# the kernel row of H_D's pole part E(t) = ln|t|, read at w = 1
_HD_POLE = (lambda t: math.log(abs(t)), lambda t: 1.0 / t, lambda t: -1.0 / (t * t),
            lambda t: 2.0 / (t * t * t), 1.0, 0.0, 0.0)


def _hd_ln(p: float, q: float, w: float, lnb: float) -> tuple[float, float]:
    """(ln H_D, est ln error) from the point's logs w = ln(a/b) and ln b.

    E(t) = log_exprel(t w) + ln|t|: the Stolarsky quotient through the
    engine plus the exact pole part 1/L(p, q) of ln|t|.  The range check
    is on the sum, so a Stolarsky part beyond it may still evaluate.
    """
    if w == 0.0:
        raise DomainError("H_D is undefined on the diagonal a = b")
    scale = 1.0 + abs(p) + abs(q)
    if abs(p) <= ZERO_TOL * scale or abs(q) <= ZERO_TOL * scale:
        raise DomainError("H_D rejects zero parameters (no positive diagonal limit)")
    ln_s, est = _family_ln(_STOLARSKY, p, q, w, lnb, math.inf)
    d = p - q
    pole = 1.0 / p if d == 0.0 else log_ratio(abs(p), abs(q)) / d
    ln = ln_s + pole
    if abs(ln) > RANGE_LIMIT:
        raise SaturationError("result magnitude outside floating range", ln, RANGE_LIMIT, "ln M")
    return ln, est + 4.0 * _EPS * (abs(pole) + abs(ln))
