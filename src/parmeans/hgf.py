"""The generic two-parameter homogeneous function H_f and its T machinery.

T(t) = ln f(a^t, b^t).  The framework provides the branch-complete
evaluator for H_f, finite-difference access to T', T'', T''' together
with the cross-derivative quantities I = (ln f)_xy and J = (x-y)(xI)_x,
the integral-representation oracle exp(int_0^1 T'(tp+(1-t)q) dt), and
the difference-generator function H_D.

All (x, y) work is done at max-normalized coordinates: T' and the signs
of I and J are invariant under (x, y) -> (x, y)/max(x, y), which keeps
the finite differences conditioned for large t * ln(b/a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    BRANCH_DIAGONAL,
    BRANCH_GENERIC,
    BRANCH_P_EQ_Q,
    EvalResult,
    MeanPoint,
    MIDPOINT_BAND,
    OVERFLOW_LIMIT,
    ParamPair,
    SINGULAR_DELTA,
    ZERO_TOL,
    _finish,
    _ln_eval,
)
from .errors import DomainError, SaturationError, StepSizeError
from .generators import GeneratorFunction
from .quadrature import integrate
from .stable import exprel_logd, log_exprel, log_ratio

_EPS = 2.0 ** -52
FIRST_STEP_SCALE = _EPS ** (1.0 / 3.0)
SECOND_STEP_SCALE = _EPS ** 0.25
CROSS_STEP_SCALE = _EPS ** (1.0 / 6.0)  # Richardson leaves h^4 truncation
NESTED_STEP_SCALE = _EPS ** 0.2


@dataclass(frozen=True)
class FDConfig:
    """Finite-difference step policy (one Richardson halving throughout)."""

    first_step_scale: float = FIRST_STEP_SCALE
    second_step_scale: float = SECOND_STEP_SCALE
    cross_step_scale: float = CROSS_STEP_SCALE
    nested_step_scale: float = NESTED_STEP_SCALE
    richardson: bool = True


@dataclass(frozen=True)
class TDerivatives:
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
    if abs(t * w) > OVERFLOW_LIMIT:
        raise SaturationError("generator argument a^t not representable", t * w)


def _normalized_args(t: float, la: float, lb: float) -> tuple[float, float]:
    """(a^t, b^t) scaled by max(a, b)^t, so one coordinate equals 1."""
    lm = max(t * la, t * lb)
    return math.exp(t * la - lm), math.exp(t * lb - lm)


def t_prime(f: GeneratorFunction, t: float, pt: MeanPoint) -> float:
    """T'(t) = (x f_x ln a + y f_y ln b)/f, evaluated scale-free."""
    la, lb = math.log(pt.a), math.log(pt.b)
    _saturation_guard(t, la - lb)
    x, y = _normalized_args(t, la, lb)
    if x == y:
        if f.diagonal_partials is None:
            raise DomainError(f"generator {f.label} lacks partials on the diagonal")
        gx, gy = f.diagonal_partials
        return (gx * la + gy * lb) / f.value_at_one()
    return (x * f.partial_x(x, y) * la + y * f.partial_y(x, y) * lb) / f.value(x, y)


def ln_f_power(f: GeneratorFunction, t: float, pt: MeanPoint) -> float:
    """T(t) = ln f(a^t, b^t), computed at normalized coordinates."""
    la, lb = math.log(pt.a), math.log(pt.b)
    _saturation_guard(t, la - lb)
    lm = max(t * la, t * lb)
    x, y = _normalized_args(t, la, lb)
    if x == y:
        return f.order * lm + math.log(f.value_at_one())
    return f.order * lm + math.log(f.value(x, y))


def hf_eval(f: GeneratorFunction, pp: ParamPair, pt: MeanPoint) -> EvalResult:
    """H_f(p, q; a, b): generic ratio, p = q, zero-parameter and diagonal branches."""
    if pt.a == pt.b:
        return EvalResult(pt.a, BRANCH_DIAGONAL, 0.0)
    p, q = pp.p, pp.q
    scale = 1.0 + abs(p) + abs(q)
    needs_diagonal = min(abs(p), abs(q)) <= ZERO_TOL * scale
    if needs_diagonal and f.diagonal_limit is None:
        raise DomainError(
            f"zero-parameter branch of H_f needs a positive diagonal limit; "
            f"generator {f.label} has none"
        )
    E = lambda t: ln_f_power(f, t, pt)
    E1 = lambda t: t_prime(f, t, pt)
    return _finish(*_ln_eval(E, E1, 1.0, p, q, 0.0))


def hf_integral_oracle(
    f: GeneratorFunction,
    pp: ParamPair,
    pt: MeanPoint,
    rel_tol: float = 1e-12,
    max_subdivisions: int = 10_000,
) -> float:
    """exp(int_0^1 T'(tp + (1-t)q) dt), the integral form of H_f.

    Entirely independent of the closed-form family evaluators: the
    integrand uses only the generator value and first partials.
    """
    if pt.a == pt.b:
        raise DomainError("integral oracle requires a != b")
    p, q = pp.p, pp.q
    lo, hi = min(p, q), max(p, q)
    if lo < 0.0 < hi or (lo == 0.0 or hi == 0.0):
        if f.diagonal_limit is None:
            raise DomainError(
                f"T' of generator {f.label} is undefined at t = 0 inside [{lo}, {hi}]"
            )
    if p == q:
        return math.exp(t_prime(f, q, pt))
    result = integrate(
        lambda t: t_prime(f, t * p + (1.0 - t) * q, pt),
        0.0,
        1.0,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
    )
    return math.exp(result.value)


def _t1_t3(
    f: GeneratorFunction,
    t: float,
    pt: MeanPoint,
    cfg: FDConfig = FDConfig(),
) -> tuple[float, float]:
    """(T'(t), T'''(t)) under the checks of t_derivatives.

    T''' is the central second difference of T' with one Richardson
    halving; T'(t) is evaluated once and shared by both stencils.
    """
    if pt.a == pt.b:
        raise DomainError("t_derivatives requires a != b")
    if t == 0.0:
        raise DomainError("T''' is singular at t = 0")
    la, lb = math.log(pt.a), math.log(pt.b)
    _saturation_guard(t, la - lb)
    if max(abs(t * la), abs(t * lb)) > OVERFLOW_LIMIT:
        raise SaturationError("probe coordinates a^t not representable",
                              max(abs(t * la), abs(t * lb)))

    h1 = cfg.first_step_scale * (1.0 + abs(t))
    h2 = cfg.second_step_scale * (1.0 + abs(t))
    if t + h2 == t or t + h1 == t:
        raise StepSizeError("finite-difference step underflow", _EPS ** 0.25 * abs(t))

    T1t = t_prime(f, t, pt)

    def second(h: float) -> float:
        return (t_prime(f, t + h, pt) - 2.0 * T1t + t_prime(f, t - h, pt)) / (h * h)

    if cfg.richardson:
        return T1t, (4.0 * second(0.5 * h2) - second(h2)) / 3.0
    return T1t, second(h2)


def t_derivatives(
    f: GeneratorFunction,
    t: float,
    pt: MeanPoint,
    cfg: FDConfig = FDConfig(),
) -> TDerivatives:
    """T', T'', T''' plus I, J and C at the probe point t.

    T' comes from the closed form; T'' and T''' are central differences
    of T' with one Richardson halving.  I is a central cross-difference
    of ln f and J = (x - y) d/dx(x I) a nested difference, both computed
    at max-normalized coordinates (their signs are scale-invariant) and
    rescaled by homogeneity afterwards.
    """
    T1t, T3 = _t1_t3(f, t, pt, cfg)
    la, lb = math.log(pt.a), math.log(pt.b)
    h1 = cfg.first_step_scale * (1.0 + abs(t))

    def central(h: float) -> float:
        return (t_prime(f, t + h, pt) - t_prime(f, t - h, pt)) / (2.0 * h)

    if cfg.richardson:
        T2 = (4.0 * central(0.5 * h1) - central(h1)) / 3.0
    else:
        T2 = central(h1)

    # normalized coordinates for the (x, y) differences
    xn, yn = _normalized_args(t, la, lb)
    lnf = lambda xx, yy: math.log(f.value(xx, yy))
    hx = cfg.cross_step_scale * xn
    hy = cfg.cross_step_scale * yn

    def cross(xx: float, hxx: float, hyy: float) -> float:
        return (
            (lnf(xx + hxx, yn + hyy) - lnf(xx + hxx, yn - hyy))
            - (lnf(xx - hxx, yn + hyy) - lnf(xx - hxx, yn - hyy))
        ) / (4.0 * hxx * hyy)

    def I_at(xx: float) -> float:
        if cfg.richardson:
            return (4.0 * cross(xx, 0.5 * hx, 0.5 * hy) - cross(xx, hx, hy)) / 3.0
        return cross(xx, hx, hy)

    I_n = I_at(xn)
    hx2 = cfg.nested_step_scale * xn
    J_n = (xn - yn) * ((xn + hx2) * I_at(xn + hx2) - (xn - hx2) * I_at(xn - hx2)) / (2.0 * hx2)

    # rescale: I is (-2)-homogeneous, J is (-1)-homogeneous
    lm = max(t * la, t * lb)
    x = pt.a ** t
    y = pt.b ** t
    scale = math.exp(lm)
    I_val = I_n / (scale * scale)
    J_val = J_n / scale
    C_val = xn * yn * log_ratio(xn, yn) ** 3 / (xn - yn) * scale
    return TDerivatives(t=t, x=x, y=y, T1=T1t, T2=T2, T3=T3,
                        I_val=I_val, J_val=J_val, C_val=C_val)


def hd_eval(pp: ParamPair, pt: MeanPoint) -> EvalResult:
    """H_D(p, q; a, b), the two-parameter function of the difference |x - y|.

    Not a mean: values may leave [min(a,b), max(a,b)].  The diagonal
    a = b and zero parameters are outside the definition (D has no
    positive diagonal limit) and are rejected.
    """
    if pt.a == pt.b:
        raise DomainError("H_D is undefined on the diagonal a = b")
    p, q = pp.p, pp.q
    scale = 1.0 + abs(p) + abs(q)
    if abs(p) <= ZERO_TOL * scale or abs(q) <= ZERO_TOL * scale:
        raise DomainError("H_D rejects zero parameters (no positive diagonal limit)")
    w = log_ratio(pt.a, pt.b)
    if abs(p * w) > OVERFLOW_LIMIT or abs(q * w) > OVERFLOW_LIMIT:
        raise SaturationError("exponent product a^p not representable",
                              max(abs(p * w), abs(q * w)))
    d = p - q
    scale_pq = 1.0 + abs(p) + abs(q)
    near_diagonal = abs(d) <= SINGULAR_DELTA * scale_pq
    if (p > 0.0) == (q > 0.0) and (near_diagonal or abs(d) <= MIDPOINT_BAND):
        # ln H_D = ln b + (E_L(p) - E_L(q))/(p - q) + 1/L(p, q): the pole
        # part 1/L is exact, the midpoint rule applies only to the smooth
        # E_L(t) = log_exprel(t w) factor.
        m = 0.5 * (p + q)
        recip_L = 1.0 / p if d == 0.0 else log_ratio(abs(p), abs(q)) / d
        e1m = w * exprel_logd(m * w)
        ln = math.log(pt.b) + e1m + recip_L
        e3 = (w * exprel_logd(p * w) - 2.0 * e1m + w * exprel_logd(q * w)) \
            / (0.25 * d * d) if d != 0.0 else 0.0
        est = abs(e3) * d * d / 24.0 + 4.0 * _EPS * (1.0 + abs(ln))
        branch = BRANCH_P_EQ_Q if near_diagonal else BRANCH_GENERIC
        if abs(ln) > 709.0:
            raise SaturationError("H_D value outside floating range", ln)
        return EvalResult(math.exp(ln), branch, est)
    # straddling or well-separated parameters: the direct quotient of
    # E(t) = log_exprel(t w) + ln|t|, with the engine's error estimate
    ep = log_exprel(p * w) + math.log(abs(p))
    eq = log_exprel(q * w) + math.log(abs(q))
    ln = math.log(pt.b) + (ep - eq) / d
    if abs(ln) > 709.0:
        raise SaturationError("H_D value outside floating range", ln)
    est = 2.0 * _EPS * (abs(ep) + abs(eq)) / abs(d) + 4.0 * _EPS * (1.0 + abs(ln))
    return EvalResult(math.exp(ln), BRANCH_GENERIC, est)
