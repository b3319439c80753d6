"""Closed-form, branch-complete evaluation of the parametric bivariate means.

Every two-parameter family here is a ratio-power of a one-homogeneous
generator evaluated at (a^p, b^p) and (a^q, b^q).  With w = ln(a/b) and
E(t) = ln f(a^t, b^t) - t ln(b), the mean is

    ln M(p, q) = ln(b) + (E(p) - E(q)) / (p - q)

with the removable singularity at p = q filled by E'((p+q)/2).

Kernel pairs.  For the four named families E depends on t only through
z = t w, so each family is a module-level pair (e, e1) of cancellation-
free kernels from stable.py, with E(t) = e(t w) and E'(t) = w e1(t w):

    stolarsky   e = log_exprel(z)         e1 = exprel_logd(z)
    gini        e = softplus(z)           e1 = sigmoid(z)
    identric2   e = z exprel_logd(z)      e1 = exprel_logd(z) + z exprel_logd2(z)
    heronian2   e = log_heronian_sum(z)   e1 = heronian_weight(z)

Engine.  _ln_eval(e, e1, w, p, q, lnb) returns (ln M, branch, estimated
error of ln M), creates no closure, and owns the branch policy:

  * |p - q| <= 1e-6 * (1 + |p| + |q|): limit branch, value E'((p+q)/2);
  * |p - q| <= 1e-3: midpoint rule E'((p+q)/2), error O((p-q)^2 E''');
  * otherwise: the difference quotient.

Zero-parameter loci need no special formula (E is smooth at 0), only a
branch tag; their tagging threshold is 1e-13 * scale because the expm1
based quotient stays exact arbitrarily close to zero.  Evaluators whose
E is not a function of t w alone (four_param_F here, hf_eval in hgf)
pass their own E(t), E'(t) with w = 1, which the engine applies exactly.

Fast path.  _family_ln(kernels, p, q, a, b) is the float-only log path
of the named families: no dataclass, no closure and no exp/log round
trip.  The public evaluators are thin wrappers that validate at the
dataclass boundary, call it and exponentiate; the inequality checker
reads ln M from it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import DomainError, SaturationError
from .stable import (
    exprel_logd,
    exprel_logd2,
    heronian_weight,
    log_exprel,
    log_heronian_sum,
    log_ratio,
    sigmoid,
    softplus,
)

# Branch-policy constants (see module docstring).
SINGULAR_DELTA = 1e-6
MIDPOINT_BAND = 1e-3
ZERO_TOL = 1e-13
OVERFLOW_LIMIT = 700.0

BRANCH_GENERIC = "generic"
BRANCH_P_EQ_Q = "p_eq_q"
BRANCH_P_ZERO = "p_zero"
BRANCH_Q_ZERO = "q_zero"
BRANCH_BOTH_ZERO = "both_zero"
BRANCH_DIAGONAL = "diagonal_ab"
BRANCH_SWAPPED = "swapped"

_EPS = 2.0 ** -52
_INF = math.inf


def _check_point(a: float, b: float) -> None:
    """Raise DomainError unless a and b are positive finite reals.

    One combined test decides for float pairs; the per-field test runs
    only for other types (ints pass) and to name the offending field.
    """
    if type(a) is float and type(b) is float and 0.0 < a < _INF and 0.0 < b < _INF:
        return
    for name, v in (("a", a), ("b", b)):
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
            raise DomainError(f"MeanPoint.{name} must be a positive finite real, got {v!r}")


@dataclass(frozen=True)
class MeanPoint:
    """Positive argument pair (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        _check_point(self.a, self.b)


@dataclass(frozen=True)
class ParamPair:
    """Parameter pair (p, q) of a two-parameter family."""

    p: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError(f"ParamPair must be finite, got ({self.p!r}, {self.q!r})")


@dataclass(frozen=True)
class GeneratorPair:
    """Generator parameter pair (r, s) of the four-parameter family."""

    r: float
    s: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.s)):
            raise DomainError(f"GeneratorPair must be finite, got ({self.r!r}, {self.s!r})")


@dataclass(frozen=True)
class EvalResult:
    """Mean value together with the branch taken and an error estimate."""

    value: float
    branch: str
    est_rel_error: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise SaturationError("evaluated mean left the positive floating range",
                                  self.value if math.isfinite(self.value) else math.inf)


@dataclass(frozen=True)
class ReductionTag:
    """A classical family that a four-parameter configuration reduces to."""

    family: str  # stolarsky | gini | identric2 | heronian2
    p: float
    q: float


def _check_saturation(p: float, q: float, gen_max: float, w: float) -> None:
    """Reject exponent products |t*u*w| beyond the floating range.

    t runs over (p, q) and u over the generator parameters, with
    gen_max = max |u|.  Rounding is monotone and sign-symmetric, so
    |max(|p|, |q|) * gen_max * w| is the largest |t*u*w| bit for bit.
    """
    worst = abs(max(abs(p), abs(q)) * gen_max * w)
    if worst > OVERFLOW_LIMIT:
        raise SaturationError("exponent product a^(p*r) not representable", worst, OVERFLOW_LIMIT)


def _ln_eval(
    e: Callable[[float], float],
    e1: Callable[[float], float],
    w: float,
    p: float,
    q: float,
    lnb: float,
) -> tuple[float, str, float]:
    """Shared branch engine, returns (ln value, branch tag, est ln error).

    E(t) = e(t*w) and E'(t) = w*e1(t*w); see the module docstring.
    """
    scale = 1.0 + abs(p) + abs(q)
    d = p - q
    if abs(d) <= SINGULAR_DELTA * scale:
        m = 0.5 * (p + q)
        ln = lnb + w * e1(m * w)
        branch = BRANCH_BOTH_ZERO if max(abs(p), abs(q)) <= ZERO_TOL * scale else BRANCH_P_EQ_Q
        return ln, branch, 4.0 * _EPS * (1.0 + abs(ln))
    if abs(d) <= MIDPOINT_BAND:
        m = 0.5 * (p + q)
        e1m = w * e1(m * w)
        # midpoint-rule error (p-q)^2 E'''(m)/24, E''' from a cheap stencil
        e3 = (w * e1(p * w) - 2.0 * e1m + w * e1(q * w)) / (0.25 * d * d) if d != 0.0 else 0.0
        est = abs(e3) * d * d / 24.0 + 4.0 * _EPS * (1.0 + abs(lnb + e1m))
        return lnb + e1m, BRANCH_GENERIC, est
    ep, eq = e(p * w), e(q * w)
    ln = lnb + (ep - eq) / d
    if abs(q) <= ZERO_TOL * scale:
        branch = BRANCH_Q_ZERO
    elif abs(p) <= ZERO_TOL * scale:
        branch = BRANCH_P_ZERO
    else:
        branch = BRANCH_GENERIC
    est = 2.0 * _EPS * (abs(ep) + abs(eq)) / abs(d) + 4.0 * _EPS * (1.0 + abs(ln))
    return ln, branch, est


def _check_range(ln: float) -> None:
    if abs(ln) > 709.0:
        raise SaturationError("result magnitude outside floating range", ln)


def _finish(ln: float, branch: str, est: float) -> EvalResult:
    _check_range(ln)
    return EvalResult(math.exp(ln), branch, est)


def _identric_e(z: float) -> float:
    return z * exprel_logd(z)


def _identric_e1(z: float) -> float:
    return exprel_logd(z) + z * exprel_logd2(z)


# (e, e1, max |generator parameter|) of each named family
_STOLARSKY = (log_exprel, exprel_logd, 1.0)
_GINI = (softplus, sigmoid, 2.0)
_IDENTRIC2 = (_identric_e, _identric_e1, 1.0)
_HERONIAN2 = (log_heronian_sum, heronian_weight, 1.0)


def _family_ln(kernels: tuple, p: float, q: float, a: float, b: float
               ) -> tuple[float, str, float]:
    """(ln M, branch, est ln error) of a named family at valid inputs.

    Raises SaturationError where the public evaluator does: |p*r*w| > 700
    or |ln M| > 709.  At a = b, w = 0 and every branch gives ln b exactly.
    """
    e, e1, gen_max = kernels
    w = log_ratio(a, b)
    _check_saturation(p, q, gen_max, w)
    ln, branch, est = _ln_eval(e, e1, w, p, q, math.log(b))
    _check_range(ln)
    return ln, branch, est


def _family_eval(kernels: tuple, pp: ParamPair, pt: MeanPoint) -> EvalResult:
    if pt.a == pt.b:
        return EvalResult(pt.a, BRANCH_DIAGONAL, 0.0)
    ln, branch, est = _family_ln(kernels, pp.p, pp.q, pt.a, pt.b)
    return EvalResult(math.exp(ln), branch, est)


# ---------------------------------------------------------------------------
# classical one-shot means
# ---------------------------------------------------------------------------

def arithmetic_mean(pt: MeanPoint) -> float:
    return 0.5 * pt.a + 0.5 * pt.b


def geometric_mean(pt: MeanPoint) -> float:
    ab = pt.a * pt.b
    if math.isfinite(ab) and ab > 0.0:
        return math.sqrt(ab)
    return math.sqrt(pt.a) * math.sqrt(pt.b)  # a*b over- or underflowed


def log_mean(pt: MeanPoint) -> float:
    """Logarithmic mean (a-b)/(ln a - ln b), series for near-equal arguments."""
    a, b = pt.a, pt.b
    if a == b:
        return a
    u = (a - b) / (a + b)
    if abs(u) <= 1e-4:
        # L = A * u/atanh(u), expanded to O(u^8)
        u2 = u * u
        return 0.5 * (a + b) * (1.0 - u2 * (1.0 / 3.0 + u2 * (4.0 / 45.0 + u2 * (44.0 / 945.0))))
    return (a - b) / log_ratio(a, b)


def ln_identric(a: float, b: float) -> float:
    """ln I(a, b) with I the identric mean, stable on the near diagonal."""
    if a == b:
        return math.log(a)
    w = log_ratio(a, b)
    return math.log(b) + w * exprel_logd(w)


def identric_mean(pt: MeanPoint) -> float:
    """Identric mean e^-1 (a^a/b^b)^(1/(a-b)), computed in log space."""
    if pt.a == pt.b:
        return pt.a
    return math.exp(ln_identric(pt.a, pt.b))


def power_exponential_Z(pt: MeanPoint) -> float:
    """Z(a, b) = exp((a ln a + b ln b)/(a + b)).

    The weights a/(a+b) = 1/(1 + b/a) and b/(a+b) are formed from the
    quotients, which cannot overflow the way a ln a and a + b can.
    """
    a, b = pt.a, pt.b
    return math.exp(math.log(a) / (1.0 + b / a) + math.log(b) / (1.0 + a / b))


def heronian_mean(pt: MeanPoint) -> float:
    return (pt.a + geometric_mean(pt) + pt.b) / 3.0


def Y_mean(pt: MeanPoint) -> float:
    """Y(a, b) = I * exp(1 - G^2/L^2), the diagonal branch of I_{p,q}."""
    if pt.a == pt.b:
        return pt.a
    g = geometric_mean(pt)
    ell = log_mean(pt)
    return identric_mean(pt) * math.exp(1.0 - (g / ell) ** 2)


def _power_mean_exponent(t: float, a: float, b: float) -> float:
    """ln PM - ln b = log1p(expm1(t w)/2)/t, cancellation-free across t = 0."""
    z = t * log_ratio(a, b)
    if abs(z) > OVERFLOW_LIMIT:
        raise SaturationError("power-mean exponent not representable", z)
    if z > 30.0:
        body = z + math.log1p(math.exp(-z)) - math.log(2.0)
    else:
        body = math.log1p(0.5 * math.expm1(z))
    return body / t


def _ln_power_mean(t: float, a: float, b: float) -> float:
    """ln of the power mean for t != 0, without leaving log space."""
    return math.log(b) + _power_mean_exponent(t, a, b)


def power_mean(t: float, pt: MeanPoint) -> float:
    """Power mean ((a^t + b^t)/2)^(1/t); geometric mean at t = 0.

    b * exp(ln PM - ln b) where that is finite and nonzero, exp(ln PM)
    where the factor exp(ln PM - ln b) alone over- or underflows.
    """
    if t == 0.0:
        return geometric_mean(pt)
    a, b = pt.a, pt.b
    if a == b:
        return a
    x = _power_mean_exponent(t, a, b)
    try:
        value = b * math.exp(x)
    except OverflowError:
        value = _INF
    if 0.0 < value < _INF:
        return value
    return math.exp(math.log(b) + x)


# ---------------------------------------------------------------------------
# two-parameter families through the shared engine
# ---------------------------------------------------------------------------

def stolarsky(pp: ParamPair, pt: MeanPoint) -> EvalResult:
    """Stolarsky mean S_{p,q}(a, b), all five parameter branches."""
    return _family_eval(_STOLARSKY, pp, pt)


def gini(pp: ParamPair, pt: MeanPoint) -> EvalResult:
    """Gini mean G_{p,q}(a, b)."""
    return _family_eval(_GINI, pp, pt)


def two_param_identric(pp: ParamPair, pt: MeanPoint) -> EvalResult:
    """Two-parameter identric mean I_{p,q}(a, b) of the identric-ratio form."""
    return _family_eval(_IDENTRIC2, pp, pt)


def two_param_heronian(pp: ParamPair, pt: MeanPoint) -> EvalResult:
    """Two-parameter Heronian mean He_{p,q}(a, b)."""
    return _family_eval(_HERONIAN2, pp, pt)


def _four_param_generator(w: float, r: float, s: float):
    """E and E' for ln F(.,.;r,s) including the removable r = s locus."""
    rs_scale = 1.0 + abs(r) + abs(s)
    d = r - s
    if abs(d) <= SINGULAR_DELTA * rs_scale or abs(d) <= MIDPOINT_BAND:
        m = 0.5 * (r + s)

        def E(t: float) -> float:
            return t * w * exprel_logd(t * m * w)

        def E1(t: float) -> float:
            z = t * m * w
            return w * exprel_logd(z) + t * m * w * w * exprel_logd2(z)

        return E, E1

    def E(t: float) -> float:
        return (log_exprel(t * r * w) - log_exprel(t * s * w)) / d

    def E1(t: float) -> float:
        return (r * w * exprel_logd(t * r * w) - s * w * exprel_logd(t * s * w)) / d

    return E, E1


def four_param_F(pp: ParamPair, gp: GeneratorPair, pt: MeanPoint) -> EvalResult:
    """Four-parameter mean F(p, q; r, s; a, b).

    When (r, s) sits on the r = s singular locus while (p, q) does not,
    the exchange symmetry F(p,q;r,s) = F(r,s;p,q) is applied and the
    result is tagged 'swapped'.
    """
    if pt.a == pt.b:
        return EvalResult(pt.a, BRANCH_DIAGONAL, 0.0)
    w = log_ratio(pt.a, pt.b)
    _check_saturation(pp.p, pp.q, max(abs(gp.r), abs(gp.s)), w)

    pq_singular = abs(pp.p - pp.q) <= SINGULAR_DELTA * (1.0 + abs(pp.p) + abs(pp.q))
    rs_singular = abs(gp.r - gp.s) <= SINGULAR_DELTA * (1.0 + abs(gp.r) + abs(gp.s))
    if rs_singular and not pq_singular:
        inner = four_param_F(ParamPair(gp.r, gp.s), GeneratorPair(pp.p, pp.q), pt)
        return EvalResult(inner.value, BRANCH_SWAPPED, inner.est_rel_error)

    E, E1 = _four_param_generator(w, gp.r, gp.s)
    return _finish(*_ln_eval(E, E1, 1.0, pp.p, pp.q, math.log(pt.b)))


def reduction_table(pp: ParamPair, gp: GeneratorPair) -> Optional[ReductionTag]:
    """Classical family a four-parameter configuration collapses to.

    Matches the four classical reductions F(p,2p), F(p,0), F(p,p) and
    F(p/2,3p/2) of the generator ratio, in either parameter order.
    """
    p, q = pp.p, pp.q
    r, s = gp.r, gp.s
    tol = 1e-12 * (1.0 + abs(p) + abs(q))
    if abs(p - q) <= tol:
        return ReductionTag("identric2", p * r, p * s)
    if abs(q) <= tol:
        return ReductionTag("stolarsky", p * r, p * s)
    if abs(p) <= tol:
        return ReductionTag("stolarsky", q * r, q * s)
    if abs(q - 2.0 * p) <= tol:
        return ReductionTag("gini", p * r, p * s)
    if abs(p - 2.0 * q) <= tol:
        return ReductionTag("gini", q * r, q * s)
    if abs(q - 3.0 * p) <= tol:
        return ReductionTag("heronian2", 2.0 * p * r, 2.0 * p * s)
    if abs(p - 3.0 * q) <= tol:
        return ReductionTag("heronian2", 2.0 * q * r, 2.0 * q * s)
    return None


# ---------------------------------------------------------------------------
# family registry (used by convexity-lab, inequality-suite and the CLI)
# ---------------------------------------------------------------------------

FamilyEvaluator = Callable[[ParamPair, MeanPoint], EvalResult]

_FAMILY_GENERATORS = {
    "stolarsky": GeneratorPair(1.0, 0.0),
    "gini": GeneratorPair(2.0, 1.0),
    "identric2": GeneratorPair(1.0, 1.0),
    "heronian2": GeneratorPair(1.5, 0.5),
}

_DIRECT_FAMILIES: dict[str, FamilyEvaluator] = {
    "stolarsky": stolarsky,
    "gini": gini,
    "identric2": two_param_identric,
    "heronian2": two_param_heronian,
}


def family_evaluator(name: str, gen: GeneratorPair | None = None) -> FamilyEvaluator:
    """Resolve a family name to its (ParamPair, MeanPoint) -> EvalResult map.

    Recognised names: stolarsky, gini, identric2, heronian2,
    four_param (requires gen) and hd.
    """
    if name in _DIRECT_FAMILIES:
        return _DIRECT_FAMILIES[name]
    if name == "four_param":
        if gen is None:
            raise DomainError("four_param family needs a GeneratorPair")
        return lambda pp, pt: four_param_F(pp, gen, pt)
    if name == "hd":
        from .hgf import hd_eval

        return hd_eval
    raise DomainError(f"unknown family {name!r}")


def family_generator_pair(name: str) -> GeneratorPair:
    """The (r, s) generator behind each named two-parameter family."""
    return _FAMILY_GENERATORS[name]


def parse_parameter(text: str) -> float:
    """Parse a CLI parameter, accepting exact rationals such as 2/3."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse parameter {text!r}") from exc
