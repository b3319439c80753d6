"""Closed-form, branch-complete evaluation of the parametric bivariate means.

Every two-parameter family here is a ratio-power of a one-homogeneous
generator evaluated at (a^p, b^p) and (a^q, b^q).  With w = ln(a/b) and
E(t) = ln f(a^t, b^t) - t ln(b), the mean is

    ln M(p, q) = ln(b) + (E(p) - E(q)) / (p - q)

with the removable singularity at p = q filled by the band rule below.

Kernel rows.  In every family E depends on t only through z = t w, so
each is a row (e, e1, e2, e3, gen_max, g, c) with E(t) = e(t w),
E'(t) = w e1(t w), E''(t) = w^2 e2(t w), E'''(t) = w^3 e3(t w), the
largest |generator parameter| gen_max and the rounding (g, c) of kernels
that are divided differences, (0, 0) for stable.py's own:

    stolarsky   e = log_exprel(z)        e1 = exprel_logd(z)     e2 = exprel_logd2(z)
                e3 = exprel_logd3(z)
    gini        e = softplus(z)          e1 = sigmoid(z)         e2 = sigmoid_d(z)
                e3 = sigmoid_d2(z)
    identric2   e = z exprel_logd(z)     e1 = identric_weight(z) e2 = identric_weight_d(z)
                e3 = identric_weight_d2(z)
    heronian2   e = log_heronian_sum(z)  e1 = heronian_weight(z) e2 = heronian_weight_d(z)
                e3 = heronian_weight_d2(z)
    F(.,.;r,s)  _rs_kernels(r, s), the divided difference in (r, s) of log_exprel(u z)
    H_D         the Stolarsky row plus an exact pole term (hgf)

Every generator of hgf carries such a row.  e2 feeds the closed-form
Hessian of convexity, e3 the T''' of hgf.t_derivatives; the evaluators
read e and e1.

Engine.  _family_ln(row, p, q, w, ln b) returns (ln M, estimated
error of ln M) from the point's logs w = ln(a/b) and ln b, so a caller
that evaluates many (p, q) at one point takes the logs once.  In one
frame it refuses exponent products |p r w| beyond 700, chooses the band,
takes the quotient and refuses |ln M| beyond 709.  On the band
(_in_band) the quotient is the 3-point Gauss-Legendre mean of E' over
[q, p] (_band_mean), E'(p) at p = q, with the size of its correction to
E'((p+q)/2) and e1's absolute rounding (stable.E1_FLOOR) as the
estimate; the same two helpers fill r = s in _rs_kernels.  Off the band
the kernel values' rounding has an absolute floor (log_exprel near 0 is
the log of a number near 1).  Every estimate also covers the rounding of
ln b against the quotient, and a row with g != 0 adds its kernels'
rounding.  At w = 0 the means give ln b exactly.  The branch tag is a
function of (p, q) alone (_branch); p_eq_q tags
|p - q| <= 1e-6 * (1 + |p| + |q|), zero parameters 1e-13 * scale, as E
is smooth at 0 and needs no formula there.  hf_eval (hgf) runs the
engine on a generator's row at the real w, with k ln b in place of ln b.

_family_ln_column(row, ps, qs, ws, lnbs) is the same engine over
columns: the same tests and float operations, so bit-identical ln M,
NaN where _family_ln raises, and no estimate.  The inequality checker
reads each mean term through it as one column over a block of samples,
paying one frame per block where the kernels of one term cost about as
much as a frame.  Single calls keep _family_ln, which is cheaper for
one value; tests hold the two bit for bit equal.

The public evaluators validate at the dataclass boundary, call the
engine, tag the branch and exponentiate; the inequality checker reads
ln M from the column engine directly, with no dataclass and no exp/log
round trip.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import DomainError, SaturationError
from .stable import (
    E1_FLOOR,
    LOGD3_CUT,
    expm1_logd2,
    expm1_logd3,
    exprel_logd,
    exprel_logd2,
    exprel_logd3,
    heronian_weight,
    heronian_weight_d,
    heronian_weight_d2,
    identric_weight,
    identric_weight_d,
    identric_weight_d2,
    log_exprel,
    log_heronian_sum,
    log_ratio,
    sigmoid,
    sigmoid_d,
    sigmoid_d2,
    softplus,
)

# Branch-policy constants (see module docstring).
SINGULAR_DELTA = 1e-6
MIDPOINT_BAND = 1e-3
ZERO_TOL = 1e-13
OVERFLOW_LIMIT = 700.0
RANGE_LIMIT = 709.0  # |ln M| beyond this leaves the float range

BRANCH_GENERIC = "generic"
BRANCH_P_EQ_Q = "p_eq_q"
BRANCH_P_ZERO = "p_zero"
BRANCH_Q_ZERO = "q_zero"
BRANCH_BOTH_ZERO = "both_zero"
BRANCH_DIAGONAL = "diagonal_ab"

_EPS = 2.0 ** -52
_INF = math.inf
_FLOAT_MAX = sys.float_info.max
_GL_NODE, _GL_WEIGHT = math.sqrt(0.6), 5.0 / 18.0  # 3-point Gauss-Legendre outer node, weight


def _shown(*values: object) -> str:
    """Bounded reprs, comma-separated: Python refuses str() of an int of over 4300 digits."""
    return ", ".join(reprlib.repr(v) if not isinstance(v, int) or v.bit_length() <= 128
                     else f"<int of {v.bit_length()} bits>" for v in values)


def _check_point(a: float, b: float) -> None:
    """Raise DomainError unless a and b are positive finite reals.

    One combined test decides for float pairs; the per-field test runs
    only for other types (ints within the float range pass) and to name
    the offending field.
    """
    if type(a) is float and type(b) is float and 0.0 < a < _INF and 0.0 < b < _INF:
        return
    for name, v in (("a", a), ("b", b)):
        if not (isinstance(v, (int, float)) and 0.0 < v <= _FLOAT_MAX):
            raise DomainError(f"MeanPoint.{name} must be a positive finite real, got {_shown(v)}")


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
        # the try costs nothing on valid input; a non-number, or an int
        # beyond the float range, is a DomainError
        try:
            if math.isfinite(self.p) and math.isfinite(self.q):
                return
        except (TypeError, OverflowError):
            pass
        raise DomainError(f"ParamPair must be finite reals, got ({_shown(self.p, self.q)})")


@dataclass(frozen=True)
class GeneratorPair:
    """Generator parameter pair (r, s) of the four-parameter family."""

    r: float
    s: float

    def __post_init__(self):
        try:
            if math.isfinite(self.r) and math.isfinite(self.s):
                return
        except (TypeError, OverflowError):
            pass
        raise DomainError(f"GeneratorPair must be finite reals, got ({_shown(self.r, self.s)})")


@dataclass(frozen=True)
class EvalResult:
    """Mean value together with the branch taken and an error estimate."""

    value: float
    branch: str
    est_rel_error: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise SaturationError("evaluated mean left the positive floating range",
                                  self.value if math.isfinite(self.value) else math.inf,
                                  None, "value")


@dataclass(frozen=True)
class ReductionTag:
    """A classical family that a four-parameter configuration reduces to."""

    family: str  # stolarsky | gini | identric2 | heronian2
    p: float
    q: float


def _in_band(x: float, y: float) -> bool:
    """|x - y| <= 1e-3, or <= 1e-6 (1 + |x| + |y|): the divided difference takes the
    band rule.  _family_ln and _family_ln_column make the same test inline."""
    d = abs(x - y)
    return d <= MIDPOINT_BAND or d <= SINGULAR_DELTA * (1.0 + abs(x) + abs(y))


def _band_mean(f, x: float, y: float, scale: float) -> tuple[float, float]:
    """(mean, mean - f(m)) of f over [y*scale, x*scale] by 3-point Gauss-Legendre,
    (5 f(m-h) + 8 f(m) + 5 f(m+h))/18 summed so that x = y gives f(m) bit for bit;
    a zero-width interval takes the one evaluation f(m)."""
    zx, zy = x * scale, y * scale
    m, h = 0.5 * (zx + zy), 0.5 * (zx - zy) * _GL_NODE
    c = f(m)
    if h == 0.0:
        return c, 0.0
    corr = _GL_WEIGHT * ((f(m + h) - c) + (f(m - h) - c))
    return c + corr, corr


def _branch(p: float, q: float) -> str:
    """Branch tag of the divided difference at (p, q); see the module docstring."""
    scale = 1.0 + abs(p) + abs(q)
    if abs(p - q) <= SINGULAR_DELTA * scale:
        return BRANCH_BOTH_ZERO if max(abs(p), abs(q)) <= ZERO_TOL * scale else BRANCH_P_EQ_Q
    # a zero parameter inside the band is read by the band rule, so tagged generic
    if abs(q) <= ZERO_TOL * scale:
        return BRANCH_GENERIC if _in_band(p, q) else BRANCH_Q_ZERO
    if abs(p) <= ZERO_TOL * scale:
        return BRANCH_GENERIC if _in_band(p, q) else BRANCH_P_ZERO
    return BRANCH_GENERIC


def _identric_e(z: float) -> float:
    return z * exprel_logd(z)


# the kernel row (e, e1, e2, e3, max |generator parameter|, g, c) of each named family
_STOLARSKY = (log_exprel, exprel_logd, exprel_logd2, exprel_logd3, 1.0, 0.0, 0.0)
_GINI = (softplus, sigmoid, sigmoid_d, sigmoid_d2, 2.0, 0.0, 0.0)
_IDENTRIC2 = (_identric_e, identric_weight, identric_weight_d, identric_weight_d2, 1.0, 0.0, 0.0)
_HERONIAN2 = (log_heronian_sum, heronian_weight, heronian_weight_d, heronian_weight_d2,
              1.0, 0.0, 0.0)
_KERNELS = {"stolarsky": _STOLARSKY, "gini": _GINI,
            "identric2": _IDENTRIC2, "heronian2": _HERONIAN2}


def _family_ln(row: tuple, p: float, q: float, w: float, lnb: float,
               limit: float = RANGE_LIMIT) -> tuple[float, float]:
    """The engine: (ln M, est ln error) of a kernel row (e, e1, e2, e3, gen_max, g, c).

    See the module docstring.  w = log_ratio(a, b) and lnb = ln b of a
    valid point.  Rounding is monotone and sign-symmetric, so
    |max(|p|, |q|) gen_max w| is the largest exponent product |t r w| bit
    for bit.  g != 0 adds the kernels' rounding (_rs_kernels): E' is read on
    the band, E off it.  |ln M| is checked against limit; H_D checks its own sum.
    """
    e, e1, _, _, gen_max, g, c = row
    ap, aq = abs(p), abs(q)
    worst = abs((aq if aq > ap else ap) * gen_max * w)
    if worst > OVERFLOW_LIMIT:
        raise SaturationError("exponent product a^(p*r) not representable", worst, OVERFLOW_LIMIT)
    d = p - q
    ad = abs(d)
    if ad <= MIDPOINT_BAND or ad <= SINGULAR_DELTA * (1.0 + ap + aq):  # _in_band(p, q), inline
        # p == q is _band_mean's zero-width interval: e1 at its midpoint, no correction
        mean, corr = (e1(0.5 * (p * w + q * w)), 0.0) if d == 0.0 else _band_mean(e1, p, q, w)
        ln = lnb + w * mean
        est = abs(w) * (abs(corr) + E1_FLOOR * _EPS) + 4.0 * _EPS * (1.0 + abs(ln) + abs(lnb))
        if g:
            est += 2.0 * _EPS * (g * abs(w))
    else:
        ep, eq = e(p * w), e(q * w)
        ln = lnb + (ep - eq) / d
        # the 1 is the absolute rounding floor of kernels such as log_exprel near z = 0
        est = 2.0 * _EPS * (1.0 + abs(ep) + abs(eq)) / ad + 4.0 * _EPS * (1.0 + abs(ln) + abs(lnb))
        if g:
            est += 2.0 * _EPS * ((c + g * abs(w) * (ap + aq)) / ad)
    if abs(ln) > limit:
        raise SaturationError("result magnitude outside floating range", ln, limit, "ln M")
    return ln, est


def _family_ln_column(row: tuple, ps: Iterable[float], qs: Iterable[float],
                      ws: Iterable[float], lnbs: Iterable[float]) -> list[float]:
    """The engine over columns: _family_ln(row, p, q, w, ln b)[0] for each
    (p, q, w, ln b) of the zipped columns, NaN where it raises, with no estimate.

    The same saturation test, band rule, quotient and range test in the same
    float operations, so every value is bit-identical.  One frame serves a
    block of samples; a single value costs more here than from _family_ln.
    """
    e, e1, _, _, gen_max, _, _ = row
    nan = math.nan
    out = []
    put = out.append
    for p, q, w, lnb in zip(ps, qs, ws, lnbs):
        ap, aq = abs(p), abs(q)
        if abs((aq if aq > ap else ap) * gen_max * w) > OVERFLOW_LIMIT:
            put(nan)
            continue
        d = p - q
        ad = abs(d)
        if d == 0.0:  # _band_mean's zero-width interval, as in _family_ln
            ln = lnb + w * e1(0.5 * (p * w + q * w))
        elif ad <= MIDPOINT_BAND or ad <= SINGULAR_DELTA * (1.0 + ap + aq):  # _in_band, inline
            ln = lnb + w * _band_mean(e1, p, q, w)[0]
        else:
            ln = lnb + (e(p * w) - e(q * w)) / d
        put(nan if abs(ln) > RANGE_LIMIT else ln)
    return out


def _family_eval(row: tuple, pp: ParamPair, pt: MeanPoint) -> EvalResult:
    if pt.a == pt.b:
        return EvalResult(pt.a, BRANCH_DIAGONAL, 0.0)
    ln, est = _family_ln(row, pp.p, pp.q, log_ratio(pt.a, pt.b), math.log(pt.b))
    return EvalResult(math.exp(ln), _branch(pp.p, pp.q), est)


def _rs_kernels(r: float, s: float) -> tuple:
    """The kernel row (e, e1, e2, e3, max(|r|, |s|), g, c) of ln S_{r,s}: e is the divided
    difference in (r, s) of log_exprel(u z), by the band rule inside _in_band(r, s),
    e1 = e', e2 = e'' and e3 = e'''.  Their rounding is about 2 eps g in e1, 2 eps (g |z| + c)
    in e, 16 eps g max(|r|, |s|) in e2 and 16 eps g max(|r|, |s|)^3 in e3, from band means
    in (0, 1), or from kernel values (eps (1 + |z|) for log_exprel) over r - s.  Off the band
    the 1/z^2 parts of r^2 exprel_logd2(r z) and s^2 exprel_logd2(s z) are equal, as are the
    -2/z^3 parts of r^3 exprel_logd3(r z) and s^3 exprel_logd3(s z), so where both |r z| and
    |s z| reach exprel_logd3's cut, and those parts would swamp the difference, e2 differences
    expm1_logd2 = exprel_logd2 - 1/z^2 and e3 expm1_logd3 = exprel_logd3 + 2/z^3 instead.
    """
    if _in_band(r, s):
        def e(z: float) -> float:
            return z * _band_mean(exprel_logd, r, s, z)[0]

        def e1(z: float) -> float:
            return _band_mean(identric_weight, r, s, z)[0]

        def e2(z: float) -> float:
            return _band_mean(lambda u: u * identric_weight_d(u * z), r, s, 1.0)[0]

        def e3(z: float) -> float:
            return _band_mean(lambda u: u * u * identric_weight_d2(u * z), r, s, 1.0)[0]

        return e, e1, e2, e3, max(abs(r), abs(s)), 1.0, 0.0

    d = r - s

    def e(z: float) -> float:
        return (log_exprel(r * z) - log_exprel(s * z)) / d

    def e1(z: float) -> float:
        return (r * exprel_logd(r * z) - s * exprel_logd(s * z)) / d

    def e2(z: float) -> float:
        rz, sz = r * z, s * z
        k2 = expm1_logd2 if min(abs(rz), abs(sz)) >= LOGD3_CUT else exprel_logd2
        return (r * r * k2(rz) - s * s * k2(sz)) / d

    def e3(z: float) -> float:
        rz, sz = r * z, s * z
        k3 = expm1_logd3 if min(abs(rz), abs(sz)) >= LOGD3_CUT else exprel_logd3
        return (r * r * r * k3(rz) - s * s * s * k3(sz)) / d

    return e, e1, e2, e3, max(abs(r), abs(s)), (abs(r) + abs(s)) / abs(d), 4.0 / abs(d)


# ---------------------------------------------------------------------------
# classical one-shot means
# ---------------------------------------------------------------------------

# Float helpers over (a, b), or the point's logs (w, ln b), hold the
# formulas; the public means wrap them at the MeanPoint boundary.

def _arithmetic(a: float, b: float) -> float:
    return 0.5 * a + 0.5 * b


def _geometric(a: float, b: float) -> float:
    ab = a * b
    if math.isfinite(ab) and ab > 0.0:
        return math.sqrt(ab)
    return math.sqrt(a) * math.sqrt(b)  # a*b over- or underflowed


def _log_mean(a: float, b: float) -> float:
    if a == b:
        return a
    u = (a - b) / (a + b)
    if abs(u) <= 1e-4:
        # L = A * u/atanh(u), expanded to O(u^8)
        u2 = u * u
        return 0.5 * (a + b) * (1.0 - u2 * (1.0 / 3.0 + u2 * (4.0 / 45.0 + u2 * (44.0 / 945.0))))
    return (a - b) / log_ratio(a, b)


def _heronian(a: float, b: float) -> float:
    return (a + _geometric(a, b) + b) / 3.0


def _ln_identric(w: float, lnb: float) -> float:
    """ln I from w = ln(a/b) and ln b; w = 0 gives ln b exactly."""
    return lnb + w * exprel_logd(w)


def arithmetic_mean(pt: MeanPoint) -> float:
    return _arithmetic(pt.a, pt.b)


def geometric_mean(pt: MeanPoint) -> float:
    return _geometric(pt.a, pt.b)


def log_mean(pt: MeanPoint) -> float:
    """Logarithmic mean (a-b)/(ln a - ln b), series for near-equal arguments."""
    return _log_mean(pt.a, pt.b)


def ln_identric(a: float, b: float) -> float:
    """ln I(a, b) with I the identric mean, stable on the near diagonal."""
    if a == b:
        return math.log(a)
    return _ln_identric(log_ratio(a, b), math.log(b))


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
    return _heronian(pt.a, pt.b)


def Y_mean(pt: MeanPoint) -> float:
    """Y(a, b) = I * exp(1 - G^2/L^2), the diagonal branch of I_{p,q}."""
    if pt.a == pt.b:
        return pt.a
    g = geometric_mean(pt)
    ell = log_mean(pt)
    return identric_mean(pt) * math.exp(1.0 - (g / ell) ** 2)


def _power_mean_exponent(t: float, w: float) -> float:
    """ln PM - ln b = log1p(expm1(t w)/2)/t with w = ln(a/b), cancellation-free across t = 0."""
    z = t * w
    if abs(z) > OVERFLOW_LIMIT:
        raise SaturationError("power-mean exponent not representable", z,
                              OVERFLOW_LIMIT, "t ln(a/b)")
    if z > 30.0:
        body = z + math.log1p(math.exp(-z)) - math.log(2.0)
    else:
        body = math.log1p(0.5 * math.expm1(z))
    return body / t


def power_mean(t: float, pt: MeanPoint) -> float:
    """Power mean ((a^t + b^t)/2)^(1/t); geometric mean at t = 0.

    b * exp(ln PM - ln b) where that is finite and nonzero, exp(ln PM)
    where the factor exp(ln PM - ln b) alone over- or underflows.
    """
    if not (isinstance(t, (int, float)) and -_FLOAT_MAX <= t <= _FLOAT_MAX):
        raise DomainError(f"power mean exponent must be a finite real, got {_shown(t)}")
    if t == 0.0:
        return geometric_mean(pt)
    a, b = pt.a, pt.b
    if a == b:
        return a
    x = _power_mean_exponent(t, log_ratio(a, b))
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


def four_param_F(pp: ParamPair, gp: GeneratorPair, pt: MeanPoint) -> EvalResult:
    """Four-parameter mean F(p, q; r, s; a, b).

    The (r, s) row of _rs_kernels goes through the shared engine, so
    r = s takes the same band rule as p = q.  est_rel_error includes the
    rounding of that inner (r, s) rule.
    """
    return _family_eval(_rs_kernels(gp.r, gp.s), pp, pt)


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
    from fractions import Fraction  # here, not at import: it pulls in decimal
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse parameter {text!r}") from exc
