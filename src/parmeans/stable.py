"""Scalar kernels behind every mean evaluator.

All removable singularities funnel through a handful of one-variable
functions of z = t * ln(a/b).  Each kernel carries a power-series branch
near zero (catastrophic cancellation region) and saturation-safe
asymptotic branches, so callers never touch raw a**p powers.
"""

from __future__ import annotations

import math

# Series crossovers chosen so the truncated tail sits below 1e-14
# relative while the direct formulas are still cancellation-free.
_SERIES_CUT = 0.35
_EXP_CUT = 30.0
LOGD3_CUT = 1.5  # exprel_logd3's own cut: its direct form cancels 113x here, its series to z^31 does not

# Absolute rounding floors, in eps, of the first- and second-derivative
# kernels over all z (seen against 60-digit mpmath): just above the series
# cut the direct formulas cancel, so exprel_logd loses up to about 4 eps and
# identric_weight about 6, exprel_logd2 about 12 and identric_weight_d 27.
E1_FLOOR = 8.0
E2_FLOOR = 32.0


def log_ratio(a: float, b: float) -> float:
    """ln(a/b) with full relative accuracy for any positive a, b.

    Near a = b the quotient ln(a/b) would cancel, so log1p of the
    relative gap is used there; far from 1 the plain log is exact to a
    few ulp and avoids the (a-b)/b cancellation when a << b.
    """
    r = a / b
    if 0.5 < r < 2.0:
        return math.log1p((a - b) / b)
    if math.isfinite(r) and r > 0.0:
        return math.log(r)
    return math.log(a) - math.log(b)  # a/b over- or underflowed


def log_exprel(z: float) -> float:
    """ln(expm1(z)/z) with log_exprel(0) = 0; stable for all finite z."""
    if z == 0.0:
        return 0.0
    if z > _EXP_CUT:
        # expm1 would overflow near 710; ln(e^z - 1) = z + ln(1 - e^-z)
        return z - math.log(z) + math.log1p(-math.exp(-z))
    if z < -_EXP_CUT:
        return math.log1p(-math.exp(z)) - math.log(-z)
    return math.log(math.expm1(z) / z)


def exprel_logd(z: float) -> float:
    """d/dz log_exprel(z) = e^z/expm1(z) - 1/z, with value 1/2 at z = 0.

    Bernoulli series z/(1-e^-z) = 1 + z/2 + sum B_2k z^2k/(2k)! below the
    crossover, direct quotients elsewhere.
    """
    if abs(z) < _SERIES_CUT:
        z2 = z * z
        return 0.5 + z * (
            1.0 / 12.0
            + z2 * (-1.0 / 720.0
            + z2 * (1.0 / 30240.0
            + z2 * (-1.0 / 1209600.0
            + z2 * (1.0 / 47900160.0
            + z2 * (-691.0 / 1307674368000.0)))))
        )
    if z > _EXP_CUT:
        return 1.0 / (-math.expm1(-z)) - 1.0 / z
    return math.exp(z) / math.expm1(z) - 1.0 / z


def exprel_logd2(z: float) -> float:
    """Second derivative of log_exprel: 1/z^2 - 1/(4 sinh^2(z/2))."""
    az = abs(z)
    if az < _SERIES_CUT:
        z2 = z * z
        return (
            1.0 / 12.0
            + z2 * (-1.0 / 240.0
            + z2 * (1.0 / 6048.0
            + z2 * (-7.0 / 1209600.0
            + z2 * (9.0 / 47900160.0
            + z2 * (-7601.0 / 1307674368000.0)))))
        )
    if az > 700.0:
        return 1.0 / (z * z)
    s = math.sinh(0.5 * z)
    return 1.0 / (z * z) - 1.0 / (4.0 * s * s)


def exprel_logd3(z: float) -> float:
    """Third derivative of log_exprel: -2/z^3 + cosh(z/2)/(4 sinh^3(z/2))."""
    az = abs(z)
    if az < LOGD3_CUT:
        z2 = z * z
        return z * (
            -1.0 / 120.0
            + z2 * (1.0 / 1512.0
            + z2 * (-1.0 / 28800.0
            + z2 * (1.0 / 665280.0
            + z2 * (-691.0 / 11887948800.0
            + z2 * (1.0 / 479001600.0
            + z2 * (-3617.0 / 50812489728000.0
            + z2 * (43867.0 / 18783434621952000.0
            + z2 * (-174611.0 / 2347537025433600000.0
            + z2 * (77683.0 / 33574047712837632000.0
            + z2 * (-236364091.0 / 3347478531090402508800000.0
            + z2 * (657931.0 / 310224200866619719680000.0
            + z2 * (-3392780147.0 / 53979010950791831224320000000.0
            + z2 * (1723168255201.0 / 935702329613349837879115776000000.0
            + z2 * (-7709321041217.0 / 144297555737831935898151813120000000.0
            + z2 * (151628697551.0 / 98674063850135073812706754560000000.0)))))))))))))))
        )
    if az > 700.0:
        return -2.0 / (z * z * z)
    s = math.sinh(0.5 * z)
    return -2.0 / (z * z * z) + 1.0 / (4.0 * s * s * math.tanh(0.5 * z))


def expm1_logd2(z: float) -> float:
    """Second derivative of ln|expm1(z)|: -1/(4 sinh^2(z/2)) = -u/(1 - u)^2 with u = e^-|z|,
    even in z, with a pole at z = 0 and -inf where |z| < 7.5e-155 puts it beyond the float
    range.  exprel_logd2(z) = expm1_logd2(z) + 1/z^2."""
    az = abs(z)
    d = -math.expm1(-az)
    return -math.exp(-az) / d / d  # one division at a time overflows to inf, never by 0


def expm1_logd3(z: float) -> float:
    """Third derivative of ln|expm1(z)|: cosh(z/2)/(4 sinh^3(z/2)) = u (1 + u)/(1 - u)^3
    with u = e^-|z|, odd in z, with a pole at z = 0 and +-inf where |z| < 2e-103 puts it
    beyond the float range.  exprel_logd3(z) = expm1_logd3(z) - 2/z^3."""
    az = abs(z)
    u = math.exp(-az)
    d = -math.expm1(-az)
    r = u * (1.0 + u) / d / d / d  # one division at a time overflows to inf, never by 0
    return r if z > 0.0 else -r


def softplus(z: float) -> float:
    """ln(1 + e^z) without overflow."""
    if z > _EXP_CUT:
        return z + math.log1p(math.exp(-z))
    if z < -_EXP_CUT:
        return math.exp(z)
    return math.log1p(math.exp(z))


def sigmoid(z: float) -> float:
    """1/(1 + e^-z)."""
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def sigmoid_d(z: float) -> float:
    """sigmoid'(z) = sigmoid(z) sigmoid(-z), the logistic density; even in z."""
    u = math.exp(-abs(z))
    return u / ((1.0 + u) * (1.0 + u))


def sigmoid_d2(z: float) -> float:
    """sigmoid''(z) = -sign(z) u (1 - u)/(1 + u)^3 with u = e^-|z|; odd in z."""
    az = abs(z)
    u = math.exp(-az)
    s = 1.0 + u
    r = u * math.expm1(-az) / (s * s * s)
    return r if z > 0.0 else -r


def log_heronian_sum(z: float) -> float:
    """ln(1 + e^(z/2) + e^z), the Heronian three-term log-sum-exp."""
    if z > 0.0:
        return z + math.log1p(math.exp(-z) + math.exp(-0.5 * z))
    return math.log1p(math.exp(0.5 * z) + math.exp(z))


def heronian_weight(z: float) -> float:
    """(e^z + e^(z/2)/2) / (1 + e^(z/2) + e^z), the a-exponent weight."""
    if z > 0.0:
        em = math.exp(-0.5 * z)
        em2 = math.exp(-z)
        return (1.0 + 0.5 * em) / (1.0 + em + em2)
    e = math.exp(0.5 * z)
    e2 = math.exp(z)
    return (e2 + 0.5 * e) / (1.0 + e + e2)


def heronian_weight_d(z: float) -> float:
    """heronian_weight'(z) = u (1 + 4u + u^2) / (4 (1 + u + u^2)^2) with u = e^(-|z|/2); even in z."""
    u = math.exp(-0.5 * abs(z))
    s = 1.0 + u + u * u
    return u * (1.0 + 4.0 * u + u * u) / (4.0 * s * s)


def heronian_weight_d2(z: float) -> float:
    """heronian_weight''(z) = -sign(z) u (1 - u)(1 + 8u + 8u^2 + u^3) / (8 (1 + u + u^2)^3)
    with u = e^(-|z|/2); odd in z."""
    az = 0.5 * abs(z)
    u = math.exp(-az)
    s = 1.0 + u + u * u
    r = u * math.expm1(-az) * (1.0 + u * (8.0 + u * (8.0 + u))) / (8.0 * s * s * s)
    return r if z > 0.0 else -r


def expm1_minus_z_over_z2(z: float) -> float:
    """(e^z - 1 - z)/z^2 = sum z^k/(k+2)!, value 1/2 at z = 0."""
    if abs(z) < _SERIES_CUT:
        return (
            0.5
            + z * (1.0 / 6.0
            + z * (1.0 / 24.0
            + z * (1.0 / 120.0
            + z * (1.0 / 720.0
            + z * (1.0 / 5040.0
            + z * (1.0 / 40320.0
            + z * (1.0 / 362880.0
            + z * (1.0 / 3628800.0
            + z * (1.0 / 39916800.0)))))))))
        )
    return (math.expm1(z) - z) / (z * z)


def identric_weight(v: float) -> float:
    """x (ln I)_x as a function of v = ln(x/y): d/dv [v exprel_logd(v)]."""
    return exprel_logd(v) + v * exprel_logd2(v)


def identric_weight_d(v: float) -> float:
    """identric_weight'(v) = 2 exprel_logd2(v) + v exprel_logd3(v)."""
    return 2.0 * exprel_logd2(v) + v * exprel_logd3(v)


def identric_weight_d2(v: float) -> float:
    """identric_weight''(v) = 3 L'''(v) + v L''''(v), L = log_exprel, odd in v, with the
    -6/v^3 of 3 L''' and the +6/v^3 of v L'''' cancelled in closed form: with u = e^-|v| and
    v > 0 it is u (3 (1 - u)(1 + u) - v (1 + 4u + u^2))/(1 - u)^4.  Below exprel_logd3's
    cut, where that cancels, its series, whose coefficients are 2k times those of
    exprel_logd3 at v^(2k-3)."""
    av = abs(v)
    if av < LOGD3_CUT:
        v2 = v * v
        return v * (
            -1.0 / 30.0
            + v2 * (1.0 / 252.0
            + v2 * (-1.0 / 3600.0
            + v2 * (1.0 / 66528.0
            + v2 * (-691.0 / 990662400.0
            + v2 * (1.0 / 34214400.0
            + v2 * (-3617.0 / 3175780608000.0
            + v2 * (43867.0 / 1043524145664000.0
            + v2 * (-174611.0 / 117376851271680000.0
            + v2 * (77683.0 / 1526093077856256000.0
            + v2 * (-236364091.0 / 139478272128766771200000.0
            + v2 * (657931.0 / 11931700033331527680000.0
            + v2 * (-3392780147.0 / 1927821819671136829440000000.0
            + v2 * (1723168255201.0 / 31190077653778327929303859200000.0
            + v2 * (-7709321041217.0 / 4509298616807247996817244160000000.0
            + v2 * (151628697551.0 / 2902178348533384523903139840000000.0)))))))))))))))
        )
    u = math.exp(-av)
    d = -math.expm1(-av)
    d2 = d * d
    r = u * (3.0 * d * (1.0 + u) - av * (1.0 + u * (4.0 + u))) / (d2 * d2)
    return r if v > 0.0 else -r
