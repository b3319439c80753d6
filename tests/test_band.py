"""The band rule for the removable singularities, against 50-digit mpmath.

Every mean here is a divided difference ln M = ln b + (E(p) - E(q))/(p - q)
of a log-generator E, and F(p,q;r,s) and the Stolarsky generator S_{r,s}
hold a second one in (r, s).  On the band |p - q| <= 1e-3 (and
|r - s| <= 1e-3) the quotient is the 3-point Gauss-Legendre mean of E'.
These tests sample the band over |p - q| in [1e-9, 1e-3], compare with
the defining quotient in high precision, and check that the value does
not jump where the rule switches to the plain quotient at 1e-3.
"""

import math
import random

import pytest

from parmeans import (
    GeneratorPair,
    MeanPoint,
    ParamPair,
    SaturationError,
    four_param_F,
    gini,
    hd_eval,
    hf_eval,
    stolarsky,
    stolarsky_generator,
    two_param_heronian,
    two_param_identric,
)

mp = pytest.importorskip("mpmath")

STRICT = 1e-14  # relative accuracy required where |ln(a/b)| <= 20


def _log_exprel(z):
    return mp.mpf(0) if z == 0 else mp.log(mp.expm1(z) / z)


def _exprel_logd(z):
    return mp.mpf(1) / 2 if z == 0 else mp.exp(z) / mp.expm1(z) - 1 / z


def _family_E(family, r=0.0, s=0.0):
    """E(t, w) of ln M = ln b + (E(p) - E(q))/(p - q), w = ln(a/b)."""
    if family == "stolarsky":
        return lambda t, w: _log_exprel(t * w)
    if family == "gini":
        return lambda t, w: mp.log(1 + mp.exp(t * w))
    if family == "identric2":
        return lambda t, w: t * w * _exprel_logd(t * w)
    if family == "heronian2":
        return lambda t, w: mp.log(1 + mp.exp(t * w / 2) + mp.exp(t * w))
    if family == "hd":
        return lambda t, w: mp.log(abs(mp.expm1(t * w)))
    R, S = mp.mpf(r), mp.mpf(s)
    if r == s:
        return lambda t, w: t * w * _exprel_logd(t * R * w)
    return lambda t, w: (_log_exprel(t * R * w) - _log_exprel(t * S * w)) / (R - S)


def _reference(family, p, q, a, b, r=0.0, s=0.0):
    """The mean from its defining quotient, with the digits p - q and r - s cancel added."""
    lost = sum(int(-math.log10(abs(x - y))) + 1 for x, y in ((p, q), (r, s)) if x != y)
    with mp.workdps(50 + lost):
        E = _family_E(family, r, s)
        w = mp.log(mp.mpf(a)) - mp.log(mp.mpf(b))
        P, Q = mp.mpf(p), mp.mpf(q)
        ln = mp.diff(lambda t: E(t, w), P) if p == q else (E(P, w) - E(Q, w)) / (P - Q)
        return mp.mpf(b) * mp.exp(ln)


FAMILIES = {"stolarsky": stolarsky, "gini": gini,
            "identric2": two_param_identric, "heronian2": two_param_heronian}
RS_GENERIC = ((1.5, 0.5), (2.0, -1.0), (-2.5, 0.7))


def _evaluate(kind, p, q, a, b, r=0.0, s=0.0):
    pp, pt = ParamPair(p, q), MeanPoint(a, b)
    if kind in FAMILIES:
        return FAMILIES[kind](pp, pt)
    if kind == "hd":
        return hd_eval(pp, pt)
    if kind == "four_param":
        return four_param_F(pp, GeneratorPair(r, s), pt)
    return hf_eval(stolarsky_generator(r, s), pp, pt)  # kind == "hf_stolarsky"


def _band_pair(rng, centre):
    d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -3.0)
    return centre + 0.5 * d, centre - 0.5 * d


def _point(rng, w_min, w_max):
    """(a, 1) with w_min <= |ln(a/b)| <= w_max.

    b = 1 makes ln b = 0, so the estimates hold only the band rule's
    terms; the rounding of ln b, which cancels against the quotient where
    M is far from b, has its own test below.
    """
    return math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(w_min, w_max)), 1.0


def _outer_pair(rng):
    """(p, q) of opposite signs, whose quotient does not cancel."""
    return rng.uniform(0.5, 3.0), -rng.uniform(0.5, 3.0)


def _cases(kind, rng, count, w_max):
    """(p, q, a, b, r, s) with (p, q) or, for the generator-pair kinds, (r, s) in the band."""
    out = []
    while len(out) < count:
        a, b = _point(rng, 0.05, w_max)
        if kind in FAMILIES:
            out.append((*_band_pair(rng, rng.uniform(-6.0, 6.0)), a, b, 0.0, 0.0))
        elif kind == "hd_same_sign":
            p, q = _band_pair(rng, rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 6.0))
            out.append((p, q, a, b, 0.0, 0.0))
        elif kind == "hd_straddling":
            # both signs within the band; |p| - |q| of order (p - q)^2 keeps
            # the pole ln(|p|/|q|)/(p - q) of order 1
            p, q = _band_pair(rng, 0.0)
            p += (p - q) ** 2 * rng.uniform(-1.0, 1.0)
            out.append((p, q, a, b, 0.0, 0.0))
        elif kind == "four_param_pq":
            out.append((*_band_pair(rng, rng.uniform(-4.0, 4.0)), a, b, *rng.choice(RS_GENERIC)))
        else:  # four_param_rs and hf_stolarsky: (r, s) in the band
            out.append((*_outer_pair(rng), a, b, *_band_pair(rng, rng.uniform(-2.5, 2.5))))
    return out


KINDS = [*FAMILIES, "hd_same_sign", "hd_straddling", "four_param_pq", "four_param_rs",
         "hf_stolarsky"]


def _eval_kind(kind):
    return {"hd_same_sign": "hd", "hd_straddling": "hd", "four_param_pq": "four_param",
            "four_param_rs": "four_param"}.get(kind, kind)


def _ref_family(kind):
    """hf_eval(S_{r,s}) is F(p, q; r, s)."""
    return "four_param" if kind == "hf_stolarsky" else _eval_kind(kind)


@pytest.mark.parametrize("kind", KINDS)
def test_band_against_mpmath(kind):
    rng = random.Random(KINDS.index(kind) + 101)
    for w_max, count in ((20.0, 40), (300.0, 20)):
        for p, q, a, b, r, s in _cases(kind, rng, count, w_max):
            try:
                res = _evaluate(_eval_kind(kind), p, q, a, b, r, s)
            except SaturationError:
                continue
            ref = _reference(_ref_family(kind), p, q, a, b, r, s)
            err = float(abs(res.value - ref) / ref)
            assert err <= res.est_rel_error, (kind, p, q, a, b, r, s, err, res.est_rel_error)
            if w_max <= 20.0:
                assert err <= STRICT, (kind, p, q, a, b, r, s, err)


def _switch_pair(centre):
    """(x, y_in, y_out): |x - y_in| <= 1e-3 < |x - y_out|, y_out one ulp beyond y_in."""
    y = centre - 1e-3
    while abs(centre - y) > 1e-3:
        y = math.nextafter(y, centre)
    return centre, y, math.nextafter(y, -math.inf)


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "hd_straddling"])
def test_band_switch_continuity(kind):
    # one ulp apart across the 1e-3 switch the two rules agree to the
    # rounding of the plain quotient: its estimate, plus 1e-12 for the
    # inner (r, s) quotient of the generator, which hf_eval cannot see
    rng = random.Random(KINDS.index(kind) + 201)
    for _ in range(12):
        a, b = _point(rng, 1.0, 5.0)
        x, y_in, y_out = _switch_pair(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 2.5))
        if kind in ("four_param_rs", "hf_stolarsky"):
            p, q = _outer_pair(rng)
            inside = _evaluate(_eval_kind(kind), p, q, a, b, x, y_in)
            outside = _evaluate(_eval_kind(kind), p, q, a, b, x, y_out)
        else:
            r, s = rng.choice(RS_GENERIC)
            inside = _evaluate(_eval_kind(kind), x, y_in, a, b, r, s)
            outside = _evaluate(_eval_kind(kind), x, y_out, a, b, r, s)
        jump = abs(inside.value / outside.value - 1.0)
        assert jump <= outside.est_rel_error + 1e-12, (kind, x, y_in, a, b, jump)


@pytest.mark.parametrize("family, p, q, a, b", [
    ("stolarsky", -1.1238838688941064, -1.1238838709275834,
     0.44402947272432336, 4145.066895026807),
    ("gini", -1.1238838688941064, -1.1238838709275834,
     0.44402947272432336, 4145.066895026807),
    ("stolarsky", 0.5849670125731672, 0.5849670125731672,
     7.7400659617998615, 0.008134504155961942),
])
def test_estimate_covers_ln_b_rounding(family, p, q, a, b):
    # M far from b: ln b and the quotient cancel in ln M, so the rounding
    # of ln b exceeds the band rule's own terms (err/est was up to 2.16 without it)
    res = FAMILIES[family](ParamPair(p, q), MeanPoint(a, b))
    ref = _reference(family, p, q, a, b)
    err = float(abs(res.value - ref) / ref)
    assert err <= res.est_rel_error, (family, err, res.est_rel_error)


def test_estimate_covers_log_exprel_absolute_rounding():
    # log_exprel(z) near z = 0 is the log of a number near 1: accurate to
    # about eps absolute, not relative, which the estimate's floor covers
    # (err/est was 1.56 without it)
    p, q, a, b = -0.04792756033801475, -0.030022157964689985, 1.0, 5.012910696197319
    res = stolarsky(ParamPair(p, q), MeanPoint(a, b))
    ref = _reference("stolarsky", p, q, a, b)
    err = float(abs(res.value - ref) / ref)
    assert err <= res.est_rel_error, (err, res.est_rel_error)


def test_estimate_covers_e1_rounding_at_p_eq_q():
    # at p = q the band rule is E'(p) = w e1(p w) alone; just above the series
    # cut identric_weight is accurate to about 6 eps absolute, times |w|, which
    # the estimate's E1_FLOOR term covers (err/est was 2.38 without it)
    p, a, b = -0.01984704707979031, 4147940611.815509, 0.00817352571353212
    res = two_param_identric(ParamPair(p, p), MeanPoint(a, b))
    ref = _reference("identric2", p, p, a, b)
    err = float(abs(res.value - ref) / ref)
    assert err <= res.est_rel_error, (err, res.est_rel_error)
    rng = random.Random(2)
    for _ in range(200):
        w = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 1.5)
        p = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.6) / w
        b = 10.0 ** rng.uniform(-3.0, 3.0)
        a = b * math.exp(w)
        res = two_param_identric(ParamPair(p, p), MeanPoint(a, b))
        ref = _reference("identric2", p, p, a, b)
        err = float(abs(res.value - ref) / ref)
        assert err <= res.est_rel_error, (p, a, b, err, res.est_rel_error)


@pytest.mark.parametrize("family", ["stolarsky", "hd"])
def test_estimate_covers_small_z_quotient(family):
    # |p - q| just outside the band and |p w|, |q w| small: the kernel
    # values are near their absolute rounding floor (err/est reached 47)
    evaluate = stolarsky if family == "stolarsky" else hd_eval
    rng = random.Random(1)
    for _ in range(60):
        m = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 6.0)
        d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.9, -1.0)
        p, q = m + 0.5 * d, m - 0.5 * d
        b = 10.0 ** rng.uniform(-1.0, 1.0)
        a = b * math.exp(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-7.0, -1.0))
        res = evaluate(ParamPair(p, q), MeanPoint(a, b))
        ref = _reference(family, p, q, a, b)
        err = float(abs(res.value - ref) / ref)
        assert err <= res.est_rel_error, (family, p, q, a, b, err, res.est_rel_error)


def test_band_mean_of_a_zero_width_interval_is_one_evaluation():
    from parmeans.core import _band_mean

    calls = []

    def f(z):
        calls.append(z)
        return math.exp(z)

    x, w = 0.7310585786300049, -3.25
    assert _band_mean(f, x, x, w) == (math.exp(x * w), 0.0)
    assert calls == [x * w]
