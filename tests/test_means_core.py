"""Mean families: worked examples, branch bookkeeping,
parameter/argument invariants and the reduction table."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from parmeans import (
    BRANCH_BOTH_ZERO,
    BRANCH_DIAGONAL,
    BRANCH_P_EQ_Q,
    BRANCH_Q_ZERO,
    DomainError,
    EvalResult,
    GeneratorPair,
    MeanPoint,
    ParamPair,
    SaturationError,
    Y_mean,
    arithmetic_mean,
    four_param_F,
    geometric_mean,
    gini,
    hd_eval,
    heronian_mean,
    identric_mean,
    log_mean,
    power_exponential_Z,
    power_mean,
    reduction_table,
    stolarsky,
    stolarsky_generator,
    two_param_heronian,
    two_param_identric,
)
from parmeans.core import parse_parameter

E = math.e


def test_mean_point_validation():
    with pytest.raises(DomainError):
        MeanPoint(0.0, 1.0)
    with pytest.raises(DomainError):
        MeanPoint(1.0, -2.0)
    with pytest.raises(DomainError):
        MeanPoint(1.0, math.inf)
    with pytest.raises(DomainError):
        ParamPair(math.nan, 1.0)
    # non-numbers are a DomainError, not a TypeError from math.isfinite
    with pytest.raises(DomainError):
        ParamPair("x", 1.0)
    with pytest.raises(DomainError):
        GeneratorPair(None, 1.0)
    with pytest.raises(DomainError):
        GeneratorPair(1.0, math.inf)


def test_arithmetic_geometric_heronian():
    assert arithmetic_mean(MeanPoint(4, 2)) == 3
    assert arithmetic_mean(MeanPoint(1, 3)) == 2
    assert arithmetic_mean(MeanPoint(7.5, 7.5)) == 7.5
    assert geometric_mean(MeanPoint(4, 1)) == 2
    assert geometric_mean(MeanPoint(2, 8)) == 4
    assert geometric_mean(MeanPoint(5.5, 5.5)) == pytest.approx(5.5, rel=1e-15)
    assert heronian_mean(MeanPoint(4, 1)) == pytest.approx(7 / 3, rel=1e-15)
    assert heronian_mean(MeanPoint(9, 4)) == pytest.approx(19 / 3, rel=1e-15)
    assert heronian_mean(MeanPoint(3, 3)) == pytest.approx(3.0, rel=1e-15)


def test_log_mean_basic():
    assert log_mean(MeanPoint(4, 2)) == pytest.approx(2 / math.log(2), rel=1e-15)
    assert log_mean(MeanPoint(6, 6)) == 6


def test_log_mean_near_diagonal_series_oracle():
    # oracle: L = A * u/atanh(u), u = (a-b)/(a+b), evaluated independently
    for d in (1e-12, 1e-7, 5e-5, 9e-5):
        a, b = 1.0, 1.0 + d
        u = (a - b) / (a + b)
        oracle = 0.5 * (a + b) * (u / math.atanh(u)) if u != 0 else a
        assert log_mean(MeanPoint(a, b)) == pytest.approx(oracle, rel=1e-13)
    # worked point: (1, 1 + 1e-12) within 1e-13 of 1 + 5e-13
    assert log_mean(MeanPoint(1.0, 1.0 + 1e-12)) == pytest.approx(1.0 + 5e-13, rel=1e-13)


def test_log_mean_wide_ratio_accuracy():
    # rel error <= 1e-13 against the exact quotient for ratios up to 1e8
    for ratio in (1.0000001, 1.01, 10.0, 1e4, 1e8):
        a, b = ratio, 1.0
        exact = (a - b) / math.log(a)
        assert log_mean(MeanPoint(a, b)) == pytest.approx(exact, rel=1e-13)
        big = 7.3e7
        assert log_mean(MeanPoint(a * big, b * big)) == pytest.approx(big * exact, rel=1e-13)


def test_identric_mean():
    assert identric_mean(MeanPoint(5, 5)) == 5
    # closed form at (e, 1): e^(e/(e-1) - 1)
    assert identric_mean(MeanPoint(E, 1)) == pytest.approx(
        math.exp(E / (E - 1) - 1), rel=1e-14)
    assert identric_mean(MeanPoint(4, 2)) == pytest.approx(8 / E, rel=1e-14)


def test_identric_z_identity():
    # I(a^2, b^2)/I(a, b) = Z(a, b) to 1e-13
    for a, b in [(4.0, 2.0), (1.0, 3.0), (0.7, 5.1), (2.0, 2.0000002)]:
        lhs = identric_mean(MeanPoint(a * a, b * b)) / identric_mean(MeanPoint(a, b))
        assert lhs == pytest.approx(power_exponential_Z(MeanPoint(a, b)), rel=1e-13)


def test_power_exponential_Z():
    assert power_exponential_Z(MeanPoint(1, 1)) == 1
    assert power_exponential_Z(MeanPoint(6.5, 6.5)) == pytest.approx(6.5, rel=1e-15)
    assert power_exponential_Z(MeanPoint(4, 2)) == pytest.approx(2 ** (5 / 3), rel=1e-14)


def test_Y_mean():
    assert Y_mean(MeanPoint(3, 3)) == 3
    pt = MeanPoint(4, 2)
    composed = identric_mean(pt) * math.exp(1 - geometric_mean(pt) ** 2 / log_mean(pt) ** 2)
    assert Y_mean(pt) == pytest.approx(composed, rel=1e-15)
    # Eq-consistency: Y = I_{p,p} branch at p = 1
    assert two_param_identric(ParamPair(1, 1), pt).value == pytest.approx(
        Y_mean(pt), rel=1e-13)


def test_power_mean():
    assert power_mean(1, MeanPoint(4, 2)) == pytest.approx(3, rel=1e-15)
    assert power_mean(0, MeanPoint(4, 1)) == 2
    assert power_mean(-1, MeanPoint(2, 6)) == pytest.approx(3, rel=1e-14)
    # continuity across t = 0
    g = geometric_mean(MeanPoint(3, 7))
    for t in (1e-18, -1e-18, 1e-12):
        assert power_mean(t, MeanPoint(3, 7)) == pytest.approx(g, rel=1e-10)


# an int beyond the float range raised OverflowError from math.isfinite or from t * w
def test_param_pair_rejects_an_int_beyond_the_float_range():
    with pytest.raises(DomainError):
        ParamPair(10 ** 400, 1)


def test_generator_pair_rejects_an_int_beyond_the_float_range():
    with pytest.raises(DomainError):
        GeneratorPair(1, -10 ** 400)


def test_mean_point_rejects_an_int_beyond_the_float_range():
    with pytest.raises(DomainError):
        MeanPoint(10 ** 400, 1)
    with pytest.raises(DomainError):
        MeanPoint(1, 10 ** 400)
    assert MeanPoint(2 ** 1023, 1).a == 2 ** 1023  # an int within it passes


def test_power_mean_rejects_an_int_exponent_beyond_the_float_range():
    with pytest.raises(DomainError):
        power_mean(10 ** 400, MeanPoint(2, 6))
    assert power_mean(2, MeanPoint(2, 6)) == pytest.approx(math.sqrt(20), rel=1e-15)


# an int of more than 4300 digits: formatting it into the DomainError message
# raised Python's foreign ValueError for int-to-str conversion
_HUGE = 10 ** 5000


def test_param_pair_rejects_an_int_of_over_4300_digits():
    with pytest.raises(DomainError, match=r"got \(<int of 16610 bits>, 1\)"):
        ParamPair(_HUGE, 1)


def test_generator_pair_rejects_an_int_of_over_4300_digits():
    with pytest.raises(DomainError, match=r"got \(1, <int of 16610 bits>\)"):
        GeneratorPair(1, -_HUGE)


def test_mean_point_rejects_an_int_of_over_4300_digits():
    with pytest.raises(DomainError, match="MeanPoint.a .* got <int of 16610 bits>"):
        MeanPoint(_HUGE, 1)


def test_power_mean_rejects_an_int_exponent_of_over_4300_digits():
    with pytest.raises(DomainError, match="got <int of 16610 bits>"):
        power_mean(_HUGE, MeanPoint(2, 6))


def test_stolarsky_generator_rejects_an_int_of_over_4300_digits():
    with pytest.raises(DomainError, match="GeneratorPair"):
        stolarsky_generator(_HUGE, 1)


def test_rejected_values_keep_their_repr():
    # floats and short values print as before; a long value is cut, not printed whole
    with pytest.raises(DomainError, match=r"got \(nan, 1\.5\)"):
        ParamPair(math.nan, 1.5)
    with pytest.raises(DomainError) as info:
        ParamPair("x" * 10_000, 1)
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, "a", None])
def test_power_mean_rejects_an_exponent_that_is_not_a_finite_real(t):
    # power_mean(nan, pt) returned NaN and power_mean("a", pt) raised TypeError
    with pytest.raises(DomainError):
        power_mean(t, MeanPoint(2, 6))


def _within_log_rounding(value, ref):
    """exp turns an absolute error of a few ulps of |ln ref| into the relative error."""
    import mpmath as mp

    return abs(value - ref) / ref <= 4 * 2.0 ** -52 * (1 + abs(mp.log(ref)))


@pytest.mark.parametrize("t, a, b", [
    (0.0635, 4.3e192, 1.3e-218),   # b * exp(ln PM - ln b) overflowed
    (-0.105, 2.3e-297, 1.26e82),   # b * exp(ln PM - ln b) underflowed to 0
])
def test_power_mean_extreme_arguments_mpmath(t, a, b):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        T, A, B = mp.mpf(t), mp.mpf(a), mp.mpf(b)
        ref = ((A ** T + B ** T) / 2) ** (1 / T)
        assert _within_log_rounding(power_mean(t, MeanPoint(a, b)), ref)


def test_power_exponential_Z_extreme_arguments_mpmath():
    mp = pytest.importorskip("mpmath")
    a, b = 3.2e-5, 3.4e305  # a ln a + b ln b overflows
    with mp.workdps(50):
        A, B = mp.mpf(a), mp.mpf(b)
        ref = mp.exp((A * mp.log(A) + B * mp.log(B)) / (A + B))
        assert _within_log_rounding(power_exponential_Z(MeanPoint(a, b)), ref)


def test_stolarsky_examples():
    assert stolarsky(ParamPair(2, 1), MeanPoint(4, 2)).value == pytest.approx(3, rel=1e-14)
    assert stolarsky(ParamPair(1, -1), MeanPoint(4, 1)).value == pytest.approx(2, rel=1e-14)
    assert stolarsky(ParamPair(1, 0), MeanPoint(4, 2)).value == pytest.approx(
        2 / math.log(2), rel=1e-14)
    res = stolarsky(ParamPair(0, 0), MeanPoint(9, 4))
    assert res.value == pytest.approx(6, rel=1e-14)
    assert res.branch == BRANCH_BOTH_ZERO
    assert stolarsky(ParamPair(2, 1), MeanPoint(5, 5)).branch == BRANCH_DIAGONAL
    assert stolarsky(ParamPair(1, 0), MeanPoint(4, 2)).branch == BRANCH_Q_ZERO
    assert stolarsky(ParamPair(3, 3), MeanPoint(4, 2)).branch == BRANCH_P_EQ_Q


def test_gini_examples():
    assert gini(ParamPair(1, 0), MeanPoint(4, 2)).value == pytest.approx(3, rel=1e-14)
    assert gini(ParamPair(0, 0), MeanPoint(4, 1)).value == pytest.approx(2, rel=1e-14)
    assert gini(ParamPair(1, 1), MeanPoint(4, 2)).value == pytest.approx(
        2 ** (5 / 3), rel=1e-14)


def test_two_param_identric_examples():
    pt = MeanPoint(4, 2)
    assert two_param_identric(ParamPair(1, 1), pt).value == pytest.approx(
        Y_mean(pt), rel=1e-13)
    assert two_param_identric(ParamPair(2, 2), MeanPoint(7, 7)).value == 7
    # I_{p,q} = (I(a^p,b^p)/I(a^q,b^q))^(1/(p-q)) against the plain identric
    for (p, q) in [(2.0, 0.5), (1.5, 3.0), (0.3, 0.8)]:
        direct = (identric_mean(MeanPoint(4.0 ** p, 2.0 ** p))
                  / identric_mean(MeanPoint(4.0 ** q, 2.0 ** q))) ** (1.0 / (p - q))
        assert two_param_identric(ParamPair(p, q), pt).value == pytest.approx(
            direct, rel=1e-13)


def test_two_param_heronian_examples():
    assert two_param_heronian(ParamPair(1, 0), MeanPoint(4, 1)).value == pytest.approx(
        7 / 3, rel=1e-14)
    assert two_param_heronian(ParamPair(2, 2), MeanPoint(5, 5)).value == 5
    # p = q = 0 corner equals the geometric mean; oracle: limit probe of
    # the p = q branch as p -> 0
    pt = MeanPoint(4, 1)
    corner = two_param_heronian(ParamPair(0, 0), pt).value
    probes = [two_param_heronian(ParamPair(p, p), pt).value for p in (1e-4, 1e-5, 1e-6)]
    assert corner == pytest.approx(2.0, rel=1e-13)
    assert probes[-1] == pytest.approx(corner, rel=1e-5)
    assert abs(probes[2] - corner) < abs(probes[0] - corner)


def test_four_param_examples():
    assert four_param_F(ParamPair(1, 0), GeneratorPair(1, 0), MeanPoint(4, 2)
                        ).value == pytest.approx(2 / math.log(2), rel=1e-14)
    assert four_param_F(ParamPair(1, 0), GeneratorPair(2, 1), MeanPoint(4, 2)
                        ).value == pytest.approx(3, rel=1e-14)
    res = four_param_F(ParamPair(0, 0), GeneratorPair(1.3, 0.4), MeanPoint(9, 4))
    assert res.value == pytest.approx(6, rel=1e-14)
    assert res.branch == BRANCH_BOTH_ZERO


def test_four_param_full_symmetry():
    pt = MeanPoint(5, 2)
    base = four_param_F(ParamPair(1.3, 0.4), GeneratorPair(2.2, -0.7), pt).value
    variants = [
        four_param_F(ParamPair(0.4, 1.3), GeneratorPair(2.2, -0.7), pt).value,
        four_param_F(ParamPair(1.3, 0.4), GeneratorPair(-0.7, 2.2), pt).value,
        four_param_F(ParamPair(2.2, -0.7), GeneratorPair(1.3, 0.4), pt).value,
    ]
    for v in variants:
        assert v == pytest.approx(base, rel=1e-12)


def test_four_param_swapped_branch():
    res = four_param_F(ParamPair(1.5, 0.5), GeneratorPair(2.0, 2.0), MeanPoint(5, 2))
    # r = s with (p, q) off the locus: the value must match the exchanged
    # pairs, F(p,q;r,s) = F(r,s;p,q), which put the band on (p, q) instead
    direct = four_param_F(ParamPair(2.0, 2.0), GeneratorPair(1.5, 0.5), MeanPoint(5, 2))
    assert res.value == pytest.approx(direct.value, rel=1e-14)


@pytest.mark.parametrize("p, q, r, s, a, b", [
    (5.281874655980905, 5.262361541009781, -1.993075594529507, -1.993075594529507,
     1.4776770934949999, 416.3240131220413),
    (1.7182384601305198, 1.7393456875384263, 0.24657651084278598, 0.24657651084278598,
     1137.0297790178845, 0.00236350031169276),
    (1.9583467745562952, -2.758455243669158, 2.8071293185819064, 2.7861623474033834,
     0.43588513277790814, 2389.9918884447443),
])
def test_four_param_inner_quotient_within_estimate_mpmath(p, q, r, s, a, b):
    # the inner (r, s) quotient cancels; its rounding, also at r = s with
    # (p, q) off the band (the first two), must be inside est_rel_error
    res = four_param_F(ParamPair(p, q), GeneratorPair(r, s), MeanPoint(a, b))
    ref = _mp_four_param(p, q, r, s, a, b)
    assert abs(res.value - ref) <= ref * res.est_rel_error


def _mp_four_param(p, q, r, s, a, b):
    """F(p, q; r, s; a, b) from its defining ratio, with the digits r - s cancels added."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50 + (int(-math.log10(abs(r - s))) if r != s else 0)):
        P, Q, R, S, A, B = (mp.mpf(v) for v in (p, q, r, s, a, b))

        def S_rs(x, y):  # S_{r,s}(x, y); I(x^r, y^r)^(1/r) at r = s
            if r == s:
                X, Y = x ** R, y ** R
                return mp.exp((-1 + (X * mp.log(X) - Y * mp.log(Y)) / (X - Y)) / R)
            return ((S * (x ** R - y ** R)) / (R * (x ** S - y ** S))) ** (1 / (R - S))

        return (S_rs(A ** P, B ** P) / S_rs(A ** Q, B ** Q)) ** (1 / (P - Q))


def test_four_param_on_the_r_eq_s_locus_within_estimate_mpmath():
    # (r, s) within 1e-6 (1 + |r| + |s|) of r = s and (p, q) off the band:
    # F is read through the inner (r, s) band rule, not by exchanging the pairs
    rng = random.Random(21)
    for _ in range(120):
        r = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)
        s = r if rng.random() < 0.3 else \
            r + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -6.5) * (1.0 + 2.0 * abs(r))
        p, q = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        if abs(p - q) <= 1e-2:
            continue
        b = 10.0 ** rng.uniform(-2.0, 2.0)
        a = b * math.exp(rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 5.0))
        res = four_param_F(ParamPair(p, q), GeneratorPair(r, s), MeanPoint(a, b))
        ref = _mp_four_param(p, q, r, s, a, b)
        err = float(abs(res.value - ref) / ref)
        assert err <= res.est_rel_error, (p, q, r, s, a, b, err, res.est_rel_error)


def test_four_param_mean_bounds():
    rng = random.Random(5)
    for _ in range(300):
        pp = ParamPair(rng.uniform(-4, 4), rng.uniform(-4, 4))
        gp = GeneratorPair(rng.uniform(-4, 4), rng.uniform(-4, 4))
        a = math.exp(rng.uniform(-2, 2))
        ratio = math.exp(rng.uniform(math.log(1.000001), math.log(1e4)))
        pt = MeanPoint(a, a * ratio)
        res = four_param_F(pp, gp, pt)
        slack = 10.0 * res.est_rel_error + 5e-14
        assert min(pt.a, pt.b) * (1 - slack) <= res.value <= max(pt.a, pt.b) * (1 + slack)


def test_saturation_error():
    with pytest.raises(SaturationError):
        stolarsky(ParamPair(400.0, 1.0), MeanPoint(1.0, math.exp(2.0)))
    with pytest.raises(SaturationError):
        four_param_F(ParamPair(100.0, 1.0), GeneratorPair(4.0, 1.0),
                     MeanPoint(1.0, math.exp(2.0)))
    with pytest.raises(SaturationError):
        power_mean(800.0, MeanPoint(1.0, math.exp(1.0)))
    try:
        stolarsky(ParamPair(400.0, 1.0), MeanPoint(1.0, math.exp(2.0)))
    except SaturationError as exc:
        assert exc.exponent == pytest.approx(800.0, rel=1e-12)


def test_range_saturation_reports_its_limit():
    # |ln H_D| > 709 is refused with the range limit, not the 700 exponent limit
    with pytest.raises(SaturationError) as info:
        hd_eval(ParamPair(2.7e-4, -2.1e-3), MeanPoint(0.74, 1.04))
    assert info.value.limit == 709.0
    assert abs(info.value.exponent) > 709.0
    assert "limit 709)" in str(info.value)
    assert "(ln M -865.646, limit 709)" in str(info.value)
    assert "exponent product" not in str(info.value)


def test_saturation_messages_name_their_quantity():
    with pytest.raises(SaturationError) as info:
        EvalResult(0.0, "generic", 0.0)
    assert str(info.value) == "evaluated mean left the positive floating range (value 0)"
    assert (info.value.exponent, info.value.limit) == (0.0, None)
    with pytest.raises(SaturationError) as info:
        stolarsky(ParamPair(400.0, 1.0), MeanPoint(1.0, math.exp(2.0)))
    assert "(exponent product 800, limit 700)" in str(info.value)


def test_branch_continuity_p_eq_q():
    # values at parameter distance 10x threshold on either side of the
    # p_eq_q tag switch agree to 1e-8 relative (both take the band rule)
    pt = MeanPoint(1.0, 7.0)
    for fam in (stolarsky, gini, two_param_identric, two_param_heronian):
        for m in (0.7, 2.0, -1.3):
            tau = 1e-6 * (1 + 2 * abs(m))
            wide = fam(ParamPair(m + 5 * tau, m - 5 * tau), pt).value
            narrow = fam(ParamPair(m + tau / 20, m - tau / 20), pt).value
            other_side = fam(ParamPair(m - 5 * tau, m + 5 * tau), pt).value
            assert wide == pytest.approx(narrow, rel=1e-8)
            assert wide == pytest.approx(other_side, rel=1e-12)


def test_branch_continuity_zero_loci():
    pt = MeanPoint(1.0, 7.0)
    for fam in (stolarsky, gini, two_param_identric, two_param_heronian):
        tau = 1e-13 * 2.0
        at_zero = fam(ParamPair(1.0, 0.0), pt).value
        assert fam(ParamPair(1.0, 10 * tau), pt).value == pytest.approx(at_zero, rel=1e-8)
        assert fam(ParamPair(1.0, -10 * tau), pt).value == pytest.approx(at_zero, rel=1e-8)
        assert fam(ParamPair(10 * tau, 1.0), pt).value == pytest.approx(
            fam(ParamPair(0.0, 1.0), pt).value, rel=1e-8)


def test_branch_continuity_r_eq_s():
    pt = MeanPoint(1.0, 7.0)
    pp = ParamPair(1.7, 0.6)
    for m in (0.9, -1.4):
        tau = 1e-6 * (1 + 2 * abs(m))
        wide = four_param_F(pp, GeneratorPair(m + 5 * tau, m - 5 * tau), pt).value
        narrow = four_param_F(pp, GeneratorPair(m + tau / 20, m - tau / 20), pt).value
        assert wide == pytest.approx(narrow, rel=1e-8)


def test_parameter_and_argument_symmetry():
    rng = random.Random(11)
    for _ in range(200):
        p, q = rng.uniform(-4, 4), rng.uniform(-4, 4)
        a = math.exp(rng.uniform(-3, 3))
        b = a * math.exp(rng.uniform(math.log(1.00001), math.log(1e3)))
        for fam in (stolarsky, gini, two_param_identric, two_param_heronian):
            v = fam(ParamPair(p, q), MeanPoint(a, b)).value
            assert fam(ParamPair(q, p), MeanPoint(a, b)).value == pytest.approx(v, rel=1e-12)
            assert fam(ParamPair(p, q), MeanPoint(b, a)).value == pytest.approx(v, rel=1e-12)


def test_homogeneity():
    rng = random.Random(12)
    for _ in range(100):
        p, q = rng.uniform(-4, 4), rng.uniform(-4, 4)
        pt = MeanPoint(rng.uniform(0.5, 3.0), rng.uniform(3.5, 40.0))
        for lam in (1e-3, 1.0, 1e3):
            for fam in (stolarsky, gini, two_param_identric, two_param_heronian):
                v = fam(ParamPair(p, q), pt).value
                scaled = fam(ParamPair(p, q), MeanPoint(lam * pt.a, lam * pt.b)).value
                assert scaled == pytest.approx(lam * v, rel=1e-12)


def test_monotonicity_in_p_for_positive_generator_sum():
    # F nondecreasing in p when r + s > 0; finite-difference slope >= -1e-10
    rng = random.Random(13)
    kept = 0
    while kept < 1000:
        p = rng.uniform(-4, 4)
        q = rng.uniform(-4, 4)
        if abs(p - q) < 0.05:
            continue
        r = rng.uniform(-4, 4)
        s = rng.uniform(-4, 4)
        if r + s <= 0.05 or abs(r - s) < 0.01:
            continue
        pt = MeanPoint(1.0, math.exp(rng.uniform(math.log(1.1), math.log(100.0))))
        h = 0.01
        up = math.log(four_param_F(ParamPair(p + h, q), GeneratorPair(r, s), pt).value)
        dn = math.log(four_param_F(ParamPair(p - h, q), GeneratorPair(r, s), pt).value)
        assert (up - dn) / (2 * h) >= -1e-10
        kept += 1


def test_reduction_table():
    assert reduction_table(ParamPair(1, 2), GeneratorPair(1.7, 0.3)) == \
        __import__("parmeans").ReductionTag("gini", 1.7, 0.3)
    assert reduction_table(ParamPair(1, 0), GeneratorPair(2.5, 0.5)).family == "stolarsky"
    tag = reduction_table(ParamPair(1, 3), GeneratorPair(1, 0))
    assert tag.family == "heronian2" and (tag.p, tag.q) == (2.0, 0.0)
    assert reduction_table(ParamPair(0.7, 0.7), GeneratorPair(1, 0)).family == "identric2"
    assert reduction_table(ParamPair(1.1, 2.3), GeneratorPair(1, 0)) is None


def test_reduction_consistency_spot():
    # F(1,3;1,0) = He_{2,0} = sqrt((a^2 + ab + b^2)/3)
    pt = MeanPoint(4, 1)
    val = four_param_F(ParamPair(1, 3), GeneratorPair(1, 0), pt).value
    assert val == pytest.approx(math.sqrt(7), rel=1e-12)
    assert two_param_heronian(ParamPair(2, 0), pt).value == pytest.approx(
        math.sqrt(7), rel=1e-12)
    # F(1,2;r,s) = G_{r,s}
    pt2 = MeanPoint(4, 2)
    assert four_param_F(ParamPair(1, 2), GeneratorPair(1, 0), pt2).value == pytest.approx(
        gini(ParamPair(1, 0), pt2).value, rel=1e-12)


def test_parse_parameter():
    assert parse_parameter("2/3") == pytest.approx(2 / 3, rel=0, abs=0)
    assert parse_parameter("-1.5") == -1.5
    assert parse_parameter("4") == 4.0
    with pytest.raises(DomainError):
        parse_parameter("x/y")


def test_import_leaves_fractions_and_decimal_unloaded():
    # parse_parameter imports fractions itself, so importing the package and
    # building its catalogs loads neither fractions nor decimal
    code = ("import sys, parmeans; parmeans.catalog(); parmeans.builtin_generators(); "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
