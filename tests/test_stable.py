"""Kernel-level checks: series branches against direct formulas,
finite-difference probes of the derivative kernels, and the second- and
third-derivative kernels against 50-digit mpmath."""

import math
import random

import pytest

from parmeans.stable import (
    expm1_logd2,
    expm1_logd3,
    expm1_minus_z_over_z2,
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


@pytest.mark.parametrize("z", [1e-12, 1e-6, 0.1, 0.3499, 0.3501, 1.0, 5.0, 29.9, 31.0,
                               120.0, -1e-9, -0.34, -0.36, -3.0, -40.0])
def test_log_exprel_matches_reference(z):
    # reference: ln(expm1(z)/z) via direct evaluation where representable
    if abs(z) < 700:
        ref = math.log(math.expm1(z) / z) if z < 700 else z
        assert log_exprel(z) == pytest.approx(ref, rel=1e-13)


def test_log_exprel_extremes():
    assert log_exprel(0.0) == 0.0
    assert log_exprel(800.0) == pytest.approx(800.0 - math.log(800.0), rel=1e-12)
    assert log_exprel(-800.0) == pytest.approx(-math.log(800.0), rel=1e-12)


@pytest.mark.parametrize("z", [0.0, 1e-10, 0.05, 0.3, 0.4, 2.0, -0.2, -0.4, -10.0, 50.0])
def test_exprel_logd_is_derivative(z):
    h = 1e-6 * (1.0 + abs(z))
    fd = (log_exprel(z + h) - log_exprel(z - h)) / (2.0 * h)
    assert exprel_logd(z) == pytest.approx(fd, rel=5e-9, abs=5e-11)


@pytest.mark.parametrize("z", [0.0, 1e-8, 0.2, 0.349, 0.351, 1.5, -0.3, -2.0, 20.0])
def test_exprel_logd2_is_second_derivative(z):
    h = 3e-5 * (1.0 + abs(z))
    fd = (exprel_logd(z + h) - exprel_logd(z - h)) / (2.0 * h)
    assert exprel_logd2(z) == pytest.approx(fd, rel=2e-7, abs=1e-10)


def test_series_branch_matches_direct_formula():
    # inside the series regime, the series must match the direct quotient
    # (evaluated inline) to near machine precision
    for z in (0.3499, 0.2, -0.2, -0.3499):
        s = math.sinh(0.5 * z)
        assert exprel_logd(z) == pytest.approx(
            math.exp(z) / math.expm1(z) - 1.0 / z, rel=5e-14)
        assert exprel_logd2(z) == pytest.approx(
            1.0 / (z * z) - 1.0 / (4.0 * s * s), rel=5e-13)
        assert expm1_minus_z_over_z2(z) == pytest.approx(
            (math.expm1(z) - z) / (z * z), rel=5e-14)
        assert identric_weight(z) == pytest.approx(
            (math.expm1(z) - z) / (4.0 * s * s), rel=5e-14)


@pytest.mark.parametrize("z", [-30.0, -2.0, -0.1, 0.0, 0.1, 2.0, 30.0, 500.0])
def test_softplus_sigmoid(z):
    if abs(z) <= 30:
        assert softplus(z) == pytest.approx(math.log(1.0 + math.exp(z)), rel=1e-14)
    assert sigmoid(z) == pytest.approx(1.0 / (1.0 + math.exp(-z)) if z > -30 else math.exp(z),
                                       rel=1e-13)
    h = 1e-6
    fd = (softplus(z + h) - softplus(z - h)) / (2 * h)
    assert sigmoid(z) == pytest.approx(fd, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("z", [-40.0, -1.0, -1e-8, 0.0, 1e-8, 1.0, 40.0])
def test_heronian_kernels(z):
    direct = math.log(1.0 + math.exp(0.5 * z) + math.exp(z)) if abs(z) < 300 else None
    if direct is not None:
        assert log_heronian_sum(z) == pytest.approx(direct, rel=1e-13)
    h = 1e-6 * (1 + abs(z))
    fd = (log_heronian_sum(z + h) - log_heronian_sum(z - h)) / (2 * h)
    assert heronian_weight(z) == pytest.approx(fd, rel=1e-7, abs=1e-12)


@pytest.mark.parametrize("v", [1e-14, 1e-7, 0.2, 0.34, 0.36, 1.0, 4.0])
def test_identric_weight_against_closed_form(v):
    # x (ln I)_x = (x - y - y ln(x/y))/(x - y)^2 * x at x = e^v, y = 1
    x, y = math.exp(v), 1.0
    if v > 1e-5:
        ref = (x - y - y * v) / (x - y) ** 2 * x
        assert identric_weight(v) == pytest.approx(ref, rel=1e-9)
    # weights of a and b sum to one by the Euler relation
    assert identric_weight(v) + identric_weight(-v) == pytest.approx(1.0, abs=1e-14)


def test_log_ratio_accuracy_near_equal():
    a, b = 1.0 + 1e-13, 1.0
    assert log_ratio(a, b) == pytest.approx(1e-13, rel=1e-10)
    assert log_ratio(4.0, 2.0) == pytest.approx(math.log(2.0), rel=1e-15)


# -- the second- and third-derivative kernels against 50-digit mpmath -------------

EPS = 2.0 ** -52


def _seeded_z(seed, count=120):
    """Seeded |z| from 1e-6 to 700 on both sides of the series cut, either sign."""
    rng = random.Random(seed)
    zs = [0.3499, 0.35, 0.3501, 1.0, 30.0, 699.0]
    zs += [10.0 ** rng.uniform(-6.0, math.log10(700.0)) for _ in range(count)]
    zs += [rng.uniform(0.25, 0.45) for _ in range(count // 4)]
    return [rng.choice((-1.0, 1.0)) * z for z in zs]


def _mp_kernels(mp, z):
    """(L'', L''', the magnitudes of the terms their direct formulas add) at z."""
    z = mp.mpf(z)
    x = z / 2
    sh = mp.sinh(x)
    l2 = 1 / z ** 2 - 1 / (4 * sh ** 2)
    l3 = -2 / z ** 3 + mp.cosh(x) / (4 * sh ** 3)
    return l2, l3, 2 / z ** 2, abs(4 / z ** 3)


def test_exprel_logd3_against_mpmath():
    # the series is accurate relative to the value; the direct formula, which
    # cancels near the cut, to a few eps of its two terms, each near 2/|z|^3
    mp = pytest.importorskip("mpmath")
    for z in _seeded_z(51):
        with mp.workdps(50):
            _, l3, _, terms3 = _mp_kernels(mp, z)
        scale = abs(l3) if abs(z) < 0.35 else terms3
        assert abs(exprel_logd3(z) - float(l3)) <= 4.0 * EPS * float(scale), z
    assert exprel_logd3(0.0) == 0.0
    assert exprel_logd3(800.0) == -2.0 / 800.0 ** 3


def test_exprel_logd3_relative_accuracy_across_its_cut():
    # the series runs to |z| = 1.5, where the direct form's two terms are 113
    # times the value: within 4 eps relative below the cut, 4 eps of the terms
    # above it, and 256 eps relative on [-2, 2] (the shared 0.35 cut gave
    # 1.4e4 eps at z = 0.364)
    mp = pytest.importorskip("mpmath")
    rng = random.Random(55)
    zs = [rng.uniform(-2.0, 2.0) for _ in range(300)] + [0.35, 0.36, 0.364]
    zs += [1.5 + k * 1e-3 for k in range(-25, 26)]  # a sweep across the cut
    for z in zs + [-z for z in zs]:
        with mp.workdps(60):
            _, l3, _, terms3 = _mp_kernels(mp, z)
        err = abs(exprel_logd3(z) - float(l3))
        assert err <= 4.0 * EPS * float(abs(l3) if abs(z) < 1.5 else terms3), z
        assert err <= 256.0 * EPS * float(abs(l3)), z


def test_identric_weight_d_against_mpmath():
    # 2 L'' + z L''': within a few eps of the terms both kernels add above the
    # cut; below it within 64 eps relative, as exprel_logd2's series stops at
    # z^10, whose tail is about 6e-16 (32 eps of L'') at the cut
    mp = pytest.importorskip("mpmath")
    for z in _seeded_z(52):
        with mp.workdps(60 + int(abs(z) / 2.3)):  # the value falls like |z| e^-|z|
            l2, l3, terms2, terms3 = _mp_kernels(mp, z)
            ref = 2 * l2 + z * l3
        tol = 64.0 * EPS * abs(ref) if abs(z) < 0.35 else \
            4.0 * EPS * (2 * terms2 + abs(z) * terms3)
        assert abs(identric_weight_d(z) - float(ref)) <= float(tol), z
    assert identric_weight_d(0.0) == 1.0 / 6.0


@pytest.mark.parametrize("kernel, reference", [
    (sigmoid_d, lambda mp, z: mp.exp(-abs(z)) / (1 + mp.exp(-abs(z))) ** 2),
    (heronian_weight_d, lambda mp, z: mp.diff(
        lambda t: (mp.exp(t) + mp.exp(t / 2) / 2) / (1 + mp.exp(t / 2) + mp.exp(t)), z)),
], ids=["sigmoid_d", "heronian_weight_d"])
def test_even_weight_derivatives_against_mpmath(kernel, reference):
    # sums of positive terms: a few eps relative, down to e^-700
    mp = pytest.importorskip("mpmath")
    for z in _seeded_z(53):
        with mp.workdps(60 + int(abs(z) / 2.3)):
            ref = reference(mp, mp.mpf(z))
        assert abs(kernel(z) - float(ref)) <= 4.0 * EPS * float(abs(ref)), z


@pytest.mark.parametrize("r, s", [(0.7, 0.7), (1.3, 1.3004), (-2.0, -1.999999),
                                  (2.5, -1.0), (-2.0, 0.5), (1.0, 1.002), (-2.5, -2.0)],
                         ids=["r_eq_s", "band", "band_1e-6", "off_rs_pos", "off_rs_neg",
                              "off_near_band", "off_same_sign"])
def test_rs_kernels_e2_against_mpmath(r, s):
    # e2 of F(.,.;r,s) is the (r, s) divided difference of u^2 L''(u z): at r = s
    # r (2 L'' + r z L''')(r z); within 16 eps g max(|r|, |s|) (see _rs_kernels), and
    # off the band within 1e-13 relative for |z| >= 5, where it differences expm1_logd2
    # (exprel_logd2's equal 1/z^2 parts left it 1e228 relative off at S(1, 1.002))
    mp = pytest.importorskip("mpmath")
    from parmeans.core import _in_band, _rs_kernels

    e2, gen_max, g = (_rs_kernels(r, s)[i] for i in (2, 4, 5))
    rng = random.Random(54)
    for _ in range(60):
        z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, math.log10(700.0 / gen_max))
        R, S = mp.mpf(r), mp.mpf(s)
        with mp.workdps(60 + int(abs(z) * gen_max / 2.3)):
            l2r, l3r, _, _ = _mp_kernels(mp, R * z)
            if r == s:
                ref = R * (2 * l2r + R * z * l3r)
            else:
                ref = (R ** 2 * l2r - S ** 2 * _mp_kernels(mp, S * z)[0]) / (R - S)
        assert abs(e2(z) - float(ref)) <= 16.0 * EPS * g * gen_max, z
        if abs(z) >= 5.0 and not _in_band(r, s):
            assert abs(e2(z) - float(ref)) <= 1e-13 * float(abs(ref)), z


# -- the third-derivative kernels e3 of the kernel rows ----------------------------

def _log_spaced_z():
    """|z| log-spaced from 1e-8 to 700, 12 a decade, and a sweep across exprel_logd3's
    cut 1.5, either sign."""
    zs = [10.0 ** (-8.0 + k * (math.log10(700.0) + 8.0) / 126) for k in range(127)]
    zs += [1.5 + k * 1e-3 for k in range(-25, 26)]
    return zs + [-z for z in zs]


def _mp_identric_weight_d2(mp, z):
    """(3 L''' + z L'''', the magnitude of the terms of its direct form) at z."""
    x = mp.mpf(z) / 2
    sh, ch = mp.sinh(x), mp.cosh(x)
    return (3 * ch * sh - x * (3 + 2 * sh ** 2)) / (4 * sh ** 4), \
        abs(3 * ch * sh + x * (3 + 2 * sh ** 2)) / (4 * sh ** 4)


@pytest.mark.parametrize("kernel, reference", [
    (sigmoid_d2, lambda mp, z: (lambda s: s * (1 - s) * (1 - 2 * s))(1 / (1 + mp.exp(-z)))),
    (heronian_weight_d2, lambda mp, z: mp.diff(
        lambda t: (mp.exp(t) + mp.exp(t / 2) / 2) / (1 + mp.exp(t / 2) + mp.exp(t)), z, 2)),
    (expm1_logd3, lambda mp, z: mp.cosh(z / 2) / (4 * mp.sinh(z / 2) ** 3)),
], ids=["sigmoid_d2", "heronian_weight_d2", "expm1_logd3"])
def test_odd_third_derivative_kernels_against_mpmath(kernel, reference):
    # products of e^-|z|, 1 - e^-|z| by expm1 and sums of positive terms:
    # a few eps relative, down to e^-700
    mp = pytest.importorskip("mpmath")
    for z in _log_spaced_z():
        with mp.workdps(60 + int(abs(z) / 2.3)):
            ref = reference(mp, mp.mpf(z))
        assert abs(kernel(z) - float(ref)) <= 4.0 * EPS * float(abs(ref)), z
    assert kernel(-2.0) == -kernel(2.0)


def test_expm1_logd2_against_mpmath():
    # -u/(1 - u)^2 with u = e^-|z| and 1 - u by expm1, one division at a time: a few
    # eps relative from |z| = 1e-8 down to e^-700, even in z, and exprel_logd2 less
    # 1/z^2; -inf only where -1/z^2 itself leaves the float range
    mp = pytest.importorskip("mpmath")
    for z in _log_spaced_z():
        with mp.workdps(40):
            ref = -1 / (4 * mp.sinh(mp.mpf(z) / 2) ** 2)
        assert abs(expm1_logd2(z) - float(ref)) <= 4.0 * EPS * float(abs(ref)), z
        assert expm1_logd2(-z) == expm1_logd2(z), z
    for z in (0.5, 1.5, 5.0, 30.0):
        assert expm1_logd2(z) + 1.0 / (z * z) == pytest.approx(exprel_logd2(z), rel=1e-14)
    assert expm1_logd2(7.5e-155) == pytest.approx(-1.0 / 7.5e-155 / 7.5e-155, rel=1e-15)
    assert expm1_logd2(7.4e-155) == -math.inf


def test_identric_weight_d2_against_mpmath():
    # the series is accurate relative to the value, below exprel_logd3's cut; the
    # closed form, whose -6/z^3 and 6/z^3 are cancelled exactly, to a few eps of
    # its two terms above it, 128 eps relative everywhere and 1e-13 relative for
    # |z| in [5, 700] (the naive 3 L''' + z L'''' was 1.8e-11 off at z = 22)
    mp = pytest.importorskip("mpmath")
    for z in _log_spaced_z():
        with mp.workdps(60 + int(abs(z) / 2.3)):
            ref, terms = _mp_identric_weight_d2(mp, z)
        err = abs(identric_weight_d2(z) - float(ref))
        assert err <= 4.0 * EPS * float(abs(ref) if abs(z) < 1.5 else terms), z
        assert err <= 128.0 * EPS * float(abs(ref)), z
        if abs(z) >= 5.0 and abs(ref) > 1e-290:
            assert err <= 1e-13 * float(abs(ref)), z
    assert identric_weight_d2(0.0) == 0.0


@pytest.mark.parametrize("r, s", [(0.7, 0.7), (1.3, 1.3004), (-2.0, -1.999999),
                                  (2.5, -1.0), (-2.0, 0.5), (1.0, 1.002), (-2.5, -2.0)],
                         ids=["r_eq_s", "band", "band_1e-6", "off_rs_pos", "off_rs_neg",
                              "off_near_band", "off_same_sign"])
def test_rs_kernels_e3_against_mpmath(r, s):
    # e3 of F(.,.;r,s) is the (r, s) divided difference of u^3 L'''(u z): at r = s
    # r^2 (3 L''' + r z L'''')(r z).  Within 16 eps g max(|r|, |s|)^3 of it, and
    # within 1e-13 relative for |z| in [5, 700/max(|r|, |s|)]: there the band rule's
    # own 3-node mean is the reference inside the band, whose quadrature error is
    # the band rule's, not the kernel's (2e-11 at |(r - s) z| = 0.2)
    mp = pytest.importorskip("mpmath")
    from parmeans.core import _GL_NODE, _in_band, _rs_kernels

    e3, gen_max, g = (_rs_kernels(r, s)[i] for i in (3, 4, 5))
    m, h = 0.5 * (r + s), 0.5 * (r - s) * _GL_NODE  # the band rule's nodes, as floats
    for z in _log_spaced_z():
        if abs(z) * gen_max > 700.0:
            continue
        R, S = mp.mpf(r), mp.mpf(s)
        with mp.workdps(60 + int(abs(z) * gen_max / 2.3)):
            l3 = lambda u: _mp_kernels(mp, u * z)[1]
            if r == s:
                ref = R ** 2 * _mp_identric_weight_d2(mp, R * z)[0]
            else:
                ref = (R ** 3 * l3(R) - S ** 3 * l3(S)) / (R - S)
            rule = ref
            if r != s and _in_band(r, s):
                k = lambda u: mp.mpf(u) ** 2 * _mp_identric_weight_d2(mp, mp.mpf(u) * z)[0]
                rule = (5 * k(m - h) + 8 * k(m) + 5 * k(m + h)) / 18
        got = e3(z)
        assert abs(got - float(ref)) <= 16.0 * EPS * g * gen_max ** 3, z
        if abs(z) >= 5.0 and abs(rule) > 1e-290:
            assert abs(got - float(rule)) <= 1e-13 * float(abs(rule)), z
