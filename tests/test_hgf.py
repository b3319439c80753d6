"""Generator contracts, T-derivative machinery, the integral oracle and H_D."""

import dataclasses
import math
import random

import pytest

from parmeans import (
    DomainError,
    GeneratorPair,
    MeanPoint,
    ParamPair,
    SaturationError,
    arithmetic_generator,
    builtin_generators,
    difference_generator,
    four_param_F,
    gini,
    hd_eval,
    heronian_generator,
    hf_eval,
    hf_integral_oracle,
    identric_generator,
    integral_hessian,
    log_mean,
    logarithmic_generator,
    stolarsky,
    stolarsky_generator,
    t_derivatives,
    two_param_heronian,
    two_param_identric,
)
from parmeans import hgf
from parmeans.convexity import _generator_hessian
from parmeans.hgf import TDerivatives, _t_stencil, t_prime
from parmeans.stable import E2_FLOOR


def all_generators():
    return builtin_generators() + [
        stolarsky_generator(1.0, 0.0),
        stolarsky_generator(1.0, -2.0),
        stolarsky_generator(1.5, 0.5),
        stolarsky_generator(2.0, 2.0),
    ]


def test_generator_homogeneity():
    rng = random.Random(2)
    for gen in all_generators():
        for _ in range(100):
            x = math.exp(rng.uniform(-1.5, 1.5))
            y = x * math.exp(rng.uniform(0.05, 2.0))
            for lam in (0.5, 2.0):
                assert gen.value(lam * x, lam * y) == pytest.approx(
                    lam ** gen.order * gen.value(x, y), rel=1e-10)


def test_generator_euler_relation():
    rng = random.Random(3)
    for gen in all_generators():
        for _ in range(100):
            x = math.exp(rng.uniform(-1.5, 1.5))
            y = x * math.exp(rng.uniform(0.05, 2.0))
            lhs = x * gen.partial_x(x, y) + y * gen.partial_y(x, y)
            assert lhs == pytest.approx(gen.order * gen.value(x, y), rel=1e-8)


def test_generator_partials_match_finite_differences():
    rng = random.Random(4)
    for gen in all_generators():
        for _ in range(20):
            x = math.exp(rng.uniform(-1.0, 1.0))
            y = x * math.exp(rng.uniform(0.1, 1.5))
            hx, hy = 1e-6 * x, 1e-6 * y
            fdx = (gen.value(x + hx, y) - gen.value(x - hx, y)) / (2 * hx)
            fdy = (gen.value(x, y + hy) - gen.value(x, y - hy)) / (2 * hy)
            assert gen.partial_x(x, y) == pytest.approx(fdx, rel=2e-8)
            assert gen.partial_y(x, y) == pytest.approx(fdy, rel=2e-8)


def test_generator_diagonal_contracts():
    for gen in all_generators():
        if gen.label == "D":
            assert gen.diagonal_limit is None
            continue
        # diagonal limit continuous with off-diagonal values
        for x in (0.5, 1.0, 3.0):
            near = gen.value(x, x * (1 + 1e-9))
            assert gen.diagonal_limit(x) == pytest.approx(near, rel=1e-7)
        gx, gy = gen.diagonal_partials
        assert gx + gy == pytest.approx(gen.order * gen.value_at_one(), rel=1e-12)


def test_catalog_values():
    L = logarithmic_generator()
    assert L.value(4.0, 2.0) == pytest.approx(2 / math.log(2), rel=1e-14)
    A = arithmetic_generator()
    assert A.partial_x(3.0, 5.0) == 0.5 and A.partial_y(0.1, 9.0) == 0.5
    D = difference_generator()
    assert D.order == 1.0 and D.value(7.0, 3.0) == 4.0
    S10 = stolarsky_generator(1.0, 0.0)
    assert S10.value(4.0, 2.0) == pytest.approx(L.value(4.0, 2.0), rel=1e-13)


# ---------------------------------------------------------------------------
# hf_eval
# ---------------------------------------------------------------------------

def test_hf_eval_matches_means_core():
    pt = MeanPoint(4, 2)
    # f = L with (p, q) = (1, 0) is the logarithmic mean
    assert hf_eval(logarithmic_generator(), ParamPair(1, 0), pt).value == pytest.approx(
        2 / math.log(2), rel=1e-12)
    # f = A reproduces the Gini family
    rng = random.Random(5)
    for _ in range(50):
        pp = ParamPair(rng.uniform(-3, 3), rng.uniform(-3, 3))
        pt2 = MeanPoint(1.0, math.exp(rng.uniform(0.1, 3.0)))
        assert hf_eval(arithmetic_generator(), pp, pt2).value == pytest.approx(
            gini(pp, pt2).value, rel=1e-12)
    # f = He-sum reproduces the two-parameter Heronian family
    for _ in range(20):
        pp = ParamPair(rng.uniform(-3, 3), rng.uniform(-3, 3))
        pt2 = MeanPoint(1.0, math.exp(rng.uniform(0.1, 3.0)))
        assert hf_eval(heronian_generator(), pp, pt2).value == pytest.approx(
            two_param_heronian(pp, pt2).value, rel=1e-12)


def test_hf_eval_zero_corner():
    # H_f(0,0) = a^(fx(1,1)/f(1,1)) b^(fy(1,1)/f(1,1)) = sqrt(ab) for the catalog
    pt = MeanPoint(9, 4)
    for gen in (arithmetic_generator(), logarithmic_generator(), heronian_generator()):
        assert hf_eval(gen, ParamPair(0, 0), pt).value == pytest.approx(6.0, rel=1e-13)
    assert hf_eval(arithmetic_generator(), ParamPair(2, 2), MeanPoint(3, 3)).value == 3.0


def test_hf_eval_rejects_difference_generator_at_zero():
    with pytest.raises(DomainError):
        hf_eval(difference_generator(), ParamPair(1.0, 0.0), MeanPoint(4, 2))
    with pytest.raises(DomainError):
        hf_eval(difference_generator(), ParamPair(0.0, 0.0), MeanPoint(4, 2))
    # away from zero parameters the difference generator is fine
    v = hf_eval(difference_generator(), ParamPair(2.0, 1.0), MeanPoint(4, 2)).value
    assert v == pytest.approx(6.0, rel=1e-12)


# ---------------------------------------------------------------------------
# t_derivatives
# ---------------------------------------------------------------------------

def test_difference_generator_I_and_J_hand_oracle():
    # hand differentiation: I = 1/(x-y)^2, J = -(x+y)/(x-y)^2 for D = |x-y|
    der = t_derivatives(difference_generator(), 1.0, MeanPoint(3, 1))
    x, y = der.x, der.y
    assert (x, y) == (3.0, 1.0)
    assert der.I_val == pytest.approx(1.0 / (x - y) ** 2, rel=1e-6)
    assert der.J_val == pytest.approx(-(x + y) / (x - y) ** 2, rel=1e-4)
    assert der.J_val == pytest.approx(-1.0, rel=1e-4)
    assert der.C_val > 0.0


def test_arithmetic_generator_J_closed_form():
    # for f = A: I = -1/(x+y)^2 and J = (x-y)^2/(x+y)^3, both exact
    rng = random.Random(6)
    for _ in range(20):
        t = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
        pt = MeanPoint(1.0, math.exp(rng.uniform(0.2, 2.0)))
        der = t_derivatives(arithmetic_generator(), t, pt)
        x, y = der.x, der.y
        assert der.I_val == pytest.approx(-1.0 / (x + y) ** 2, rel=1e-5)
        assert der.J_val == pytest.approx((x - y) ** 2 / (x + y) ** 3, rel=1e-3)


def test_T1_and_T2_consistency():
    # T2 from finite differences vs the closed form -x y I ln^2(b/a)
    rng = random.Random(7)
    gens = [arithmetic_generator(), logarithmic_generator(), identric_generator(),
            stolarsky_generator(1.5, 0.5)]
    for gen in gens:
        for _ in range(25):
            t = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
            pt = MeanPoint(1.0, math.exp(rng.uniform(0.2, 2.5)))
            der = t_derivatives(gen, t, pt)
            closed = -der.x * der.y * der.I_val * math.log(pt.b / pt.a) ** 2
            assert der.T2 == pytest.approx(closed, rel=1e-6)


def test_sign_rule_T3():
    # sgn(T3) = -sgn(t) sgn(J) with the 1e-8 dead zone
    rng = random.Random(8)
    gens = [arithmetic_generator(), logarithmic_generator(), difference_generator(),
            stolarsky_generator(1.0, 0.0), stolarsky_generator(1.0, -2.0)]
    for gen in gens:
        checked = 0
        while checked < 100:
            t = rng.uniform(0.2, 2.5) * rng.choice((-1.0, 1.0))
            b = math.exp(rng.uniform(math.log(1.2), math.log(20.0)))
            if abs(t * math.log(b)) > 3.5:
                continue
            der = t_derivatives(gen, t, MeanPoint(1.0, b))
            if abs(der.T3) <= 1e-8 or abs(der.J_val) <= 1e-8:
                continue
            assert math.copysign(1, der.T3) == -math.copysign(1, t) * math.copysign(1, der.J_val), \
                (gen.label, t, b, der.T3, der.J_val)
            checked += 1


def test_t_derivatives_domain_errors():
    with pytest.raises(DomainError):
        t_derivatives(arithmetic_generator(), 0.0, MeanPoint(4, 2))
    with pytest.raises(DomainError):
        t_derivatives(arithmetic_generator(), 1.0, MeanPoint(4, 4))


def test_t_derivatives_refuses_a_t_w_that_underflows_to_zero():
    # t w = 5e-324 ln(1/1.5) underflows to 0: 1/y - 1/x was 0 and C = 0**3 / 0
    # raised a bare ZeroDivisionError
    with pytest.raises(DomainError, match="underflows to 0"):
        t_derivatives(logarithmic_generator(), 5e-324, MeanPoint(1.0, 1.5))


@pytest.mark.parametrize("t", [1e-5, -1e-5, 1e-4])
def test_t_derivatives_refuse_a_stencil_across_the_pole_of_D(t):
    # T' of D has a pole at t = 0.  The builtin row reads T'' = w^2 e2(t w) and
    # T''' = w^3 e3(t w) at t alone, within 1e-12 relative of 40-digit mpmath.
    # A row derived from value and the partials differences e1 over [t - h, t + h],
    # across the pole, and refuses: that stencil returned T'' = +3.45e8 at
    # t = 1e-5, where the true value is about -1.0e10
    mp = pytest.importorskip("mpmath")
    pt = MeanPoint(1, 3)
    der = t_derivatives(difference_generator(), t, pt)
    with mp.workdps(40):
        T = lambda u: mp.log(abs(1 - mp.mpf(3) ** u))
        T2, T3 = mp.diff(T, t, 2), mp.diff(T, t, 3)
    assert abs(der.T2 / T2 - 1) <= 1e-12 and abs(der.T3 / T3 - 1) <= 1e-12, (der, T2, T3)
    with pytest.raises(DomainError):
        t_derivatives(dataclasses.replace(difference_generator(), kernel=None), t, pt)
    # A has no pole there
    der = t_derivatives(arithmetic_generator(), t, pt)
    assert math.isfinite(der.T2) and math.isfinite(der.T3)


@pytest.mark.parametrize("t", [1e-120, 1e-170, -1e-300])
def test_D_saturates_where_its_kernels_leave_the_float_range(t):
    # near its pole e2 of D is about -1/v^2 and e3 about 2/v^3: a v = t w whose
    # powers underflow gives SaturationError, not the ZeroDivisionError of a
    # squared or cubed 1 - e^-|v|
    f = difference_generator()
    with pytest.raises(SaturationError):
        t_derivatives(f, t, MeanPoint(1, 3))
    if abs(t) < 1e-154:  # e2 itself leaves the range, which the Hessian reads
        with pytest.raises(SaturationError):
            integral_hessian(f, ParamPair(t, math.copysign(1.0, t)), MeanPoint(1, 3))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_t_is_a_domain_error(t):
    for f in (arithmetic_generator(), difference_generator()):
        with pytest.raises(DomainError):
            t_derivatives(f, t, MeanPoint(1, 3))
        with pytest.raises(DomainError):
            t_prime(f, t, MeanPoint(1, 3))
    with pytest.raises(DomainError):
        t_prime(arithmetic_generator(), math.nan, MeanPoint(2, 2))


# mpmath ln f of the builtin generators, by label
_MP_LN_F = {
    "A": lambda mp, x, y: mp.log((x + y) / 2),
    "L": lambda mp, x, y: mp.log((x - y) / mp.log(x / y)),
    "I": lambda mp, x, y: (x * mp.log(x) - y * mp.log(y)) / (x - y) - 1,
    "D": lambda mp, x, y: mp.log(abs(x - y)),
    "He": lambda mp, x, y: mp.log(x + mp.sqrt(x * y) + y),
}


def _mp_ln_stolarsky(r, s):
    """mpmath ln S_{r,s}(x, y)."""
    def ln_s(mp, x, y):
        R, S = mp.mpf(r), mp.mpf(s)
        if r == s:  # ln S_{r,r} = ln y + v e^(rv)/expm1(rv) - 1/r, v = ln(x/y)
            v = mp.log(x / y)
            return mp.log(y) + v * mp.exp(R * v) / mp.expm1(R * v) - 1 / R
        return mp.log(S * (x ** R - y ** R) / (R * (x ** S - y ** S))) / (R - S)
    return ln_s


def _t2_rounding(f, t, w):
    """The row's own rounding of T'' = w^2 e2(t w): w^2 eps (E2_FLOOR + 4 |e2| + 16 g gen_max)."""
    _, _, e2, _, gen_max, g, _ = f.kernel
    return w * w * _EPS * (E2_FLOOR + 4.0 * abs(e2(t * w)) + 16.0 * g * gen_max)


# (generator, mpmath ln f, the relative bound on T'''): the catalog, and S_{r,s} off,
# on and just beside the (r, s) band, whose e2 and e3 difference two kernels over r - s.
# Off the band, where both |r z| and |s z| reach LOGD3_CUT, e2 differences expm1_logd2,
# free of the equal 1/z^2 parts of exprel_logd2 that left T'' only its absolute
# rounding (T'' = -0.0 against -1.4e-17 at S[-2.5,-2] when e2 differenced those)
_T_PROBED = [(f, _MP_LN_F[f.label], 1e-12) for f in builtin_generators()] + [
    (stolarsky_generator(r, s), _mp_ln_stolarsky(r, s), 1e-9)
    for r, s in ((2.0, 1.0), (-2.5, -2.0), (0.5, 0.5), (1.002, 1.0), (-1.0, -1.0015))]


@pytest.mark.parametrize("f, ln_f, tol3", _T_PROBED, ids=[f.label for f, *_ in _T_PROBED])
def test_T2_I_and_J_sign_against_mpmath(f, ln_f, tol3):
    # against 40-digit derivatives of ln f: T'' = w^2 e2(t w) within the row's own
    # rounding w^2 eps (E2_FLOOR + 4 |e2| + 16 g gen_max) and within 1e-2 relative,
    # as is I; T''' = w^3 e3(t w) within tol3 relative, and the sign of J right at
    # every probe; I and J are differentiated in (x, y), not through T
    mp = pytest.importorskip("mpmath")
    rng = random.Random(31)
    with mp.workdps(40):
        for _ in range(120):
            t = rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 4.0)
            b = 10.0 ** rng.uniform(0.05, 3.0)
            der = t_derivatives(f, t, MeanPoint(1.0, b))
            T = lambda u: ln_f(mp, mp.mpf(1), mp.mpf(b) ** u)
            x, y = mp.mpf(1), mp.mpf(b) ** t
            lnf = lambda xx, yy: ln_f(mp, xx, yy)
            I = mp.diff(lnf, (x, y), (1, 1))
            J = (x - y) * (I + x * mp.diff(lnf, (x, y), (2, 1)))
            where = (f.label, t, b)
            T2, T3 = mp.diff(T, t, 2), mp.diff(T, t, 3)
            assert abs(der.T2 - T2) <= _t2_rounding(f, t, -math.log(b)), where
            assert abs(der.T3 / T3 - 1) <= tol3, where
            assert abs(der.T2 / T2 - 1) <= 1e-2, where
            assert abs(der.I_val / I - 1) <= 1e-2, where
            assert (der.J_val > 0) == (J > 0) and der.J_val != 0, where


def test_t_derivatives_and_hessians_read_w_from_log_ratio():
    # w = ln a - ln b cancels near a = b: it put T'' of A at t = 1 5.5e-5 relative off
    # at a = 1e5, b = a (1 + 3e-11), and it read w = 0 at a = 1e300 with b one ulp
    # above, where t_derivatives and the Hessian of a derived row raised DomainError.
    # w = log_ratio(a, b) puts T'' and T''' within 1e-13 relative of 80-digit mpmath
    mp = pytest.importorskip("mpmath")
    f = arithmetic_generator()
    tiny = MeanPoint(1e300, math.nextafter(1e300, 2e300))
    for pt in (MeanPoint(1e5, 1e5 * (1 + 3e-11)), MeanPoint(3.0, 3.0 * (1 + 1e-6)), tiny):
        der = t_derivatives(f, 1.0, pt)
        with mp.workdps(80):
            A, B = mp.mpf(pt.a), mp.mpf(pt.b)
            T = lambda u: mp.log((A ** u + B ** u) / 2)
            T2, T3 = mp.diff(T, 1, 2), mp.diff(T, 1, 3)
        assert abs(der.T2 / T2 - 1) <= 1e-13 and abs(der.T3 / T3 - 1) <= 1e-13, (pt, der)
        assert t_prime(f, 1.0, pt) == der.T1
    # a row derived from value and the partials reads the same w: its Hessian
    # agrees with the builtin row's within both estimates
    pp = ParamPair(1.0, 2.0)
    for f in builtin_generators():
        if f.diagonal_limit is None:
            continue  # D: no derived e1 at v = 0, which a one-ulp w reaches
        bare = dataclasses.replace(f, kernel=None)
        got, ref = _generator_hessian(bare, pp, tiny), _generator_hessian(f, pp, tiny)
        assert integral_hessian(bare, pp, tiny) == got[:4]
        for i in range(4):
            assert abs(got[i] - ref[i]) <= got[4 + i] + ref[4 + i], (f.label, i)


def test_t_derivatives_record_is_a_named_tuple_with_the_dataclass_fields():
    # the former frozen dataclass's fields in its order; a field cannot be set, and the
    # record unpacks and compares equal to the plain tuple of its fields
    assert TDerivatives._fields == ("t", "x", "y", "T1", "T2", "T3", "I_val", "J_val", "C_val")
    der = t_derivatives(logarithmic_generator(), 1.7, MeanPoint(1.0, 37.0))
    t, x, y, *_ = der
    assert (t, x, y) == (1.7, 1.0, 37.0 ** 1.7)
    assert der == tuple(getattr(der, name) for name in TDerivatives._fields)
    with pytest.raises(AttributeError):
        der.T2 = 0.0


class _SubnormalExpm1:
    """hgf's math with an expm1 that returns the least subnormal, so 1/y - 1/x vanishes."""

    def __getattr__(self, name):
        return getattr(math, name)

    @staticmethod
    def expm1(v):
        return 5e-324


def test_a_non_finite_I_J_or_C_raises_saturation_naming_it(monkeypatch):
    # I = -T''/(w^2 x y) leaves the float range where x y underflows
    with pytest.raises(SaturationError, match="^I outside the floating range"):
        t_derivatives(logarithmic_generator(), 1.0, MeanPoint(math.exp(-690), math.exp(-680)))
    # T''' = w^3 e3(v) of D overflows at v = 8e-155, where I = -e2(v) is still finite
    with pytest.raises(SaturationError, match="^J outside the floating range"):
        t_derivatives(difference_generator(), 8e-154, MeanPoint(1.0, math.exp(-0.1)))
    # C = (t w)^3/(1/y - 1/x) stays finite on every point the guards admit: a vanishing
    # 1/y - 1/x stands in for one that does not
    monkeypatch.setattr(hgf, "math", _SubnormalExpm1())
    with pytest.raises(SaturationError, match="^C outside the floating range"):
        t_derivatives(logarithmic_generator(), 1.0, MeanPoint(3.0, 1.0))


def test_t_derivatives_far_from_one_is_finite_or_saturates():
    # 1/(x y) = e^(-t (ln a + ln b)) is formed from the logs: I stays finite
    # where x y underflows, and an I beyond the float range saturates
    f = logarithmic_generator()
    pt = MeanPoint(math.exp(-690), math.exp(-680))
    with pytest.raises(SaturationError):
        t_derivatives(f, 1.0, pt)
    for t in (0.5, -0.5, -1.0):
        der = t_derivatives(f, t, pt)
        fields = (der.T1, der.T2, der.T3, der.I_val, der.J_val, der.C_val)
        assert all(math.isfinite(v) for v in fields), t
        inv_xy = math.exp(-t * (math.log(pt.a) + math.log(pt.b)))
        # w = ln(a/b) = -10
        assert der.I_val == pytest.approx(-der.T2 / 100.0 * inv_xy, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# integral oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pp", [ParamPair(-1.0, 1.0), ParamPair(0.0, 2.0), ParamPair(-2.0, 0.0)])
def test_integral_forms_refuse_the_pole_of_D(pp):
    # T' of D has a pole at t = 0; neither integral form may difference across it
    with pytest.raises(DomainError):
        hf_integral_oracle(difference_generator(), pp, MeanPoint(1, 3))
    with pytest.raises(DomainError):
        integral_hessian(difference_generator(), pp, MeanPoint(1, 3))
    # a generator with a positive diagonal limit has no pole there
    assert all(math.isfinite(v) for v in
               integral_hessian(arithmetic_generator(), pp, MeanPoint(1, 3)))


@pytest.mark.parametrize("r, s", [("a", 1.0), (math.nan, 1.0), (1.0, math.inf), (None, 0.0)])
def test_stolarsky_generator_rejects_non_finite_pair(r, s):
    with pytest.raises(DomainError):
        stolarsky_generator(r, s)


def test_oracle_matches_gini_closed_form():
    val = hf_integral_oracle(arithmetic_generator(), ParamPair(1, 0), MeanPoint(4, 2))
    assert val == pytest.approx(3.0, rel=1e-10)


def test_oracle_matches_stolarsky_ratio_closed_form():
    # f = L at (3, 1): closed form (L(a^3,b^3)/L(a,b))^(1/2)
    a, b = 5.0, 2.0
    closed = (log_mean(MeanPoint(a ** 3, b ** 3)) / log_mean(MeanPoint(a, b))) ** 0.5
    val = hf_integral_oracle(logarithmic_generator(), ParamPair(3, 1), MeanPoint(a, b))
    assert val == pytest.approx(closed, rel=1e-10)
    assert stolarsky(ParamPair(3, 1), MeanPoint(a, b)).value == pytest.approx(
        closed, rel=1e-12)


def test_oracle_p_eq_q_branch():
    # p = q returns exp(T'(q)), which is the family's own p = q branch
    pt = MeanPoint(4, 2)
    val = hf_integral_oracle(identric_generator(), ParamPair(1.5, 1.5), pt)
    assert val == pytest.approx(two_param_identric(ParamPair(1.5, 1.5), pt).value,
                                rel=1e-12)


def test_oracle_two_param_identric_generic():
    # I_{2,0} has no elementary display; the oracle is the independent route
    pt = MeanPoint(3.0, 1.2)
    oracle = hf_integral_oracle(identric_generator(), ParamPair(2, 0), pt)
    assert two_param_identric(ParamPair(2, 0), pt).value == pytest.approx(
        oracle, rel=1e-9)


def test_oracle_rejects_difference_generator_across_zero():
    with pytest.raises(DomainError):
        hf_integral_oracle(difference_generator(), ParamPair(1.0, -1.0), MeanPoint(4, 2))
    # same sign interval is fine
    v = hf_integral_oracle(difference_generator(), ParamPair(2.0, 1.0), MeanPoint(4, 2))
    assert v == pytest.approx(6.0, rel=1e-10)


_EPS = 2.0 ** -52


# the builtin generators and the benchmark's Stolarsky generators, each with its mpmath ln f
_PROBED = [(f, _MP_LN_F[f.label]) for f in builtin_generators()] + [
    (stolarsky_generator(r, s), _mp_ln_stolarsky(r, s))
    for r, s in ((2.0, 1.0), (-2.5, -2.0), (0.5, 0.5))]
_PROBED_IDS = [f.label for f, _ in _PROBED]
_PROBED_F = [f for f, _ in _PROBED]

# S[-2.5,-2] inputs at which ln H_f is 2.0e-10, 8.7e-14 and 2.7e-11: a
# tolerance relative to ln H_f could not be met there within 100 panels
_NEAR_ONE = [
    (3.5969746902886586, 3.8743381042588654, 28.612064440166513),
    (3.885861314703962, 3.6499160291502606, 80.98692961367756),
    (3.1758994098342663, 2.936203492291984, 88.80677534498527),
]


def _mp_ln_hf(mp, ln_f, p, q, b):
    """50-digit ln H_f = (ln f(1, b^p) - ln f(1, b^q))/(p - q) at a = 1."""
    with mp.workdps(50):
        P, Q, B = mp.mpf(p), mp.mpf(q), mp.mpf(b)
        return (ln_f(mp, mp.mpf(1), B ** P) - ln_f(mp, mp.mpf(1), B ** Q)) / (P - Q)


def _assert_oracle_within_bound(mp, f, ln_f, p, q, b):
    # the documented bound: ln(H_f/b^k) to 1e-12 relative, plus the rounding
    # of k ln b and of the sum
    got = hf_integral_oracle(f, ParamPair(p, q), MeanPoint(1.0, b), max_subdivisions=100)
    ref = _mp_ln_hf(mp, ln_f, p, q, b)
    k_lnb = f.order * math.log(b)
    bound = 1e-12 * abs(ref - k_lnb) + 4.0 * _EPS * (abs(k_lnb) + abs(ref))
    assert abs(math.log(got) - ref) <= bound, (f.label, p, q, b)


def _same_sign_probes(seed, count=40):
    """Seeded same-sign (p, q) in (0.1, 4) and b in 10^[0.05, 2]."""
    rng = random.Random(seed)
    for _ in range(count):
        sign = rng.choice((-1.0, 1.0))
        p, q = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
        yield sign * p, sign * q, 10.0 ** rng.uniform(0.05, 2.0)


@pytest.mark.parametrize("p, q, b", _NEAR_ONE)
def test_oracle_where_h_f_is_near_one_against_mpmath(p, q, b):
    mp = pytest.importorskip("mpmath")
    _assert_oracle_within_bound(mp, stolarsky_generator(-2.5, -2.0),
                                _mp_ln_stolarsky(-2.5, -2.0), p, q, b)


@pytest.mark.parametrize("f, ln_f", _PROBED, ids=_PROBED_IDS)
def test_oracle_within_its_bound_of_mpmath(f, ln_f):
    # no QuadratureError within 100 panels, and the documented bound
    mp = pytest.importorskip("mpmath")
    for p, q, b in _same_sign_probes(61):
        _assert_oracle_within_bound(mp, f, ln_f, p, q, b)


@pytest.mark.parametrize("f, ln_f", _PROBED, ids=_PROBED_IDS)
def test_hf_eval_within_its_estimate_of_mpmath(f, ln_f):
    # the quotient's estimate covers the rounding of T's normalization
    # max(t ln a, t ln b), which is large against T where H_f is near 1
    mp = pytest.importorskip("mpmath")
    probes = list(_same_sign_probes(62))
    if f.label == "S[-2.5,-2]":
        probes += _NEAR_ONE
    for p, q, b in probes:
        res = hf_eval(f, ParamPair(p, q), MeanPoint(1.0, b))
        ref = _mp_ln_hf(mp, ln_f, p, q, b)
        assert abs(math.log(res.value) - ref) <= res.est_rel_error, (f.label, p, q, b)


def _mp_hessian(mp, ln_f, p, q, b):
    """40-digit (d2_pp, d2_qq, d2_pq, delta) of ln H_f in (p, q) at a = 1."""
    with mp.workdps(40):
        B = mp.mpf(b)

        def ln_h(P, Q):
            return (ln_f(mp, mp.mpf(1), B ** P) - ln_f(mp, mp.mpf(1), B ** Q)) / (P - Q)

        x = (mp.mpf(p), mp.mpf(q))
        d2_pp, d2_qq, d2_pq = (mp.diff(ln_h, x, n) for n in ((2, 0), (0, 2), (1, 1)))
        return d2_pp, d2_qq, d2_pq, d2_pp * d2_qq - d2_pq ** 2


# the catalog, S_{r,s} off, on and just beside the (r, s) band, and rows derived
# from value and the partials (no e2, and g = DERIVED_ROUNDING for their unknown rounding)
_HESSIAN_PROBED = _PROBED + [(stolarsky_generator(r, s), _mp_ln_stolarsky(r, s))
                             for r, s in ((1.002, 1.0), (-1.0, -1.0015))]
_HESSIAN_PROBED += [(dataclasses.replace(f, kernel=None), ln_f) for f, ln_f in _HESSIAN_PROBED[:6]]
_HESSIAN_IDS = [f.label + ("" if f.kernel[2] else "-derived") for f, _ in _HESSIAN_PROBED]


@pytest.mark.parametrize("f, ln_f", _HESSIAN_PROBED, ids=_HESSIAN_IDS)
def test_generator_hessian_within_its_estimate_of_mpmath(f, ln_f):
    # every entry of the closed-form Hessian of ln H_f, and delta, within its own
    # estimate of 40-digit mpmath; near the (r, s) band the inner rounding grows
    # like (|r| + |s|)/|r - s|, which the row's g carries
    mp = pytest.importorskip("mpmath")
    probes = [(p, q, b) for p, q, b in _same_sign_probes(65, count=44) if abs(p - q) >= 0.05]
    for p, q, b in probes:
        got = _generator_hessian(f, ParamPair(p, q), MeanPoint(1.0, b))
        ref = _mp_hessian(mp, ln_f, p, q, b)
        for i in range(4):
            assert abs(got[i] - ref[i]) <= got[4 + i], (f.label, i, p, q, b)


def test_hf_eval_of_S_refuses_where_four_param_F_does():
    # one row per (r, s): the exponent products |t r w| of the generator are
    # four_param_F's, so both refuse at (400, 1) for (2, 1), and both evaluate
    # (1000, 1) for (0.5, 0.25), bit for bit
    pt = MeanPoint(math.e, 1.0)
    pp = ParamPair(400.0, 1.0)
    with pytest.raises(SaturationError):
        four_param_F(pp, GeneratorPair(2.0, 1.0), pt)
    with pytest.raises(SaturationError):
        hf_eval(stolarsky_generator(2.0, 1.0), pp, pt)
    pp = ParamPair(1000.0, 1.0)
    ref = four_param_F(pp, GeneratorPair(0.5, 0.25), pt)
    assert ref.value == pytest.approx(2.712, abs=1e-3)
    assert hf_eval(stolarsky_generator(0.5, 0.25), pp, pt) == ref


# ---------------------------------------------------------------------------
# the log-partial kernel e1(v) = x f_x/f
# ---------------------------------------------------------------------------

# 0, the series cut 0.35 of stable's kernels, the exp cut 30 and the saturation limit 700
_KERNEL_VS = (0.0, 1e-8, -1e-8, 0.35, -0.35, 1.0, -1.0, 30.0, -30.0, 700.0, -700.0)

# (generator, mpmath ln f, the e1 rounding factor g): 1 for the catalog and on the
# (r, s) band, (|r| + |s|)/|r - s| for the Stolarsky quotient (core._rs_kernels)
_KERNELS = [(f, _MP_LN_F[f.label], 1.0) for f in builtin_generators()] + [
    (stolarsky_generator(r, s), _mp_ln_stolarsky(r, s), g)
    for r, s, g in ((2.0, 1.0, 3.0), (1.0, -2.0, 1.0), (-2.5, -2.0, 9.0), (0.5, 0.5, 1.0))]


@pytest.mark.parametrize("f, ln_f, g", _KERNELS, ids=[f.label for f, _, _ in _KERNELS])
def test_e1_against_its_partials_and_mpmath(f, ln_f, g):
    # the builtin e1 within 8 eps g max(1, |e1|) of 40-digit mpmath d/dv ln f(e^v, 1);
    # the one derived from the partials within that plus 2 eps |e1'(v)|, the rounding
    # of its normalized coordinate exp(-|v|), which is 1 - 1e-8 at v = 1e-8
    mp = pytest.importorskip("mpmath")
    e1, derived = f.kernel[1], dataclasses.replace(f, kernel=None).kernel[1]
    ln = lambda u: ln_f(mp, mp.exp(u), mp.mpf(1))
    with mp.workdps(40):
        for v in _KERNEL_VS:
            if v == 0.0 and f.diagonal_limit is None:
                continue  # D has no diagonal limit: test_e1_of_D_at_0_is_a_domain_error
            # every mean has x f_x/f = 1/2 on the diagonal
            ref, slope = (mp.mpf(0.5), 0.0) if v == 0.0 else (mp.diff(ln, v), mp.diff(ln, v, 2))
            tol = 8.0 * _EPS * g * max(1.0, abs(float(ref)))
            assert abs(e1(v) - ref) <= tol, (f.label, v, e1(v), ref)
            assert abs(derived(v) - ref) <= tol + 2.0 * _EPS * abs(slope), (f.label, v)


def test_e1_of_D_at_0_is_a_domain_error():
    f = difference_generator()
    for e1 in (f.kernel[1], dataclasses.replace(f, kernel=None).kernel[1]):
        with pytest.raises(DomainError, match="^generator D has no positive diagonal limit$"):
            e1(0.0)


@pytest.mark.parametrize("f", _PROBED_F, ids=_PROBED_IDS)
def test_a_generator_without_e1_reads_its_partials(f):
    # the documented contract, value and partials only: the oracle within 1e-11
    # relative of the builtin kernel's, T'' within the stencil's estimate plus the
    # builtin row's own rounding w^2 eps (E2_FLOOR + 4 |e2| + 16 g gen_max), and
    # T' = k ln b + w e1(t w) within |w| times the two e1's tolerances of
    # test_e1_against_its_partials_and_mpmath, 16 eps g max(1, |e1|) + 2 eps |e1'|
    # with e1' = T''/w^2, plus the rounding of the sum
    bare = dataclasses.replace(f, kernel=None)
    assert bare.kernel[1] is not f.kernel[1] and bare.kernel[2] is None
    e1, g = f.kernel[1], f.kernel[5]
    for p, q, b in _same_sign_probes(63, count=10):
        pt = MeanPoint(1.0, b)
        got = hf_integral_oracle(bare, ParamPair(p, q), pt)
        assert got == pytest.approx(hf_integral_oracle(f, ParamPair(p, q), pt), rel=1e-11)
        w = -math.log(b)
        for t in (p, q):
            T1, T2, _, est = _t_stencil(bare, t, w, math.log(b))
            ref = t_derivatives(f, t, pt)
            R1, R2 = ref.T1, ref.T2
            e1_tol = (16.0 * _EPS * max(1.0, g) * max(1.0, abs(e1(t * w)))
                      + 2.0 * _EPS * abs(R2) / w ** 2)
            assert abs(T1 - R1) <= abs(w) * e1_tol + 2.0 * _EPS * abs(R1), (f.label, t, b)
            assert abs(T2 - R2) <= est + _t2_rounding(f, t, w), (f.label, t, b)


def test_replace_keeps_a_given_e1_and_rederives_a_derived_one():
    # a tracer copies generators with new value and partial callables
    for f in builtin_generators():
        assert dataclasses.replace(f, value=lambda x, y: f.value(x, y)).kernel is f.kernel
    bare = dataclasses.replace(arithmetic_generator(), kernel=None)
    halved = dataclasses.replace(bare, partial_x=lambda x, y: 0.25)
    assert halved.kernel[1](1.0) == 0.5 * bare.kernel[1](1.0)
    assert dataclasses.replace(bare) == bare  # a derived row takes no part in equality


# ---------------------------------------------------------------------------
# the log-kernel e(v) = ln f(e^v, 1), up to a constant
# ---------------------------------------------------------------------------

# e(v) - ln f(e^v, 1): A's softplus drops the 1/2 of (x + y)/2; the other kernels are exact
_E_CONST = {"A": math.log(2.0)}


@pytest.mark.parametrize("f, ln_f, g", _KERNELS, ids=[f.label for f, _, _ in _KERNELS])
def test_e_against_its_value_and_mpmath(f, ln_f, g):
    # the builtin e within 8 eps (max(1, |e|) + g |v| + c) of 40-digit mpmath
    # ln f(e^v, 1) plus its constant, (g, c) the (r, s) kernels' rounding (1 and 0
    # for the catalog); the one derived from value within that plus 2 eps (|k| + |e1|),
    # the rounding of its normalized coordinate exp(-|v|)
    mp = pytest.importorskip("mpmath")
    e, derived = f.kernel[0], dataclasses.replace(f, kernel=None).kernel[0]
    assert derived is not e
    c = f.kernel[6]
    const = _E_CONST.get(f.label, 0.0)
    ln = lambda u: ln_f(mp, mp.exp(u), mp.mpf(1))
    with mp.workdps(40):
        for v in _KERNEL_VS:
            if v == 0.0 and f.diagonal_limit is None:
                continue  # test_e_of_D_at_0_is_a_domain_error
            # at v = 0 the quotients of ln_f are 0/0: every mean has f(1, 1) = 1, He 3
            ref = ln(mp.mpf(v)) if v != 0.0 else mp.log(f.diagonal_limit(1.0))
            tol = 8.0 * _EPS * (max(1.0, abs(float(ref))) + g * abs(v) + c)
            assert abs(e(v) - const - ref) <= tol, (f.label, v, e(v), ref)
            slope = 0.5 if v == 0.0 else abs(float(mp.diff(ln, v)))
            assert abs(derived(v) - ref) <= tol + 2.0 * _EPS * (abs(f.order) + slope), (f.label, v)


def test_e_of_D_at_0_is_a_domain_error():
    # a DomainError of its own, not the ValueError of math.log(0)
    f = difference_generator()
    for e in (f.kernel[0], dataclasses.replace(f, kernel=None).kernel[0]):
        with pytest.raises(DomainError, match="^generator D has no positive diagonal limit$"):
            e(0.0)


def test_replace_keeps_a_given_e_and_rederives_a_derived_one():
    # a tracer copies generators with new value and partial callables
    for f in builtin_generators() + [stolarsky_generator(2.0, 1.0)]:
        copy = dataclasses.replace(f, value=lambda x, y: f.value(x, y))
        assert copy.kernel is f.kernel
    bare = dataclasses.replace(arithmetic_generator(), kernel=None)
    doubled = dataclasses.replace(bare, value=lambda x, y: x + y)
    assert doubled.kernel[0](1.0) == pytest.approx(bare.kernel[0](1.0) + math.log(2.0), rel=1e-15)
    assert dataclasses.replace(bare) == bare  # a derived row takes no part in equality


def _bit_identity_probes(seed, count=60):
    """Seeded (p, q) off and on the band, at zero and at p = q, with b in 10^[-2, 2]."""
    rng = random.Random(seed)
    for i in range(count):
        p = rng.uniform(-3.0, 3.0)
        q = (rng.uniform(-3.0, 3.0), p + rng.uniform(-1e-3, 1e-3), p, 0.0)[i % 4]
        yield ParamPair(p, q), MeanPoint(1.0, 10.0 ** rng.uniform(-2.0, 2.0))


_FAMILY_ROUTES = [
    (arithmetic_generator(), gini),
    (logarithmic_generator(), stolarsky),
    (identric_generator(), two_param_identric),
    (heronian_generator(), two_param_heronian),
] + [(stolarsky_generator(r, s), lambda pp, pt, r=r, s=s: four_param_F(pp, GeneratorPair(r, s), pt))
     for r, s in ((2.0, 1.0), (-2.5, -2.0), (0.5, 0.5), (1.0, 1.0004))]


@pytest.mark.parametrize("f, family", _FAMILY_ROUTES, ids=[f.label for f, _ in _FAMILY_ROUTES])
def test_hf_eval_is_the_family_evaluator_bit_for_bit(f, family):
    # the same kernel row through the same engine: value, branch and estimate
    for pp, pt in _bit_identity_probes(41):
        assert hf_eval(f, pp, pt) == family(pp, pt), (f.label, pp, pt)


@pytest.mark.parametrize("pp", [ParamPair(0.0, 0.0), ParamPair(1.0, 0.0), ParamPair(0.0, -2.0),
                                ParamPair(1e-14, 1.0)])
def test_hf_eval_refuses_zero_parameters_only_for_D(pp):
    # a zero parameter, to 1e-13 (1 + |p| + |q|), needs the positive diagonal limit D
    # lacks; A, L, I, He and S_{r,s} evaluate it, as their family evaluators bit for bit
    pt = MeanPoint(4.0, 2.0)
    with pytest.raises(DomainError, match="^zero-parameter branch of H_f needs a positive "
                                          "diagonal limit; generator D has none$"):
        hf_eval(difference_generator(), pp, pt)
    for f, family in _FAMILY_ROUTES:
        assert hf_eval(f, pp, pt) == family(pp, pt), (f.label, pp)


def test_hf_eval_of_D_agrees_with_hd_eval_within_both_estimates():
    rng = random.Random(43)
    for i in range(200):
        sign = rng.choice((-1.0, 1.0))
        p = rng.uniform(0.1, 4.0)
        q = rng.uniform(0.1, 4.0) if i % 2 else p + rng.uniform(-1e-3, 1e-3)
        pp, pt = ParamPair(sign * p, sign * q), MeanPoint(1.0, 10.0 ** rng.uniform(-2.0, 2.0))
        got, ref = hf_eval(difference_generator(), pp, pt), hd_eval(pp, pt)
        assert got.branch == ref.branch
        assert abs(math.log(got.value) - math.log(ref.value)) <= (
            got.est_rel_error + ref.est_rel_error), (pp, pt)


@pytest.mark.parametrize("t", [10 ** 400, -10 ** 400, 10 ** 5000], ids=["1e400", "-1e400", "1e5000"])
def test_huge_int_t_is_a_domain_error(t):
    # t w was formed before the type test and raised OverflowError
    for f in (arithmetic_generator(), difference_generator()):
        with pytest.raises(DomainError):
            t_derivatives(f, t, MeanPoint(1, 2))
        with pytest.raises(DomainError):
            t_prime(f, t, MeanPoint(1, 2))


# ---------------------------------------------------------------------------
# H_D
# ---------------------------------------------------------------------------

def test_hd_examples():
    assert hd_eval(ParamPair(2, 1), MeanPoint(4, 2)).value == pytest.approx(6, rel=1e-13)
    # e^(1/L(p,q)) S_{p,q} relation at (2, 1), (4, 2): e^(ln 2) * 3 = 6
    ell = log_mean(MeanPoint(2.0, 1.0))
    s = stolarsky(ParamPair(2, 1), MeanPoint(4, 2)).value
    assert math.exp(1.0 / ell) * s == pytest.approx(6.0, rel=1e-13)


def test_hd_relations_random():
    rng = random.Random(9)
    for _ in range(400):
        p = rng.uniform(0.1, 4.0)
        q = rng.uniform(0.1, 4.0)
        if abs(p - q) <= 1e-3 * (1 + p + q):
            continue
        pt = MeanPoint(1.0, math.exp(rng.uniform(math.log(1.1), math.log(30.0))))
        hd = hd_eval(ParamPair(p, q), pt).value
        s = stolarsky(ParamPair(p, q), pt).value
        ell = log_mean(MeanPoint(p, q))
        assert hd == pytest.approx(math.exp(1.0 / ell) * s, rel=1e-12)
        hd2 = hd_eval(ParamPair(2 * p, 2 * q), pt).value
        g = gini(ParamPair(p, q), pt).value
        assert hd * g == pytest.approx(hd2 * hd2, rel=1e-12)


def test_hd_p_eq_q_branch():
    # H_D(p, p) = e^(1/p) I^(1/p)(a^p, b^p)
    from parmeans import identric_mean
    pt = MeanPoint(4.0, 1.5)
    for p in (0.5, 1.0, 2.5, -1.5):
        direct = math.exp(1.0 / p) * identric_mean(
            MeanPoint(pt.a ** p, pt.b ** p)) ** (1.0 / p)
        assert hd_eval(ParamPair(p, p), pt).value == pytest.approx(direct, rel=1e-12)


def test_hd_rejections():
    with pytest.raises(DomainError):
        hd_eval(ParamPair(1.0, 1.0), MeanPoint(3, 3))
    with pytest.raises(DomainError):
        hd_eval(ParamPair(0.0, 1.0), MeanPoint(4, 2))
    with pytest.raises(DomainError):
        hd_eval(ParamPair(1.0, 0.0), MeanPoint(4, 2))


@pytest.mark.parametrize("p, q, a, b, value", [
    (-1.0, -2.0, 1.5e308, 1.7e308, 7.968750000000022e+307),
    (1.0, 2.0, 1e-308, 3e-308, 3.9999999999999606e-308),
])
def test_hd_range_check_is_on_the_sum(p, q, a, b, value):
    # H_D near either end of the float range, bit for bit; only the sum
    # ln S_{p,q} + pole is range-checked, so the Stolarsky part may leave it
    assert hd_eval(ParamPair(p, q), MeanPoint(a, b)).value == value
    if p < 0.0:  # ln S_{-1,-2} = 709.66 there
        with pytest.raises(SaturationError):
            stolarsky(ParamPair(p, q), MeanPoint(a, b))


def test_hd_opposite_signs():
    # straddling parameters use the stable quotient; H_D(p, -p) = sqrt(ab)
    pt = MeanPoint(9.0, 4.0)
    assert hd_eval(ParamPair(1.0, -1.0), pt).value == pytest.approx(6.0, rel=1e-12)


def test_hd_near_diagonal_against_high_precision_oracle():
    # 60-digit decimal evaluation of the defining quotient; H_D splits off
    # the exact 1/L(p,q) pole so only the smooth Stolarsky factor takes
    # the band rule
    from decimal import Decimal, getcontext
    getcontext().prec = 60

    def oracle(p, q, a, b):
        p, q, a, b = (Decimal(str(v)) for v in (p, q, a, b))
        ap, bp = (p * a.ln()).exp(), (p * b.ln()).exp()
        aq, bq = (q * a.ln()).exp(), (q * b.ln()).exp()
        return float((abs((ap - bp) / (aq - bq)).ln() / (p - q)).exp())

    for p, q in [(0.01, 0.0109), (0.01, 0.0101), (0.3, 0.3006),
                 (2.0, 2.0008), (-0.02, -0.0207), (0.005, 0.0058)]:
        got = hd_eval(ParamPair(p, q), MeanPoint(4.0, 1.5)).value
        assert got == pytest.approx(oracle(p, q, 4.0, 1.5), rel=1e-9)


def test_hf_eval_stolarsky_generator_matches_four_param():
    # the generator route and the closed-form four-parameter route agree
    from parmeans import GeneratorPair, four_param_F
    rng = random.Random(17)
    for r, s in ((1.5, 0.5), (2.0, -1.0), (0.7, 0.7)):
        gen = stolarsky_generator(r, s)
        for _ in range(25):
            pp = ParamPair(rng.uniform(-3, 3), rng.uniform(-3, 3))
            pt = MeanPoint(1.0, math.exp(rng.uniform(0.2, 3.0)))
            assert hf_eval(gen, pp, pt).value == pytest.approx(
                four_param_F(pp, GeneratorPair(r, s), pt).value, rel=1e-11)


@pytest.mark.parametrize("p, q, a, b", [
    (3.379648090750162, 3.3908933936079495, 1.0, 16.452937104989235),
    (-3.0, -4.0006103515625, 1.0, 100.0),
])
def test_hd_generic_error_within_estimate_mpmath(p, q, a, b):
    # the generic quotient's cancellation, 1/|p - q| times the rounding of
    # E(p) and E(q), must be inside est_rel_error
    mp = pytest.importorskip("mpmath")
    res = hd_eval(ParamPair(p, q), MeanPoint(a, b))
    assert res.branch == "generic"
    with mp.workdps(50):
        P, Q, A, B = (mp.mpf(v) for v in (p, q, a, b))
        ref = mp.exp(mp.log(abs((A ** P - B ** P) / (A ** Q - B ** Q))) / (P - Q))
        assert abs(res.value / ref - 1) <= res.est_rel_error
