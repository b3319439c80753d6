"""Generator contracts, T-derivative machinery, the integral oracle and H_D."""

import math
import random

import pytest

from parmeans import (
    DomainError,
    MeanPoint,
    ParamPair,
    arithmetic_generator,
    builtin_generators,
    difference_generator,
    gini,
    hd_eval,
    heronian_generator,
    hf_eval,
    hf_integral_oracle,
    identric_generator,
    log_mean,
    logarithmic_generator,
    stolarsky,
    stolarsky_generator,
    t_derivatives,
    two_param_heronian,
    two_param_identric,
)


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


# ---------------------------------------------------------------------------
# integral oracle
# ---------------------------------------------------------------------------

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


def test_hd_opposite_signs():
    # straddling parameters use the stable quotient; H_D(p, -p) = sqrt(ab)
    pt = MeanPoint(9.0, 4.0)
    assert hd_eval(ParamPair(1.0, -1.0), pt).value == pytest.approx(6.0, rel=1e-12)


def test_hd_near_diagonal_against_high_precision_oracle():
    # 60-digit decimal evaluation of the defining quotient; the limit
    # branch splits off the exact 1/L(p,q) pole so only the smooth factor
    # carries the midpoint-rule error
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


def test_t_derivatives_step_underflow():
    from parmeans import FDConfig
    from parmeans.errors import StepSizeError
    with pytest.raises(StepSizeError):
        t_derivatives(arithmetic_generator(), 1.0, MeanPoint(4, 2),
                      FDConfig(second_step_scale=1e-30))


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
