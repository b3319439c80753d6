"""Hessian certification, midpoint tests, grid scans and the J criterion."""

import dataclasses
import math
import random

import pytest

from parmeans import (
    GeneratorPair,
    MeanPoint,
    ParamPair,
    ScanSpec,
    arithmetic_generator,
    difference_generator,
    family_evaluator,
    heronian_generator,
    hessian_logF,
    identric_generator,
    integral_hessian,
    j_criterion_probe,
    logarithmic_generator,
    midpoint_test,
    scan_convexity,
    stolarsky,
    stolarsky_generator,
)
from parmeans import convexity
from parmeans.convexity import (
    HessianReport,
    Tally,
    VERDICT_CONCAVE,
    VERDICT_CONVEX,
    VERDICT_INCONCLUSIVE,
    _family_hessian,
    _generator_hessian,
    expected_verdict,
    random_blend_margins,
)
from parmeans.errors import DomainError
from parmeans.stable import log_ratio
from parmeans.suites import DEFAULT_GRID, DEFAULT_MEAN_POINTS, convexity_suite

E = math.e


def test_hessian_worked_examples():
    stol = family_evaluator("stolarsky")
    assert hessian_logF(stol, ParamPair(1, 2), MeanPoint(1, E)).verdict == VERDICT_CONCAVE
    assert hessian_logF(stol, ParamPair(-1, -2), MeanPoint(1, E)).verdict == VERDICT_CONVEX
    hd = family_evaluator("hd")
    assert hessian_logF(hd, ParamPair(1, 2), MeanPoint(1, 4)).verdict == VERDICT_CONVEX


def test_hessian_delta_is_consistent_by_construction():
    rep = hessian_logF(family_evaluator("gini"), ParamPair(1, 2), MeanPoint(1, 10))
    assert rep.delta == rep.d2_pp * rep.d2_qq - rep.d2_pq ** 2


def test_hessian_report_is_a_named_tuple_with_the_dataclass_fields():
    # the former frozen dataclass's fields in its order, with classify kept; a field
    # cannot be set, and the report unpacks as (d2_pp, d2_qq, d2_pq, delta, verdict)
    assert HessianReport._fields == ("d2_pp", "d2_qq", "d2_pq", "delta", "verdict")
    rep = hessian_logF(family_evaluator("gini"), ParamPair(1, 2), MeanPoint(1, 10))
    d2_pp, d2_qq, d2_pq, delta, verdict = rep
    assert (d2_pp, d2_qq, d2_pq, delta, verdict) == (rep.d2_pp, rep.d2_qq, rep.d2_pq,
                                                     rep.delta, rep.verdict)
    assert verdict == HessianReport.classify(d2_pp, delta, 0.0, 0.0) == VERDICT_CONCAVE
    with pytest.raises(AttributeError):
        rep.verdict = VERDICT_CONVEX


def test_verdict_stability_under_step_halving(monkeypatch):
    rng = random.Random(21)
    stol = family_evaluator("stolarsky")
    cases = []
    for _ in range(25):
        pp = ParamPair(rng.uniform(0.3, 4.0), rng.uniform(0.3, 4.0))
        if abs(pp.p - pp.q) < 0.1:
            continue
        pt = MeanPoint(1.0, rng.uniform(2.0, 50.0))
        cases.append((pp, pt, hessian_logF(stol, pp, pt).verdict))
    monkeypatch.setattr(convexity, "STEP_SCALE", convexity.STEP_SCALE / 2.0)
    decided = 0
    for pp, pt, v1 in cases:
        v2 = hessian_logF(stol, pp, pt).verdict
        if VERDICT_INCONCLUSIVE not in (v1, v2):
            assert v1 == v2
            decided += 1
    assert decided > 0


def test_midpoint_examples():
    stol = family_evaluator("stolarsky")
    pt = MeanPoint(4, 2)
    # sqrt(S_{1,1} S_{3,3}) <= S_{2,2}: log-concavity defect is <= 0
    margin = midpoint_test(stol, ParamPair(1, 1), ParamPair(3, 3), (0.5, 0.5), pt)
    s11 = stolarsky(ParamPair(1, 1), pt).value
    s22 = stolarsky(ParamPair(2, 2), pt).value
    s33 = stolarsky(ParamPair(3, 3), pt).value
    assert math.sqrt(s11 * s33) <= s22
    assert margin == pytest.approx(math.log(math.sqrt(s11 * s33) / s22), rel=1e-9)
    assert margin <= 0.0
    # degenerate blend
    assert midpoint_test(stol, ParamPair(1, 2), ParamPair(3, 1), (1.0, 0.0), pt) == 0.0
    # H_D is log-convex on the positive quadrant: margin >= 0
    hd = family_evaluator("hd")
    assert midpoint_test(hd, ParamPair(1, 2), ParamPair(3, 1), (0.4, 0.6),
                         MeanPoint(1, 4)) >= 0.0


def test_midpoint_weight_validation():
    stol = family_evaluator("stolarsky")
    with pytest.raises(DomainError):
        midpoint_test(stol, ParamPair(1, 2), ParamPair(2, 1), (0.7, 0.7), MeanPoint(4, 2))


def test_hessian_midpoint_consistency():
    # wherever the Hessian certifies concave (convex), local Jensen margins
    # agree in sign to 1e-10
    rng = random.Random(22)
    for fam, pt in (("stolarsky", MeanPoint(1, 7)), ("gini", MeanPoint(1, 3)),
                    ("hd", MeanPoint(1, 5))):
        ev = family_evaluator(fam)
        pp = ParamPair(1.3, 2.4)
        rep = hessian_logF(ev, pp, pt)
        assert rep.verdict in (VERDICT_CONCAVE, VERDICT_CONVEX)
        for _ in range(10):
            d1 = (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            d2 = (rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
            alpha = rng.uniform(0.0, 1.0)
            m = midpoint_test(
                ev,
                ParamPair(pp.p + d1[0], pp.q + d1[1]),
                ParamPair(pp.p + d2[0], pp.q + d2[1]),
                (alpha, 1.0 - alpha),
                pt,
            )
            if rep.verdict == VERDICT_CONCAVE:
                assert m <= 1e-10
            else:
                assert m >= -1e-10


def test_scan_positive_quadrant_four_param():
    grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    spec = ScanSpec(family="four_param", region="positive_quadrant",
                    p_grid=grid, q_grid=grid,
                    mean_points=(MeanPoint(1, 2), MeanPoint(1, 10)),
                    gen=GeneratorPair(1.0, 0.0))
    report = scan_convexity(spec)
    assert report.failed == 0
    assert report.total == report.passed + report.inconclusive


def test_scan_negative_quadrant_flipped_generator():
    # (r, s) = (-1, -1): r + s < 0 flips the expected verdict to convex
    grid = (0.25, 0.5, 1.0, 2.0, 4.0)
    spec = ScanSpec(family="four_param", region="positive_quadrant",
                    p_grid=grid, q_grid=grid,
                    mean_points=(MeanPoint(1, 10),),
                    gen=GeneratorPair(-1.0, -1.0))
    assert expected_verdict(spec) == VERDICT_CONVEX
    report = scan_convexity(spec)
    assert report.failed == 0


def test_scan_hd_negative_quadrant_is_concave():
    # t^3 E'''(t) = 2 phi(t w/2) > 0 makes H_D log-concave on the negative quadrant
    grid = (0.5, 1.0, 2.0)
    spec = ScanSpec(family="hd", region="negative_quadrant",
                    p_grid=tuple(-g for g in grid), q_grid=tuple(-g for g in grid),
                    mean_points=(MeanPoint(1, 4),))
    assert expected_verdict(spec) == VERDICT_CONCAVE
    report = scan_convexity(spec)
    assert (report.total, report.passed, report.inconclusive, report.failed) == (6, 6, 0, 0)
    # the suite's case: 60 samples passed as concave, none inconclusive
    (suite,) = convexity_suite(families=("hd",), regions=("negative_quadrant",))
    assert (suite.total, suite.passed, suite.inconclusive, suite.failed) == (60, 60, 0, 0)
    assert suite.notes.startswith("observed={'concave': 60};")
    assert suite.worst_witness["verdict"] == VERDICT_CONCAVE
    assert 0.0 < suite.worst_margin < 1e300


def test_scan_spec_validation():
    with pytest.raises(DomainError):
        ScanSpec(family="stolarsky", region="positive_quadrant",
                 p_grid=(0.5, -1.0), q_grid=(0.5,), mean_points=(MeanPoint(1, 2),))
    with pytest.raises(DomainError):
        ScanSpec(family="stolarsky", region="positive_quadrant",
                 p_grid=(0.01,), q_grid=(0.5,), mean_points=(MeanPoint(1, 2),))
    with pytest.raises(DomainError):
        ScanSpec(family="four_param", region="positive_quadrant",
                 p_grid=(0.5,), q_grid=(1.5,), mean_points=(MeanPoint(1, 2),))


def test_scan_skips_pairs_within_the_exclusion_band():
    grid = (0.5, 0.54, 1.0)
    spec = ScanSpec(family="stolarsky", region="positive_quadrant", p_grid=grid,
                    q_grid=grid, mean_points=(MeanPoint(1, 2),))
    report = scan_convexity(spec)
    assert (report.total, report.passed) == (4, 4)
    assert report.notes.endswith("skipped_near_diagonal=5")


@pytest.mark.parametrize("change", [
    # an unknown family raised KeyError inside scan_convexity
    {"family": "nosuch"},
    # a mean point that is not a MeanPoint raised AttributeError
    {"mean_points": ((1.0, 2.0),)},
    # a string grid value raised TypeError; a NaN one failed every sample
    {"p_grid": ("0.5", 1.0)},
    {"q_grid": (0.5, math.nan)},
    {"p_grid": (0.5, math.inf)},
])
def test_scan_spec_rejects_bad_inputs(change):
    spec = {"family": "stolarsky", "region": "positive_quadrant", "p_grid": (0.5, 1.0),
            "q_grid": (0.5, 1.0), "mean_points": (MeanPoint(1, 2),), **change}
    with pytest.raises(DomainError):
        ScanSpec(**spec)


@pytest.mark.parametrize("v", [10 ** 400, -10 ** 400, 10 ** 5000], ids=["1e400", "-1e400", "1e5000"])
def test_scan_spec_refuses_a_huge_int_grid_value(v):
    # sign * v was formed before the type test and raised OverflowError
    for region in ("positive_quadrant", "negative_quadrant"):
        with pytest.raises(DomainError):
            ScanSpec(family="stolarsky", region=region, p_grid=(v,), q_grid=(0.5,),
                     mean_points=(MeanPoint(1, 2),))


def test_j_criterion_probes():
    rng = random.Random(23)

    def samples():
        out = []
        while len(out) < 30:
            t = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
            b = math.exp(rng.uniform(math.log(1.3), math.log(8.0)))
            if abs(t * math.log(b)) <= 3.5:
                out.append((t, MeanPoint(1.0, b)))
        return out

    # f = S_{1,0} (r + s > 0): J > 0, positive-quadrant verdicts concave
    rep = j_criterion_probe(stolarsky_generator(1.0, 0.0), samples())
    assert rep.failed == 0 and "[1]" in rep.notes and "concave" in rep.notes
    # the witness is the worst-margin Hessian sample; as in the scans, the
    # margin is d2_pp or delta in units of its estimate
    witness = rep.worst_witness
    assert witness["expected"] == "concave"
    d2_pp, _, _, delta, est_pp, _, _, est_delta = _generator_hessian(
        stolarsky_generator(1.0, 0.0), ParamPair(witness["p"], witness["q"]),
        convexity.J_MEAN_POINT)
    assert (witness["d2_pp"], witness["delta"]) == (d2_pp, delta)
    assert min(-d2_pp / est_pp, delta / est_delta) == rep.worst_margin
    # f = D: J < 0, verdicts convex
    rep = j_criterion_probe(difference_generator(), samples())
    assert rep.failed == 0 and "[-1]" in rep.notes and "convex" in rep.notes
    # f = S_{1,-2} (r + s < 0): J < 0
    rep = j_criterion_probe(stolarsky_generator(1.0, -2.0), samples())
    assert rep.failed == 0 and "[-1]" in rep.notes


def test_integral_hessian_cross_check():
    # the closed form for H_f agrees with the finite-difference Hessian of the
    # matching family to within its estimate plus the stencil's rounding, as
    # bounded in test_closed_form_hessian_agrees_with_hessian_logF_on_the_suite_grid
    cases = [
        (arithmetic_generator(), ParamPair(1.0, 2.0), MeanPoint(1.0, 3.0), "gini"),
        (logarithmic_generator(), ParamPair(0.5, 1.5), MeanPoint(2.0, 5.0), "stolarsky"),
    ]
    for gen, pp, pt, fam in cases:
        closed = _generator_hessian(gen, pp, pt)
        assert integral_hessian(gen, pp, pt) == closed[:4]
        ev = family_evaluator(fam)
        rep = hessian_logF(ev, pp, pt)
        tol = 32.0 * 2.0 ** -26 * (1.0 + abs(math.log(ev(pp, pt).value)))
        for c, est, fd in zip(closed, closed[4:], (rep.d2_pp, rep.d2_qq, rep.d2_pq)):
            assert abs(c - fd) <= est + tol, (gen.label, c, fd)
        d2_pp, d2_qq, d2_pq = closed[:3]
        delta_tol = (abs(d2_pp) + abs(d2_qq) + 2.0 * abs(d2_pq)) * tol + 2.0 * tol * tol
        assert abs(closed[3] - rep.delta) <= closed[7] + delta_tol


# each generator with the family whose ln M has the Hessian of ln H_f
GENERATOR_FAMILIES = [
    (arithmetic_generator(), "gini", None),
    (logarithmic_generator(), "stolarsky", None),
    (identric_generator(), "identric2", None),
    (heronian_generator(), "heronian2", None),
    (difference_generator(), "hd", None),
] + [(stolarsky_generator(r, s), "four_param", GeneratorPair(r, s))
     for r, s in ((2.0, 1.0), (-2.5, -2.0), (0.5, 0.5), (1.0, -2.0))]


@pytest.mark.parametrize("f, family, gen", GENERATOR_FAMILIES,
                         ids=[f.label for f, _, _ in GENERATOR_FAMILIES])
def test_integral_hessian_within_estimates_of_the_family_hessian(f, family, gen):
    # the generator's row at the real w against the family's: each entry and
    # delta within the sum of the two estimates
    hessian = _family_hessian(family, gen)
    rng = random.Random(43)
    for _ in range(200):
        sign = rng.choice((-1.0, 1.0))
        p, q = sign * rng.uniform(0.1, 4.0), sign * rng.uniform(0.1, 4.0)
        if abs(p - q) <= 0.05:
            continue
        a = 10.0 ** rng.uniform(-1.0, 1.0)
        pt = MeanPoint(a, a * 10.0 ** (rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 2.0)))
        closed = _generator_hessian(f, ParamPair(p, q), pt)
        assert integral_hessian(f, ParamPair(p, q), pt) == closed[:4]
        ref = hessian(p, q, log_ratio(pt.a, pt.b))
        for i in range(4):
            assert abs(closed[i] - ref[i]) <= closed[4 + i] + ref[4 + i], (i, p, q, pt)


def test_integral_hessian_refuses_p_eq_q():
    with pytest.raises(DomainError):
        integral_hessian(arithmetic_generator(), ParamPair(1.5, 1.5), MeanPoint(1, 3))


def test_random_blend_margins_signs():
    for fam in ("stolarsky", "gini", "identric2", "heronian2"):
        margins = random_blend_margins(fam, 1.0, 300, seed=31)
        assert max(margins) <= 1e-11
    hd_margins = random_blend_margins("hd", 1.0, 300, seed=32)
    assert min(hd_margins) >= -1e-11


def test_tally_counts_margins_errors_and_sentinel():
    empty = Tally().report("none")
    assert (empty.total, empty.worst_margin, empty.worst_witness) == (0, 1e300, {})

    tally = Tally()
    first = {"i": 1}
    tally.margin(0.5, first)
    first["i"] = 99  # the Tally keeps a copy
    tally.margin(0.5, {"i": 2})  # a tie keeps the first witness
    tally.count(True)
    tally.count(False)
    tally.undecided()
    rep = tally.report("case", "note")
    assert (rep.total, rep.passed, rep.failed, rep.inconclusive) == (3, 1, 1, 1)
    assert (rep.worst_margin, rep.worst_witness, rep.notes) == (0.5, {"i": 1}, "note")

    tally.error(ZeroDivisionError("first"), {"i": 3})
    tally.error(DomainError("second"), {"i": 4})
    tally.margin(-5.0, {"i": 5})  # a finite margin does not displace an error
    rep = tally.report("case")
    assert (rep.total, rep.failed) == (5, 3)
    assert rep.worst_margin == -1e300
    assert rep.worst_witness == {"i": 4, "error": "second"}

    other = Tally()
    other.error(ZeroDivisionError("boom"), {})
    assert other.report("case").worst_witness == {"error": "ZeroDivisionError: boom"}


def test_report_merge_is_associative():
    grid = (0.5, 1.0, 2.0)
    spec1 = ScanSpec(family="stolarsky", region="positive_quadrant",
                     p_grid=grid, q_grid=grid, mean_points=(MeanPoint(1, 2),))
    spec2 = ScanSpec(family="stolarsky", region="positive_quadrant",
                     p_grid=grid, q_grid=grid, mean_points=(MeanPoint(1, 10),))
    r1 = scan_convexity(spec1)
    r2 = scan_convexity(spec2)
    merged = r1.merge(r2)
    assert merged.total == r1.total + r2.total
    assert merged.worst_margin == min(r1.worst_margin, r2.worst_margin)
    swapped = r2.merge(r1)
    assert swapped.total == merged.total
    assert swapped.worst_margin == merged.worst_margin


def test_scan_counts_foreign_exception_as_failed(monkeypatch):
    # an exception other than ParMeansError fails its sample, not the scan
    from parmeans import hgf
    real = hgf.hd_eval

    def flaky(pp, pt):
        if abs(pp.p - 2.0) < 0.5:
            raise ZeroDivisionError("injected")
        return real(pp, pt)

    monkeypatch.setattr(hgf, "hd_eval", flaky)
    grid = (0.5, 1.0, 2.0)
    report = scan_convexity(ScanSpec(family="hd", region="positive_quadrant",
                                     p_grid=grid, q_grid=grid, mean_points=(MeanPoint(1, 4),)))
    assert report.total == 6
    assert report.failed == 2  # p = 2 with q = 0.5 and q = 1
    assert report.passed + report.inconclusive == 4
    assert report.worst_witness["error"] == "ZeroDivisionError: injected"
    assert report.worst_witness["p"] == 2.0


def test_identity_suite_counts_foreign_exception_as_failed(monkeypatch):
    from parmeans import suites

    def broken(pp, pt):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(suites, "hd_eval", broken)
    reports = {r.case_id: r for r in suites.identity_suite(count=40, seed=3)}
    for case_id in ("identity[hd=e^(1/L)*S]", "identity[hd*gini=hd(2p,2q)^2]"):
        rep = reports[case_id]
        assert rep.failed == rep.total == 40
        assert rep.worst_witness["error"] == "ZeroDivisionError: injected"
        assert {"p", "q", "a", "b"} <= set(rep.worst_witness)
    assert reports["identity[I(a^2,b^2)/I=Z]"].failed == 0


def test_reduction_consistency_counts_foreign_exception_as_failed(monkeypatch):
    from parmeans import suites
    from parmeans.errors import SaturationError

    def broken(pp, gp, pt):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(suites, "four_param_F", broken)
    rep = suites.reduction_consistency_check(count=12, seed=3)
    assert rep.failed == rep.total == 12
    assert rep.worst_witness["error"] == "ZeroDivisionError: injected"
    assert {"pattern", "p", "q", "r", "s", "b", "tag"} <= set(rep.worst_witness)

    def refused(pp, gp, pt):
        raise SaturationError("injected", 800.0, 700.0)

    monkeypatch.setattr(suites, "four_param_F", refused)
    rep = suites.reduction_consistency_check(count=12, seed=3)
    assert rep.inconclusive == rep.total == 12
    assert rep.failed == rep.passed == 0


# -- the closed-form Hessian of the scans ----------------------------------------

HESSIAN_FAMILIES = {
    "stolarsky": ("stolarsky", None),
    "gini": ("gini", None),
    "identric2": ("identric2", None),
    "heronian2": ("heronian2", None),
    "hd": ("hd", None),
    "four_param_rs_pos": ("four_param", GeneratorPair(2.5, -1.0)),
    "four_param_rs_neg": ("four_param", GeneratorPair(-2.0, 0.5)),
    "four_param_r_eq_s": ("four_param", GeneratorPair(0.7, 0.7)),
}


@pytest.mark.parametrize("region", ["positive_quadrant", "negative_quadrant"])
@pytest.mark.parametrize("family", sorted(HESSIAN_FAMILIES))
def test_closed_form_hessian_within_estimate_of_mpmath(family, region):
    mp = pytest.importorskip("mpmath")
    from test_band import _family_E

    name, gen = HESSIAN_FAMILIES[family]
    r, s = (gen.r, gen.s) if gen else (0.0, 0.0)
    hessian = _family_hessian(name, gen)
    sign = 1.0 if region == "positive_quadrant" else -1.0
    rng = random.Random(41)
    checked = 0
    while checked < 12:
        p, q = sign * rng.uniform(0.2, 4.0), sign * rng.uniform(0.2, 4.0)
        b = 10.0 ** rng.uniform(0.02, 2.5)
        if abs(p - q) <= 0.05:
            continue
        checked += 1
        w = log_ratio(1.0, b)
        d2_pp, d2_qq, d2_pq, delta, *est = hessian(p, q, w)
        with mp.workdps(50):
            E = _family_E(name, r, s)
            W = mp.mpf(w)
            quotient = lambda P, Q: (E(P, W) - E(Q, W)) / (P - Q)
            P, Q = mp.mpf(p), mp.mpf(q)
            ref = [mp.diff(quotient, (P, Q), order) for order in ((2, 0), (0, 2), (1, 1))]
            ref.append(ref[0] * ref[1] - ref[2] ** 2)
        for value, reference, estimate in zip((d2_pp, d2_qq, d2_pq, delta), ref, est):
            assert abs(value - float(reference)) <= estimate, (family, p, q, b)
        # and the estimate leaves the verdict decided at these points
        assert abs(d2_pp) > est[0] and delta > est[3]


@pytest.mark.parametrize("family", sorted(HESSIAN_FAMILIES))
def test_closed_form_hessian_agrees_with_hessian_logF_on_the_suite_grid(family):
    # the stencil's rounding is eps |ln M| over h^2 = sqrt(eps) (1 + |p|)^2,
    # times its Richardson and stencil weights
    name, gen = HESSIAN_FAMILIES[family]
    hessian = _family_hessian(name, gen)
    ev = family_evaluator(name, gen)
    for pt in DEFAULT_MEAN_POINTS:
        w = log_ratio(pt.a, pt.b)
        for sign in (1.0, -1.0):
            for p in DEFAULT_GRID:
                for q in DEFAULT_GRID:
                    if abs(p - q) <= 0.05:
                        continue
                    pq = ParamPair(sign * p, sign * q)
                    closed = hessian(pq.p, pq.q, w)
                    rep = hessian_logF(ev, pq, pt)
                    tol = 32.0 * 2.0 ** -26 * (1.0 + abs(math.log(ev(pq, pt).value)))
                    for c, fd in zip(closed, (rep.d2_pp, rep.d2_qq, rep.d2_pq)):
                        assert abs(c - fd) <= tol, (family, pq, pt)
                    if rep.verdict != VERDICT_INCONCLUSIVE:
                        assert HessianReport.classify(closed[0], closed[3], closed[4],
                                                      closed[7]) == rep.verdict


def test_closed_form_hessian_is_inconclusive_at_a_equal_b_and_near_it():
    # at a = b every entry is 0; at b = 1.001 the entries (O(w^4) for Stolarsky)
    # are below the rounding of the quotient, and the estimate says so
    for name, gen in HESSIAN_FAMILIES.values():
        if name == "hd":
            continue
        spec = ScanSpec(family=name, region="positive_quadrant", p_grid=(0.5, 2.0),
                        q_grid=(0.5, 2.0), mean_points=(MeanPoint(3.0, 3.0),), gen=gen)
        report = scan_convexity(spec)
        assert (report.total, report.inconclusive, report.worst_margin) == (2, 2, 0.0)
    spec = ScanSpec(family="stolarsky", region="positive_quadrant", p_grid=(0.2, 0.35),
                    q_grid=(0.2, 0.35), mean_points=(MeanPoint(1.0, 1.001),))
    report = scan_convexity(spec)
    assert (report.inconclusive, report.failed) == (2, 0)


@pytest.mark.parametrize("f", [arithmetic_generator(), logarithmic_generator(),
                               identric_generator(), heronian_generator()],
                         ids=lambda f: f.label)
def test_integral_hessian_of_a_derived_row_at_a_equal_b_is_zero(f):
    # E'' = w^2 e2 is 0 at w = 0 for every row, so a row derived without e2
    # needs no stencil there and reads the zero Hessian, as the builtin row does
    bare = dataclasses.replace(f, kernel=None)
    assert bare.kernel[2] is None
    for pp in (ParamPair(1, 2), ParamPair(-0.5, -3.0)):
        for pt in (MeanPoint(3, 3), MeanPoint(0.25, 0.25)):
            assert integral_hessian(bare, pp, pt) == integral_hessian(f, pp, pt) == (0.0,) * 4
