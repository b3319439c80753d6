"""Catalog contents, constants, case checks and the named reductions."""

import json
import math
import random
from pathlib import Path

import pytest

from parmeans import (
    DomainError,
    GeneratorPair,
    MeanPoint,
    ParamPair,
    SamplingPlan,
    catalog,
    check_case,
    check_cases,
    four_param_F,
    gini,
    identric_mean,
    log_mean,
    power_mean,
    special_reductions_check,
    stolarsky,
)
from parmeans.inequalities import (
    EXP_1_24,
    LIN_JIA_CONST,
    SQRT8_OVER_E,
    THREE_OVER_E,
    THREE_OVER_SQRT8,
)


def get_case(case_id):
    matches = [c for c in catalog() if c.case_id == case_id]
    assert len(matches) == 1
    return matches[0]


def test_catalog_has_thirteen_cases_with_unique_ids():
    cases = catalog()
    assert len(cases) == 13
    assert len({c.case_id for c in cases}) == 13


def test_constants_closed_forms_match_decimal_renderings():
    # every constant's closed-form value matches its 4-digit rendering
    for case in catalog():
        for const in case.constants:
            assert const.value == pytest.approx(const.decimal, abs=1e-4), \
                (case.case_id, const.name)
    assert SQRT8_OVER_E == pytest.approx(1.0405, abs=1e-4)
    assert THREE_OVER_SQRT8 == pytest.approx(1.0607, abs=1e-4)
    assert LIN_JIA_CONST == pytest.approx(0.9249, abs=1e-4)
    assert EXP_1_24 == pytest.approx(1.0425, abs=1e-4)
    assert THREE_OVER_E == pytest.approx(1.1036, abs=1e-4)


def test_gen_lin_reduces_to_lin_inequality():
    # at (r, s) = (1, 0) the case is L <= A_{1/3}; no failures over the grid
    case = get_case("gen_lin")
    for b in (1.001, 1.5, 7.0, 1e3, 1e6):
        s = {"a": 1.0, "b": b, "r": 1.0, "s": 0.0}
        val = case.log_value(s)
        assert val <= 1e-11
        lhs = log_mean(MeanPoint(1.0, b))
        rhs = power_mean(1.0 / 3.0, MeanPoint(1.0, b))
        assert val == pytest.approx(math.log(lhs / rhs), rel=1e-9, abs=1e-13)


def test_stolarsky_yang_pointwise():
    case = get_case("stolarsky_yang")
    s = {"a": 1.0, "b": 10.0}
    ratio = math.exp(case.log_value(s))
    assert 1.0 <= ratio <= SQRT8_OVER_E
    direct = identric_mean(MeanPoint(1, 10)) / power_mean(2.0 / 3.0, MeanPoint(1, 10))
    assert ratio == pytest.approx(direct, rel=1e-12)


def test_stolarsky_double_spot_sample():
    # both sides of the double inequality at a structured sample
    case = get_case("stolarsky_double")
    s = {"a": 1.0, "b": 7.0, "p1": 2.0, "q1": 1.0, "p2": 1.0, "q2": 3.0, "alpha": 0.5}
    val = case.log_value(s)
    upper = case.log_upper(s)
    assert val >= -1e-12
    assert val <= upper + 1e-12
    # structure check: value is ln(S_blend / (S1^a S2^b))
    pt = MeanPoint(1.0, 7.0)
    blend = stolarsky(ParamPair(1.5, 2.0), pt).value
    s1 = stolarsky(ParamPair(2.0, 1.0), pt).value
    s2 = stolarsky(ParamPair(1.0, 3.0), pt).value
    assert val == pytest.approx(math.log(blend / (math.sqrt(s1) * math.sqrt(s2))),
                                rel=1e-9, abs=1e-13)


def test_double_bound_reproduces_display_constants():
    # the double-inequality bound at the classical parameter tuples
    # reproduces the closed-form constants of the ratio estimates
    case = get_case("stolarsky_double")
    s = {"a": 1.0, "b": 3.0, "p1": 4.0 / 3.0, "q1": 2.0 / 3.0,
         "p2": 2.0 / 3.0, "q2": 4.0 / 3.0, "alpha": 0.5}
    assert case.log_upper(s) == pytest.approx(math.log(SQRT8_OVER_E), rel=1e-12)
    s = {"a": 1.0, "b": 3.0, "p1": 0.5, "q1": 1.5, "p2": 1.5, "q2": 0.5,
         "alpha": 1.0 / 6.0}
    assert case.log_upper(s) == pytest.approx(math.log(THREE_OVER_SQRT8), rel=1e-12)
    s = {"a": 1.0, "b": 3.0, "p1": 1.2, "q1": 1.2, "p2": 0.8, "q2": 0.8, "alpha": 0.5}
    assert case.log_upper(s) == pytest.approx(1.0 / 24.0, rel=1e-12)


def test_check_case_runs_clean_and_deterministic():
    plan = SamplingPlan(grid_b_count=10, random_count=400, seed=7)
    for case_id in ("gen_lin", "stolarsky_yang", "stolarsky_double", "new_est_3"):
        case = get_case(case_id)
        report1, record1 = check_case(case, plan)
        report2, record2 = check_case(case, plan)
        assert report1.failed == 0
        assert report1.total == report1.passed + report1.inconclusive
        assert report1.worst_margin == report2.worst_margin
        assert record1.observed_sup == record2.observed_sup
        assert record1.observed_inf <= record1.observed_sup


def test_full_catalog_zero_violations_small_plan():
    plan = SamplingPlan(grid_b_count=8, random_count=250, seed=3)
    for case in catalog():
        report, _ = check_case(case, plan)
        assert report.failed == 0, (case.case_id, report.worst_witness)


def test_supremum_monotone_in_range_extension():
    # stolarsky_yang and sandor_yang suprema are nondecreasing as the b/a
    # range widens (recorded, not asserted against a target)
    for case_id in ("stolarsky_yang", "sandor_yang"):
        case = get_case(case_id)
        sups = []
        for hi in (10.0, 1e3, 1e6):
            plan = SamplingPlan(grid_b_count=25, random_count=0, b_high=hi)
            _, record = check_case(case, plan)
            sups.append(record.observed_sup)
        assert sups[0] <= sups[1] <= sups[2]


def test_new_est_1_is_report_only():
    case = get_case("new_est_1")
    plan = SamplingPlan(grid_b_count=10, random_count=100)
    assert not any(case.assert_in(s) for s in case.grid(plan))
    report, record = check_case(case, plan)
    # nothing is asserted: every sample passes, none fails or is inconclusive
    assert (report.passed, report.failed, report.inconclusive) == (110, 0, 0)
    # the printed two-sided form still holds empirically
    assert record.observed_sup <= 1.0 + 1e-12
    assert record.observed_inf >= LIN_JIA_CONST - 1e-6


def test_derivation_chain_gen_lin():
    # (3.1a) is F(1,0) <= F(1/3,2/3) with generator (r, s); both
    # formulations agree sample-by-sample to 1e-12
    for (r, s) in ((1.0, 0.0), (2.0, 1.0), (1.5, 0.5), (3.0, 0.7)):
        for b in (1.5, 20.0, 1e4):
            pt = MeanPoint(1.0, b)
            gp = GeneratorPair(r, s)
            f10 = four_param_F(ParamPair(1.0, 0.0), gp, pt).value
            f1323 = four_param_F(ParamPair(1.0 / 3.0, 2.0 / 3.0), gp, pt).value
            srs = stolarsky(ParamPair(r, s), pt).value
            g3 = gini(ParamPair(r / 3.0, s / 3.0), pt).value
            assert f10 == pytest.approx(srs, rel=1e-12)
            assert f1323 == pytest.approx(g3, rel=1e-12)
            assert f10 <= f1323 * (1 + 1e-12)


def test_double_first_inequality_matches_midpoint_sign():
    # the first inequality of the Stolarsky double case is exactly the
    # log-concavity Jensen defect with flipped sign
    from parmeans import family_evaluator, midpoint_test
    ev = family_evaluator("stolarsky")
    case = get_case("stolarsky_double")
    s = {"a": 1.0, "b": 9.0, "p1": 1.7, "q1": 0.4, "p2": 0.9, "q2": 2.6, "alpha": 0.3}
    val = case.log_value(s)
    defect = midpoint_test(ev, ParamPair(1.7, 0.4), ParamPair(0.9, 2.6), (0.3, 0.7),
                           MeanPoint(1.0, 9.0))
    assert val == pytest.approx(-defect, rel=1e-10, abs=1e-15)
    assert defect <= 0.0 <= val


def test_special_reductions():
    report = special_reductions_check()
    assert report.failed == 0
    assert report.total == 9 * 25
    # spot values quoted in the reduction list
    pt = MeanPoint(4, 2)
    assert log_mean(pt) <= power_mean(1.0 / 3.0, pt)
    assert identric_mean(pt) >= stolarsky(ParamPair(2, 0), pt).value
    from parmeans import power_exponential_Z
    assert power_exponential_Z(pt) >= power_mean(2.0, pt)


def test_check_case_counts_saturation_as_inconclusive():
    # a stream that saturates makes the sample inconclusive, neither passed nor failed;
    # a block that holds such a sample is read again one sample at a time
    from parmeans import SaturationError
    from parmeans.inequalities import InequalityCase, SampleStream

    def exploding(samples, ws, lnbs):
        if any(sample["b"] > 10.0 for sample in samples):
            raise SaturationError("synthetic overflow", 1234.0)
        return [(-0.5,) for _ in samples]

    stream = SampleStream(exploding,
                          grid=lambda plan: [{"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 50.0}],
                          draw=lambda rng, plan: {"a": 1.0, "b": rng.uniform(1.5, 100.0)})
    case = InequalityCase("synthetic", "always below zero unless saturated", stream, 0,
                          upper=0.0)
    report, record = check_case(case, SamplingPlan(grid_b_count=0, random_count=50, seed=1))
    assert report.inconclusive >= 1
    assert report.failed == 0
    assert report.total == report.passed + report.inconclusive
    assert record.samples == report.total - report.inconclusive


def test_a_nan_value_or_bound_is_inconclusive():
    # every comparison with NaN is false: a NaN value used to count as
    # passed, and a case NaN everywhere raised "SupremumRecord inf exceeds sup"
    from parmeans.inequalities import InequalityCase, SampleStream, Slot

    stream = SampleStream(lambda xs, ws, lnbs: [(math.nan if s["b"] > 10.0 else -0.5, math.nan, -0.5)
                                                for s in xs],
                          grid=lambda plan: [],
                          draw=lambda rng, plan: {"a": 1.0, "b": rng.uniform(1.5, 20.0)})
    half, everywhere, bound = (InequalityCase(case_id, case_id, stream, slot, upper=upper)
                               for slot, case_id, upper in ((0, "half", 0.0),
                                                            (1, "everywhere", 0.0),
                                                            (2, "nan_bound", Slot(1))))
    plan = SamplingPlan(grid_b_count=0, random_count=20, seed=4)
    rng = random.Random(plan.seed)
    nan = sum(rng.uniform(1.5, 20.0) > 10.0 for _ in range(plan.random_count))
    assert 0 < nan < 20
    report, record = check_case(half, plan)
    assert (report.passed, report.failed, report.inconclusive) == (20 - nan, 0, nan)
    assert record.samples == 20 - nan
    assert record.observed_sup == record.observed_inf == math.exp(-0.5)
    for case in (everywhere, bound):
        report, record = check_case(case, plan)
        assert (report.passed, report.failed, report.inconclusive) == (0, 0, 20)
        assert record.samples == 0
        assert (record.observed_sup, record.observed_inf) == (-math.inf, math.inf)


@pytest.mark.parametrize("case_id", ["gen_lin", "new_ineq_1"])
def test_check_case_takes_the_logs_once_per_sample(case_id, monkeypatch):
    from parmeans import core, inequalities

    calls = []

    def counting(a, b):
        calls.append((a, b))
        return math.log(a / b)

    monkeypatch.setattr(inequalities, "log_ratio", counting)
    monkeypatch.setattr(core, "log_ratio", counting)
    report, _ = check_case(get_case(case_id), SamplingPlan(grid_b_count=4, random_count=60, seed=2))
    assert report.total > 60
    assert len(calls) <= report.total


# every stream's samples span three blocks and end in a partial one, and the
# (r, s) and (a, b)-only streams saturate in more than one block
BLOCKS_PLAN = SamplingPlan(grid_b_count=12, random_count=700, seed=8, b_high=1e300)


def test_the_blocks_plan_crosses_blocks_and_saturates_in_several():
    from parmeans import inequalities
    from parmeans.inequalities import BLOCK, _logs

    for stream in (inequalities._RS, inequalities._DOUBLE, inequalities._AB):
        rng = random.Random(BLOCKS_PLAN.seed)
        samples = stream.grid(BLOCKS_PLAN) + [stream.draw(rng, BLOCKS_PLAN)
                                              for _ in range(BLOCKS_PLAN.random_count)]
        assert len(samples) > 2 * BLOCK and len(samples) % BLOCK
        blocks_with_nan = set()
        for i, s in enumerate(samples):
            w, lnb = _logs(s)
            if any(math.isnan(v) for v in stream.values([s], [w], [lnb])[0]):
                blocks_with_nan.add(i // BLOCK)
        if stream is not inequalities._DOUBLE:  # the double stream draws its own b range
            assert len(blocks_with_nan) > 1


@pytest.mark.parametrize("plan", [
    SamplingPlan(),
    SamplingPlan(random_count=0),
    SamplingPlan(grid_b_count=12, random_count=400, seed=6, b_high=1e300),  # saturates
    BLOCKS_PLAN,
], ids=["default", "grid_only", "saturating", "blocks"])
def test_check_cases_matches_check_case(plan):
    # the grouped run gives every case the report and record it gets alone, bit for bit
    cases = catalog()
    grouped = check_cases(cases, plan)
    assert len(grouped) == len(cases)
    for case, got in zip(cases, grouped):
        assert repr(got) == repr(check_case(case, plan)), case.case_id
    if plan.b_high > 1e6:
        assert any(report.inconclusive for report, _ in grouped)


def test_check_cases_memory_does_not_grow_with_the_sample_count():
    # the streams are read a block at a time, never held whole: ten times the
    # samples may not raise the traced peak by half
    import tracemalloc

    def peak(random_count):
        tracemalloc.start()
        try:
            check_cases(catalog(), SamplingPlan(random_count=random_count))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2000), peak(20000)
    assert large <= 1.5 * small, (small, large)


def test_check_cases_keeps_a_refused_case_apart():
    # cases on one stream; a shared term is NaN where its helper raises, so
    # both cases reading it are inconclusive there, and the case that does
    # not read it tallies as it does alone
    from parmeans import SaturationError
    from parmeans.inequalities import InequalityCase, SampleStream, _or_nan

    calls = []

    def refusing(p, q, w, lnb):
        calls.append(lnb)
        if lnb > math.log(10.0):
            raise SaturationError("synthetic overflow", 1234.0)
        return lnb + 0.25 * w

    def values(xs, ws, lnbs):
        rows = []
        for w, lnb in zip(ws, lnbs):
            term = _or_nan(refusing, 1.0, 2.0, w, lnb)
            rows.append((term - lnb - 0.5, -0.5 - 1e-3 * lnb, 0.5 * (term - lnb) - 0.5))
        return rows

    stream = SampleStream(values,
                          grid=lambda plan: [{"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 50.0}],
                          draw=lambda rng, plan: {"a": 1.0, "b": rng.uniform(1.5, 100.0)})
    cases = [InequalityCase(case_id, case_id, stream, slot, upper=0.0)
             for slot, case_id in enumerate(("refused", "plain", "refused_too"))]
    plan = SamplingPlan(grid_b_count=0, random_count=50, seed=1)
    grouped = check_cases(cases, plan)
    grouped_calls = len(calls)
    assert repr(grouped) == repr([check_case(case, plan) for case in cases])
    (refused, _), (plain, _), (refused_too, _) = grouped
    assert 0 < refused.inconclusive == refused_too.inconclusive < refused.total
    assert plain.inconclusive == 0 and plain.passed == plain.total
    # one evaluation per sample, where it raised too
    assert grouped_calls == refused.total


def test_check_cases_shares_the_rs_means(monkeypatch):
    # the five (r, s) cases on one stream: the sample's logs once, and six
    # family evaluations per sample where the cases read twelve, counted as
    # the elements of the family columns
    from parmeans import core, inequalities

    logs, evals = [], []

    def counting_logs(a, b):
        logs.append((a, b))
        return math.log(a / b)

    family_ln_column = inequalities._family_ln_column

    def counting_column(*args):
        column = family_ln_column(*args)
        evals.extend(column)
        return column

    monkeypatch.setattr(inequalities, "log_ratio", counting_logs)
    monkeypatch.setattr(core, "log_ratio", counting_logs)
    monkeypatch.setattr(inequalities, "_family_ln_column", counting_column)
    cases = [c for c in catalog() if c.stream is inequalities._RS]
    assert len(cases) == 5
    results = check_cases(cases, SamplingPlan(grid_b_count=4, random_count=60, seed=2))
    total = results[0][0].total
    assert total > 60
    assert all(report.total == total and report.inconclusive == 0 for report, _ in results)
    assert len(logs) == total
    assert len(evals) == 6 * total


@pytest.mark.parametrize("fields", [
    {"b_low": 0.0},  # raised ValueError from math.log inside check_case
    {"b_low": -1.0},
    {"random_count": 2.5},  # raised TypeError from range()
    {"grid_b_count": 2.5},
    {"random_count": -1},
    {"b_low": 10.0, "b_high": 2.0},  # was accepted
    {"b_high": math.inf},
    {"b_low": math.nan},
    {"b_high": "1e6"},
])
def test_sampling_plan_rejects_bad_fields(fields):
    with pytest.raises(DomainError):
        SamplingPlan(**fields)


def test_sampling_plan_refuses_a_b_beyond_the_float_range():
    # an int b_high beyond the largest float was accepted, and check_case then
    # raised OverflowError from math.log
    with pytest.raises(DomainError):
        check_case(catalog()[0], SamplingPlan(b_low=2, b_high=10 ** 400,
                                              grid_b_count=2, random_count=2))


def test_sampling_plan_refusal_shows_a_huge_int():
    # the message formatted the plan's repr, and str() of an int of over 4300
    # digits raised Python's own ValueError in place of the DomainError
    with pytest.raises(DomainError, match="<int of 16610 bits>"):
        SamplingPlan(b_low=-10 ** 5000)


def test_grid_b_count_zero_and_one_are_honoured():
    # n = max(2, grid_b_count) made these totals 7 and 2
    case = get_case("stolarsky_yang")
    assert check_case(case, SamplingPlan(grid_b_count=0, random_count=5))[0].total == 5
    report = check_case(case, SamplingPlan(grid_b_count=1, random_count=0))[0]
    assert report.total == 1
    assert report.worst_witness["b"] == pytest.approx(SamplingPlan().b_low, rel=1e-15)


@pytest.mark.parametrize("seed", [0, 7])
def test_inequality_suite_reproduces_its_golden_report(seed, tmp_path, capsys):
    # the check --suite inequalities JSON, timestamp aside, as committed
    from parmeans import cli

    out = tmp_path / "report.json"
    assert cli.main(["check", "--suite", "inequalities", "--seed", str(seed),
                     "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    del got["timestamp"]
    golden = Path(__file__).parent / "data" / f"inequalities_seed{seed}.json"
    assert got == json.loads(golden.read_text(encoding="utf-8"))
