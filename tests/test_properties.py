"""Property-based invariants for the mean families."""

import json
import tempfile
from pathlib import Path

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ModuleNotFoundError:  # pragma: no cover - environment-specific fallback
    pytest.skip("hypothesis is required for property-based tests", allow_module_level=True)

from parmeans import (
    GeneratorPair,
    MeanPoint,
    ParamPair,
    four_param_F,
    gini,
    stolarsky,
    two_param_heronian,
    two_param_identric,
)
from parmeans.cli import main
from parmeans.convexity import CheckReport, Tally

PARAMS = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
SIDES = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
FAMILIES = st.sampled_from([stolarsky, gini, two_param_identric, two_param_heronian])


@given(fam=FAMILIES, p=PARAMS, q=PARAMS, a=SIDES, b=SIDES)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parameter_and_argument_symmetry(fam, p, q, a, b):
    v = fam(ParamPair(p, q), MeanPoint(a, b)).value
    assert fam(ParamPair(q, p), MeanPoint(a, b)).value == pytest.approx(v, rel=1e-12)
    assert fam(ParamPair(p, q), MeanPoint(b, a)).value == pytest.approx(v, rel=1e-12)


@given(fam=FAMILIES, p=PARAMS, q=PARAMS, a=SIDES, b=SIDES,
       lam=st.sampled_from([1e-3, 1.0, 1e3]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_homogeneity(fam, p, q, a, b, lam):
    v = fam(ParamPair(p, q), MeanPoint(a, b)).value
    assert fam(ParamPair(p, q), MeanPoint(lam * a, lam * b)).value == pytest.approx(
        lam * v, rel=1e-12)


@given(fam=FAMILIES, p=PARAMS, q=PARAMS, a=SIDES, b=SIDES)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mean_bounds(fam, p, q, a, b):
    res = fam(ParamPair(p, q), MeanPoint(a, b))
    slack = 10.0 * res.est_rel_error + 1e-13
    assert min(a, b) * (1 - slack) <= res.value <= max(a, b) * (1 + slack)


@given(fam=FAMILIES, p=PARAMS, a=SIDES)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_diagonal_is_exact(fam, p, a):
    assert fam(ParamPair(p, p), MeanPoint(a, a)).value == a


@given(p=PARAMS, q=PARAMS, r=PARAMS, s=PARAMS, a=SIDES, b=SIDES)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_four_param_exchange_symmetry(p, q, r, s, a, b):
    pt = MeanPoint(a, b)
    v = four_param_F(ParamPair(p, q), GeneratorPair(r, s), pt).value
    assert four_param_F(ParamPair(r, s), GeneratorPair(p, q), pt).value == \
        pytest.approx(v, rel=1e-12)
    assert four_param_F(ParamPair(p, q), GeneratorPair(s, r), pt).value == \
        pytest.approx(v, rel=1e-12)


def _tally_report(margins: list, start: int) -> CheckReport:
    """A Tally over margins, sample start + i witnessed as {"i": start + i}; >= 0 passes."""
    tally = Tally()
    for i, m in enumerate(margins, start):
        tally.margin(m, {"i": i})
        tally.count(m >= 0.0)
    return tally.report("case")


@given(margins=st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]) | st.floats(
           min_value=-1e3, max_value=1e3, allow_nan=False), max_size=30),
       cuts=st.tuples(st.integers(0, 30), st.integers(0, 30)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tally_over_a_list_equals_merge_of_its_parts(margins, cuts):
    # one Tally over the whole stream equals CheckReport.merge of the Tallies
    # over its three consecutive parts, merged in either grouping
    i, j = sorted(min(c, len(margins)) for c in cuts)
    a = _tally_report(margins[:i], 0)
    b = _tally_report(margins[i:j], i)
    c = _tally_report(margins[j:], j)
    whole = _tally_report(margins, 0)
    assert a.merge(b).merge(c) == whole
    assert a.merge(b.merge(c)) == whole


@st.composite
def check_reports(draw, case_id=st.sampled_from(["c1", "c2", "c3"])):
    passed, inconclusive, failed = (draw(st.integers(0, 50)) for _ in range(3))
    return CheckReport(
        draw(case_id), passed + inconclusive + failed, passed, inconclusive, failed,
        draw(st.floats(allow_nan=False)),
        draw(st.dictionaries(st.sampled_from(["a", "b", "p", "q"]),
                             st.floats(allow_nan=False, allow_infinity=False), max_size=4)),
        draw(st.text(max_size=8)))


@given(report=check_reports())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_check_report_dict_round_trip(report):
    assert CheckReport.from_dict(report.to_dict()) == report
    assert CheckReport.from_dict(json.loads(json.dumps(report.to_dict()))) == report


def _merged_file(directory: Path, name: str, *inputs: Path) -> Path:
    out = directory / name
    assert main(["report", "--inputs", *map(str, inputs), "--out", str(out)]) in (0, 1, 3)
    return out


@given(files=st.lists(st.lists(check_reports(), max_size=4), min_size=3, max_size=3))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_report_files_merge_associatively(files):
    # report --out of ((A, B), C) and of (A, (B, C)) agree in counts and worst margins
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        a, b, c = (tmp / f"{n}.json" for n in "abc")
        for path, reports in zip((a, b, c), files):
            path.write_text(json.dumps({"schema_version": 1,
                                        "cases": [r.to_dict() for r in reports]}))
        left = _merged_file(tmp, "left.json", _merged_file(tmp, "ab.json", a, b), c)
        right = _merged_file(tmp, "right.json", a, _merged_file(tmp, "bc.json", b, c))

        def summary(path):
            return {case["id"]: (case["total"], case["passed"], case["failed"],
                                 case["inconclusive"], case["worst_margin"])
                    for case in json.loads(path.read_text())["cases"]}

        assert summary(left) == summary(right)
        assert set(summary(left)) == {r.case_id for reports in files for r in reports}
