"""Property-based invariants for the mean families."""

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
