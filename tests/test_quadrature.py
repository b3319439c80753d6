"""Gauss-Kronrod quadrature: exactness, adaptivity and the failure path."""

import math

import pytest

from parmeans import DomainError, QuadratureError, QuadratureResult, integrate


def test_polynomial_exactness():
    # K15 integrates low-degree polynomials exactly in one panel
    res = integrate(lambda x: x * x, 0.0, 1.0)
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert res.subdivisions == 1
    res = integrate(lambda x: 5 * x ** 4 - 2 * x + 1, -1.0, 2.0)
    assert res.value == pytest.approx(33.0 - 3.0 + 3.0, rel=1e-14)


def test_smooth_transcendental():
    res = integrate(math.exp, 0.0, 1.0)
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-14)
    res = integrate(lambda x: math.sin(10 * x), 0.0, math.pi)
    assert res.value == pytest.approx((1 - math.cos(10 * math.pi)) / 10.0, abs=1e-13)


def test_adaptive_subdivision_kicks_in():
    # a sharp peak forces bisection
    res = integrate(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, rel_tol=1e-12)
    exact = 2.0 / math.sqrt(1e-4) * math.atan(1.0 / math.sqrt(1e-4))
    assert res.value == pytest.approx(exact, rel=1e-11)
    assert res.subdivisions > 4


def test_error_estimate_is_conservative():
    res = integrate(lambda x: math.cos(3 * x) * math.exp(-x), 0.0, 2.0, rel_tol=1e-12)
    exact = (3 * math.sin(6) - math.cos(6)) * math.exp(-2) / 10.0 + 1.0 / 10.0
    assert abs(res.value - exact) <= max(res.error_estimate, 1e-14 * abs(exact))


def test_budget_exhaustion_raises_with_achieved_tolerance():
    # |x|^(-1/2)-type endpoint singularity cannot reach 1e-14 in 3 panels
    with pytest.raises(QuadratureError) as info:
        integrate(lambda x: 1.0 / math.sqrt(x + 1e-300), 0.0, 1.0,
                  rel_tol=1e-14, max_subdivisions=3)
    assert info.value.achieved_tol > 1e-14
    assert info.value.subdivisions == 3


def test_degenerate_interval():
    res = integrate(math.exp, 2.0, 2.0)
    assert res.value == 0.0 and res.subdivisions == 0


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": math.nan}, {"rel_tol": -1e-9}, {"abs_tol": math.nan}, {"abs_tol": -1.0},
    {"max_subdivisions": 0}, {"max_subdivisions": -5},
])
def test_integrate_rejects_bad_arguments(kwargs):
    # a NaN tolerance would end the loop after one panel, a negative one
    # would silently become the floor
    with pytest.raises(DomainError):
        integrate(math.exp, 0.0, 1.0, **kwargs)


def test_integrate_zero_rel_tol_means_the_floor():
    res = integrate(math.exp, 0.0, 1.0, rel_tol=0.0)
    assert res.value == pytest.approx(math.e - 1.0, rel=1e-14)


@pytest.mark.parametrize("rule", [integrate], ids=lambda r: r.__name__)
@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0),
                                  (0.0, math.nan), (math.inf, math.inf)])
def test_non_finite_bound_is_a_domain_error(rule, a, b):
    # integrate(f, 0, inf) returned value=inf with error_estimate=nan
    with pytest.raises(DomainError):
        rule(math.exp, a, b)


@pytest.mark.parametrize("rule", [integrate], ids=lambda r: r.__name__)
@pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: math.inf if x > 0.5 else 1.0,
                               lambda x: 1e308 * (1.0 + x)], ids=["nan", "inf", "overflow"])
def test_non_finite_result_is_a_quadrature_error(rule, f):
    # a NaN integrand stopped integrate after one panel and returned NaN
    with pytest.raises(QuadratureError):
        rule(f, 0.0, 1.0)


def test_result_is_a_named_tuple_with_the_dataclass_fields():
    # the former frozen dataclass's fields in its order; a field cannot be set, and
    # the result unpacks as (value, error_estimate, subdivisions)
    assert QuadratureResult._fields == ("value", "error_estimate", "subdivisions")
    res = integrate(math.exp, 0.0, 1.0)
    value, error_estimate, subdivisions = res
    assert (value, error_estimate, subdivisions) == (res.value, res.error_estimate,
                                                     res.subdivisions)
    assert integrate(math.exp, 1.0, 1.0) == (0.0, 0.0, 0)
    with pytest.raises(AttributeError):
        res.value = 0.0
