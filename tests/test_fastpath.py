"""The float-only log path against a copy of the closure-based formulas it replaced.

The reference engine below is the branch rule as it stood before the
family kernels became module-level (e, e1) pairs: per-call closures
E(t), E'(t) and a pairwise saturation loop.  The public evaluators must
reproduce it bit for bit, and the inequality checker and the convexity
scans, which read ln M from the fast path, must reach the same verdicts
as a slow path through the public evaluators.  t_derivatives and
integral_hessian, which now evaluate T' at the probe point and T'''
at each quadrature node once, must reproduce copies of their former
per-stencil and per-weight forms bit for bit.
"""

import math
import random

import pytest

from parmeans import (
    FDConfig,
    GeneratorPair,
    MeanPoint,
    ParamPair,
    SamplingPlan,
    SaturationError,
    ScanSpec,
    builtin_generators,
    catalog,
    check_case,
    four_param_F,
    gini,
    integral_hessian,
    power_mean,
    scan_convexity,
    stolarsky,
    stolarsky_generator,
    t_derivatives,
    two_param_heronian,
    two_param_identric,
)
from parmeans import convexity, inequalities
from parmeans.core import _check_saturation, _four_param_generator
from parmeans.hgf import t_prime
from parmeans.quadrature import integrate_fixed
from parmeans.stable import (
    exprel_logd,
    exprel_logd2,
    heronian_weight,
    log_exprel,
    log_heronian_sum,
    log_ratio,
    sigmoid,
    softplus,
)

_EPS = 2.0 ** -52


# -- reference copy of the closure-based evaluators ---------------------------

def _ref_check_saturation(params, gens, w):
    worst = 0.0
    for t in params:
        for u in gens:
            worst = max(worst, abs(t * u * w))
    if worst > 700.0:
        raise SaturationError("exponent product a^(p*r) not representable", worst, 700.0)


def _ref_quotient_eval(E, E1, p, q, lnb):
    scale = 1.0 + abs(p) + abs(q)
    d = p - q
    if abs(d) <= 1e-6 * scale:
        m = 0.5 * (p + q)
        ln = lnb + E1(m)
        branch = "both_zero" if max(abs(p), abs(q)) <= 1e-13 * scale else "p_eq_q"
        return ln, branch, 4.0 * _EPS * (1.0 + abs(ln))
    if abs(d) <= 1e-3:
        m = 0.5 * (p + q)
        e1m = E1(m)
        e3 = (E1(p) - 2.0 * e1m + E1(q)) / (0.25 * d * d) if d != 0.0 else 0.0
        est = abs(e3) * d * d / 24.0 + 4.0 * _EPS * (1.0 + abs(lnb + e1m))
        return lnb + e1m, "generic", est
    ep, eq = E(p), E(q)
    ln = lnb + (ep - eq) / d
    if abs(q) <= 1e-13 * scale:
        branch = "q_zero"
    elif abs(p) <= 1e-13 * scale:
        branch = "p_zero"
    else:
        branch = "generic"
    est = 2.0 * _EPS * (abs(ep) + abs(eq)) / abs(d) + 4.0 * _EPS * (1.0 + abs(ln))
    return ln, branch, est


def _ref_finish(ln, branch, est):
    if abs(ln) > 709.0:
        raise SaturationError("result magnitude outside floating range", ln)
    return math.exp(ln), branch, est


def _ref_family(gens, make_E):
    def evaluate(p, q, a, b):
        if a == b:
            return a, "diagonal_ab", 0.0
        w = log_ratio(a, b)
        _ref_check_saturation((p, q), gens, w)
        E, E1 = make_E(w)
        return _ref_finish(*_ref_quotient_eval(E, E1, p, q, math.log(b)))
    return evaluate


REFERENCE = {
    "stolarsky": _ref_family((1.0,), lambda w: (
        lambda t: log_exprel(t * w),
        lambda t: w * exprel_logd(t * w))),
    "gini": _ref_family((2.0, 1.0), lambda w: (
        lambda t: softplus(t * w),
        lambda t: w * sigmoid(t * w))),
    "identric2": _ref_family((1.0,), lambda w: (
        lambda t: t * w * exprel_logd(t * w),
        lambda t: w * (exprel_logd(t * w) + t * w * exprel_logd2(t * w)))),
    "heronian2": _ref_family((1.0,), lambda w: (
        lambda t: log_heronian_sum(t * w),
        lambda t: w * heronian_weight(t * w))),
}

PUBLIC = {"stolarsky": stolarsky, "gini": gini,
          "identric2": two_param_identric, "heronian2": two_param_heronian}


def _ref_four_param(p, q, r, s, a, b):
    if a == b:
        return a, "diagonal_ab", 0.0
    w = log_ratio(a, b)
    _ref_check_saturation((p, q), (r, s), w)
    if abs(r - s) <= 1e-6 * (1.0 + abs(r) + abs(s)) and \
            not abs(p - q) <= 1e-6 * (1.0 + abs(p) + abs(q)):
        value, _, est = _ref_four_param(r, s, p, q, a, b)
        return value, "swapped", est
    E, E1 = _four_param_generator(w, r, s)
    return _ref_finish(*_ref_quotient_eval(E, E1, p, q, math.log(b)))


def _outcome(fn, *args):
    """Bitwise-comparable (value, branch, est), or the saturation exponent."""
    try:
        res = fn(*args)
    except SaturationError as exc:
        return ("saturated", float(exc.exponent).hex())
    value, branch, est = res if isinstance(res, tuple) else \
        (res.value, res.branch, res.est_rel_error)
    return (float(value).hex(), branch, float(est).hex())


# -- the seeded grid -----------------------------------------------------------

def _pq_pairs(rng):
    pairs = []
    for _ in range(40):
        pairs.append((rng.uniform(-6, 6), rng.uniform(-6, 6)))           # generic
        m = rng.uniform(-4, 4)
        pairs.append((m, m))                                               # p_eq_q
        pairs.append((m + 1e-9, m - 1e-9))                                 # limit branch
        d = rng.choice((-1, 1)) * 10 ** rng.uniform(-5.5, -3)
        pairs.append((m + d / 2, m - d / 2))                               # midpoint band
        v = rng.uniform(-4, 4)
        pairs.append((v, 0.0))                                             # q_zero
        pairs.append((0.0, v))                                             # p_zero
        pairs.append((v, 1e-15))                                           # q_zero, tagged
        pairs.append((rng.choice((-1, 1)) * rng.uniform(50, 400), v))      # saturating
    pairs += [(0.0, 0.0), (1e-15, -1e-15), (0.0, -0.0)]                    # both_zero
    return pairs


def _ab_points(rng):
    points = []
    for _ in range(12):
        points.append((10 ** rng.uniform(-4, 4), 10 ** rng.uniform(-4, 4)))
        a = 10 ** rng.uniform(-4, 4)
        points.append((a, a * (1 + 10 ** rng.uniform(-12, -3))))
        points.append((a, a))                                              # diagonal
        points.append((10 ** rng.uniform(250, 300), 10 ** -rng.uniform(250, 300)))
    return points


def _grid(seed):
    rng = random.Random(seed)
    pq, ab = _pq_pairs(rng), _ab_points(rng)
    return [(p, q, a, b) for p, q in pq for a, b in rng.sample(ab, 6)]


@pytest.mark.parametrize("family", sorted(PUBLIC))
def test_family_bit_identical_to_reference(family):
    branches = set()
    for p, q, a, b in _grid(11):
        got = _outcome(PUBLIC[family], ParamPair(p, q), MeanPoint(a, b))
        assert got == _outcome(REFERENCE[family], p, q, a, b), (family, p, q, a, b)
        branches.add(got[1] if got[0] != "saturated" else "saturated")
    assert branches >= {"generic", "p_eq_q", "both_zero", "p_zero", "q_zero",
                        "diagonal_ab", "saturated"}


def test_four_param_bit_identical_to_reference():
    rng = random.Random(12)
    rs_pairs = [(1.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.5, 0.5), (-2.5, 0.7),
                (0.8, 0.8 + 1e-9), (0.8, 0.8 + 3e-4)]
    for p, q, a, b in _grid(12)[::3]:
        r, s = rng.choice(rs_pairs)
        got = _outcome(four_param_F, ParamPair(p, q), GeneratorPair(r, s), MeanPoint(a, b))
        assert got == _outcome(_ref_four_param, p, q, r, s, a, b), (p, q, r, s, a, b)


def _saturation(check, *args):
    """The exponent a SaturationError reports, or None when the check passes."""
    try:
        check(*args)
    except SaturationError as exc:
        return float(exc.exponent).hex()
    return None


def test_check_saturation_matches_pairwise_loop():
    rng = random.Random(13)
    raised = 0
    for _ in range(4000):
        p, q = rng.uniform(-50, 50), rng.uniform(-50, 50)
        r, s = rng.uniform(-5, 5), rng.uniform(-5, 5)
        if rng.random() < 0.3:
            w = rng.uniform(-40, 40)
        else:  # within a few ulps of the 700 limit, from either side
            worst = max(abs(p), abs(q)) * max(abs(r), abs(s))
            w = rng.choice((-1, 1)) * 700.0 / worst * (1 + rng.randint(-4, 4) * _EPS)
        got = _saturation(_check_saturation, p, q, max(abs(r), abs(s)), w)
        assert got == _saturation(_ref_check_saturation, (p, q), (r, s), w), (p, q, r, s, w)
        raised += got is not None
    assert 0 < raised < 4000


# -- check_case against a slow path through the public evaluators --------------

def _slow(evaluator):
    def ln(r, s_, sample):
        return math.log(evaluator(ParamPair(r, s_), MeanPoint(sample["a"], sample["b"])).value)
    return ln


@pytest.mark.parametrize("plan", [
    SamplingPlan(grid_b_count=6, random_count=150, seed=5),
    SamplingPlan(grid_b_count=6, random_count=150, seed=6, b_high=1e300),  # saturates
])
def test_check_case_matches_public_evaluator_path(plan, monkeypatch):
    fast = {case.case_id: check_case(case, plan) for case in catalog()}
    monkeypatch.setattr(inequalities, "_ln_S", _slow(stolarsky))
    monkeypatch.setattr(inequalities, "_ln_G", _slow(gini))
    monkeypatch.setattr(inequalities, "_ln_I2", _slow(two_param_identric))
    monkeypatch.setattr(inequalities, "_ln_He2", _slow(two_param_heronian))
    monkeypatch.setattr(inequalities, "_ln_A",
                        lambda t, s: math.log(power_mean(t, MeanPoint(s["a"], s["b"]))))
    inconclusive = 0
    for case in catalog():
        (rep, rec), (slow_rep, slow_rec) = fast[case.case_id], check_case(case, plan)
        assert (rep.total, rep.passed, rep.failed, rep.inconclusive, rep.notes) == \
            (slow_rep.total, slow_rep.passed, slow_rep.failed, slow_rep.inconclusive,
             slow_rep.notes), case.case_id
        assert rep.worst_margin == pytest.approx(slow_rep.worst_margin, rel=0, abs=1e-14)
        assert rec.samples == slow_rec.samples
        inconclusive += rep.inconclusive
    if plan.b_high > 1e6:
        assert inconclusive > 0


# -- convexity scans and T''' probes against the public-evaluator path ----------

@pytest.mark.parametrize("family", sorted(PUBLIC))
def test_scan_convexity_matches_public_evaluator_path(family, monkeypatch):
    grid = (0.2, 0.5, 1.0, 2.0, 3.5)
    points = (MeanPoint(1.0, 4.0), MeanPoint(2.5, 0.01),
              MeanPoint(1e-150, 1e150))  # the last one saturates at |p| > 1
    specs = [ScanSpec(family=family, region=region, p_grid=tuple(sign * v for v in grid),
                      q_grid=tuple(sign * v for v in grid), mean_points=(pt,))
             for region, sign in (("positive_quadrant", 1.0), ("negative_quadrant", -1.0))
             for pt in points]
    fast = [scan_convexity(spec) for spec in specs]
    # with no kernel pair every stencil value comes from hessian_logF and
    # the public evaluator, as for hd and four_param
    monkeypatch.setattr(convexity, "_FAMILY_KERNELS", {})
    errors = 0
    for spec, rep in zip(specs, fast):
        slow = scan_convexity(spec)
        assert (rep.total, rep.passed, rep.failed, rep.inconclusive, rep.notes) == \
            (slow.total, slow.passed, slow.failed, slow.inconclusive, slow.notes), spec
        witness = {k: v for k, v in rep.worst_witness.items() if k in "abpq"}
        assert witness == {k: v for k, v in slow.worst_witness.items() if k in "abpq"}
        assert rep.worst_witness.get("verdict") == slow.worst_witness.get("verdict")
        assert rep.worst_witness.get("error") == slow.worst_witness.get("error")
        assert rep.worst_margin == pytest.approx(slow.worst_margin, rel=1e-2)
        errors += "error" in rep.worst_witness
    assert errors > 0


def _probe_generators():
    return builtin_generators() + [stolarsky_generator(2.0, 1.0),
                                   stolarsky_generator(-2.5, -2.0),
                                   stolarsky_generator(0.5, 0.5)]


def _ref_t_derivatives_T(f, t, pt, cfg=FDConfig()):
    """T', T'' and T''' as t_derivatives computed them with T'(t) per stencil."""
    T1 = lambda u: t_prime(f, u, pt)
    h1 = cfg.first_step_scale * (1.0 + abs(t))
    h2 = cfg.second_step_scale * (1.0 + abs(t))

    def central(h):
        return (T1(t + h) - T1(t - h)) / (2.0 * h)

    def second(h):
        return (T1(t + h) - 2.0 * T1(t) + T1(t - h)) / (h * h)

    if cfg.richardson:
        return (T1(t), (4.0 * central(0.5 * h1) - central(h1)) / 3.0,
                (4.0 * second(0.5 * h2) - second(h2)) / 3.0)
    return T1(t), central(h1), second(h2)


@pytest.mark.parametrize("richardson", [True, False])
def test_t_derivatives_bit_identical_to_reference(richardson):
    rng = random.Random(14)
    cfg = FDConfig(richardson=richardson)
    for f in _probe_generators():
        for _ in range(12):
            t = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 5.0)
            pt = MeanPoint(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-2, 2.5))
            der = t_derivatives(f, t, pt, cfg)
            assert (der.T1, der.T2, der.T3) == _ref_t_derivatives_T(f, t, pt, cfg), \
                (f.label, t, pt)


def _ref_integral_hessian(f, pp, pt, panels=4):
    p, q = pp.p, pp.q

    def seg(weight):
        return integrate_fixed(
            lambda t: weight(t) * t_derivatives(f, t * p + (1.0 - t) * q, pt).T3,
            0.0, 1.0, panels).value

    d2_pp = seg(lambda t: t * t)
    d2_qq = seg(lambda t: (1.0 - t) * (1.0 - t))
    d2_pq = seg(lambda t: t * (1.0 - t))
    return d2_pp, d2_qq, d2_pq, d2_pp * d2_qq - d2_pq * d2_pq


def test_integral_hessian_bit_identical_to_reference():
    rng = random.Random(15)
    for f in _probe_generators():
        for _ in range(2):
            sign = rng.choice((-1.0, 1.0))
            pp = ParamPair(sign * rng.uniform(0.1, 4.0), sign * rng.uniform(0.1, 4.0))
            pt = MeanPoint(1.0, 10 ** rng.uniform(0.05, 2.0))
            assert integral_hessian(f, pp, pt) == _ref_integral_hessian(f, pp, pt), \
                (f.label, pp, pt)
