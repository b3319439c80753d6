"""The float-only log path against a copy of the closure-based formulas it replaced.

The reference engine below is the branch rule with per-call closures
E(t) and a pairwise saturation loop, as it stood before the family
kernels became module-level (e, e1) pairs, with the band rule written
out: the 3-point Gauss-Legendre mean of E' over [q, p] for
|p - q| <= 1e-3, and the inner (r, s) rounding in four_param_F's error
estimate, with the rounding of ln b and the kernels' absolute rounding
floor in every estimate.  F(p,q;r,s) is written out as the divided
difference in (p, q) of its (r, s) divided difference, with no exchange
of the two pairs.  The public
evaluators must reproduce it bit for bit, the column engine must equal
the engine bit for bit (NaN where it raises), and the
inequality checker, which reads ln M from the column engine, must reach the
same verdicts as a slow path through the public evaluators, one case at
a time and with the catalog on its shared sample streams.  The
convexity scans' closed-form Hessian must reach the verdict of the
finite-difference Hessian over the public evaluators wherever that one
decides, and fail the same samples.  t_derivatives must reproduce a
copy of its formulas bit for bit: T'' and T''' are read from the row's
e2 and e3.
"""

import math
import random

import pytest

from parmeans import (
    DomainError,
    GeneratorPair,
    MeanPoint,
    ParamPair,
    ParMeansError,
    SamplingPlan,
    SaturationError,
    ScanSpec,
    builtin_generators,
    catalog,
    check_case,
    check_cases,
    family_evaluator,
    four_param_F,
    gini,
    hessian_logF,
    power_mean,
    scan_convexity,
    stolarsky,
    stolarsky_generator,
    t_derivatives,
    two_param_heronian,
    two_param_identric,
)
from parmeans import convexity, core, hgf, inequalities
from parmeans.core import (
    _GINI,
    _HERONIAN2,
    _IDENTRIC2,
    _STOLARSKY,
    _band_mean,
    _family_ln,
    _family_ln_column,
    _rs_kernels,
)
from parmeans.hgf import t_prime
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
from test_convexity import closed_form_hessian

_EPS = 2.0 ** -52


# -- reference copy of the closure-based evaluators ---------------------------

def _ref_check_saturation(params, gens, w):
    worst = 0.0
    for t in params:
        for u in gens:
            worst = max(worst, abs(t * u * w))
    if worst > 700.0:
        raise SaturationError("exponent product a^(p*r) not representable", worst, 700.0)


def _ref_in_band(x, y):
    return abs(x - y) <= 1e-3 or abs(x - y) <= 1e-6 * (1.0 + abs(x) + abs(y))


def _ref_quotient_eval(E, e1, w, p, q, lnb):
    """The branch rule for E(t) and E'(t) = w e1(t w); the band takes the
    3-point Gauss-Legendre mean of e1 over [q w, p w]."""
    scale = 1.0 + abs(p) + abs(q)
    d = p - q
    if _ref_in_band(p, q):
        x, y = p * w, q * w
        m = 0.5 * (x + y)
        h = 0.5 * (x - y) * math.sqrt(0.6)
        c = e1(m)
        corr = 5.0 / 18.0 * ((e1(m + h) - c) + (e1(m - h) - c))
        ln = lnb + w * (c + corr)
        if abs(d) > 1e-6 * scale:
            branch = "generic"
        elif max(abs(p), abs(q)) <= 1e-13 * scale:
            branch = "both_zero"
        else:
            branch = "p_eq_q"
        # the band estimate: the correction, e1's absolute rounding floor of 8 eps,
        # and the rounding of ln b and of the sum
        est = abs(w) * (abs(corr) + 8.0 * _EPS) + 4.0 * _EPS * (1.0 + abs(ln) + abs(lnb))
        return ln, branch, est
    ep, eq = E(p), E(q)
    ln = lnb + (ep - eq) / d
    if abs(q) <= 1e-13 * scale:
        branch = "q_zero"
    elif abs(p) <= 1e-13 * scale:
        branch = "p_zero"
    else:
        branch = "generic"
    est = 2.0 * _EPS * (1.0 + abs(ep) + abs(eq)) / abs(d) + 4.0 * _EPS * (1.0 + abs(ln) + abs(lnb))
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
        E, e1 = make_E(w)
        return _ref_finish(*_ref_quotient_eval(E, e1, w, p, q, math.log(b)))
    return evaluate


REFERENCE = {
    "stolarsky": _ref_family((1.0,), lambda w: (
        lambda t: log_exprel(t * w), exprel_logd)),
    "gini": _ref_family((2.0, 1.0), lambda w: (
        lambda t: softplus(t * w), sigmoid)),
    "identric2": _ref_family((1.0,), lambda w: (
        lambda t: t * w * exprel_logd(t * w),
        lambda z: exprel_logd(z) + z * exprel_logd2(z))),
    "heronian2": _ref_family((1.0,), lambda w: (
        lambda t: log_heronian_sum(t * w), heronian_weight)),
}

PUBLIC = {"stolarsky": stolarsky, "gini": gini,
          "identric2": two_param_identric, "heronian2": two_param_heronian}


def _ref_gl_mean(f, r, s, z):
    """3-point Gauss-Legendre mean of f over [s z, r z]."""
    x, y = r * z, s * z
    m = 0.5 * (x + y)
    h = 0.5 * (x - y) * math.sqrt(0.6)
    c = f(m)
    return c + 5.0 / 18.0 * ((f(m + h) - c) + (f(m - h) - c))


def _ref_four_param(p, q, r, s, a, b):
    """F(p, q; r, s) as the divided difference in (p, q) of the divided
    difference in (r, s) of log_exprel(t u w), each by the band rule."""
    if a == b:
        return a, "diagonal_ab", 0.0
    w = log_ratio(a, b)
    _ref_check_saturation((p, q), (r, s), w)
    if _ref_in_band(r, s):
        def e(z):
            return z * _ref_gl_mean(exprel_logd, r, s, z)

        def e1(z):
            return _ref_gl_mean(lambda u: exprel_logd(u) + u * exprel_logd2(u), r, s, z)

        g, c = 1.0, 0.0
    else:
        def e(z):
            return (log_exprel(r * z) - log_exprel(s * z)) / (r - s)

        def e1(z):
            return (r * exprel_logd(r * z) - s * exprel_logd(s * z)) / (r - s)

        g, c = (abs(r) + abs(s)) / abs(r - s), 4.0 / abs(r - s)
    ln, branch, est = _ref_quotient_eval(lambda t: e(t * w), e1, w, p, q, math.log(b))
    # rounding of the inner (r, s) rule
    gw = g * abs(w)
    est += 2.0 * _EPS * (gw if _ref_in_band(p, q) else (c + gw * (abs(p) + abs(q))) / abs(p - q))
    return _ref_finish(ln, branch, est)


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
        pairs.append((m + 1e-9, m - 1e-9))                                 # p_eq_q tag
        d = rng.choice((-1, 1)) * 10 ** rng.uniform(-5.5, -3)
        pairs.append((m + d / 2, m - d / 2))                               # band, generic
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


def _engine_outcome(engine, *args):
    """(message, exponent, limit) of the SaturationError engine raises, or its (ln, est) bits."""
    try:
        ln, est = engine(*args)
    except SaturationError as exc:
        return str(exc), float(exc.exponent).hex(), exc.limit
    return float(ln).hex(), float(est).hex()


# stub kernels E(t) = t w/2 and E'(t) = w/2: a quotient of about w/2, read off the band
# and on it, without the range of a real kernel
def _stub_e(z):
    return 0.5 * z


def _stub_e1(z):
    return 0.5


def _ref_stub_ln(p, q, gens, w, lnb):
    _ref_check_saturation((p, q), gens, w)
    ln, _, est = _ref_quotient_eval(lambda t: _stub_e(t * w), _stub_e1, w, p, q, lnb)
    if abs(ln) > 709.0:
        raise SaturationError("result magnitude outside floating range", ln, 709.0, "ln M")
    return ln, est


def _column_outcomes(row, inputs):
    """_family_ln_column over the (p, q, w, ln b) inputs as one column, each entry
    checked against _family_ln: its ln M bit for bit, or NaN exactly where it raises
    SaturationError.  Returns the number of entries that raised."""
    ps, qs, ws, lnbs = zip(*inputs)
    column = _family_ln_column(row, ps, qs, ws, lnbs)
    assert len(column) == len(inputs)
    raised = 0
    for got, args in zip(column, inputs):
        try:
            ln = _family_ln(row, *args)[0]
        except SaturationError:
            assert math.isnan(got), args
            raised += 1
            continue
        assert got.hex() == ln.hex(), args
    return raised


def test_check_saturation_matches_pairwise_loop():
    # the engine's two refusals, the exponent product beyond 700 and |ln M| beyond
    # 709, each sampled within a few ulps of its limit from either side; the column
    # engine agrees with it on every draw (each draw has its own stub row, so a
    # one-element column)
    rng = random.Random(13)
    outcomes = {"saturated": 0, "out_of_range": 0, "evaluated": 0}
    for i in range(6000):
        p, q = rng.uniform(-50, 50), rng.uniform(-50, 50)
        r, s = rng.uniform(-5, 5), rng.uniform(-5, 5)
        if rng.random() < 0.3:
            q = p + rng.uniform(-2e-3, 2e-3)  # on the band and just off it
        lnb = rng.uniform(-5, 5)
        if i % 3 == 0:
            w = rng.uniform(-40, 40)
        elif i % 3 == 1:  # within a few ulps of the 700 limit, from either side
            worst = max(abs(p), abs(q)) * max(abs(r), abs(s))
            w = rng.choice((-1, 1)) * 700.0 / worst * (1 + rng.randint(-4, 4) * _EPS)
        else:  # ln M = lnb + w/2 within a few ulps of +-709, from either side
            w = rng.uniform(-1, 1)
            lnb = rng.choice((-1, 1)) * 709.0 * (1 + rng.randint(-4, 4) * _EPS) - 0.5 * w
        row = (_stub_e, _stub_e1, None, None, max(abs(r), abs(s)), 0.0, 0.0)
        got = _engine_outcome(_family_ln, row, p, q, w, lnb)
        assert got == _engine_outcome(_ref_stub_ln, p, q, (r, s), w, lnb), (p, q, r, s, w, lnb)
        assert _column_outcomes(row, [(p, q, w, lnb)]) == (len(got) == 3)
        if len(got) == 2:
            outcomes["evaluated"] += 1
        else:
            outcomes["saturated" if got[2] == 700.0 else "out_of_range"] += 1
    assert all(n > 100 for n in outcomes.values()), outcomes


ENGINE_ROWS = {
    "stolarsky": _STOLARSKY,
    "gini": _GINI,
    "identric2": _IDENTRIC2,
    "heronian2": _HERONIAN2,
    "rs_off_band": _rs_kernels(2.5, -1.0),
    "rs_on_band": _rs_kernels(0.7, 0.7 + 1e-9),
}


@pytest.mark.parametrize("name", sorted(ENGINE_ROWS))
def test_column_engine_matches_the_engine_on_each_named_row(name):
    # one column per kind of input, on a real kernel row: p == q, signed zeros
    # p == q == +-0 at w of both signs, the absolute 1e-3 band edge, the relative
    # 1e-6 (1 + |p| + |q|) edge, and the 700 and 709 limits, each within a few
    # ulps of the edge from either side
    row = ENGINE_ROWS[name]
    gen_max = row[4]
    rng = random.Random(21)

    def ulps():
        return 1 + rng.randint(-4, 4) * _EPS

    kinds = {kind: [] for kind in ("p_eq_q", "signed_zero", "band_edge", "relative_edge",
                                   "limit_700", "limit_709")}
    for _ in range(300):
        p, w, lnb = rng.uniform(-20, 20), rng.uniform(-3, 3), rng.uniform(-5, 5)
        sign = rng.choice((-1, 1))
        kinds["p_eq_q"].append((p, p, w, lnb))
        kinds["signed_zero"].append((rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)),
                                     rng.choice((w, -w, 0.0, -0.0)), lnb))
        kinds["band_edge"].append((p, p + sign * 1e-3 * ulps(), w, lnb))
        big = rng.choice((-1, 1)) * rng.uniform(600, 5000)  # 1e-6 (1 + 2|p|) > 1e-3
        kinds["relative_edge"].append((big, big + sign * 1e-6 * (1.0 + 2.0 * abs(big)) * ulps(),
                                       rng.uniform(-0.1, 0.1) / gen_max, lnb))
        q = rng.choice((p, p + rng.uniform(-2e-3, 2e-3), rng.uniform(-20, 20)))
        kinds["limit_700"].append((p, q, sign * 700.0 / (max(abs(p), abs(q)) * gen_max) * ulps(),
                                   lnb))
        quotient = _family_ln(row, p, q, w, 0.0)[0]
        kinds["limit_709"].append((p, q, w, sign * 709.0 * ulps() - quotient))
    raised = {kind: _column_outcomes(row, inputs) for kind, inputs in kinds.items()}
    assert raised["p_eq_q"] == raised["signed_zero"] == raised["band_edge"] == \
        raised["relative_edge"] == 0
    for p, q, w, lnb in kinds["p_eq_q"] + kinds["signed_zero"]:
        # p == q reads e1 at the midpoint, the band mean of a zero-width interval
        mean, corr = _band_mean(row[1], p, q, w)
        assert corr == 0.0
        assert _family_ln(row, p, q, w, lnb)[0].hex() == (lnb + w * mean).hex(), (p, q, w)
    for kind in ("limit_700", "limit_709"):
        assert 0 < raised[kind] < len(kinds[kind]), (kind, raised)


# -- check_case against a slow path through the public evaluators --------------

@pytest.mark.parametrize("plan", [
    SamplingPlan(grid_b_count=6, random_count=150, seed=5),
    SamplingPlan(grid_b_count=6, random_count=150, seed=6, b_high=1e300),  # saturates
])
def test_check_case_matches_public_evaluator_path(plan, monkeypatch):
    fast = {case.case_id: check_case(case, plan) for case in catalog()}
    # the helpers get the samples' logs, not the samples: the stand-ins
    # evaluate at the (a, b) whose logs they were given
    current = {}
    points = {}
    take_logs = inequalities._logs

    def recording_logs(s):
        logs = take_logs(s)
        assert points.setdefault(logs, (s["a"], s["b"])) == (s["a"], s["b"])
        return logs

    def point(w, lnb):
        current["reads"] += 1
        return MeanPoint(*points[w, lnb])

    monkeypatch.setattr(inequalities, "_logs", recording_logs)
    # the family columns through the public evaluator of their kernel tuple,
    # one term at a time, NaN where it refuses, as the column engine
    evaluators = {_STOLARSKY: stolarsky, _GINI: gini,
                  _IDENTRIC2: two_param_identric, _HERONIAN2: two_param_heronian}
    families_read = set()

    def slow_column(kernels, ps, qs, ws, lnbs):
        evaluator = evaluators[kernels]
        families_read.add(evaluator.__name__)
        out = []
        for p, q, w, lnb in zip(ps, qs, ws, lnbs):
            try:
                out.append(math.log(evaluator(ParamPair(p, q), point(w, lnb)).value))
            except ParMeansError:
                out.append(math.nan)
        return out

    monkeypatch.setattr(inequalities, "_family_ln_column", slow_column)
    monkeypatch.setattr(inequalities, "_ln_A",
                        lambda t, w, lnb: math.log(power_mean(t, point(w, lnb))))
    # one case at a time, and all cases on their shared sample streams,
    # each through the stand-ins
    current["reads"] = 0
    slow = {case.case_id: check_case(case, plan) for case in catalog()}
    slow_reads, current["reads"] = current["reads"], 0
    grouped = dict(zip(slow, check_cases(catalog(), plan)))
    assert 0 < current["reads"] < slow_reads
    assert families_read == {"stolarsky", "gini", "two_param_identric", "two_param_heronian"}
    inconclusive = 0
    for slow_path in (slow, grouped):
        for case_id, (rep, rec) in fast.items():
            slow_rep, slow_rec = slow_path[case_id]
            assert (rep.total, rep.passed, rep.failed, rep.inconclusive, rep.notes) == \
                (slow_rep.total, slow_rep.passed, slow_rep.failed, slow_rep.inconclusive,
                 slow_rep.notes), case_id
            assert rep.worst_margin == pytest.approx(slow_rep.worst_margin, rel=0, abs=1e-14)
            assert rec.samples == slow_rec.samples
            inconclusive += rep.inconclusive
    if plan.b_high > 1e6:
        assert inconclusive > 0


# -- convexity scans against the finite-difference scan, and T''' probes --------

def _samples(spec):
    sign = 1.0 if spec.region == "positive_quadrant" else -1.0
    for pt in spec.mean_points:
        for p in spec.p_grid:
            for q in spec.q_grid:
                if abs(p - q) > convexity.EXCLUSION_BAND:
                    yield pt, ParamPair(sign * abs(p), sign * abs(q))


def _fd_outcomes(spec):
    """Per-sample verdict, or error text, of the finite-difference scan the closed
    form replaced: hessian_logF over the public evaluator."""
    ev = family_evaluator(spec.family, spec.gen)
    out = []
    for pt, pq in _samples(spec):
        try:
            out.append(hessian_logF(ev, pq, pt).verdict)
        except ParMeansError as exc:
            out.append(("error", str(exc)))
    return out


def _closed_outcomes(spec):
    """Per-sample verdict, or error text, of the closed form: the public evaluator,
    then the family's closed-form Hessian, its nodes read afresh, classified against
    its estimates."""
    ev = family_evaluator(spec.family, spec.gen)
    out = []
    for pt, pq in _samples(spec):
        try:
            ev(pq, pt)
            d2_pp, _, _, delta, est_pp, _, _, est_delta = closed_form_hessian(
                spec.family, spec.gen, pq.p, pq.q, log_ratio(pt.a, pt.b))
        except ParMeansError as exc:
            out.append(("error", str(exc)))
            continue
        out.append(convexity.HessianReport.classify(d2_pp, delta, est_pp, est_delta))
    return out


SCAN_FAMILIES = {
    **{name: (name, None) for name in PUBLIC},
    "hd": ("hd", None),
    "four_param_rs_pos": ("four_param", GeneratorPair(2.5, -1.0)),
    "four_param_rs_neg": ("four_param", GeneratorPair(-2.0, 0.5)),
    "four_param_r_eq_s": ("four_param", GeneratorPair(0.7, 0.7)),
}


@pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
def test_scan_convexity_matches_public_evaluator_path(family):
    # the closed form reaches the finite-difference verdict wherever that one
    # decided, errs at the same samples with the same message, and the report
    # tallies its per-sample verdicts
    name, gen = SCAN_FAMILIES[family]
    grid = (0.2, 0.5, 1.0, 2.0, 3.5)
    points = (MeanPoint(1.0, 4.0), MeanPoint(2.5, 0.01), MeanPoint(3.0, 3.0),
              MeanPoint(1e-150, 1e150))  # the last one saturates at |p| > 1
    errors = fd_decided = 0
    for region, sign in (("positive_quadrant", 1.0), ("negative_quadrant", -1.0)):
        for pt in points:
            spec = ScanSpec(family=name, region=region, p_grid=tuple(sign * v for v in grid),
                            q_grid=tuple(sign * v for v in grid), mean_points=(pt,), gen=gen)
            fd, closed = _fd_outcomes(spec), _closed_outcomes(spec)
            for fd_out, closed_out in zip(fd, closed):
                if isinstance(fd_out, tuple) or isinstance(closed_out, tuple):
                    assert fd_out == closed_out, spec
                elif fd_out != convexity.VERDICT_INCONCLUSIVE:
                    assert closed_out == fd_out, spec
                    fd_decided += 1
            rep = scan_convexity(spec)
            expect = convexity.expected_verdict(spec)
            verdicts = [v for v in closed if not isinstance(v, tuple)]
            failed = len(closed) - len(verdicts)
            if expect is not None:
                failed += sum(v not in (expect, convexity.VERDICT_INCONCLUSIVE) for v in verdicts)
            inconclusive = 0 if expect is None else verdicts.count(convexity.VERDICT_INCONCLUSIVE)
            assert (rep.total, rep.failed, rep.inconclusive) == (len(closed), failed, inconclusive)
            observed = {v: verdicts.count(v) for v in dict.fromkeys(verdicts)}
            assert rep.notes.startswith(f"observed={observed};"), spec
            if len(verdicts) < len(closed):
                last_error = [v for v in closed if isinstance(v, tuple)][-1][1]
                assert rep.worst_witness["error"] == last_error
                errors += 1
    assert errors > 0 and fd_decided > 0



SCAN_POINTS = (MeanPoint(1.0, 4.0), MeanPoint(2.5, 0.01), MeanPoint(3.0, 3.0),
               MeanPoint(1e-150, 1e150))


def _scan_spec(family, region):
    name, gen = SCAN_FAMILIES[family]
    sign = 1.0 if region == "positive_quadrant" else -1.0
    grid = tuple(sign * v for v in (0.2, 0.5, 1.0, 2.0, 3.5))
    return ScanSpec(family=name, region=region, p_grid=grid, q_grid=grid,
                    mean_points=SCAN_POINTS, gen=gen)


@pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
def test_scan_calls_each_evaluator_once_per_pair_in_grid_order(monkeypatch, family):
    # the benchmark's error recorder and the cross-check see the scan only through
    # its public evaluator calls: one per pair, with these values, in mean point
    # -> p -> q order, the saturating point included
    calls = []

    def recording(ev):
        def call(pp, *rest):  # (pp, pt), or four_param_F's (pp, gp, pt)
            calls.append((pp.p, pp.q, rest[-1].a, rest[-1].b))
            return ev(pp, *rest)
        return call

    for key, ev in list(core._DIRECT_FAMILIES.items()):
        monkeypatch.setitem(core._DIRECT_FAMILIES, key, recording(ev))
    monkeypatch.setattr(core, "four_param_F", recording(core.four_param_F))
    monkeypatch.setattr(hgf, "hd_eval", recording(hgf.hd_eval))
    for region in ("positive_quadrant", "negative_quadrant"):
        spec = _scan_spec(family, region)
        calls.clear()
        rep = scan_convexity(spec)
        assert calls == [(p, q, pt.a, pt.b) for pt in SCAN_POINTS for p in spec.p_grid
                         for q in spec.q_grid if abs(p - q) > convexity.EXCLUSION_BAND]
        assert len(calls) == rep.total == len(SCAN_POINTS) * 20
        assert rep.failed > 0  # the saturating point


@pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
def test_family_hessian_reused_closure_bit_identical_to_fresh(family):
    # the reader keeps each node in its frame for later pairs (one dict per mean
    # point, and H_D's pole nodes for all of them): every pair of the scan grid gets
    # the 8-tuple of its nodes read afresh, plus delta, bit for bit, or the error
    # of the evaluator's call or of the fresh read
    name, gen = SCAN_FAMILIES[family]
    ev = family_evaluator(name, gen)
    errors = 0
    for region in ("positive_quadrant", "negative_quadrant"):
        spec = _scan_spec(family, region)
        pairs = [(p, q) for p in spec.p_grid for q in spec.q_grid
                 if abs(p - q) > convexity.EXCLUSION_BAND]
        read = list(convexity._family_hessian(name, gen, SCAN_POINTS, pairs))
        assert [(pt, pq.p, pq.q) for pt, pq, _ in read] == \
            [(pt, p, q) for pt in SCAN_POINTS for p, q in pairs]
        for pt, pq, h in read:
            try:
                ev(pq, pt)
                fresh = [x.hex() for x in closed_form_hessian(name, gen, pq.p, pq.q,
                                                              log_ratio(pt.a, pt.b))]
            except ParMeansError as exc:
                fresh = (type(exc).__name__, str(exc))
            if isinstance(h, Exception):
                errors += 1
                assert (type(h).__name__, str(h)) == fresh, (pq, pt)
            else:
                assert [x.hex() for x in h] == fresh, (pq, pt)
    assert errors > 0  # the saturating point


def test_scan_fails_only_the_samples_that_read_a_raising_node(monkeypatch):
    # gini's e2 raises at one grid node: each pair that reads the node fails with
    # its message, as the node is never stored, and the rest of the scan decides
    bad, pt = 1.0, MeanPoint(1.0, 10.0)
    w = log_ratio(pt.a, pt.b)
    e, e1, e2, *rest = convexity._KERNELS["gini"]
    raised = []

    def e2_refusing(v):
        if v == bad * w:
            raised.append(v)
            raise DomainError(f"e2 refused at node {bad}")
        return e2(v)

    grid = (0.2, 0.5, 1.0, 2.0, 3.5)
    spec = ScanSpec(family="gini", region="positive_quadrant", p_grid=grid, q_grid=grid,
                    mean_points=(pt,))
    clean = scan_convexity(spec)
    assert clean.failed == 0
    monkeypatch.setitem(convexity._KERNELS, "gini", (e, e1, e2_refusing, *rest))
    rep = scan_convexity(spec)
    reading = 2 * (len(grid) - 1)  # the pairs (bad, q) and (p, bad)
    assert len(raised) == reading
    assert (rep.total, rep.failed, rep.passed + rep.inconclusive) == \
        (clean.total, reading, clean.total - reading)
    assert rep.worst_witness["error"] == f"e2 refused at node {bad}"
    assert bad in (rep.worst_witness["p"], rep.worst_witness["q"])

def _probe_generators():
    return builtin_generators() + [stolarsky_generator(2.0, 1.0),
                                   stolarsky_generator(-2.5, -2.0),
                                   stolarsky_generator(0.5, 0.5)]


def _ref_t_derivatives_T(f, t, pt):
    """T', T'' and T''' as t_derivatives computes them.

    With w = log_ratio(a, b), T' = k ln b + w g(t) by Euler's relation,
    g = x f_x/f = e1(u w), the generator's log-partial; the row gives
    T'' = w^2 e2(t w) and T''' = w^3 e3(t w).
    """
    w = log_ratio(pt.a, pt.b)
    _, e1, e2, e3 = f.kernel[:4]
    v = t * w
    return f.order * math.log(pt.b) + w * e1(v), w * w * e2(v), w * w * w * e3(v)


def test_t_derivatives_bit_identical_to_reference():
    rng = random.Random(14)
    for f in _probe_generators():
        for _ in range(12):
            t = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 5.0)
            pt = MeanPoint(10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-2, 2.5))
            der = t_derivatives(f, t, pt)
            assert (der.T1, der.T2, der.T3) == _ref_t_derivatives_T(f, t, pt), \
                (f.label, t, pt)
            assert t_prime(f, t, pt) == der.T1

