"""Numerical certification of bivariate log-convexity in the parameter pair.

  * _quotient_hessian: the one Hessian that every command, probe and
    suite reads, in closed form for ln M = ln b + (E(p) - E(q))/(p - q).
    With d = p - q and D = E(p) - E(q):

        d2_pp = E''(p)/d - 2 E'(p)/d^2 + 2 D/d^3
        d2_qq = -E''(q)/d - 2 E'(q)/d^2 + 2 D/d^3
        d2_pq = (E'(p) + E'(q))/d^2 - 2 D/d^3

    E = e(t w), E' = w e1(t w) and E'' = w^2 e2(t w) come from one kernel
    row (e, e1, e2, e3, gen_max, g, c) of core's shape, with e2

        stolarsky   exprel_logd2
        gini        sigmoid_d = sigma (1 - sigma)
        identric2   identric_weight_d = 2 L'' + z L''', L = log_exprel
        heronian2   heronian_weight_d, the derivative of heronian_weight
        F(.,.;r,s)  e2 of _rs_kernels(r, s), band rule inside _in_band(r, s)
        H_D         the Stolarsky row plus the pole row
                    (ln|t|, 1/t, -1/t^2, 2/t^3) read at w = 1
        H_f         the generator's row (_generator_hessian); the linear
                    k t ln b of its T has no Hessian

    A scan reads the row's three kernels once per distinct grid value and
    mean point (a node: E, E', E'' and their error terms, in the mean point's
    dict of _family_hessian), H_D's pole row once per grid value, and none
    per pair.  Entries and delta carry error estimates; a point is
    inconclusive where |d2_pp| or |delta| is within its estimate.  There is
    no p = q form.  The expected verdict comes from the r + s sign rule; H_D
    is log-convex on the positive quadrant and log-concave on the negative one;
  * hessian_logF: central second differences of (p, q) -> ln M with one
    Richardson halving, classified against SIGN_TOL: the Hessian of an
    arbitrary evaluator and the tests' finite-difference reference;
  * midpoint_test: the defining Jensen inequality, reported as the
    defect margin alpha ln M1 + beta ln M2 - ln M(blend), so margins
    <= 0 are consistent with log-concavity and >= 0 with log-convexity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .core import (
    _FLOAT_MAX,
    _KERNELS,
    _STOLARSKY,
    EvalResult,
    GeneratorPair,
    MeanPoint,
    ParamPair,
    _rs_kernels,
    _shown,
    family_evaluator,
    family_generator_pair,
)
from .errors import DomainError, ParMeansError, SaturationError
from .generators import GeneratorFunction
from .hgf import _HD_POLE, _check_t_interval, _saturation_guard, t_derivatives
from .stable import E1_FLOOR, E2_FLOOR, log_ratio

_EPS = 2.0 ** -52
STEP_SCALE = _EPS ** 0.25  # hessian_logF's finite-difference step at x is STEP_SCALE (1 + |x|)

VERDICT_CONVEX = "convex"
VERDICT_CONCAVE = "concave"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_INDEFINITE = "indefinite"

SIGN_TOL = 1e-7  # hessian_logF: |d2_pp| or |delta| within SIGN_TOL (1 + |ln M|) is inconclusive
EXCLUSION_BAND = 0.05  # grid values and pairs |p - q| within it are left out
# j_criterion_probe: |J| <= J_DEAD_ZONE is undecided; the Hessian samples it checks
J_DEAD_ZONE = 1e-8
J_HESSIAN_GRID = (0.5, 1.0, 2.0)
J_MEAN_POINT = MeanPoint(1.0, 3.0)


class HessianReport(NamedTuple):
    d2_pp: float
    d2_qq: float
    d2_pq: float
    delta: float
    verdict: str

    @staticmethod
    def classify(d2_pp: float, delta: float, pp_tol: float, delta_tol: float) -> str:
        """Inconclusive when |d2_pp| or |delta| is within its tolerance, else the sign verdict."""
        if abs(d2_pp) <= pp_tol or abs(delta) <= delta_tol:
            return VERDICT_INCONCLUSIVE
        if delta > 0.0:
            return VERDICT_CONVEX if d2_pp > 0.0 else VERDICT_CONCAVE
        return VERDICT_INDEFINITE


@dataclass(frozen=True)
class ScanSpec:
    """Grid scan plan for one family and one open quadrant, grid values beyond EXCLUSION_BAND."""

    family: str  # stolarsky | gini | identric2 | heronian2 | four_param | hd
    region: str  # positive_quadrant | negative_quadrant
    p_grid: tuple[float, ...]
    q_grid: tuple[float, ...]
    mean_points: tuple[MeanPoint, ...]
    gen: Optional[GeneratorPair] = None

    def __post_init__(self):
        family_evaluator(self.family, self.gen)  # an unknown family, or four_param without gen
        if self.region not in ("positive_quadrant", "negative_quadrant"):
            raise DomainError(f"unknown region {self.region!r}")
        sign = 1.0 if self.region == "positive_quadrant" else -1.0
        for axis, grid in (("p", self.p_grid), ("q", self.q_grid)):
            for v in grid:
                # the range test comes first: sign * v of an int beyond it raises OverflowError
                if not (isinstance(v, (int, float)) and abs(v) <= _FLOAT_MAX
                        and EXCLUSION_BAND < sign * v):
                    raise DomainError(f"{axis}-grid value {_shown(v)} is not a finite real in the "
                                      f"open {self.region} beyond the exclusion band")
        if not all(isinstance(pt, MeanPoint) for pt in self.mean_points):
            raise DomainError("mean_points must all be MeanPoints")


def _strict_json(value):
    """value with every float finite, through dicts and lists: +-inf -> +-1e300, NaN -> None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else math.copysign(1e300, value)
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict_json(v) for v in value]
    return value


@dataclass(frozen=True)
class CheckReport:
    """Pass/fail tally for one case; the one reader, merger and writer of the report format.

    The counts must add up and the worst margin stays finite, so the JSON
    report is strict: +-inf becomes +-1e300 and NaN is refused.  Witness
    values follow the same rule, except that a NaN in them becomes None.
    """

    case_id: str
    total: int
    passed: int
    inconclusive: int
    failed: int
    worst_margin: float
    worst_witness: dict
    notes: str = ""

    def __post_init__(self):
        if self.total != self.passed + self.inconclusive + self.failed:
            raise ParMeansError("CheckReport counts do not add up")
        if math.isnan(self.worst_margin):
            raise ParMeansError("CheckReport worst margin is NaN")
        if math.isinf(self.worst_margin):
            object.__setattr__(self, "worst_margin", math.copysign(1e300, self.worst_margin))
        object.__setattr__(self, "worst_witness", _strict_json(self.worst_witness))

    @classmethod
    def from_dict(cls, case) -> "CheckReport":
        """The inverse of to_dict, with worst_witness {} and notes "" when missing;
        ParMeansError for anything else that is not a case of the format."""
        keys = ("id", "total", "passed", "inconclusive", "failed", "worst_margin")
        if not isinstance(case, dict) or not case.keys() >= set(keys):
            raise ParMeansError("a report case needs the fields " + ", ".join(keys))
        case_id, *counts, margin = (case[k] for k in keys)
        witness, notes = case.get("worst_witness", {}), case.get("notes", "")
        if not (isinstance(case_id, str) and isinstance(witness, dict) and isinstance(notes, str)
                and all(type(n) is int and n >= 0 for n in counts)
                and type(margin) in (int, float)):
            raise ParMeansError(f"report case {case_id!r} has a field of the wrong type")
        return cls(case_id, *counts, float(margin), witness, notes)

    def merge(self, other: "CheckReport") -> "CheckReport":
        """Associative, order-independent combination of two partial reports."""
        keep_self = self.worst_margin <= other.worst_margin
        return CheckReport(
            case_id=self.case_id,
            total=self.total + other.total,
            passed=self.passed + other.passed,
            inconclusive=self.inconclusive + other.inconclusive,
            failed=self.failed + other.failed,
            worst_margin=min(self.worst_margin, other.worst_margin),
            worst_witness=self.worst_witness if keep_self else other.worst_witness,
            notes=self.notes if self.notes else other.notes,
        )

    def to_dict(self) -> dict:
        return {
            "id": self.case_id,
            "total": self.total,
            "passed": self.passed,
            "failed": self.failed,
            "inconclusive": self.inconclusive,
            "worst_margin": self.worst_margin,
            "worst_witness": self.worst_witness,
            "notes": self.notes,
        }


class Tally:
    """Sample counts and the worst margin of one check; the builder of its CheckReport.

    A margin strictly below the worst so far becomes the worst, with a
    copy of its witness, so a tie keeps the first.  A sample that raised
    fails with margin -inf and the error text in its witness; the latest
    such error is kept.  The CheckReport turns a margin of +-inf (no
    finite margin seen, or an error) into +-1e300.
    """

    __slots__ = ("passed", "inconclusive", "failed", "worst_margin", "worst_witness")

    def __init__(self):
        self.passed = self.inconclusive = self.failed = 0
        self.worst_margin = math.inf
        self.worst_witness: dict = {}

    @property
    def total(self) -> int:
        return self.passed + self.inconclusive + self.failed

    def count(self, ok: bool) -> None:
        """Count one decided sample as passed or failed."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1

    def undecided(self) -> None:
        """Count one inconclusive sample."""
        self.inconclusive += 1

    def margin(self, margin: float, witness: dict) -> None:
        if margin < self.worst_margin:
            self.worst_margin = margin
            self.worst_witness = dict(witness)

    def error(self, exc: Exception, witness: dict) -> None:
        """Fail a sample that raised: a ParMeansError's message, else type and message."""
        text = str(exc) if isinstance(exc, ParMeansError) else f"{type(exc).__name__}: {exc}"
        self.failed += 1
        self.worst_margin = -math.inf
        self.worst_witness = {**witness, "error": text}

    def report(self, case_id: str, notes: str = "") -> CheckReport:
        return CheckReport(case_id, self.total, self.passed, self.inconclusive, self.failed,
                           self.worst_margin, self.worst_witness, notes)


def hessian_logF(
    evaluator: Callable[[ParamPair, MeanPoint], EvalResult],
    pp: ParamPair,
    pt: MeanPoint,
) -> HessianReport:
    """Finite-difference Hessian of (p, q) -> ln M(p, q; a, b).

    Steps STEP_SCALE (1 + |p|) and (1 + |q|), one Richardson halving.
    The caller keeps (p, q) away from the singular loci by more than the
    step so the differences never straddle a branch switch.
    """
    def phi(P: float, Q: float) -> float:
        return math.log(evaluator(ParamPair(P, Q), pt).value)

    p, q = pp.p, pp.q
    hp = STEP_SCALE * (1.0 + abs(p))
    hq = STEP_SCALE * (1.0 + abs(q))
    f0 = phi(p, q)

    def dpp(h: float) -> float:
        return (phi(p + h, q) - 2.0 * f0 + phi(p - h, q)) / (h * h)

    def dqq(h: float) -> float:
        return (phi(p, q + h) - 2.0 * f0 + phi(p, q - h)) / (h * h)

    def dpq(h1: float, h2: float) -> float:
        A = phi(p + h1, q + h2)
        B = phi(p + h1, q - h2)
        C = phi(p - h1, q + h2)
        D = phi(p - h1, q - h2)
        # the mean of the same stencil associated in the two mixed orders
        den = 4.0 * h1 * h2
        return 0.5 * (((A - B) - (C - D)) / den + ((A - C) - (B - D)) / den)

    d2_pp = (4.0 * dpp(0.5 * hp) - dpp(hp)) / 3.0
    d2_qq = (4.0 * dqq(0.5 * hq) - dqq(hq)) / 3.0
    d2_pq = (4.0 * dpq(0.5 * hp, 0.5 * hq) - dpq(hp, hq)) / 3.0

    delta = d2_pp * d2_qq - d2_pq * d2_pq
    tol = SIGN_TOL * (abs(f0) + 1.0)
    verdict = HessianReport.classify(d2_pp, delta, tol, tol)
    return HessianReport(d2_pp, d2_qq, d2_pq, delta, verdict)


def midpoint_test(
    evaluator: Callable[[ParamPair, MeanPoint], EvalResult],
    pair1: ParamPair,
    pair2: ParamPair,
    weights: tuple[float, float],
    pt: MeanPoint,
) -> float:
    """Jensen defect alpha ln M(pair1) + beta ln M(pair2) - ln M(blend).

    Margin <= 0 is consistent with log-concavity, >= 0 with log-convexity;
    a degenerate blend (alpha or beta zero) gives exactly 0.
    """
    alpha, beta = weights
    if alpha < 0.0 or beta < 0.0 or abs(alpha + beta - 1.0) > 1e-12:
        raise DomainError("weights must be nonnegative with alpha + beta = 1")
    blend = ParamPair(alpha * pair1.p + beta * pair2.p, alpha * pair1.q + beta * pair2.q)
    ln1 = math.log(evaluator(pair1, pt).value)
    ln2 = math.log(evaluator(pair2, pt).value)
    lnb = math.log(evaluator(blend, pt).value)
    return alpha * ln1 + beta * ln2 - lnb


# Expected-verdict table for the r + s sign rule, stored as data: maps
# (sign(r + s), region) to the verdict the scan must reproduce.
RS_SIGN_VERDICTS: dict[tuple[int, str], str] = {
    (+1, "positive_quadrant"): VERDICT_CONCAVE,
    (+1, "negative_quadrant"): VERDICT_CONVEX,
    (-1, "positive_quadrant"): VERDICT_CONVEX,
    (-1, "negative_quadrant"): VERDICT_CONCAVE,
}

# H_D: log-convex on the positive quadrant and log-concave on the negative
# one, as t^3 E'''(t) = 2 phi(t w/2) > 0 with phi(x) = x^3 cosh x / sinh^3 x.
HD_VERDICTS: dict[str, str] = {
    "positive_quadrant": VERDICT_CONVEX,
    "negative_quadrant": VERDICT_CONCAVE,
}


def expected_verdict(spec: ScanSpec) -> Optional[str]:
    if spec.family == "hd":
        return HD_VERDICTS[spec.region]
    gen = spec.gen if spec.family == "four_param" else family_generator_pair(spec.family)
    rs = gen.r + gen.s
    if rs == 0.0:
        return None
    return RS_SIGN_VERDICTS[(1 if rs > 0.0 else -1, spec.region)]


def _count_verdict(tally: Tally, verdict: str, expect: str) -> None:
    """A Hessian verdict passes when it is the expected one; inconclusive is undecided."""
    if verdict == VERDICT_INCONCLUSIVE:
        tally.undecided()
    else:
        tally.count(verdict == expect)


def _hessian_node(row: tuple, w: float, t: float) -> tuple:
    """(E, E', E'', |E|, err E', err E''), E = e(t w), E' = w e1(t w), E'' = w^2 e2(t w):
    the node stage of _quotient_hessian, with err E' = eps (E1_FLOOR + 2 g) |w| + 4 eps |E'|
    and err E'' = eps (E2_FLOOR + 16 g gen_max) w^2 + 4 eps |E''|, g and gen_max the row's."""
    v = t * w
    e, e1, e2 = row[0](v), w * row[1](v), w * w * row[2](v)
    g = row[5]
    floor1 = _EPS * E1_FLOOR * abs(w) + 2.0 * _EPS * (g * abs(w))
    floor2 = _EPS * E2_FLOOR * w * w + 16.0 * _EPS * g * row[4] * w * w
    return e, e1, e2, abs(e), floor1 + 4.0 * _EPS * abs(e1), floor2 + 4.0 * _EPS * abs(e2)


def _pair_hessian(row: tuple, w: float, p: float, q: float, node_p: tuple, node_q: tuple) -> tuple:
    """Hessian in (p, q) of (E(p) - E(q))/(p - q), E(t) = e(t w), in closed form,
    from the nodes (E, E', E'', |E|, err E', err E'') at p and q (_hessian_node).

    With d = p - q and m the quotient, E' = w e1(t w) and E'' = w^2 e2(t w):
    d2_pp = (E''(p) - 2 (E'(p) - m)/d)/d, d2_qq = -(E''(q) + 2 (E'(q) - m)/d)/d
    and d2_pq = (E'(p) + E'(q) - 2 m)/d^2.  Returns the three entries and their
    error estimates: eps times each term's magnitude over its power of |d|, as
    in core._family_ln, from the nodes' error terms, plus the row's (g, c)
    rounding of the quotient, 2 eps (g |t w| + c) in E.
    """
    ep, e1p, e2p, abs_ep, err1p, err2p = node_p
    eq, e1q, e2q, abs_eq, err1q, err2q = node_q
    d = p - q
    ad = abs(d)
    m = (ep - eq) / d
    d2_pp = (e2p - 2.0 * (e1p - m) / d) / d
    d2_qq = -(e2q + 2.0 * (e1q - m) / d) / d
    d2_pq = (e1p + e1q - 2.0 * m) / (d * d)
    err_m = (2.0 * _EPS * (1.0 + abs_ep + abs_eq)
             + 2.0 * _EPS * (row[6] + row[5] * abs(w) * (abs(p) + abs(q)))) / ad + _EPS * abs(m)
    est_pp = (err2p + 2.0 * (err1p + err_m) / ad) / ad
    est_qq = (err2q + 2.0 * (err1q + err_m) / ad) / ad
    est_pq = (err1p + err1q + 2.0 * err_m) / (d * d)
    return d2_pp, d2_qq, d2_pq, est_pp, est_qq, est_pq


def _quotient_hessian(row: tuple, w: float, p: float, q: float) -> tuple:
    """_pair_hessian of the row's nodes at p and q, each read afresh."""
    return _pair_hessian(row, w, p, q, _hessian_node(row, w, p), _hessian_node(row, w, q))


def _stored_node(nodes: dict, row: tuple, w: float, t: float) -> tuple:
    """_hessian_node(row, w, t), kept in nodes under t unless t w is zero, where
    the key would merge the signed zeros that its E' may keep."""
    node = _hessian_node(row, w, t)
    if t * w:
        nodes[t] = node
    return node


def _family_hessian(family: str, gen: Optional[GeneratorPair], points: Sequence[MeanPoint],
                    pairs: Sequence[tuple[float, float]]) -> Iterator[tuple]:
    """For each mean point and each (p, q) of pairs, in that order: (pt, ParamPair(p, q), h),
    h the closed-form Hessian of ln M of a scan family at w = ln(a/b), (d2_pp, d2_qq,
    d2_pq, delta, est_pp, est_qq, est_pq, est_delta), or the exception that the public
    evaluator's call at the pair, made first, or the Hessian raised.

    A node is read after its pair's evaluator call, once per distinct grid value
    and mean point (_stored_node); H_D adds its pole row at w = 1, whose nodes
    serve every mean point.  So a pair costs its evaluator call and the
    arithmetic on its two nodes.
    """
    ev = family_evaluator(family, gen)
    pole = family == "hd"
    row = (_STOLARSKY if pole else _rs_kernels(gen.r, gen.s) if family == "four_param"
           else _KERNELS[family])
    poles: dict = {}
    for pt in points:
        w = log_ratio(pt.a, pt.b)
        nodes: dict = {}
        for p, q in pairs:
            pq = ParamPair(p, q)
            try:
                ev(pq, pt)
                d2_pp, d2_qq, d2_pq, est_pp, est_qq, est_pq = _pair_hessian(
                    row, w, p, q, nodes.get(p) or _stored_node(nodes, row, w, p),
                    nodes.get(q) or _stored_node(nodes, row, w, q))
                if pole:
                    pole_pp, pole_qq, pole_pq, pole_est_pp, pole_est_qq, pole_est_pq = \
                        _pair_hessian(_HD_POLE, 1.0, p, q,
                                      poles.get(p) or _stored_node(poles, _HD_POLE, 1.0, p),
                                      poles.get(q) or _stored_node(poles, _HD_POLE, 1.0, q))
                    d2_pp, d2_qq, d2_pq = d2_pp + pole_pp, d2_qq + pole_qq, d2_pq + pole_pq
                    est_pp, est_qq, est_pq = (est_pp + pole_est_pp, est_qq + pole_est_qq,
                                              est_pq + pole_est_pq)
            except Exception as exc:
                h = exc
            else:  # _with_delta, inline
                delta = d2_pp * d2_qq - d2_pq * d2_pq
                est_delta = (abs(d2_pp) * est_qq + abs(d2_qq) * est_pp + 2.0 * abs(d2_pq) * est_pq
                             + est_pp * est_qq + est_pq * est_pq
                             + 2.0 * _EPS * (abs(d2_pp * d2_qq) + d2_pq * d2_pq))
                h = d2_pp, d2_qq, d2_pq, delta, est_pp, est_qq, est_pq, est_delta
            yield pt, pq, h


def _with_delta(parts: tuple) -> tuple:
    """_quotient_hessian's entries and estimates, with delta and est_delta put in."""
    d2_pp, d2_qq, d2_pq, est_pp, est_qq, est_pq = parts
    delta = d2_pp * d2_qq - d2_pq * d2_pq
    est_delta = (abs(d2_pp) * est_qq + abs(d2_qq) * est_pp + 2.0 * abs(d2_pq) * est_pq
                 + est_pp * est_qq + est_pq * est_pq
                 + 2.0 * _EPS * (abs(d2_pp * d2_qq) + d2_pq * d2_pq))
    return d2_pp, d2_qq, d2_pq, delta, est_pp, est_qq, est_pq, est_delta


def _generator_hessian(f: GeneratorFunction, pp: ParamPair, pt: MeanPoint) -> tuple:
    """_family_hessian's 8-tuple for ln H_f: _quotient_hessian of the generator's row at
    w = log_ratio(a, b).  DomainError at p = q or across a pole, and SaturationError
    naming the first entry (d2_pp, d2_qq, d2_pq, delta) that is not finite."""
    p, q = pp.p, pp.q
    _check_t_interval(f, p, q)
    if p == q:
        raise DomainError("the closed-form Hessian has no p = q form")
    w = log_ratio(pt.a, pt.b)
    _saturation_guard(p, w)
    _saturation_guard(q, w)
    hessian = _with_delta(_quotient_hessian(f.kernel, w, p, q))
    for name, value in zip(("d2_pp", "d2_qq", "d2_pq", "delta"), hessian):
        if not math.isfinite(value):
            raise SaturationError(f"{name} outside the floating range", value, None, name)
    return hessian


def scan_convexity(spec: ScanSpec) -> CheckReport:
    """Closed-form Hessian scan over the grid; deterministic given the spec.

    Every grid point is evaluated once through the public evaluator, whose
    errors fail the sample, then its Hessian of ln M is read from the
    family's kernels (_family_hessian), whose nodes each grid value reads
    once per mean point.  A point is inconclusive when
    |d2_pp| or |delta| is within its error estimate; the margin is the
    smaller of the directional d2_pp and delta, each over its estimate.
    Any exception fails its sample, not the scan.
    """
    sign = 1.0 if spec.region == "positive_quadrant" else -1.0
    expect = expected_verdict(spec)
    convex = expect == VERDICT_CONVEX
    pairs = [(sign * abs(p), sign * abs(q)) for p in spec.p_grid for q in spec.q_grid
             if abs(p - q) > EXCLUSION_BAND]
    skipped = len(spec.mean_points) * (len(spec.p_grid) * len(spec.q_grid) - len(pairs))
    classify = HessianReport.classify
    tally = Tally()
    observed: dict[str, int] = {}
    for pt, pq, h in _family_hessian(spec.family, spec.gen, spec.mean_points, pairs):
        if type(h) is not tuple:
            tally.error(h, {"a": pt.a, "b": pt.b, "p": pq.p, "q": pq.q})
            continue
        d2_pp, _, _, delta, est_pp, _, _, est_delta = h
        verdict = classify(d2_pp, delta, est_pp, est_delta)
        observed[verdict] = observed.get(verdict, 0) + 1
        if expect is None:
            tally.passed += 1
            continue
        margin = min((d2_pp if convex else -d2_pp) / est_pp, delta / est_delta)
        if margin < tally.worst_margin:
            tally.margin(margin, {"a": pt.a, "b": pt.b, "p": pq.p, "q": pq.q,
                                  "d2_pp": d2_pp, "delta": delta, "verdict": verdict})
        if verdict == VERDICT_INCONCLUSIVE:  # _count_verdict, inline
            tally.inconclusive += 1
        elif verdict == expect:
            tally.passed += 1
        else:
            tally.failed += 1
    notes = f"observed={observed}; skipped_near_diagonal={skipped}"
    if expect is None:
        dominant = max(observed, key=observed.get) if observed else "none"
        notes += f"; expected=recorded-only; dominant={dominant}"
    return tally.report(f"convexity[{spec.family},{spec.region}]", notes)


def j_criterion_probe(f: GeneratorFunction, samples: Sequence[tuple[float, MeanPoint]]
                      ) -> CheckReport:
    """Check the J-sign criterion against positive-quadrant Hessian verdicts.

    J is computed at each (t, point) sample, undecided where |J| <=
    J_DEAD_ZONE; if its sign is constant, the closed-form Hessian verdicts
    of H_f (_generator_hessian) over J_HESSIAN_GRID at J_MEAN_POINT must
    match: J < 0 implies log-convex there, J > 0 log-concave.  The worst
    margin is that of the Hessian samples, in units of their estimates as
    in scan_convexity, or the smallest |J| when the implication is vacuous.
    """
    tally = Tally()
    signs = set()
    j_samples = []
    for t, pt in samples:
        j = t_derivatives(f, t, pt).J_val
        j_samples.append((abs(j), {"t": t, "a": pt.a, "b": pt.b, "J": j}))
        if abs(j) <= J_DEAD_ZONE:
            tally.undecided()
        else:
            tally.count(True)
            signs.add(1 if j > 0.0 else -1)

    case_id = f"j_criterion[{f.label}]"
    notes = f"J signs observed: {sorted(signs)}"
    if len(signs) != 1:
        for margin, witness in j_samples:
            tally.margin(margin, witness)
        return tally.report(case_id, notes + "; no constant sign, implication vacuous")

    sigma = signs.pop()
    expect = VERDICT_CONVEX if sigma < 0 else VERDICT_CONCAVE
    for p in J_HESSIAN_GRID:
        for q in J_HESSIAN_GRID:
            if abs(p - q) <= EXCLUSION_BAND:
                continue
            d2_pp, _, _, delta, est_pp, _, _, est_delta = _generator_hessian(
                f, ParamPair(p, q), J_MEAN_POINT)
            verdict = HessianReport.classify(d2_pp, delta, est_pp, est_delta)
            directional = d2_pp if expect == VERDICT_CONVEX else -d2_pp
            tally.margin(min(directional / est_pp, delta / est_delta),
                         {"p": p, "q": q, "d2_pp": d2_pp, "delta": delta,
                          "verdict": verdict, "expected": expect})
            _count_verdict(tally, verdict, expect)
    return tally.report(case_id, notes + f"; expected quadrant verdict {expect}")


def integral_hessian(f: GeneratorFunction, pp: ParamPair, pt: MeanPoint
                     ) -> tuple[float, float, float, float]:
    """(d2_pp, d2_qq, d2_pq, delta) of ln H_f in (p, q): the closed form of
    _generator_hessian, which equals the weighted T''' integrals
    int_0^1 {t^2, (1-t)^2, t(1-t)} T'''(tp + (1-t)q) dt.  DomainError at p = q."""
    return _generator_hessian(f, pp, pt)[:4]


def random_blend_margins(
    family: str,
    region_sign: float,
    count: int,
    seed: int,
) -> list[float]:
    """Deterministic random Jensen defects, |p|, |q| in [0.05, 4], at (a, b) = (1, 4)."""
    rng = random.Random(seed)
    ev = family_evaluator(family)
    pt = MeanPoint(1.0, 4.0)
    margins = []
    for _ in range(count):
        p1 = ParamPair(region_sign * rng.uniform(0.05, 4.0), region_sign * rng.uniform(0.05, 4.0))
        p2 = ParamPair(region_sign * rng.uniform(0.05, 4.0), region_sign * rng.uniform(0.05, 4.0))
        alpha = rng.uniform(0.0, 1.0)
        margins.append(midpoint_test(ev, p1, p2, (alpha, 1.0 - alpha), pt))
    return margins
