"""Catalog of the mean inequalities and the sampling checker.

Every case is stored in log scale: the scanned expression is
ln(lhs/rhs)-style, bracketed by optional lower/upper bound functions,
so the violation slack 1e-11 * (1 + |value| + |bound|) is scale free.
Generalized (r, s) cases are asserted only on the log-concavity region
r, s >= 0 with r + s > 0; samples outside it are scanned in report-only
mode.  The double-estimation case between 16 sqrt(2)/(9e) and 1 is
report-only as well: its bracket is recorded rather than enforced.
check_cases runs the cases that share a sampling plan on one sample
stream; check_case is its one-case call.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

from .convexity import CheckReport, Tally
from .core import (
    MeanPoint,
    Y_mean,
    _GINI,
    _HERONIAN2,
    _IDENTRIC2,
    _STOLARSKY,
    _arithmetic,
    _check_point,
    _family_ln,
    _geometric,
    _heronian,
    _ln_identric,
    _log_mean,
    _power_mean_exponent,
    ln_identric,
)
from .errors import DomainError, ParMeansError
from .stable import log_ratio

Sample = dict


@dataclass(frozen=True)
class NamedConstant:
    name: str
    closed_form: str
    value: float
    decimal: float  # the published 4-digit rendering


@dataclass(frozen=True)
class SupremumRecord:
    observed_sup: float
    observed_inf: float
    arg_sup: Sample
    samples: int

    def __post_init__(self):
        if self.samples and self.observed_inf > self.observed_sup:
            raise ParMeansError("SupremumRecord inf exceeds sup")


@dataclass(frozen=True)
class SamplingPlan:
    grid_b_count: int = 40
    random_count: int = 10_000
    seed: int = 0
    b_low: float = 1.001
    b_high: float = 1e6

    def __post_init__(self):
        if not (all(type(n) is int and n >= 0 for n in (self.grid_b_count, self.random_count))
                and all(isinstance(b, (int, float)) for b in (self.b_low, self.b_high))
                and 0.0 < self.b_low <= self.b_high < math.inf):
            raise DomainError(f"SamplingPlan needs integer counts >= 0 and "
                              f"0 < b_low <= b_high < inf, got {self!r}")

    @cached_property
    def _log_b_range(self) -> tuple[float, float]:
        return math.log(self.b_low), math.log(self.b_high)


@dataclass(frozen=True)
class InequalityCase:
    """One catalog inequality, in log scale.

    log_value maps a sample to the scanned log expression; log_lower and
    log_upper (either may be None) bracket it.  draw produces the random
    free variables, grid the structured ones; every sample carries the
    mean arguments "a" and "b".  assert_in marks samples where a
    violation counts as a failure; elsewhere it is only noted.
    """

    case_id: str
    formula: str
    log_value: Callable[[Sample], float]
    log_lower: Optional[Callable[[Sample], float]]
    log_upper: Optional[Callable[[Sample], float]]
    draw: Callable[[random.Random, SamplingPlan], Sample]
    grid: Callable[[SamplingPlan], list[Sample]]
    constants: tuple[NamedConstant, ...] = ()
    assert_in: Callable[[Sample], bool] = lambda s: True


# -- scalar helpers over a sample dict --------------------------------------

def _logs(s: Sample) -> tuple[float, float]:
    """(w, ln b) = (ln(a/b), ln b) of a sample; the checker validates (a, b) once."""
    return log_ratio(s["a"], s["b"]), math.log(s["b"])


class _Point(dict):
    """A sample, its logs (w, ln b) taken once, and the family means read at it.

    ln(helper, p, q) returns helper(p, q, w, ln b), evaluated at most once
    per (helper, p, q) while the point lives, which is one sample.  A
    raised error is not kept, so asking again raises again.  Callers name
    the module-level helper at call time, so a patched helper takes effect.
    Parameters are keyed by ==; no catalog term takes a zero parameter,
    where 0.0 and -0.0 would share an entry.
    """

    __slots__ = ("w", "lnb", "_terms")

    def __init__(self, sample: Sample):
        super().__init__(sample)
        self.w, self.lnb = _logs(sample)
        self._terms = {}

    def ln(self, helper: Callable[[float, float, float, float], float],
           p: float, q: float) -> float:
        key = (helper, p, q)
        terms = self._terms
        value = terms.get(key)
        if value is None:
            value = terms[key] = helper(p, q, self.w, self.lnb)
        return value


def _with_logs(fn: Callable[[_Point, float, float], float]) -> Callable[[Sample], float]:
    """A one-argument log expression fn(point, w, ln b).

    The checker passes the _Point it made for the sample, so every case
    shares its logs and terms; a plain sample gets a point of its own.
    """
    def value(s: Sample) -> float:
        point = s if type(s) is _Point else _Point(s)
        return fn(point, point.w, point.lnb)
    return value


# The two-parameter families and the power mean are read in log space
# straight from the core fast path, fed with the sample's logs.  A family
# mean that more than one case reads goes through the point's ln memo.
# The closed forms (ln I, A_t, He, the double bound) are evaluated where
# read: a memo lookup costs about as much as any of them.

def _ln_S(r: float, s_: float, w: float, lnb: float) -> float:
    return _family_ln(_STOLARSKY, r, s_, w, lnb)[0]


def _ln_G(r: float, s_: float, w: float, lnb: float) -> float:
    return _family_ln(_GINI, r, s_, w, lnb)[0]


def _ln_I2(r: float, s_: float, w: float, lnb: float) -> float:
    return _family_ln(_IDENTRIC2, r, s_, w, lnb)[0]


def _ln_He2(r: float, s_: float, w: float, lnb: float) -> float:
    return _family_ln(_HERONIAN2, r, s_, w, lnb)[0]


def _ln_A(t: float, w: float, lnb: float) -> float:
    """ln of the power mean for t != 0."""
    return lnb + _power_mean_exponent(t, w)


# -- free-variable plans -----------------------------------------------------

def _b_grid(plan: SamplingPlan) -> list[float]:
    """grid_b_count values of b, log-spaced from b_low to b_high; one is [b_low]."""
    lo, hi = math.log(plan.b_low), math.log(plan.b_high)
    n = plan.grid_b_count
    return [math.exp(lo + i * (hi - lo) / max(1, n - 1)) for i in range(n)]


def _draw_b(rng: random.Random, plan: SamplingPlan) -> float:
    return math.exp(rng.uniform(*plan._log_b_range))


def _ab_only_grid(plan: SamplingPlan) -> list[Sample]:
    return [{"a": 1.0, "b": b} for b in _b_grid(plan)]


def _ab_only_draw(rng: random.Random, plan: SamplingPlan) -> Sample:
    return {"a": 1.0, "b": _draw_b(rng, plan)}


_RS_BAND = 0.05


def _rs_ok(r: float, s: float) -> bool:
    return min(abs(r), abs(s), abs(r - s), abs(r + s)) > _RS_BAND


def _rs_grid(plan: SamplingPlan) -> list[Sample]:
    values = (0.25, 0.5, 1.0, 2.0, 4.0)
    bs = _b_grid(SamplingPlan(grid_b_count=8, b_low=plan.b_low, b_high=plan.b_high))
    out = []
    for r in values:
        for s in values:
            if not _rs_ok(r, s):
                continue
            for b in bs:
                out.append({"a": 1.0, "b": b, "r": r, "s": s})
    return out


def _rs_draw(rng: random.Random, plan: SamplingPlan) -> Sample:
    while True:
        r = rng.uniform(-4.0, 4.0)
        s = rng.uniform(-4.0, 4.0)
        if _rs_ok(r, s):
            return {"a": 1.0, "b": _draw_b(rng, plan), "r": r, "s": s}


def _rs_assert(sample: Sample) -> bool:
    r, s = sample["r"], sample["s"]
    return r >= 0.0 and s >= 0.0 and r + s > 0.0


def _double_grid(plan: SamplingPlan) -> list[Sample]:
    combos = [
        # the parameter tuples behind the classical double estimations
        (4.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0, 4.0 / 3.0, 0.5),
        (0.5, 1.5, 1.5, 0.5, 1.0 / 6.0),
        (1.0, 1.0, 1.5, 0.5, 1.0 / 3.0),
        (1.2, 1.2, 0.8, 0.8, 0.5),
        (0.5, 1.5, 1.5, 0.5, 0.5),
        (2.0, 1.0, 1.0, 3.0, 0.5),
    ]
    out = []
    for b in _b_grid(SamplingPlan(grid_b_count=7, b_low=1.01, b_high=1e3)):
        for p1, q1, p2, q2, alpha in combos:
            out.append({"a": 1.0, "b": b, "p1": p1, "q1": q1,
                        "p2": p2, "q2": q2, "alpha": alpha})
    return out


_DOUBLE_LOG_B = (math.log(1.01), math.log(1e3))


def _double_draw(rng: random.Random, plan: SamplingPlan) -> Sample:
    return {
        "a": 1.0,
        "b": math.exp(rng.uniform(*_DOUBLE_LOG_B)),
        "p1": rng.uniform(1e-3, 4.0),
        "q1": rng.uniform(1e-3, 4.0),
        "p2": rng.uniform(1e-3, 4.0),
        "q2": rng.uniform(1e-3, 4.0),
        "alpha": rng.uniform(0.0, 1.0),
    }


def _blend(s: Sample) -> tuple[float, float, float, float]:
    alpha = s["alpha"]
    beta = 1.0 - alpha
    return (alpha, beta,
            alpha * s["p1"] + beta * s["p2"],
            alpha * s["q1"] + beta * s["q2"])


def _double_upper(s: Sample) -> float:
    alpha, beta, pb, qb = _blend(s)
    return (alpha / _log_mean(s["p1"], s["q1"])
            + beta / _log_mean(s["p2"], s["q2"])
            - 1.0 / _log_mean(pb, qb))


def _double_value(family_ln, s: Sample, w: float, lnb: float) -> float:
    alpha, beta, pb, qb = _blend(s)
    return (family_ln(pb, qb, w, lnb)
            - alpha * family_ln(s["p1"], s["q1"], w, lnb)
            - beta * family_ln(s["p2"], s["q2"], w, lnb))


# -- the catalog -------------------------------------------------------------

SQRT8_OVER_E = math.sqrt(8.0) / math.e
THREE_OVER_SQRT8 = 3.0 / math.sqrt(8.0)
LIN_JIA_CONST = 16.0 * math.sqrt(2.0) / (9.0 * math.e)
EXP_1_24 = math.exp(1.0 / 24.0)
THREE_OVER_E = 3.0 / math.e


def catalog() -> list[InequalityCase]:
    """All thirteen cataloged inequality cases."""
    zero = lambda s: 0.0
    return [
        InequalityCase(
            case_id="gen_lin",
            formula="S_{r,s} <= G_{r/3,s/3}",
            log_value=_with_logs(lambda s, w, lnb: (s.ln(_ln_S, s["r"], s["s"])
                                                    - s.ln(_ln_G, s["r"] / 3, s["s"] / 3))),
            log_lower=None,
            log_upper=zero,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="gen_jia_cao",
            formula="S_{r,s} <= He_{r/2,s/2}",
            log_value=_with_logs(lambda s, w, lnb: (s.ln(_ln_S, s["r"], s["s"])
                                                    - s.ln(_ln_He2, s["r"] / 2, s["s"] / 2))),
            log_lower=None,
            log_upper=zero,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="gen_sandor",
            formula="I_{r,s} >= S_{2r,2s}",
            log_value=_with_logs(lambda s, w, lnb: (s.ln(_ln_I2, s["r"], s["s"])
                                                    - _ln_S(2 * s["r"], 2 * s["s"], w, lnb))),
            log_lower=zero,
            log_upper=None,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="new_ineq_1",
            formula="S_{r,s} <= He_{r/2,s/2}^4 * G_{r/3,s/3}^-3",
            log_value=_with_logs(lambda s, w, lnb: (s.ln(_ln_S, s["r"], s["s"])
                                                    - 4.0 * s.ln(_ln_He2, s["r"] / 2, s["s"] / 2)
                                                    + 3.0 * s.ln(_ln_G, s["r"] / 3, s["s"] / 3))),
            log_lower=None,
            log_upper=zero,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="new_ineq_2",
            formula="I_{r,s} <= G_{2r/5,2s/5}^5 * He_{r/2,s/2}^-4",
            log_value=_with_logs(lambda s, w, lnb: (s.ln(_ln_I2, s["r"], s["s"])
                                                    - 5.0 * _ln_G(2 * s["r"] / 5, 2 * s["s"] / 5, w, lnb)
                                                    + 4.0 * s.ln(_ln_He2, s["r"] / 2, s["s"] / 2))),
            log_lower=None,
            log_upper=zero,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="stolarsky_double",
            formula="1 <= S_blend/(S1^a S2^b) <= exp(a/L1 + b/L2 - 1/Lb)",
            log_value=_with_logs(lambda s, w, lnb: _double_value(_ln_S, s, w, lnb)),
            log_lower=zero,
            log_upper=_double_upper,
            draw=_double_draw,
            grid=_double_grid,
        ),
        InequalityCase(
            case_id="gini_double",
            formula="1 <= G_blend/(G1^a G2^b) <= exp(a/L1 + b/L2 - 1/Lb)",
            log_value=_with_logs(lambda s, w, lnb: _double_value(_ln_G, s, w, lnb)),
            log_lower=zero,
            log_upper=_double_upper,
            draw=_double_draw,
            grid=_double_grid,
        ),
        InequalityCase(
            case_id="stolarsky_yang",
            formula="1 <= I/A_{2/3} <= sqrt(8)/e",
            log_value=_with_logs(lambda s, w, lnb: (_ln_identric(w, lnb)
                                                    - _ln_A(2.0 / 3.0, w, lnb))),
            log_lower=zero,
            log_upper=lambda s: math.log(SQRT8_OVER_E),
            draw=_ab_only_draw,
            grid=_ab_only_grid,
            constants=(
                NamedConstant("lower", "1", 1.0, 1.0),
                NamedConstant("upper", "sqrt(8)/e", SQRT8_OVER_E, 1.0405),
            ),
        ),
        InequalityCase(
            case_id="sandor_yang",
            formula="1 <= A_{2/3}/He <= 3/sqrt(8)",
            log_value=_with_logs(lambda s, w, lnb: (_ln_A(2.0 / 3.0, w, lnb)
                                                    - math.log(_heronian(s["a"], s["b"])))),
            log_lower=zero,
            log_upper=lambda s: math.log(THREE_OVER_SQRT8),
            draw=_ab_only_draw,
            grid=_ab_only_grid,
            constants=(
                NamedConstant("lower", "1", 1.0, 1.0),
                NamedConstant("upper", "3/sqrt(8)", THREE_OVER_SQRT8, 1.0607),
            ),
        ),
        InequalityCase(
            case_id="new_est_1",
            formula="16*sqrt(2)/(9e) <= I*He^2/A_{2/3}^3 <= 1",
            log_value=_with_logs(lambda s, w, lnb: (_ln_identric(w, lnb)
                                                    + 2.0 * math.log(_heronian(s["a"], s["b"]))
                                                    - 3.0 * _ln_A(2.0 / 3.0, w, lnb))),
            log_lower=lambda s: math.log(LIN_JIA_CONST),
            log_upper=zero,
            draw=_ab_only_draw,
            grid=_ab_only_grid,
            constants=(
                NamedConstant("lower", "16*sqrt(2)/(9e)", LIN_JIA_CONST, 0.9249),
                NamedConstant("upper", "1", 1.0, 1.0),
            ),
            assert_in=lambda s: False,
        ),
        InequalityCase(
            case_id="new_est_2_i",
            formula="1 <= I/sqrt(I_{6/5} I_{4/5}) <= e^(1/24)",
            log_value=_with_logs(lambda s, w, lnb: (_ln_identric(w, lnb)
                                                    - 0.5 * (_ln_S(1.2, 1.2, w, lnb)
                                                             + _ln_S(0.8, 0.8, w, lnb)))),
            log_lower=zero,
            log_upper=lambda s: 1.0 / 24.0,
            draw=_ab_only_draw,
            grid=_ab_only_grid,
            constants=(
                NamedConstant("lower", "1", 1.0, 1.0),
                NamedConstant("upper", "e^(1/24)", EXP_1_24, 1.0425),
            ),
        ),
        InequalityCase(
            case_id="new_est_2_z",
            formula="1 <= Z/sqrt(Z_{6/5} Z_{4/5}) <= e^(1/24)",
            log_value=_with_logs(lambda s, w, lnb: (s.ln(_ln_G, 1.0, 1.0)
                                                    - 0.5 * (_ln_G(1.2, 1.2, w, lnb)
                                                             + _ln_G(0.8, 0.8, w, lnb)))),
            log_lower=zero,
            log_upper=lambda s: 1.0 / 24.0,
            draw=_ab_only_draw,
            grid=_ab_only_grid,
            constants=(
                NamedConstant("lower", "1", 1.0, 1.0),
                NamedConstant("upper", "e^(1/24)", EXP_1_24, 1.0425),
            ),
        ),
        InequalityCase(
            case_id="new_est_3",
            formula="1 <= Z/(2A - G) <= 3/e",
            log_value=_with_logs(lambda s, w, lnb: (s.ln(_ln_G, 1.0, 1.0)
                                                    - math.log(2.0 * _arithmetic(s["a"], s["b"])
                                                               - _geometric(s["a"], s["b"])))),
            log_lower=zero,
            log_upper=lambda s: math.log(THREE_OVER_E),
            draw=_ab_only_draw,
            grid=_ab_only_grid,
            constants=(
                NamedConstant("lower", "1", 1.0, 1.0),
                NamedConstant("upper", "3/e", THREE_OVER_E, 1.1036),
            ),
        ),
    ]


SLACK_COEFF = 1e-11


class _CaseTally(Tally):
    """One case's Tally, plus its report-only margin, observed extremes and
    out-of-region violation count.  add() is the checker's hot loop, so it
    counts through the Tally's fields directly."""

    __slots__ = ("case", "value", "lower", "upper", "assert_in", "report_margin",
                 "report_witness", "sup", "inf", "arg_sup", "out_of_region_violations")

    def __init__(self, case: InequalityCase):
        super().__init__()
        self.case = case
        self.value, self.lower, self.upper = case.log_value, case.log_lower, case.log_upper
        self.assert_in = case.assert_in
        self.report_margin = math.inf
        self.report_witness: Sample = {}
        self.sup, self.inf = -math.inf, math.inf
        self.arg_sup: Sample = {}
        self.out_of_region_violations = 0

    def add(self, s: Sample) -> None:
        """Evaluate the case at one valid sample and count the outcome."""
        try:
            val = self.value(s)
            lo = self.lower(s) if self.lower is not None else None
            hi = self.upper(s) if self.upper is not None else None
        except ParMeansError:
            self.inconclusive += 1
            return
        ratio = math.exp(val)
        if ratio > self.sup:
            self.sup, self.arg_sup = ratio, dict(s)
        if ratio < self.inf:
            self.inf = ratio
        margin = math.inf
        violated = False
        if lo is not None:
            margin = val - lo
            violated = margin < -SLACK_COEFF * (1.0 + abs(val) + abs(lo))
        if hi is not None:
            gap = hi - val
            if gap < margin:
                margin = gap
            violated |= gap < -SLACK_COEFF * (1.0 + abs(val) + abs(hi))
        if self.assert_in(s):
            self.margin(margin, s)
            if violated:
                self.failed += 1
            else:
                self.passed += 1
        else:
            self.passed += 1
            if violated:
                self.out_of_region_violations += 1
            if margin < self.report_margin:
                self.report_margin = margin
                self.report_witness = dict(s)

    def result(self) -> tuple[CheckReport, SupremumRecord]:
        if self.worst_margin == math.inf:  # nothing asserted: report the report-only margin
            self.worst_margin, self.worst_witness = self.report_margin, self.report_witness
        notes = ""
        if self.out_of_region_violations:
            notes = f"report-only violations: {self.out_of_region_violations}"
        record = SupremumRecord(
            observed_sup=self.sup,
            observed_inf=self.inf,
            arg_sup=self.arg_sup,
            samples=self.passed + self.failed,
        )
        return self.report(self.case.case_id, notes), record


def check_cases(cases: Sequence[InequalityCase], plan: SamplingPlan = SamplingPlan()
                ) -> list[tuple[CheckReport, SupremumRecord]]:
    """Evaluate cases on their structured grids plus random samples.

    Cases that share a sampling plan (the same grid and draw functions)
    run on one stream: the grid, then plan.random_count draws from
    Random(plan.seed), each sample validated and its logs taken once,
    each mean term that several cases read evaluated once.  A sample
    fails a case when either bracket side is violated by more than
    SLACK_COEFF * (1 + |value| + |bound|) in log scale; invalid (a, b)
    and evaluator saturation make the sample inconclusive.  Returns one
    (report, record) per case, in order, each as check_case gives it.
    """
    tallies = [_CaseTally(case) for case in cases]
    groups: dict[tuple, list[_CaseTally]] = {}
    for tally in tallies:
        groups.setdefault((tally.case.grid, tally.case.draw), []).append(tally)
    for (grid, draw), group in groups.items():
        rng = random.Random(plan.seed)
        for s in itertools.chain(grid(plan), (draw(rng, plan) for _ in range(plan.random_count))):
            try:
                _check_point(s["a"], s["b"])
            except ParMeansError:
                for tally in group:
                    tally.undecided()
                continue
            point = _Point(s)
            for tally in group:
                tally.add(point)
    return [tally.result() for tally in tallies]


def check_case(case: InequalityCase, plan: SamplingPlan = SamplingPlan()
               ) -> tuple[CheckReport, SupremumRecord]:
    """Evaluate one case on its structured grid plus random samples.

    The one-case call of check_cases; deterministic in the seed.
    """
    return check_cases([case], plan)[0]


# -- named specializations ---------------------------------------------------

# Each side maps (sample, w, ln b) to a log mean; the check takes the logs once per sample.
Side = Callable[[Sample, float, float], float]


def _ln_L(s: Sample, w: float, lnb: float) -> float:
    return math.log(_log_mean(s["a"], s["b"]))


def _ln_plain_I(s: Sample, w: float, lnb: float) -> float:
    return ln_identric(s["a"], s["b"])


_REDUCTIONS: list[tuple[str, Side, Side, str, Side, Side]] = [
    # (name, lhs, rhs, direction, general-case lhs, general-case rhs)
    ("L<=A_1/3", _ln_L, lambda s, w, lnb: _ln_A(1.0 / 3.0, w, lnb), "le",
     lambda s, w, lnb: _ln_S(1.0, 0.0, w, lnb), lambda s, w, lnb: _ln_G(1.0 / 3.0, 0.0, w, lnb)),
    ("I<=Z_1/3", _ln_plain_I, lambda s, w, lnb: _ln_G(1.0 / 3.0, 1.0 / 3.0, w, lnb), "le",
     lambda s, w, lnb: _ln_S(1.0, 1.0, w, lnb),
     lambda s, w, lnb: _ln_G(1.0 / 3.0, 1.0 / 3.0, w, lnb)),
    ("L<=He_1/2", _ln_L, lambda s, w, lnb: _ln_He2(0.5, 0.0, w, lnb), "le",
     lambda s, w, lnb: _ln_S(1.0, 0.0, w, lnb), lambda s, w, lnb: _ln_He2(0.5, 0.0, w, lnb)),
    ("I>=L_2", _ln_plain_I, lambda s, w, lnb: _ln_S(2.0, 0.0, w, lnb), "ge",
     lambda s, w, lnb: _ln_I2(1.0, 0.0, w, lnb), lambda s, w, lnb: _ln_S(2.0, 0.0, w, lnb)),
    ("Y>=I_2", lambda s, w, lnb: math.log(Y_mean(MeanPoint(s["a"], s["b"]))),
     lambda s, w, lnb: _ln_S(2.0, 2.0, w, lnb), "ge",
     lambda s, w, lnb: _ln_I2(1.0, 1.0, w, lnb), lambda s, w, lnb: _ln_S(2.0, 2.0, w, lnb)),
    ("Z>=A_2", lambda s, w, lnb: _ln_G(1.0, 1.0, w, lnb), lambda s, w, lnb: _ln_A(2.0, w, lnb),
     "ge", lambda s, w, lnb: _ln_I2(2.0, 1.0, w, lnb), lambda s, w, lnb: _ln_S(4.0, 2.0, w, lnb)),
    ("L<=He_1/2^4*A_1/3^-3", _ln_L,
     lambda s, w, lnb: 4.0 * _ln_He2(0.5, 0.0, w, lnb) - 3.0 * _ln_A(1.0 / 3.0, w, lnb), "le",
     lambda s, w, lnb: _ln_S(1.0, 0.0, w, lnb),
     lambda s, w, lnb: 4.0 * _ln_He2(0.5, 0.0, w, lnb) - 3.0 * _ln_G(1.0 / 3.0, 0.0, w, lnb)),
    ("I<=A_2/5^5*He_1/2^-4", _ln_plain_I,
     lambda s, w, lnb: 5.0 * _ln_A(0.4, w, lnb) - 4.0 * _ln_He2(0.5, 0.0, w, lnb), "le",
     lambda s, w, lnb: _ln_I2(1.0, 0.0, w, lnb),
     lambda s, w, lnb: 5.0 * _ln_G(0.4, 0.0, w, lnb) - 4.0 * _ln_He2(0.5, 0.0, w, lnb)),
    ("Z<=G_4/5,2/5^5*He_1,1/2^-4", lambda s, w, lnb: _ln_G(1.0, 1.0, w, lnb),
     lambda s, w, lnb: 5.0 * _ln_G(0.8, 0.4, w, lnb) - 4.0 * _ln_He2(1.0, 0.5, w, lnb), "le",
     lambda s, w, lnb: _ln_I2(2.0, 1.0, w, lnb),
     lambda s, w, lnb: 5.0 * _ln_G(0.8, 0.4, w, lnb) - 4.0 * _ln_He2(1.0, 0.5, w, lnb)),
]


def special_reductions_check() -> CheckReport:
    """Verify each named specialization and its general-case agreement.

    For each of the 25 (a, b) grid points: the inequality itself holds
    with the standard slack, and the specialized sides agree with the
    general inequality evaluated at its (r, s) to 1e-12 relative.  A
    sample whose sides disagree fails as an error, with margin -1e300.
    """
    tally = Tally()
    for name, lhs, rhs, direction, gen_lhs, gen_rhs in _REDUCTIONS:
        for sample in _ab_only_grid(SamplingPlan(grid_b_count=25)):
            w, lnb = _logs(sample)
            lv, rv = lhs(sample, w, lnb), rhs(sample, w, lnb)
            margin = (rv - lv) if direction == "le" else (lv - rv)
            witness = {"case": name, **sample}
            if not (abs(lv - gen_lhs(sample, w, lnb)) <= 1e-12 * (1.0 + abs(lv))
                    and abs(rv - gen_rhs(sample, w, lnb)) <= 1e-12 * (1.0 + abs(rv))):
                tally.error(ParMeansError("specialized and general sides disagree"), witness)
                continue
            tally.margin(margin, witness)
            tally.count(margin >= -SLACK_COEFF * (1.0 + abs(lv) + abs(rv)))
    return tally.report("special_reductions", f"{len(_REDUCTIONS)} named specializations")
