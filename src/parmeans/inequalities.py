"""Catalog of the mean inequalities and the sampling checker.

Every case is stored in log scale: the scanned expression is
ln(lhs/rhs)-style, bracketed by optional lower/upper bounds, so the
violation slack 1e-11 * (1 + |value| + |bound|) is scale free.  The
cases read three sample streams: the generalized (r, s) cases, the two
double inequalities and the six (a, b)-only cases.  A stream maps a
block of samples and their logs to one row per sample: the tuple of its
cases' log values, plus any per-sample bound.  It reads each mean term
as a column over the block, one core._family_ln_column call per term,
so the engine's frame is paid once per block rather than once per
sample and term.  A term whose evaluator refuses a sample is NaN there,
and a NaN value or bound makes the sample inconclusive for the cases
that read it.
Generalized (r, s) cases are asserted only on the log-concavity region
r, s >= 0 with r + s > 0; samples outside it are scanned in report-only
mode.  The double-estimation case between 16 sqrt(2)/(9e) and 1 is
report-only as well: its bracket is recorded rather than enforced.
check_cases tallies all cases of a stream in one pass over its samples,
BLOCK samples at a time, so no stream is ever held whole; check_case is
its one-case call.
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
    _FLOAT_MAX,
    _STOLARSKY,
    _arithmetic,
    _check_point,
    _family_ln,
    _family_ln_column,
    _geometric,
    _heronian,
    _ln_identric,
    _log_mean,
    _power_mean_exponent,
    _shown,
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
                and 0.0 < self.b_low <= self.b_high <= _FLOAT_MAX):
            fields = ", ".join(f"{name}={_shown(v)}" for name, v in vars(self).items())
            raise DomainError("SamplingPlan needs integer counts >= 0 and 0 < b_low <= b_high <= "
                              f"the largest float, got SamplingPlan({fields})")

    @cached_property
    def _log_b_range(self) -> tuple[float, float]:
        return math.log(self.b_low), math.log(self.b_high)


class SampleStream:
    """The samples that a group of cases shares, and the cases' log values at each.

    values(samples, ws, lnbs) takes a block of valid samples and their
    logs w = ln(a/b) and ln b, as three equal-length lists, and returns
    one row per sample: the tuple of the cases' log values, plus any
    per-sample bound.  Each mean term is read once per sample, as one
    column over the block (_family_ln_column); a term whose evaluator
    refuses a sample is NaN there (_family_ln_column, _or_nan), so a
    sample the stream cannot evaluate gets NaN entries and the built-in
    streams never raise.  A stream that does raise a ParMeansError for a
    block is read again one sample at a time, and a sample whose
    one-sample block raises is inconclusive for every case.  grid gives
    the structured samples and draw one random sample; every sample
    carries the mean arguments "a" and "b".  region, where set, marks the
    samples on which an asserted case's violation counts as a failure.
    """

    __slots__ = ("values", "grid", "draw", "region")

    def __init__(self, values: Callable[[list[Sample], list[float], list[float]], list[tuple]],
                 grid: Callable[[SamplingPlan], list[Sample]],
                 draw: Callable[[random.Random, SamplingPlan], Sample],
                 region: Optional[Callable[[Sample], bool]] = None):
        self.values, self.grid, self.draw, self.region = values, grid, draw, region


class Slot(int):
    """A bound read at each sample from this slot of the stream's tuple."""


@dataclass(frozen=True)
class InequalityCase:
    """One catalog inequality, in log scale.

    Its log value is slot `slot` of its stream's tuple.  lower and upper
    (either may be None) bracket it, each a log-scale constant or a Slot
    of the same tuple.  An asserted case counts a violation inside its
    stream's region as a failure; elsewhere a violation is only noted.
    """

    case_id: str
    formula: str
    stream: SampleStream
    slot: int
    lower: float | Slot | None = None
    upper: float | Slot | None = None
    constants: tuple[NamedConstant, ...] = ()
    asserted: bool = True

    def grid(self, plan: SamplingPlan) -> list[Sample]:
        return self.stream.grid(plan)

    def assert_in(self, s: Sample) -> bool:
        region = self.stream.region
        return self.asserted and (region is None or region(s))

    def _row(self, s: Sample) -> tuple:
        """The stream's row at s, from a one-sample block."""
        w, lnb = _logs(s)
        return self.stream.values([s], [w], [lnb])[0]

    def log_value(self, s: Sample) -> float:
        return self._row(s)[self.slot]

    def log_upper(self, s: Sample) -> float | None:
        if isinstance(self.upper, Slot):
            return self._row(s)[self.upper]
        return self.upper


# -- scalar helpers over a sample dict --------------------------------------

def _logs(s: Sample) -> tuple[float, float]:
    """(w, ln b) = (ln(a/b), ln b) of a sample; the checker validates (a, b) once."""
    return log_ratio(s["a"], s["b"]), math.log(s["b"])


def _or_nan(helper: Callable[..., float], *args: float) -> float:
    """helper(*args), or NaN where it refuses the sample."""
    try:
        return helper(*args)
    except ParMeansError:
        return math.nan


# The two-parameter families and the power mean are read in log space
# straight from the core engine, fed with the sample's logs: the streams
# by columns (_family_ln_column), the named reductions one term at a time
# (_ln_M).  The streams name the helpers at call time, so a patched helper
# takes effect.

def _ln_M(kernels: tuple, p: float, q: float, w: float, lnb: float) -> float:
    """ln M of a core kernel tuple at (p, q), or NaN where the engine refuses it."""
    try:
        return _family_ln(kernels, p, q, w, lnb)[0]
    except ParMeansError:
        return math.nan


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


# -- the three sample streams ------------------------------------------------

def _rs_values(xs: list[Sample], ws: list[float], lnbs: list[float]) -> list[tuple]:
    """gen_lin, gen_jia_cao, gen_sandor, new_ineq_1, new_ineq_2: six family columns."""
    rs, ss = [x["r"] for x in xs], [x["s"] for x in xs]
    S = _family_ln_column(_STOLARSKY, rs, ss, ws, lnbs)
    G3 = _family_ln_column(_GINI, [r / 3 for r in rs], [s / 3 for s in ss], ws, lnbs)
    He = _family_ln_column(_HERONIAN2, [r / 2 for r in rs], [s / 2 for s in ss], ws, lnbs)
    I = _family_ln_column(_IDENTRIC2, rs, ss, ws, lnbs)
    S2 = _family_ln_column(_STOLARSKY, [2 * r for r in rs], [2 * s for s in ss], ws, lnbs)
    G5 = _family_ln_column(_GINI, [2 * r / 5 for r in rs], [2 * s / 5 for s in ss], ws, lnbs)
    return [(st - g3, st - he, i - s2, st - 4.0 * he + 3.0 * g3, i - 5.0 * g5 + 4.0 * he)
            for st, g3, he, i, s2, g5 in zip(S, G3, He, I, S2, G5)]


def _double_values(xs: list[Sample], ws: list[float], lnbs: list[float]) -> list[tuple]:
    """stolarsky_double, gini_double and their common upper bound a/L1 + b/L2 - 1/Lb."""
    alphas = [x["alpha"] for x in xs]
    betas = [1.0 - alpha for alpha in alphas]
    p1s, q1s = [x["p1"] for x in xs], [x["q1"] for x in xs]
    p2s, q2s = [x["p2"] for x in xs], [x["q2"] for x in xs]
    pbs = [alpha * p1 + beta * p2 for alpha, beta, p1, p2 in zip(alphas, betas, p1s, p2s)]
    qbs = [alpha * q1 + beta * q2 for alpha, beta, q1, q2 in zip(alphas, betas, q1s, q2s)]
    Sb = _family_ln_column(_STOLARSKY, pbs, qbs, ws, lnbs)
    S1 = _family_ln_column(_STOLARSKY, p1s, q1s, ws, lnbs)
    S2 = _family_ln_column(_STOLARSKY, p2s, q2s, ws, lnbs)
    Gb = _family_ln_column(_GINI, pbs, qbs, ws, lnbs)
    G1 = _family_ln_column(_GINI, p1s, q1s, ws, lnbs)
    G2 = _family_ln_column(_GINI, p2s, q2s, ws, lnbs)
    return [(sb - alpha * s1 - beta * s2,
             gb - alpha * g1 - beta * g2,
             alpha / _log_mean(p1, q1) + beta / _log_mean(p2, q2) - 1.0 / _log_mean(pb, qb))
            for alpha, beta, p1, q1, p2, q2, pb, qb, sb, s1, s2, gb, g1, g2
            in zip(alphas, betas, p1s, q1s, p2s, q2s, pbs, qbs, Sb, S1, S2, Gb, G1, G2)]


def _ab_values(xs: list[Sample], ws: list[float], lnbs: list[float]) -> list[tuple]:
    """stolarsky_yang, sandor_yang, new_est_1, new_est_2_i, new_est_2_z, new_est_3."""
    def column(kernels: tuple, t: float) -> list[float]:
        return _family_ln_column(kernels, itertools.repeat(t), itertools.repeat(t), ws, lnbs)

    rows = []
    for x, w, lnb, Z, s12, s08, g12, g08 in zip(xs, ws, lnbs, column(_GINI, 1.0),
                                                column(_STOLARSKY, 1.2), column(_STOLARSKY, 0.8),
                                                column(_GINI, 1.2), column(_GINI, 0.8)):
        a, b = x["a"], x["b"]
        I = _ln_identric(w, lnb)
        A = _or_nan(_ln_A, 2.0 / 3.0, w, lnb)
        He = math.log(_heronian(a, b))
        rows.append((I - A,
                     A - He,
                     I + 2.0 * He - 3.0 * A,
                     I - 0.5 * (s12 + s08),
                     Z - 0.5 * (g12 + g08),
                     Z - math.log(2.0 * _arithmetic(a, b) - _geometric(a, b))))
    return rows


_RS = SampleStream(_rs_values, _rs_grid, _rs_draw, _rs_assert)
_DOUBLE = SampleStream(_double_values, _double_grid, _double_draw)
_AB = SampleStream(_ab_values, _ab_only_grid, _ab_only_draw)


# -- the catalog -------------------------------------------------------------

SQRT8_OVER_E = math.sqrt(8.0) / math.e
THREE_OVER_SQRT8 = 3.0 / math.sqrt(8.0)
LIN_JIA_CONST = 16.0 * math.sqrt(2.0) / (9.0 * math.e)
EXP_1_24 = math.exp(1.0 / 24.0)
THREE_OVER_E = 3.0 / math.e


def catalog() -> list[InequalityCase]:
    """All thirteen cataloged inequality cases."""
    one = NamedConstant("lower", "1", 1.0, 1.0)
    return [
        InequalityCase("gen_lin", "S_{r,s} <= G_{r/3,s/3}", _RS, 0, upper=0.0),
        InequalityCase("gen_jia_cao", "S_{r,s} <= He_{r/2,s/2}", _RS, 1, upper=0.0),
        InequalityCase("gen_sandor", "I_{r,s} >= S_{2r,2s}", _RS, 2, lower=0.0),
        InequalityCase("new_ineq_1", "S_{r,s} <= He_{r/2,s/2}^4 * G_{r/3,s/3}^-3",
                       _RS, 3, upper=0.0),
        InequalityCase("new_ineq_2", "I_{r,s} <= G_{2r/5,2s/5}^5 * He_{r/2,s/2}^-4",
                       _RS, 4, upper=0.0),
        InequalityCase("stolarsky_double",
                       "1 <= S_blend/(S1^a S2^b) <= exp(a/L1 + b/L2 - 1/Lb)",
                       _DOUBLE, 0, lower=0.0, upper=Slot(2)),
        InequalityCase("gini_double",
                       "1 <= G_blend/(G1^a G2^b) <= exp(a/L1 + b/L2 - 1/Lb)",
                       _DOUBLE, 1, lower=0.0, upper=Slot(2)),
        InequalityCase("stolarsky_yang", "1 <= I/A_{2/3} <= sqrt(8)/e",
                       _AB, 0, lower=0.0, upper=math.log(SQRT8_OVER_E),
                       constants=(one, NamedConstant("upper", "sqrt(8)/e", SQRT8_OVER_E, 1.0405))),
        InequalityCase("sandor_yang", "1 <= A_{2/3}/He <= 3/sqrt(8)",
                       _AB, 1, lower=0.0, upper=math.log(THREE_OVER_SQRT8),
                       constants=(one,
                                  NamedConstant("upper", "3/sqrt(8)", THREE_OVER_SQRT8, 1.0607))),
        InequalityCase("new_est_1", "16*sqrt(2)/(9e) <= I*He^2/A_{2/3}^3 <= 1",
                       _AB, 2, lower=math.log(LIN_JIA_CONST), upper=0.0,
                       constants=(NamedConstant("lower", "16*sqrt(2)/(9e)", LIN_JIA_CONST, 0.9249),
                                  NamedConstant("upper", "1", 1.0, 1.0)),
                       asserted=False),
        InequalityCase("new_est_2_i", "1 <= I/sqrt(I_{6/5} I_{4/5}) <= e^(1/24)",
                       _AB, 3, lower=0.0, upper=1.0 / 24.0,
                       constants=(one, NamedConstant("upper", "e^(1/24)", EXP_1_24, 1.0425))),
        InequalityCase("new_est_2_z", "1 <= Z/sqrt(Z_{6/5} Z_{4/5}) <= e^(1/24)",
                       _AB, 4, lower=0.0, upper=1.0 / 24.0,
                       constants=(one, NamedConstant("upper", "e^(1/24)", EXP_1_24, 1.0425))),
        InequalityCase("new_est_3", "1 <= Z/(2A - G) <= 3/e",
                       _AB, 5, lower=0.0, upper=math.log(THREE_OVER_E),
                       constants=(one, NamedConstant("upper", "3/e", THREE_OVER_E, 1.1036))),
    ]


SLACK_COEFF = 1e-11
BLOCK = 256  # samples per stream block: the engine frames amortize, the memory stays flat


class _CaseTally(Tally):
    """One case's Tally, plus its report-only margin, observed log extremes
    and out-of-region violation count.  value, lower and upper index a
    sample's row; add() is the checker's hot loop, one loop per case over
    a block's rows, so it counts through the Tally's fields directly."""

    __slots__ = ("case", "asserted", "value", "lower", "upper", "report_margin",
                 "report_witness", "sup", "inf", "arg_sup", "out_of_region_violations")

    def __init__(self, case: InequalityCase):
        super().__init__()
        self.case, self.asserted = case, case.asserted
        self.report_margin = math.inf
        self.report_witness: Sample = {}
        self.sup, self.inf = -math.inf, math.inf
        self.arg_sup: Sample = {}
        self.out_of_region_violations = 0

    def place(self, at: int, width: int) -> tuple[float, float]:
        """Index a row of `width` constants and then the stream's tuple.

        Returns the case's constant bounds, which go at `at` and `at + 1`;
        an absent bound is -inf or inf, and a Slot bound reads the tuple.
        """
        case = self.case
        lower, upper = case.lower, case.upper
        self.value = width + case.slot
        self.lower = width + lower if isinstance(lower, Slot) else at
        self.upper = width + upper if isinstance(upper, Slot) else at + 1
        return (-math.inf if lower is None or isinstance(lower, Slot) else lower,
                math.inf if upper is None or isinstance(upper, Slot) else upper)

    def add(self, rows: list[tuple], samples: list[Sample], inside: list[bool]) -> None:
        """Count the case at a block's valid samples, in order, from their rows;
        inside holds each sample's region test."""
        value, lower, upper, asserted = self.value, self.lower, self.upper, self.asserted
        for row, s, in_region in zip(rows, samples, inside):
            val, lo, hi = row[value], row[lower], row[upper]
            below, above = val - lo, hi - val
            if below != below or above != above:  # NaN: a refused term or bound
                self.inconclusive += 1
                continue
            if val > self.sup:
                self.sup, self.arg_sup = val, dict(s)
            if val < self.inf:
                self.inf = val
            margin = below if below < above else above
            violated = margin < 0.0 and (below < -SLACK_COEFF * (1.0 + abs(val) + abs(lo))
                                         or above < -SLACK_COEFF * (1.0 + abs(val) + abs(hi)))
            if in_region and asserted:
                if margin < self.worst_margin:
                    self.worst_margin, self.worst_witness = margin, dict(s)
                if violated:
                    self.failed += 1
                else:
                    self.passed += 1
            else:
                self.passed += 1
                if violated:
                    self.out_of_region_violations += 1
                if margin < self.report_margin:
                    self.report_margin, self.report_witness = margin, dict(s)

    def result(self) -> tuple[CheckReport, SupremumRecord]:
        if self.worst_margin == math.inf:  # nothing asserted: report the report-only margin
            self.worst_margin, self.worst_witness = self.report_margin, self.report_witness
        notes = ""
        if self.out_of_region_violations:
            notes = f"report-only violations: {self.out_of_region_violations}"
        samples = self.passed + self.failed
        record = SupremumRecord(
            observed_sup=math.exp(self.sup) if samples else -math.inf,
            observed_inf=math.exp(self.inf),
            arg_sup=self.arg_sup,
            samples=samples,
        )
        return self.report(self.case.case_id, notes), record


def check_cases(cases: Sequence[InequalityCase], plan: SamplingPlan = SamplingPlan()
                ) -> list[tuple[CheckReport, SupremumRecord]]:
    """Evaluate cases on their streams' structured grids plus random samples.

    The cases of one stream are tallied in one pass over its samples: the
    grid, then plan.random_count draws from Random(plan.seed), taken BLOCK
    at a time.  Each sample is validated and its logs taken once, and the
    stream reads each mean term once per sample, as a column over the
    block's valid samples.  A sample fails a case when either bracket side
    is violated by more than SLACK_COEFF * (1 + |value| + |bound|) in log
    scale.  An invalid (a, b) makes the sample inconclusive for the whole
    stream; a NaN value or bound, that is a refused term, for the cases
    reading it.  The observed extremes are kept in log scale and
    exponentiated once.  Returns one (report, record) per case, in order,
    each as check_case gives it.
    """
    tallies = [_CaseTally(case) for case in cases]
    streams: dict[SampleStream, list[_CaseTally]] = {}
    for tally in tallies:
        streams.setdefault(tally.case.stream, []).append(tally)
    for stream, group in streams.items():
        # a sample's row: each case's two constant bounds, then the stream's tuple
        consts = sum((tally.place(2 * i, 2 * len(group)) for i, tally in enumerate(group)), ())
        draw, region = stream.draw, stream.region
        rng = random.Random(plan.seed)
        draws = (draw(rng, plan) for _ in range(plan.random_count))
        samples = itertools.chain(stream.grid(plan), draws)
        while block := list(itertools.islice(samples, BLOCK)):
            valid, ws, lnbs = [], [], []
            for s in block:
                try:
                    _check_point(s["a"], s["b"])
                    w, lnb = _logs(s)
                except ParMeansError:
                    for tally in group:
                        tally.undecided()
                    continue
                valid.append(s)
                ws.append(w)
                lnbs.append(lnb)
            valid, rows = _stream_rows(stream.values, group, valid, ws, lnbs)
            rows = [consts + row for row in rows]
            inside = [True] * len(valid) if region is None else [region(s) for s in valid]
            for tally in group:
                tally.add(rows, valid, inside)
    return [tally.result() for tally in tallies]


def _stream_rows(values: Callable[[list[Sample], list[float], list[float]], list[tuple]],
                 group: list[_CaseTally], samples: list[Sample], ws: list[float],
                 lnbs: list[float]) -> tuple[list[Sample], list[tuple]]:
    """(samples, rows) of a block of valid samples from a stream's values; a
    block that values refuses is read one sample at a time, and each sample it
    refuses alone is dropped and counted inconclusive for every case of the group."""
    try:
        return samples, values(samples, ws, lnbs)
    except ParMeansError:
        pass
    kept, rows = [], []
    for s, w, lnb in zip(samples, ws, lnbs):
        try:
            rows.append(values([s], [w], [lnb])[0])
        except ParMeansError:
            for tally in group:
                tally.undecided()
            continue
        kept.append(s)
    return kept, rows


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
     lambda s, w, lnb: _ln_M(_STOLARSKY, 1.0, 0.0, w, lnb),
     lambda s, w, lnb: _ln_M(_GINI, 1.0 / 3.0, 0.0, w, lnb)),
    ("I<=Z_1/3", _ln_plain_I, lambda s, w, lnb: _ln_M(_GINI, 1.0 / 3.0, 1.0 / 3.0, w, lnb), "le",
     lambda s, w, lnb: _ln_M(_STOLARSKY, 1.0, 1.0, w, lnb),
     lambda s, w, lnb: _ln_M(_GINI, 1.0 / 3.0, 1.0 / 3.0, w, lnb)),
    ("L<=He_1/2", _ln_L, lambda s, w, lnb: _ln_M(_HERONIAN2, 0.5, 0.0, w, lnb), "le",
     lambda s, w, lnb: _ln_M(_STOLARSKY, 1.0, 0.0, w, lnb),
     lambda s, w, lnb: _ln_M(_HERONIAN2, 0.5, 0.0, w, lnb)),
    ("I>=L_2", _ln_plain_I, lambda s, w, lnb: _ln_M(_STOLARSKY, 2.0, 0.0, w, lnb), "ge",
     lambda s, w, lnb: _ln_M(_IDENTRIC2, 1.0, 0.0, w, lnb),
     lambda s, w, lnb: _ln_M(_STOLARSKY, 2.0, 0.0, w, lnb)),
    ("Y>=I_2", lambda s, w, lnb: math.log(Y_mean(MeanPoint(s["a"], s["b"]))),
     lambda s, w, lnb: _ln_M(_STOLARSKY, 2.0, 2.0, w, lnb), "ge",
     lambda s, w, lnb: _ln_M(_IDENTRIC2, 1.0, 1.0, w, lnb),
     lambda s, w, lnb: _ln_M(_STOLARSKY, 2.0, 2.0, w, lnb)),
    ("Z>=A_2", lambda s, w, lnb: _ln_M(_GINI, 1.0, 1.0, w, lnb),
     lambda s, w, lnb: _ln_A(2.0, w, lnb), "ge",
     lambda s, w, lnb: _ln_M(_IDENTRIC2, 2.0, 1.0, w, lnb),
     lambda s, w, lnb: _ln_M(_STOLARSKY, 4.0, 2.0, w, lnb)),
    ("L<=He_1/2^4*A_1/3^-3", _ln_L,
     lambda s, w, lnb: 4.0 * _ln_M(_HERONIAN2, 0.5, 0.0, w, lnb) - 3.0 * _ln_A(1.0 / 3.0, w, lnb),
     "le", lambda s, w, lnb: _ln_M(_STOLARSKY, 1.0, 0.0, w, lnb),
     lambda s, w, lnb: (4.0 * _ln_M(_HERONIAN2, 0.5, 0.0, w, lnb)
                        - 3.0 * _ln_M(_GINI, 1.0 / 3.0, 0.0, w, lnb))),
    ("I<=A_2/5^5*He_1/2^-4", _ln_plain_I,
     lambda s, w, lnb: 5.0 * _ln_A(0.4, w, lnb) - 4.0 * _ln_M(_HERONIAN2, 0.5, 0.0, w, lnb),
     "le", lambda s, w, lnb: _ln_M(_IDENTRIC2, 1.0, 0.0, w, lnb),
     lambda s, w, lnb: (5.0 * _ln_M(_GINI, 0.4, 0.0, w, lnb)
                        - 4.0 * _ln_M(_HERONIAN2, 0.5, 0.0, w, lnb))),
    ("Z<=G_4/5,2/5^5*He_1,1/2^-4", lambda s, w, lnb: _ln_M(_GINI, 1.0, 1.0, w, lnb),
     lambda s, w, lnb: (5.0 * _ln_M(_GINI, 0.8, 0.4, w, lnb)
                        - 4.0 * _ln_M(_HERONIAN2, 1.0, 0.5, w, lnb)),
     "le", lambda s, w, lnb: _ln_M(_IDENTRIC2, 2.0, 1.0, w, lnb),
     lambda s, w, lnb: (5.0 * _ln_M(_GINI, 0.8, 0.4, w, lnb)
                        - 4.0 * _ln_M(_HERONIAN2, 1.0, 0.5, w, lnb))),
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
