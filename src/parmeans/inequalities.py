"""Catalog of the mean inequalities and the sampling checker.

Every case is stored in log scale: the scanned expression is
ln(lhs/rhs)-style, bracketed by optional lower/upper bound functions,
so the violation slack 1e-11 * (1 + |value| + |bound|) is scale free.
Generalized (r, s) cases are asserted only on the log-concavity region
r, s >= 0 with r + s > 0; samples outside it are scanned in report-only
mode.  The double-estimation case between 16 sqrt(2)/(9e) and 1 is
report-only as well: its bracket is recorded rather than enforced.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .convexity import CheckReport
from .core import (
    MeanPoint,
    Y_mean,
    _GINI,
    _HERONIAN2,
    _IDENTRIC2,
    _STOLARSKY,
    _check_point,
    _family_ln,
    _ln_power_mean,
    arithmetic_mean,
    geometric_mean,
    heronian_mean,
    ln_identric,
    log_mean,
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
        if self.random_count < 0:
            raise DomainError(f"SamplingPlan.random_count must be >= 0, got {self.random_count}")


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
    report_only: bool = False


# -- scalar helpers over a sample dict --------------------------------------

def _pt(s: Sample) -> MeanPoint:
    return MeanPoint(s["a"], s["b"])


# The two-parameter families and the power mean are read in log space
# straight from the core fast path; check_case validates (a, b) once.

def _ln_S(r: float, s_: float, s: Sample) -> float:
    return _family_ln(_STOLARSKY, r, s_, log_ratio(s["a"], s["b"]), math.log(s["b"]))[0]


def _ln_G(r: float, s_: float, s: Sample) -> float:
    return _family_ln(_GINI, r, s_, log_ratio(s["a"], s["b"]), math.log(s["b"]))[0]


def _ln_I2(r: float, s_: float, s: Sample) -> float:
    return _family_ln(_IDENTRIC2, r, s_, log_ratio(s["a"], s["b"]), math.log(s["b"]))[0]


def _ln_He2(r: float, s_: float, s: Sample) -> float:
    return _family_ln(_HERONIAN2, r, s_, log_ratio(s["a"], s["b"]), math.log(s["b"]))[0]


def _ln_A(t: float, s: Sample) -> float:
    return _ln_power_mean(t, s["a"], s["b"])


def _param_L(p: float, q: float) -> float:
    return log_mean(MeanPoint(p, q)) if p != q else p


# -- free-variable plans -----------------------------------------------------

def _b_grid(plan: SamplingPlan) -> list[float]:
    lo, hi = math.log(plan.b_low), math.log(plan.b_high)
    n = max(2, plan.grid_b_count)
    return [math.exp(lo + i * (hi - lo) / (n - 1)) for i in range(n)]


def _draw_b(rng: random.Random, plan: SamplingPlan) -> float:
    return math.exp(rng.uniform(math.log(plan.b_low), math.log(plan.b_high)))


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


def _double_draw(rng: random.Random, plan: SamplingPlan) -> Sample:
    return {
        "a": 1.0,
        "b": math.exp(rng.uniform(math.log(1.01), math.log(1e3))),
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
    return (alpha / _param_L(s["p1"], s["q1"])
            + beta / _param_L(s["p2"], s["q2"])
            - 1.0 / _param_L(pb, qb))


def _double_value(family_ln, s: Sample) -> float:
    alpha, beta, pb, qb = _blend(s)
    return (family_ln(pb, qb, s)
            - alpha * family_ln(s["p1"], s["q1"], s)
            - beta * family_ln(s["p2"], s["q2"], s))


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
            log_value=lambda s: _ln_S(s["r"], s["s"], s) - _ln_G(s["r"] / 3, s["s"] / 3, s),
            log_lower=None,
            log_upper=zero,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="gen_jia_cao",
            formula="S_{r,s} <= He_{r/2,s/2}",
            log_value=lambda s: _ln_S(s["r"], s["s"], s) - _ln_He2(s["r"] / 2, s["s"] / 2, s),
            log_lower=None,
            log_upper=zero,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="gen_sandor",
            formula="I_{r,s} >= S_{2r,2s}",
            log_value=lambda s: _ln_I2(s["r"], s["s"], s) - _ln_S(2 * s["r"], 2 * s["s"], s),
            log_lower=zero,
            log_upper=None,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="new_ineq_1",
            formula="S_{r,s} <= He_{r/2,s/2}^4 * G_{r/3,s/3}^-3",
            log_value=lambda s: (_ln_S(s["r"], s["s"], s)
                                 - 4.0 * _ln_He2(s["r"] / 2, s["s"] / 2, s)
                                 + 3.0 * _ln_G(s["r"] / 3, s["s"] / 3, s)),
            log_lower=None,
            log_upper=zero,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="new_ineq_2",
            formula="I_{r,s} <= G_{2r/5,2s/5}^5 * He_{r/2,s/2}^-4",
            log_value=lambda s: (_ln_I2(s["r"], s["s"], s)
                                 - 5.0 * _ln_G(2 * s["r"] / 5, 2 * s["s"] / 5, s)
                                 + 4.0 * _ln_He2(s["r"] / 2, s["s"] / 2, s)),
            log_lower=None,
            log_upper=zero,
            draw=_rs_draw,
            grid=_rs_grid,
            assert_in=_rs_assert,
        ),
        InequalityCase(
            case_id="stolarsky_double",
            formula="1 <= S_blend/(S1^a S2^b) <= exp(a/L1 + b/L2 - 1/Lb)",
            log_value=lambda s: _double_value(lambda p, q, ss: _ln_S(p, q, ss), s),
            log_lower=zero,
            log_upper=_double_upper,
            draw=_double_draw,
            grid=_double_grid,
        ),
        InequalityCase(
            case_id="gini_double",
            formula="1 <= G_blend/(G1^a G2^b) <= exp(a/L1 + b/L2 - 1/Lb)",
            log_value=lambda s: _double_value(lambda p, q, ss: _ln_G(p, q, ss), s),
            log_lower=zero,
            log_upper=_double_upper,
            draw=_double_draw,
            grid=_double_grid,
        ),
        InequalityCase(
            case_id="stolarsky_yang",
            formula="1 <= I/A_{2/3} <= sqrt(8)/e",
            log_value=lambda s: ln_identric(s["a"], s["b"]) - _ln_A(2.0 / 3.0, s),
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
            log_value=lambda s: _ln_A(2.0 / 3.0, s) - math.log(heronian_mean(_pt(s))),
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
            log_value=lambda s: (ln_identric(s["a"], s["b"])
                                 + 2.0 * math.log(heronian_mean(_pt(s)))
                                 - 3.0 * _ln_A(2.0 / 3.0, s)),
            log_lower=lambda s: math.log(LIN_JIA_CONST),
            log_upper=zero,
            draw=_ab_only_draw,
            grid=_ab_only_grid,
            constants=(
                NamedConstant("lower", "16*sqrt(2)/(9e)", LIN_JIA_CONST, 0.9249),
                NamedConstant("upper", "1", 1.0, 1.0),
            ),
            report_only=True,
        ),
        InequalityCase(
            case_id="new_est_2_i",
            formula="1 <= I/sqrt(I_{6/5} I_{4/5}) <= e^(1/24)",
            log_value=lambda s: (ln_identric(s["a"], s["b"])
                                 - 0.5 * (_ln_S(1.2, 1.2, s) + _ln_S(0.8, 0.8, s))),
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
            log_value=lambda s: (_ln_G(1.0, 1.0, s)
                                 - 0.5 * (_ln_G(1.2, 1.2, s) + _ln_G(0.8, 0.8, s))),
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
            log_value=lambda s: (_ln_G(1.0, 1.0, s)
                                 - math.log(2.0 * arithmetic_mean(_pt(s))
                                            - geometric_mean(_pt(s)))),
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


def check_case(case: InequalityCase, plan: SamplingPlan = SamplingPlan()
               ) -> tuple[CheckReport, SupremumRecord]:
    """Evaluate one case on its structured grid plus random samples.

    A sample fails when either bracket side is violated by more than
    SLACK_COEFF * (1 + |value| + |bound|) in log scale; invalid (a, b)
    and evaluator saturation make the sample inconclusive.  Deterministic
    in the seed.
    """
    rng = random.Random(plan.seed)
    samples = case.grid(plan)
    samples += [case.draw(rng, plan) for _ in range(plan.random_count)]

    total = passed = inconclusive = failed = 0
    worst_margin = math.inf
    worst_witness: Sample = {}
    report_margin = math.inf
    report_witness: Sample = {}
    sup, inf = -math.inf, math.inf
    arg_sup: Sample = {}
    out_of_region_violations = 0

    for s in samples:
        total += 1
        try:
            _check_point(s["a"], s["b"])
            val = case.log_value(s)
            lo = case.log_lower(s) if case.log_lower is not None else None
            hi = case.log_upper(s) if case.log_upper is not None else None
        except ParMeansError:
            inconclusive += 1
            continue
        ratio = math.exp(val)
        if ratio > sup:
            sup, arg_sup = ratio, dict(s)
        inf = min(inf, ratio)
        margin = math.inf
        violated = False
        if lo is not None:
            margin = min(margin, val - lo)
            violated |= val - lo < -SLACK_COEFF * (1.0 + abs(val) + abs(lo))
        if hi is not None:
            margin = min(margin, hi - val)
            violated |= hi - val < -SLACK_COEFF * (1.0 + abs(val) + abs(hi))
        if case.assert_in(s) and not case.report_only:
            if margin < worst_margin:
                worst_margin = margin
                worst_witness = dict(s)
            if violated:
                failed += 1
            else:
                passed += 1
        else:
            passed += 1
            if violated:
                out_of_region_violations += 1
            if margin < report_margin:
                report_margin = margin
                report_witness = dict(s)

    if not math.isfinite(worst_margin):
        worst_margin, worst_witness = report_margin, report_witness
    notes = ""
    if out_of_region_violations:
        notes = f"report-only violations: {out_of_region_violations}"
    report = CheckReport(
        case_id=case.case_id,
        total=total,
        passed=passed,
        inconclusive=inconclusive,
        failed=failed,
        worst_margin=worst_margin if math.isfinite(worst_margin) else 1e300,
        worst_witness=worst_witness,
        notes=notes,
    )
    record = SupremumRecord(
        observed_sup=sup,
        observed_inf=inf,
        arg_sup=arg_sup,
        samples=total - inconclusive,
    )
    return report, record


# -- named specializations ---------------------------------------------------

def _ln_L(s: Sample) -> float:
    return math.log(log_mean(_pt(s)))


def _ln_plain_I(s: Sample) -> float:
    return ln_identric(s["a"], s["b"])


_REDUCTIONS: list[tuple[str, Callable[[Sample], float], Callable[[Sample], float], str,
                        Callable[[Sample], float], Callable[[Sample], float]]] = [
    # (name, lhs, rhs, direction, general-case lhs, general-case rhs)
    ("L<=A_1/3", _ln_L, lambda s: _ln_A(1.0 / 3.0, s), "le",
     lambda s: _ln_S(1.0, 0.0, s), lambda s: _ln_G(1.0 / 3.0, 0.0, s)),
    ("I<=Z_1/3", _ln_plain_I, lambda s: _ln_G(1.0 / 3.0, 1.0 / 3.0, s), "le",
     lambda s: _ln_S(1.0, 1.0, s), lambda s: _ln_G(1.0 / 3.0, 1.0 / 3.0, s)),
    ("L<=He_1/2", _ln_L, lambda s: _ln_He2(0.5, 0.0, s), "le",
     lambda s: _ln_S(1.0, 0.0, s), lambda s: _ln_He2(0.5, 0.0, s)),
    ("I>=L_2", _ln_plain_I, lambda s: _ln_S(2.0, 0.0, s), "ge",
     lambda s: _ln_I2(1.0, 0.0, s), lambda s: _ln_S(2.0, 0.0, s)),
    ("Y>=I_2", lambda s: math.log(Y_mean(_pt(s))), lambda s: _ln_S(2.0, 2.0, s), "ge",
     lambda s: _ln_I2(1.0, 1.0, s), lambda s: _ln_S(2.0, 2.0, s)),
    ("Z>=A_2", lambda s: _ln_G(1.0, 1.0, s), lambda s: _ln_A(2.0, s), "ge",
     lambda s: _ln_I2(2.0, 1.0, s), lambda s: _ln_S(4.0, 2.0, s)),
    ("L<=He_1/2^4*A_1/3^-3", _ln_L,
     lambda s: 4.0 * _ln_He2(0.5, 0.0, s) - 3.0 * _ln_A(1.0 / 3.0, s), "le",
     lambda s: _ln_S(1.0, 0.0, s),
     lambda s: 4.0 * _ln_He2(0.5, 0.0, s) - 3.0 * _ln_G(1.0 / 3.0, 0.0, s)),
    ("I<=A_2/5^5*He_1/2^-4", _ln_plain_I,
     lambda s: 5.0 * _ln_A(0.4, s) - 4.0 * _ln_He2(0.5, 0.0, s), "le",
     lambda s: _ln_I2(1.0, 0.0, s),
     lambda s: 5.0 * _ln_G(0.4, 0.0, s) - 4.0 * _ln_He2(0.5, 0.0, s)),
    ("Z<=G_4/5,2/5^5*He_1,1/2^-4", lambda s: _ln_G(1.0, 1.0, s),
     lambda s: 5.0 * _ln_G(0.8, 0.4, s) - 4.0 * _ln_He2(1.0, 0.5, s), "le",
     lambda s: _ln_I2(2.0, 1.0, s),
     lambda s: 5.0 * _ln_G(0.8, 0.4, s) - 4.0 * _ln_He2(1.0, 0.5, s)),
]


def special_reductions_check(plan: SamplingPlan = SamplingPlan(grid_b_count=25)
                             ) -> CheckReport:
    """Verify each named specialization and its general-case agreement.

    For every (a, b) grid point: the inequality itself holds with the
    standard slack, and the specialized sides agree with the general
    inequality evaluated at its (r, s) to 1e-12 relative.
    """
    total = passed = failed = 0
    worst_margin = math.inf
    worst_witness: Sample = {}
    for name, lhs, rhs, direction, gen_lhs, gen_rhs in _REDUCTIONS:
        for sample in _ab_only_grid(plan):
            total += 1
            lv, rv = lhs(sample), rhs(sample)
            margin = (rv - lv) if direction == "le" else (lv - rv)
            slack = SLACK_COEFF * (1.0 + abs(lv) + abs(rv))
            agree = (abs(lv - gen_lhs(sample)) <= 1e-12 * (1.0 + abs(lv))
                     and abs(rv - gen_rhs(sample)) <= 1e-12 * (1.0 + abs(rv)))
            if margin < worst_margin:
                worst_margin = margin
                worst_witness = {"case": name, **sample}
            if margin >= -slack and agree:
                passed += 1
            else:
                failed += 1
                worst_witness = {"case": name, **sample, "agree": agree}
    return CheckReport(
        case_id="special_reductions",
        total=total,
        passed=passed,
        inconclusive=0,
        failed=failed,
        worst_margin=worst_margin,
        worst_witness=worst_witness,
        notes=f"{len(_REDUCTIONS)} named specializations",
    )
