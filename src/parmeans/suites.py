"""Prebuilt check suites driven by the CLI and the acceptance tests.

Every suite returns a list of CheckReports and is deterministic in its
seed; sampling domains stay clear of the band |p - q| <= 1e-3, so the
identity checks compare the plain closed-form quotients (the band rule
is tested against mpmath on its own, see core).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

from .convexity import CheckReport, ScanSpec, Tally, scan_convexity
from .core import (
    GeneratorPair,
    MeanPoint,
    ParamPair,
    Y_mean,
    family_evaluator,
    four_param_F,
    gini,
    identric_mean,
    log_mean,
    power_exponential_Z,
    reduction_table,
    stolarsky,
    two_param_identric,
)
from .errors import ParMeansError
from .hgf import hd_eval
from .inequalities import SamplingPlan, catalog, check_cases, special_reductions_check

DEFAULT_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
# Defaults keep every single-family scan comfortably under the 5%
# inconclusive budget: ratios below ~2 give near-flat log-surfaces and
# ratios above ~10^2 push large parameter pairs into saturation, both of
# which turn honest verdicts inconclusive.
DEFAULT_MEAN_POINTS = (MeanPoint(1.0, 3.0), MeanPoint(1.0, 10.0), MeanPoint(1.0, 100.0))


def _relative_check(case_id: str, samples, lhs, rhs, tol: float) -> CheckReport:
    """Equality check |lhs/rhs - 1| <= tol; margin is tol minus deviation.

    A ParMeansError makes the sample inconclusive; any other exception
    fails it, with the error in the witness.
    """
    tally = Tally()
    for s in samples:
        try:
            dev = abs(lhs(s) / rhs(s) - 1.0)
        except ParMeansError:
            tally.undecided()
            continue
        except Exception as exc:  # a foreign exception fails this sample, not the suite
            tally.error(exc, s)
            continue
        tally.margin(tol - dev, s)
        tally.count(dev <= tol)
    return tally.report(case_id, f"tolerance {tol:g}")


def _positive_pairs(rng: random.Random, count: int, low=0.1, high=4.0):
    """(p, q) pairs clear of the p = q midpoint band."""
    out = []
    while len(out) < count:
        p = rng.uniform(low, high)
        q = rng.uniform(low, high)
        if abs(p - q) > 1e-3 * (1.0 + p + q):
            out.append((p, q))
    return out


def identity_suite(count: int = 1000, seed: int = 0) -> list[CheckReport]:
    """The exact-relation checks tying the families together."""
    rng = random.Random(seed)
    pairs = _positive_pairs(rng, count)
    points = [MeanPoint(1.0, math.exp(rng.uniform(math.log(1.1), math.log(50.0))))
              for _ in range(count)]
    samples = [{"p": p, "q": q, "a": pt.a, "b": pt.b}
               for (p, q), pt in zip(pairs, points)]

    def hd_val(s):
        return hd_eval(ParamPair(s["p"], s["q"]), MeanPoint(s["a"], s["b"])).value

    def e_over_L_times_S(s):
        ell = log_mean(MeanPoint(s["p"], s["q"]))
        return math.exp(1.0 / ell) * stolarsky(
            ParamPair(s["p"], s["q"]), MeanPoint(s["a"], s["b"])).value

    def hd_gini_product(s):
        pp = ParamPair(s["p"], s["q"])
        pt = MeanPoint(s["a"], s["b"])
        return hd_eval(pp, pt).value * gini(pp, pt).value

    def hd_doubled_square(s):
        pt = MeanPoint(s["a"], s["b"])
        v = hd_eval(ParamPair(2.0 * s["p"], 2.0 * s["q"]), pt).value
        return v * v

    ab_samples = [{"a": rng.uniform(0.2, 20.0), "b": rng.uniform(0.2, 20.0)}
                  for _ in range(count)]
    ab_samples = [s for s in ab_samples if s["a"] != s["b"]]

    def z_lhs(s):
        pt = MeanPoint(s["a"], s["b"])
        return identric_mean(MeanPoint(s["a"] ** 2, s["b"] ** 2)) / identric_mean(pt)

    def z_rhs(s):
        return power_exponential_Z(MeanPoint(s["a"], s["b"]))

    y_samples = [{"p": rng.uniform(0.2, 3.0), "a": 1.0,
                  "b": math.exp(rng.uniform(math.log(1.1), math.log(20.0)))}
                 for _ in range(count)]

    def y_branch(s):
        return two_param_identric(ParamPair(s["p"], s["p"]),
                                  MeanPoint(s["a"], s["b"])).value

    def y_composite(s):
        p = s["p"]
        return Y_mean(MeanPoint(s["a"] ** p, s["b"] ** p)) ** (1.0 / p)

    reports = [
        _relative_check("identity[hd=e^(1/L)*S]", samples, hd_val, e_over_L_times_S, 1e-12),
        _relative_check("identity[hd*gini=hd(2p,2q)^2]", samples,
                        hd_gini_product, hd_doubled_square, 1e-12),
        _relative_check("identity[I(a^2,b^2)/I=Z]", ab_samples, z_lhs, z_rhs, 1e-13),
        _relative_check("identity[I_pp=Y^(1/p)]", y_samples, y_branch, y_composite, 1e-12),
        reduction_consistency_check(count=min(count, 400), seed=seed + 1),
        special_reductions_check(),
    ]
    return reports


def reduction_consistency_check(count: int = 400, seed: int = 1) -> CheckReport:
    """four_param_F against the direct family evaluator wherever the table fires.

    A ParMeansError makes the sample inconclusive; any other exception
    fails it, with the error in the witness.
    """
    rng = random.Random(seed)
    tally = Tally()
    patterns = ("p_2p", "p_0", "0_q", "p_p", "p_3p", "3q_q")
    while tally.total < count:
        r = rng.uniform(-2.5, 2.5)
        s = rng.uniform(-2.5, 2.5)
        if abs(r - s) < 0.05 or abs(r) < 0.05 or abs(s) < 0.05:
            continue
        p = rng.uniform(0.1, 2.0) * rng.choice((-1.0, 1.0))
        pattern = patterns[tally.total % len(patterns)]
        pp = {
            "p_2p": ParamPair(p, 2.0 * p),
            "p_0": ParamPair(p, 0.0),
            "0_q": ParamPair(0.0, p),
            "p_p": ParamPair(p, p),
            "p_3p": ParamPair(p, 3.0 * p),
            "3q_q": ParamPair(3.0 * p, p),
        }[pattern]
        gp = GeneratorPair(r, s)
        pt = MeanPoint(1.0, math.exp(rng.uniform(math.log(1.2), math.log(20.0))))
        tag = reduction_table(pp, gp)
        where = {"pattern": pattern, "p": pp.p, "q": pp.q, "r": r, "s": s}
        if tag is None:
            tally.error(ParMeansError("reduction table did not fire"), where)
            continue
        sample = {**where, "b": pt.b, "tag": tag.family}
        try:
            direct = family_evaluator(tag.family)(ParamPair(tag.p, tag.q), pt).value
            f_val = four_param_F(pp, gp, pt).value
            dev = abs(f_val / direct - 1.0)
        except ParMeansError:
            tally.undecided()
            continue
        except Exception as exc:  # a foreign exception fails this sample, not the suite
            tally.error(exc, sample)
            continue
        tally.margin(1e-10 - dev, {**sample, "dev": dev})
        tally.count(dev <= 1e-10)
    return tally.report("identity[reduction_table]", "tolerance 1e-10")


def convexity_suite(
    families: tuple[str, ...] = ("stolarsky", "gini", "identric2", "heronian2", "hd"),
    regions: tuple[str, ...] = ("positive_quadrant", "negative_quadrant"),
) -> list[CheckReport]:
    """One scan per family and region over DEFAULT_GRID at DEFAULT_MEAN_POINTS."""
    reports = []
    for family in families:
        for region in regions:
            sign = -1.0 if region == "negative_quadrant" else 1.0
            grid = tuple(sign * v for v in DEFAULT_GRID)
            spec = ScanSpec(family=family, region=region, p_grid=grid, q_grid=grid,
                            mean_points=DEFAULT_MEAN_POINTS)
            reports.append(scan_convexity(spec))
    return reports


def inequality_suite(plan: SamplingPlan = SamplingPlan()) -> list[CheckReport]:
    """The thirteen catalog cases, one report each."""
    reports = []
    for report, record in check_cases(catalog(), plan):
        notes = (report.notes + "; " if report.notes else "") + \
            f"observed range [{record.observed_inf:.12g}, {record.observed_sup:.12g}]"
        reports.append(replace(report, notes=notes))
    return reports


def full_suite(seed: int = 0, plan: SamplingPlan | None = None) -> list[CheckReport]:
    plan = plan or SamplingPlan(seed=seed)
    return (convexity_suite()
            + inequality_suite(plan)
            + identity_suite(seed=seed))
