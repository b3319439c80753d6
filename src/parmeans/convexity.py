"""Numerical certification of bivariate log-convexity in the parameter pair.

Three routes are provided and cross-checked against each other:

  * hessian_logF: central second differences of (p, q) -> ln M with one
    Richardson halving, classified against a sign tolerance;
  * midpoint_test: the defining Jensen inequality, reported as the
    defect margin alpha ln M1 + beta ln M2 - ln M(blend), so margins
    <= 0 are consistent with log-concavity and >= 0 with log-convexity;
  * integral_hessian: quadrature of the t^2/(1-t)^2/t(1-t) weighted
    T''' integrals behind the second-derivative criterion; the three
    weights share the rule's nodes, so T''' is evaluated once per node.

scan_convexity drives the Hessian route over parameter grids with the
expected verdict derived once from the r + s sign rule.  One stencil
serves every family: for the kernel-pair families (stolarsky, gini,
identric2, heronian2) it reads ln M from the core log path with the
point's logs taken once, for hd and four_param it goes through
hessian_logF and the public evaluator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    EvalResult,
    GeneratorPair,
    MeanPoint,
    ParamPair,
    _FAMILY_KERNELS,
    _family_ln,
    family_evaluator,
    family_generator_pair,
)
from .errors import DomainError, ParMeansError
from .generators import GeneratorFunction
from .hgf import _t1_t3, t_derivatives
from .quadrature import integrate_fixed
from .stable import log_ratio

_EPS = 2.0 ** -52

VERDICT_CONVEX = "convex"
VERDICT_CONCAVE = "concave"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_INDEFINITE = "indefinite"


@dataclass(frozen=True)
class HessianConfig:
    step_scale: float = _EPS ** 0.25
    sign_tol: float = 1e-7
    richardson: bool = True


@dataclass(frozen=True)
class HessianReport:
    d2_pp: float
    d2_qq: float
    d2_pq: float
    delta: float
    verdict: str
    step_used: float
    mixed_spread: float  # |difference of the two mixed-difference estimates|

    @staticmethod
    def classify(d2_pp: float, delta: float, tol: float) -> str:
        if abs(d2_pp) <= tol or abs(delta) <= tol:
            return VERDICT_INCONCLUSIVE
        if delta > tol:
            return VERDICT_CONVEX if d2_pp > tol else VERDICT_CONCAVE
        return VERDICT_INDEFINITE


@dataclass(frozen=True)
class ScanSpec:
    """Grid scan plan for one family and one open quadrant."""

    family: str  # stolarsky | gini | identric2 | heronian2 | four_param | hd
    region: str  # positive_quadrant | negative_quadrant
    p_grid: tuple[float, ...]
    q_grid: tuple[float, ...]
    mean_points: tuple[MeanPoint, ...]
    gen: Optional[GeneratorPair] = None
    exclusion_band: float = 0.05
    sign_tol: float = 1e-7
    step_scale: float = _EPS ** 0.25

    def __post_init__(self):
        if self.region not in ("positive_quadrant", "negative_quadrant"):
            raise DomainError(f"unknown region {self.region!r}")
        sign = 1.0 if self.region == "positive_quadrant" else -1.0
        for axis, grid in (("p", self.p_grid), ("q", self.q_grid)):
            for v in grid:
                if sign * v <= 0.0:
                    raise DomainError(f"{axis}-grid value {v} outside the open {self.region}")
                if abs(v) <= self.exclusion_band:
                    raise DomainError(f"{axis}-grid value {v} inside the exclusion band")
        if self.family == "four_param" and self.gen is None:
            raise DomainError("four_param scans need a GeneratorPair")


@dataclass(frozen=True)
class CheckReport:
    """Pass/fail tally for one scan or inequality case."""

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


def hessian_logF(
    evaluator: Callable[[ParamPair, MeanPoint], EvalResult],
    pp: ParamPair,
    pt: MeanPoint,
    cfg: HessianConfig = HessianConfig(),
) -> HessianReport:
    """Finite-difference Hessian of (p, q) -> ln M(p, q; a, b).

    The caller keeps (p, q) away from the singular loci by more than the
    step so the differences never straddle a branch switch.
    """
    return _hessian(lambda P, Q: math.log(evaluator(ParamPair(P, Q), pt).value),
                    pp.p, pp.q, cfg)


def _hessian(phi: Callable[[float, float], float], p: float, q: float,
             cfg: HessianConfig) -> HessianReport:
    """The Hessian stencil of hessian_logF over any (P, Q) -> ln M."""
    hp = cfg.step_scale * (1.0 + abs(p))
    hq = cfg.step_scale * (1.0 + abs(q))
    f0 = phi(p, q)

    def dpp(h: float) -> float:
        return (phi(p + h, q) - 2.0 * f0 + phi(p - h, q)) / (h * h)

    def dqq(h: float) -> float:
        return (phi(p, q + h) - 2.0 * f0 + phi(p, q - h)) / (h * h)

    def dpq(h1: float, h2: float) -> tuple[float, float]:
        A = phi(p + h1, q + h2)
        B = phi(p + h1, q - h2)
        C = phi(p - h1, q + h2)
        D = phi(p - h1, q - h2)
        # the same stencil associated in the two mixed orders
        return ((A - B) - (C - D)) / (4.0 * h1 * h2), ((A - C) - (B - D)) / (4.0 * h1 * h2)

    if cfg.richardson:
        d2_pp = (4.0 * dpp(0.5 * hp) - dpp(hp)) / 3.0
        d2_qq = (4.0 * dqq(0.5 * hq) - dqq(hq)) / 3.0
        m1a, m1b = dpq(hp, hq)
        m2a, m2b = dpq(0.5 * hp, 0.5 * hq)
        d2_pq = (4.0 * 0.5 * (m2a + m2b) - 0.5 * (m1a + m1b)) / 3.0
        spread = abs(m2a - m2b)
    else:
        d2_pp = dpp(hp)
        d2_qq = dqq(hq)
        m1a, m1b = dpq(hp, hq)
        d2_pq = 0.5 * (m1a + m1b)
        spread = abs(m1a - m1b)

    delta = d2_pp * d2_qq - d2_pq * d2_pq
    tol = cfg.sign_tol * (abs(f0) + 1.0)
    verdict = HessianReport.classify(d2_pp, delta, tol)
    return HessianReport(d2_pp, d2_qq, d2_pq, delta, verdict, hp, spread)


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

# H_D: log-convex on the positive quadrant; the negative quadrant verdict
# is recorded, not asserted (the source statement conflicts with the
# J-sign criterion there, which predicts concave).
HD_VERDICTS: dict[str, Optional[str]] = {
    "positive_quadrant": VERDICT_CONVEX,
    "negative_quadrant": None,
}


def expected_verdict(spec: ScanSpec) -> Optional[str]:
    if spec.family == "hd":
        return HD_VERDICTS[spec.region]
    gen = spec.gen if spec.family == "four_param" else family_generator_pair(spec.family)
    rs = gen.r + gen.s
    if rs == 0.0:
        return None
    return RS_SIGN_VERDICTS[(1 if rs > 0.0 else -1, spec.region)]


def _kernel_ln(kernels: tuple, pt: MeanPoint) -> Callable[[float, float], float]:
    """(P, Q) -> ln M at pt from the core kernel path, logs taken once.

    Raises SaturationError exactly where the public evaluator does.
    """
    w, lnb = log_ratio(pt.a, pt.b), math.log(pt.b)
    return lambda P, Q: _family_ln(kernels, P, Q, w, lnb)[0]


def scan_convexity(spec: ScanSpec) -> CheckReport:
    """Hessian scan over the grid; deterministic given the spec.

    The kernel-pair families read the stencil's ln M straight from the
    core log path; hd and four_param go through hessian_logF and the
    public evaluator.  Every grid point is still evaluated once through
    the public evaluator, which sets the margin scale.
    """
    sign = 1.0 if spec.region == "positive_quadrant" else -1.0
    expect = expected_verdict(spec)
    cfg = HessianConfig(step_scale=spec.step_scale, sign_tol=spec.sign_tol)
    ev = family_evaluator(spec.family, spec.gen)
    kernels = _FAMILY_KERNELS.get(spec.family)

    total = passed = inconclusive = failed = 0
    worst_margin = math.inf
    worst_witness: dict = {}
    observed: dict[str, int] = {}
    skipped = 0
    for pt in spec.mean_points:
        # the public diagonal shortcut M = a has no kernel-path twin
        phi = _kernel_ln(kernels, pt) if kernels is not None and pt.a != pt.b else None
        for p in spec.p_grid:
            for q in spec.q_grid:
                if abs(p - q) <= spec.exclusion_band:
                    skipped += 1
                    continue
                total += 1
                pq = ParamPair(sign * abs(p), sign * abs(q))
                try:
                    if phi is None:
                        rep = hessian_logF(ev, pq, pt, cfg)
                    else:
                        rep = _hessian(phi, pq.p, pq.q, cfg)
                except ParMeansError as exc:
                    failed += 1
                    worst_margin = -1e300
                    worst_witness = {"a": pt.a, "b": pt.b, "p": pq.p, "q": pq.q,
                                     "error": str(exc)}
                    continue
                observed[rep.verdict] = observed.get(rep.verdict, 0) + 1
                if expect is None:
                    passed += 1
                    continue
                tol = spec.sign_tol * (1.0 + abs(math.log(ev(pq, pt).value)))
                directional = rep.d2_pp if expect == VERDICT_CONVEX else -rep.d2_pp
                margin = min(directional, rep.delta) / tol
                if margin < worst_margin:
                    worst_margin = margin
                    worst_witness = {"a": pt.a, "b": pt.b, "p": pq.p, "q": pq.q,
                                     "d2_pp": rep.d2_pp, "delta": rep.delta,
                                     "verdict": rep.verdict}
                if rep.verdict == expect:
                    passed += 1
                elif rep.verdict == VERDICT_INCONCLUSIVE:
                    inconclusive += 1
                else:
                    failed += 1
    notes = f"observed={observed}; skipped_near_diagonal={skipped}"
    if expect is None:
        dominant = max(observed, key=observed.get) if observed else "none"
        notes += f"; expected=recorded-only; dominant={dominant}"
        if spec.family == "hd" and spec.region == "negative_quadrant" \
                and dominant != VERDICT_CONVEX:
            notes += "; flags: observed verdict contradicts the stated negative-quadrant claim"
    return CheckReport(
        case_id=f"convexity[{spec.family},{spec.region}]",
        total=total,
        passed=passed,
        inconclusive=inconclusive,
        failed=failed,
        worst_margin=worst_margin if math.isfinite(worst_margin) else 1e300,
        worst_witness=worst_witness,
        notes=notes,
    )


def j_criterion_probe(
    f: GeneratorFunction,
    samples: Sequence[tuple[float, MeanPoint]],
    dead_zone: float = 1e-8,
    hessian_grid: Sequence[float] = (0.5, 1.0, 2.0),
    mean_point: MeanPoint = MeanPoint(1.0, 3.0),
) -> CheckReport:
    """Check the J-sign criterion against positive-quadrant Hessian verdicts.

    J is computed at each (t, point) sample; if its sign is constant, the
    positive-quadrant Hessian verdicts of H_f must match: J < 0 implies
    log-convex there, J > 0 log-concave.
    """
    from .hgf import hf_eval  # local import to avoid a cycle at module load

    signs = set()
    inconclusive = 0
    j_values = []
    for t, pt in samples:
        der = t_derivatives(f, t, pt)
        j_values.append(der.J_val)
        if abs(der.J_val) <= dead_zone:
            inconclusive += 1
        else:
            signs.add(1 if der.J_val > 0.0 else -1)

    total = len(samples)
    passed = total - inconclusive
    failed = 0
    worst = math.inf
    witness: dict = {}
    notes = f"J signs observed: {sorted(signs)}"
    if len(signs) != 1:
        return CheckReport(
            case_id=f"j_criterion[{f.label}]",
            total=total, passed=passed, inconclusive=inconclusive, failed=0,
            worst_margin=min(abs(j) for j in j_values),
            worst_witness={}, notes=notes + "; no constant sign, implication vacuous",
        )

    sigma = signs.pop()
    expect = VERDICT_CONVEX if sigma < 0 else VERDICT_CONCAVE
    ev = lambda pp, pt: hf_eval(f, pp, pt)
    for p in hessian_grid:
        for q in hessian_grid:
            if abs(p - q) <= 0.05:
                continue
            total += 1
            rep = hessian_logF(ev, ParamPair(p, q), mean_point)
            directional = rep.d2_pp if expect == VERDICT_CONVEX else -rep.d2_pp
            worst = min(worst, min(directional, rep.delta))
            if rep.verdict == expect:
                passed += 1
            elif rep.verdict == VERDICT_INCONCLUSIVE:
                inconclusive += 1
            else:
                failed += 1
                witness = {"p": p, "q": q, "verdict": rep.verdict, "expected": expect}
    return CheckReport(
        case_id=f"j_criterion[{f.label}]",
        total=total, passed=passed, inconclusive=inconclusive, failed=failed,
        worst_margin=worst if math.isfinite(worst) else 1e300,
        worst_witness=witness,
        notes=notes + f"; expected quadrant verdict {expect}",
    )


def integral_hessian(
    f: GeneratorFunction,
    pp: ParamPair,
    pt: MeanPoint,
    panels: int = 4,
) -> tuple[float, float, float, float]:
    """Hessian entries from the weighted T''' integral representation.

    Returns (d2_pp, d2_qq, d2_pq, delta).  The integrand carries
    finite-difference noise from T''', so a fixed composite rule is used
    (adaptive refinement would chase the noise floor); serves as a
    structural cross-check of the difference Hessian.
    """
    p, q = pp.p, pp.q
    # the three weights share the fixed rule's nodes: T''' once per node
    t3_at: dict[float, float] = {}

    def t3(u: float) -> float:
        if u not in t3_at:
            t3_at[u] = _t1_t3(f, u, pt)[1]
        return t3_at[u]

    def seg(weight: Callable[[float], float]) -> float:
        return integrate_fixed(
            lambda t: weight(t) * t3(t * p + (1.0 - t) * q), 0.0, 1.0, panels,
        ).value

    d2_pp = seg(lambda t: t * t)
    d2_qq = seg(lambda t: (1.0 - t) * (1.0 - t))
    d2_pq = seg(lambda t: t * (1.0 - t))
    return d2_pp, d2_qq, d2_pq, d2_pp * d2_qq - d2_pq * d2_pq


def random_blend_margins(
    family: str,
    region_sign: float,
    count: int,
    seed: int,
    gen: Optional[GeneratorPair] = None,
    pt: MeanPoint = MeanPoint(1.0, 4.0),
    low: float = 0.05,
    high: float = 4.0,
) -> list[float]:
    """Deterministic random Jensen defects for one family on one quadrant."""
    rng = random.Random(seed)
    ev = family_evaluator(family, gen)
    margins = []
    for _ in range(count):
        p1 = ParamPair(region_sign * rng.uniform(low, high), region_sign * rng.uniform(low, high))
        p2 = ParamPair(region_sign * rng.uniform(low, high), region_sign * rng.uniform(low, high))
        alpha = rng.uniform(0.0, 1.0)
        margins.append(midpoint_test(ev, p1, p2, (alpha, 1.0 - alpha), pt))
    return margins
