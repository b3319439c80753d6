"""The three benchmark workloads: check_all, convexity_lab and eval_mix.

Each workload builds its inputs from the seed alone, then runs passes of
fixed size.  A pass returns its wall time, the latency of each item it
timed on its own, and an outcome that must repeat exactly on every pass
with the same seed.  The benchmark calls the library only through
module attributes (`core.stolarsky`, ...) so that a traced pass, which
rebinds those attributes, sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass

from parmeans import cli, convexity, core, errors, generators, hgf, inequalities, suites

from tracer import in_band

clock = time.perf_counter


@dataclass
class PassResult:
    wall_s: float
    item_s: list  # per-item latencies, seconds
    outcome: object  # compared across passes; must repeat exactly


# ---------------------------------------------------------------------------
# check_all: the full verification run a user of the paper's claims makes
# ---------------------------------------------------------------------------

# identity_suite: four relative checks of 1000 samples, the 400-sample
# reduction-table check and 9 named specializations on a 25-point b grid
IDENTITY_SAMPLES = 4 * 1000 + 400 + 9 * 25


class CheckAll:
    """`parmeans check --suite all --seed S --out FILE`, in-process.

    One item is one whole check run, so the item latencies equal the
    pass wall time here.
    """

    name = "check_all"

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.out = workdir / f"check_all-{seed}.json"
        self.argv = ["check", "--suite", "all", "--seed", str(seed), "--out", str(self.out)]

    def run_pass(self) -> PassResult:
        sink = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(sink):
            code = cli.main(self.argv)
        wall = clock() - start
        with open(self.out, encoding="utf-8") as handle:
            report = json.load(handle)
        self.out.unlink()
        report.pop("timestamp", None)
        return PassResult(wall, [wall], (code, report))

    def expected_total(self) -> int:
        plan = inequalities.SamplingPlan(seed=self.seed)
        grid = suites.DEFAULT_GRID
        pairs = sum(1 for p in grid for q in grid if abs(p - q) > 0.05)
        convexity_total = 5 * 2 * len(suites.DEFAULT_MEAN_POINTS) * pairs
        inequality_total = sum(len(case.grid(plan)) + plan.random_count
                               for case in inequalities.catalog())
        return convexity_total + inequality_total + IDENTITY_SAMPLES

    def problems(self, outcome) -> list[str]:
        code, report = outcome
        cases = report["cases"]
        out = []
        if code != 0:
            out.append(f"check exited with code {code}")
        failed = sum(c["failed"] for c in cases)
        if failed:
            out.append(f"{failed} samples failed")
        total, expected = sum(c["total"] for c in cases), self.expected_total()
        if total != expected:
            out.append(f"sample total {total} != plan-derived {expected}")
        return out

    def fail_frac(self, outcome) -> float:
        cases = outcome[1]["cases"]
        bad = sum(c["failed"] + c["inconclusive"] for c in cases)
        return bad / sum(c["total"] for c in cases)


# ---------------------------------------------------------------------------
# convexity_lab: dense Hessian scans plus individually timed hgf probes
# ---------------------------------------------------------------------------

SCAN_FAMILIES = ("stolarsky", "gini", "identric2", "heronian2", "hd")
SCAN_GRID = (0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0)
# The certification grid is fixed, as a user's scan plan is; the seed
# draws the hgf probe points.
SCAN_B = (1.5, 3.0, 10.0, 30.0, 100.0, 300.0)
# (r, s) of the Stolarsky generators probed besides the builtin ones: a
# positive pair, a negative pair, on which the oracle refuses some probes
# at large |t ln(b/a)|, and r = s.  Fixed, because the probe cost depends
# strongly on (r, s).
STOLARSKY_RS = ((2.0, 1.0), (-2.5, -2.0), (0.5, 0.5))
PROBES_PER_GENERATOR = 160
INTEGRAL_HESSIANS_PER_GENERATOR = 2
J_SAMPLES = 4
ORACLE_TOL = 1e-9
# The oracle's budget: the default 10000 subdivisions make a refusal cost
# seconds, which would swamp the pass.  Refusals count as inconclusive.
ORACLE_SUBDIVISIONS = 100


class ConvexityLab:
    """scan_convexity per (family, quadrant, b), then hgf probes per generator."""

    name = "convexity_lab"

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        self.specs = []
        for family in SCAN_FAMILIES:
            for region, sign in (("positive_quadrant", 1.0), ("negative_quadrant", -1.0)):
                grid = tuple(sign * v for v in SCAN_GRID)
                for b in SCAN_B:
                    self.specs.append(convexity.ScanSpec(
                        family=family, region=region, p_grid=grid, q_grid=grid,
                        mean_points=(core.MeanPoint(1.0, b),)))
        n_generators = len(generators.builtin_generators()) + len(STOLARSKY_RS)
        self.probes = [self._probes(rng) for _ in range(n_generators)]

    @staticmethod
    def _point(rng, hi=2.0):
        return core.MeanPoint(1.0, 10.0 ** rng.uniform(0.05, hi))

    def _probes(self, rng) -> dict:
        """Probe inputs for one generator.

        Parameters share a sign, so the D generator (no diagonal limit)
        never meets t = 0, and stay outside the midpoint band, where the
        closed form and the integral oracle agree to 1e-9.
        """
        def signed_pair():
            sign = rng.choice((-1.0, 1.0))
            while True:
                p, q = rng.uniform(0.1, 4.0), rng.uniform(0.1, 4.0)
                if abs(p - q) > 1e-2:
                    return core.ParamPair(sign * p, sign * q)

        t_points = [(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 4.0), self._point(rng, 3.0))
                    for _ in range(PROBES_PER_GENERATOR)]
        hf_points = [(signed_pair(), self._point(rng)) for _ in range(PROBES_PER_GENERATOR)]
        j_samples = [(rng.uniform(0.2, 3.0), self._point(rng)) for _ in range(J_SAMPLES)]
        ih_points = []
        for _ in range(INTEGRAL_HESSIANS_PER_GENERATOR):
            sign = rng.choice((-1.0, 1.0))
            ih_points.append((core.ParamPair(sign * rng.uniform(0.2, 3.0),
                                             sign * rng.uniform(0.2, 3.0)), self._point(rng)))
        return {"t": t_points, "hf": hf_points, "j": j_samples, "ih": ih_points}

    def _generators(self):
        # built inside the pass, so a traced pass counts the generator calls
        return generators.builtin_generators() + [
            generators.stolarsky_generator(r, s) for r, s in STOLARSKY_RS]

    def run_pass(self) -> PassResult:
        items = []
        reports = []
        values = []  # probe results, or the name of the ParMeansError a probe raised

        def probe(fn, *args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except errors.ParMeansError as exc:
                out = type(exc).__name__
            items.append(clock() - t0)
            return out

        start = clock()
        for spec in self.specs:
            reports.append(probe(convexity.scan_convexity, spec))
        for gen, points in zip(self._generators(), self.probes):
            for t, pt in points["t"]:
                der = probe(hgf.t_derivatives, gen, t, pt)
                values.append(("t_derivatives", getattr(der, "T3", der)))
            for pp, pt in points["hf"]:
                closed = probe(hgf.hf_eval, gen, pp, pt)
                oracle = probe(hgf.hf_integral_oracle, gen, pp, pt,
                               max_subdivisions=ORACLE_SUBDIVISIONS)
                values.append(("hf_eval", getattr(closed, "value", closed), oracle))
            reports.append(probe(convexity.j_criterion_probe, gen, points["j"]))
            for pp, pt in points["ih"]:
                values.append(("integral_hessian", probe(convexity.integral_hessian, gen, pp, pt)))
        wall = clock() - start
        verdicts = [(r.case_id, r.total, r.passed, r.inconclusive, r.failed, r.notes)
                    if isinstance(r, convexity.CheckReport) else r for r in reports]
        return PassResult(wall, items, (verdicts, values))

    def problems(self, outcome) -> list[str]:
        verdicts, values = outcome
        out = [f"scan refused: {v}" for v in verdicts if isinstance(v, str)]
        for value in values:
            if value[0] == "hf_eval" and not any(isinstance(v, str) for v in value[1:]):
                closed, oracle = value[1:]
                if not abs(closed - oracle) <= ORACLE_TOL * abs(oracle):
                    out.append(f"hf_eval {closed!r} vs integral oracle {oracle!r}")
        return out

    def fail_frac(self, outcome) -> float:
        """(failed + inconclusive) / total over verdicts; a refused probe is inconclusive."""
        verdicts, values = outcome
        reports = [v for v in verdicts if not isinstance(v, str)]
        bad = sum(inconclusive + failed for _, _, _, inconclusive, failed, _ in reports)
        total = sum(total for _, total, _, _, _, _ in reports)
        refused = sum(any(isinstance(v, str) for v in value[1:]) for value in values)
        return (bad + refused) / (total + len(values))


# ---------------------------------------------------------------------------
# eval_mix: a seeded stream of single public calls across the whole domain
# ---------------------------------------------------------------------------

def _ab_generic(rng):
    return 10.0 ** rng.uniform(-4.0, 4.0), 10.0 ** rng.uniform(-4.0, 4.0)


def _ab_near(rng):
    a = 10.0 ** rng.uniform(-4.0, 4.0)
    return a, a * (1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -3.0))


def _ab_diagonal(rng):
    a = 10.0 ** rng.uniform(-4.0, 4.0)
    return a, a


def _ab_extreme(rng):
    """Arguments near 1e+-300, up to the top of the float range."""
    return tuple(10.0 ** (rng.choice((-1.0, 1.0)) * rng.uniform(250.0, 307.5))
                 for _ in range(2))


def _ab_large_p(rng):
    a = 10.0 ** rng.uniform(-1.0, 1.0)
    return a, a * 10.0 ** rng.uniform(-1.0, 1.0)


def _pq_generic(rng):
    while True:
        p, q = rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)
        if abs(p - q) > 1e-3 and p != 0.0 and q != 0.0:
            return p, q


def _pq_band(rng):
    while True:
        m = rng.uniform(-4.0, 4.0)
        d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, -3.0)
        p, q = m + 0.5 * d, m - 0.5 * d
        if in_band(p, q):
            return p, q


def _pq_limit(rng):
    m = rng.uniform(-4.0, 4.0)
    if rng.random() < 0.5:
        return m, m
    d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -7.0)
    return m + 0.5 * d, m - 0.5 * d


def _pq_zero(rng):
    v = rng.uniform(-4.0, 4.0)
    return rng.choice(((0.0, v), (v, 0.0), (0.0, 0.0)))


def _pq_small(rng):
    return rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)


def _pq_large(rng):
    return tuple(rng.choice((-1.0, 1.0)) * rng.uniform(20.0, 300.0) for _ in range(2))


def _rs_generic(rng):
    while True:
        r, s = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        if abs(r - s) > 1e-3:
            return r, s


def _rs_near(rng):
    """r = s, r - s on the singular locus (swap branch), or in the (r, s) band."""
    r = rng.uniform(-3.0, 3.0)
    kind = rng.randrange(3)
    if kind == 0:
        return r, r
    exponent = rng.uniform(-12.0, -7.0) if kind == 1 else rng.uniform(-5.0, -3.0)
    return r, r + rng.choice((-1.0, 1.0)) * 10.0 ** exponent


def _two_param(module, name):
    def call(p, q, a, b):
        return getattr(module, name)(core.ParamPair(p, q), core.MeanPoint(a, b))
    call.__name__ = name
    return call


def _four_param(p, q, r, s, a, b):
    return core.four_param_F(core.ParamPair(p, q), core.GeneratorPair(r, s), core.MeanPoint(a, b))


def _one_shot(name):
    def call(a, b):
        return getattr(core, name)(core.MeanPoint(a, b))
    call.__name__ = name
    return call


def _power_mean(t, a, b):
    return core.power_mean(t, core.MeanPoint(a, b))


# stratum -> ((p, q) source, (a, b) source)
PQ_STRATA = {
    "generic": (_pq_generic, _ab_generic),
    "band": (_pq_band, _ab_generic),
    "limit": (_pq_limit, _ab_generic),
    "zero": (_pq_zero, _ab_generic),
    "diagonal": (_pq_generic, _ab_diagonal),
    "extreme": (_pq_small, _ab_extreme),
    "large_p": (_pq_large, _ab_large_p),
}
FAMILY_COUNTS = {"generic": 600, "band": 900, "limit": 450, "zero": 150, "diagonal": 100,
                 "extreme": 300, "large_p": 200}
FOUR_PARAM_COUNTS = {"generic": 600, "band": 600, "limit": 300, "zero": 150, "diagonal": 100,
                     "extreme": 300, "large_p": 150, "rs_near": 600}
# H_D is undefined at a = b and at zero parameters, so those strata are left out.
HD_COUNTS = {"generic": 600, "band": 600, "limit": 300, "extreme": 300, "large_p": 200}
AB_STRATA = {"generic": _ab_generic, "near": _ab_near, "diagonal": _ab_diagonal,
             "extreme": _ab_extreme}
ONE_SHOT_COUNTS = {"generic": 300, "near": 200, "diagonal": 50, "extreme": 250}
ONE_SHOT = ("arithmetic_mean", "geometric_mean", "log_mean", "identric_mean",
            "heronian_mean", "Y_mean", "power_exponential_Z")
# (t source, (a, b) source, count); the extreme slots keep the known
# power_mean overflow and zero-result inputs in the stream.
POWER_MEAN_SLOTS = (
    (lambda rng: rng.uniform(-6.0, 6.0), _ab_generic, 600),
    (lambda rng: 0.0, _ab_generic, 100),
    (lambda rng: rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -6.0), _ab_generic, 200),
    (lambda rng: rng.uniform(-6.0, 6.0), _ab_near, 200),
    (lambda rng: rng.uniform(-6.0, 6.0), _ab_diagonal, 50),
    (lambda rng: rng.uniform(-1.0, 1.0), _ab_extreme, 450),
)
# Every slot count above is multiplied by this, so that the share of each
# outcome category varies little between seeds.
STREAM_REPEAT = 3
# A mean strictly outside [min(a, b), max(a, b)] counts in fail_frac; one
# outside by more than this relative margin is a wrong result, not rounding.
MEAN_GROSS = 1e-9


class EvalMix:
    """A shuffled stream of fixed composition: every (function, stratum) slot
    has a fixed count per pass, so only the drawn values depend on the seed."""

    name = "eval_mix"

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        calls = []  # (function, args, a, b, is_mean)
        for name in ("stolarsky", "gini", "two_param_identric", "two_param_heronian"):
            fn = _two_param(core, name)
            for stratum, count in FAMILY_COUNTS.items():
                pq, ab = PQ_STRATA[stratum]
                for _ in range(count * STREAM_REPEAT):
                    a, b = ab(rng)
                    calls.append((fn, (*pq(rng), a, b), a, b, True))
        for stratum, count in FOUR_PARAM_COUNTS.items():
            pq, ab = PQ_STRATA["generic" if stratum == "rs_near" else stratum]
            rs = _rs_near if stratum == "rs_near" else _rs_generic
            for _ in range(count * STREAM_REPEAT):
                a, b = ab(rng)
                calls.append((_four_param, (*pq(rng), *rs(rng), a, b), a, b, True))
        hd = _two_param(hgf, "hd_eval")
        for stratum, count in HD_COUNTS.items():
            pq, ab = PQ_STRATA[stratum]
            for _ in range(count * STREAM_REPEAT):
                a, b = ab(rng)
                calls.append((hd, (*pq(rng), a, b), a, b, False))
        for name in ONE_SHOT:
            fn = _one_shot(name)
            for stratum, count in ONE_SHOT_COUNTS.items():
                for _ in range(count * STREAM_REPEAT):
                    a, b = AB_STRATA[stratum](rng)
                    calls.append((fn, (a, b), a, b, True))
        for t_source, ab, count in POWER_MEAN_SLOTS:
            for _ in range(count * STREAM_REPEAT):
                a, b = ab(rng)
                calls.append((_power_mean, (t_source(rng), a, b), a, b, True))
        rng.shuffle(calls)
        self.calls = calls
        self.stream = [(fn, args) for fn, args, _, _, _ in calls]

    def run_pass(self) -> PassResult:
        items = []
        results = []
        start = clock()
        for fn, args in self.stream:
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # every outcome is classified after the pass
                out = exc
            items.append(clock() - t0)
            results.append(out)
        wall = clock() - start
        return PassResult(wall, items, [self._classify(call, out)
                                        for call, out in zip(self.calls, results)])

    @staticmethod
    def _classify(call, out) -> tuple:
        _, _, a, b, is_mean = call
        if isinstance(out, errors.ParMeansError):
            return ("refused", type(out).__name__)
        if isinstance(out, Exception):
            return ("foreign", type(out).__name__)
        value = out.value if isinstance(out, core.EvalResult) else out
        if not (math.isfinite(value) and value > 0.0):
            return ("nonfinite", value.hex())
        if is_mean and not min(a, b) <= value <= max(a, b):
            return ("outside", value.hex())
        return ("ok", value.hex())

    def categories(self, outcome) -> Counter:
        """Outcome counts; refusals and foreign errors split by exception type."""
        return Counter(f"{kind}:{value}" if kind in ("refused", "foreign") else kind
                       for kind, value in outcome)

    def problems(self, outcome) -> list[str]:
        out = []
        for (fn, args, a, b, _), (kind, value) in zip(self.calls, outcome):
            if kind == "outside":
                v = float.fromhex(value)
                if not min(a, b) * (1.0 - MEAN_GROSS) <= v <= max(a, b) * (1.0 + MEAN_GROSS):
                    out.append(f"{fn.__name__}{args} = {v!r} is outside [min(a,b), max(a,b)]")
        return out

    def fail_frac(self, outcome) -> float:
        return sum(kind != "ok" for kind, _ in outcome) / len(outcome)


WORKLOADS = {w.name: w for w in (CheckAll, ConvexityLab, EvalMix)}
