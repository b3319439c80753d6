"""Benchmark for parmeans: one process, one thread, closed loop, one caller.

    python3 bench/run.py --workload check_all --seed 0 --seconds 20 --trace 0

Run it from a checkout of the repository; the package is imported from
that checkout's src/ directory.  The workloads (see bench/README.md):

  check_all      parmeans check --suite all, in-process
  convexity_lab  dense scan_convexity grids plus individually timed hgf probes
  eval_mix       a seeded stream of single public evaluator calls

After one untimed warm-up pass, --trace 0 times untraced passes for
--seconds and reports the end-to-end metrics.  --trace 1 times untraced
passes for half of --seconds and traced passes for the other half, and
reports the per-layer metrics.  The last line of stdout is the JSON
result.  If an output check fails, the result says "correct": false and
the exit code is 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(Path(__file__).resolve().parent))

SETUP_REPEATS = 11
# A shared VM's speed can drift by 20% over tens of seconds, alike for all
# pure-Python code (seen on a 2-core Xeon VM).  Each pass's times are scaled
# by REFERENCE_S over the time of a fixed loop that never touches
# parmeans, run before and after the pass: times read in seconds on a
# machine where that loop takes REFERENCE_S.  The raw times are kept in
# the result file.
REFERENCE_S = 0.01
REFERENCE_ITERATIONS = 40_000
# max_err_ratio is taken over a fixed set of calls, drawn from each
# workload's own input domain with this seed: a maximum over calls drawn
# with the run's seed varied a hundredfold between seeds.
ACCURACY_SEED = 20140808
ACCURACY_CALLS = 2000
SETUP_CODE = ("import sys, time\n"
              "start = time.perf_counter()\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import parmeans\n"
              "parmeans.catalog()\n"
              "parmeans.builtin_generators()\n"
              "print(time.perf_counter() - start)\n")


def import_package():
    """Import parmeans from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import parmeans

    if Path(parmeans.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"parmeans imported from {parmeans.__file__}, not from {SRC}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": git_commit(), "cpu_model": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg())}


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python float loop (no parmeans code)."""
    start = time.perf_counter()
    total = 0.0
    for i in range(1, REFERENCE_ITERATIONS):
        x = i * 1e-3
        total += math.log1p(x) - math.exp(-x) + x * x / (1.0 + x)
    return time.perf_counter() - start


def measure_setup() -> float:
    """Median time of import parmeans + catalog() + builtin_generators(), fresh processes.

    Scaled to the reference speed like the pass times.
    """
    times = []
    loop_before = reference_loop()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip()))
    scale = 2.0 * REFERENCE_S / (loop_before + reference_loop())
    return statistics.median(times) * scale


def percentile(sorted_values: list, q: float) -> float:
    """Linearly interpolated q-quantile (0 <= q <= 1) of sorted values."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class PassSummary(NamedTuple):
    wall_s: float
    item_p50_s: float
    item_p99_s: float
    items: int
    same_output: bool  # as the warm-up pass
    tracer: object  # the pass's Tracer, or None
    scale: float  # REFERENCE_S over the reference loop's time around the pass


def timed_passes(workload, seconds: float, reference: str, tracer_factory=None) -> list:
    """Run passes until `seconds` have gone (at least one); summarise each at once.

    Per-item latencies are not kept, so memory does not grow with the
    number of passes.
    """
    summaries = []
    start = time.perf_counter()
    loop_before = reference_loop()
    while not summaries or time.perf_counter() - start < seconds:
        gc.collect()
        tracer = tracer_factory(len(summaries)) if tracer_factory else None
        if tracer is None:
            result = workload.run_pass()
        else:
            with tracer.instrument():
                result = workload.run_pass()
        loop_after = reference_loop()
        scale = 2.0 * REFERENCE_S / (loop_before + loop_after)
        loop_before = loop_after
        items = sorted(result.item_s)
        summaries.append(PassSummary(result.wall_s, percentile(items, 0.5),
                                     percentile(items, 0.99), len(items),
                                     repr(result.outcome) == reference, tracer, scale))
    return summaries


def declared_metrics() -> tuple[dict, dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def max_err_ratio(workload_cls) -> float:
    """Worst |v - ref| / (ref max(est_rel_error, 2^-52)) over the fixed accuracy calls."""
    from reference import CallRecorder, err_ratio

    recorder = CallRecorder(ACCURACY_CALLS, ACCURACY_SEED)
    workload = workload_cls(ACCURACY_SEED, OUT)
    with recorder.recording():
        workload.run_pass()
    return max(err_ratio(call) for call in recorder.sample)


def end_to_end(workload, seconds: float, reference: str) -> tuple[dict, list]:
    passes = timed_passes(workload, seconds, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": measure_setup(),
        "wall_s": statistics.median(p.wall_s * p.scale for p in passes),
        "item_p50_us": statistics.median(p.item_p50_s * p.scale for p in passes) * 1e6,
        "item_p99_us": statistics.median(p.item_p99_s * p.scale for p in passes) * 1e6,
        "max_err_ratio": max_err_ratio(type(workload)),
        "peak_rss_mb": peak_rss_mb,
    }, passes


def per_layer(workload, seconds: float, reference: str, spans_path, meta) -> tuple:
    """Per-layer metrics, the passes, and each module's share of the first traced pass."""
    from tracer import Tracer

    untraced = timed_passes(workload, seconds / 2.0, reference)
    traced = timed_passes(workload, seconds / 2.0, reference,
                          lambda i: Tracer(keep_spans=i == 0))
    tracers = [p.tracer for p in traced]
    tracers[0].write_spans(spans_path, meta)
    # shares of the first traced pass, less the wrappers' own bookkeeping
    self_s = dict(tracers[0].self_s)
    untraced_wall = traced[0].wall_s - self_s.pop("trace", 0.0)
    shares = {layer: t / untraced_wall for layer, t in sorted(self_s.items())}
    shares["benchmark"] = 1.0 - sum(shares.values())
    layers = [t.layer_metrics() for t in tracers]
    metrics = dict(layers[0])  # counts repeat exactly; times are medians over passes
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] = statistics.median(m[name] for m in layers)
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                   - statistics.median(p.wall_s for p in untraced))
    return metrics, untraced + traced, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
        e2e_units, layer_units = declared_metrics()
    except (ImportError, OSError) as exc:
        print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment(args)
    print(json.dumps({"env": env}), flush=True)

    workload = WORKLOADS[args.workload](args.seed, OUT)
    warm = workload.run_pass()  # untimed: lets lazy imports and allocator growth settle
    reference = repr(warm.outcome)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        values, passes, shares = per_layer(workload, args.seconds, reference,
                                           OUT / f"spans-{tag}.json", env)
        units = layer_units
    else:
        values, passes = end_to_end(workload, args.seconds, reference)
        values["fail_frac"] = workload.fail_frac(warm.outcome)
        units = e2e_units

    problems = workload.problems(warm.outcome)
    failed = len(problems)
    for i, p in enumerate(passes):
        if not p.same_output:
            failed += 1
            problems.append(f"pass {i + 1} output differs from the warm-up pass (same seed)")
    if set(values) != set(units):
        problems.append(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    summary = {"passes": len(passes)}
    if hasattr(workload, "categories"):
        summary["outcomes_per_pass"] = dict(sorted(workload.categories(warm.outcome).items()))
    print(json.dumps(summary))
    details = {**summary,
               "pass_wall_s": [p.wall_s for p in passes],
               "pass_item_p50_s": [p.item_p50_s for p in passes],
               "pass_item_p99_s": [p.item_p99_s for p in passes],
               "pass_speed_scale": [p.scale for p in passes]}
    if args.trace:
        details["module_share_of_traced_pass"] = shares

    result = {
        "correct": not problems,
        "attempted": len(warm.item_s) + sum(p.items for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump({"env": env, **details, **result}, handle, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
