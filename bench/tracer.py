"""Per-module tracing by rebinding parmeans' public functions at runtime.

Nothing under src/ is edited.  `rebound` swaps every binding of a
function object across the loaded parmeans modules (module globals and
module-level dicts such as the family registry) for a wrapper, and puts
the originals back on exit.  `Tracer` supplies wrappers that keep a
stack of open calls, so a module's self time is the duration of its
calls minus the time spent below them in wrapped calls of any module.

The high-frequency modules (stable, core, generators) are aggregated
into counts and self time only.  Calls into the other modules are also
kept as spans (name, start, end, parent) in memory and written at exit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("stable", "core", "generators", "hgf", "quadrature",
          "convexity", "inequalities", "suites", "cli")
SPAN_LAYERS = frozenset({"hgf", "quadrature", "convexity", "inequalities", "suites", "cli"})
MAX_SPANS = 200_000

BRANCHES = ("generic", "p_eq_q", "p_zero", "q_zero", "both_zero", "diagonal_ab", "swapped")

# Core evaluators by return kind: a mean as a float, a log-mean, or an EvalResult.
CORE_MEANS = frozenset({"arithmetic_mean", "geometric_mean", "log_mean", "identric_mean",
                        "power_exponential_Z", "heronian_mean", "Y_mean", "power_mean"})
CORE_LOGS = frozenset({"ln_identric"})
CORE_RESULTS = frozenset({"stolarsky", "gini", "two_param_identric", "two_param_heronian",
                          "four_param_F"})
HGF_EVALUATORS = frozenset({"hf_eval", "hd_eval"})
SUITES_TIMED = {"convexity_suite": "suites.convexity_s",
                "inequality_suite": "suites.inequalities_s",
                "identity_suite": "suites.identities_s"}
# Constructing these validates the arguments: part of every evaluation's core cost.
CORE_CLASSES = ("MeanPoint", "ParamPair", "GeneratorPair", "EvalResult")
GENERATOR_CALLABLES = ("value", "partial_x", "partial_y", "diagonal_limit")
TRACKED_NAMES = frozenset({"hessian_logF"})  # functions whose callees are attributed to them


def in_band(x: float, y: float) -> bool:
    """1e-6 * (1 + |x| + |y|) < |x - y| <= 1e-3: the midpoint band of the branch rule."""
    d = abs(x - y)
    return 1e-6 * (1.0 + abs(x) + abs(y)) < d <= 1e-3


def public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


@contextlib.contextmanager
def rebound(replacements: dict, class_attrs: tuple = ()):
    """Rebind every binding of each original function to its wrapper.

    `replacements` maps id(original) -> wrapper and is applied to the
    globals and module-level dicts of every loaded parmeans module;
    `class_attrs` lists (class, attribute, wrapper).  Restores all on exit.
    """
    undo_items = []
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "parmeans" or name.startswith("parmeans."))]
    for module in modules:
        namespace = vars(module)
        for name, value in list(namespace.items()):
            if id(value) in replacements:
                undo_items.append((namespace, name, value))
                namespace[name] = replacements[id(value)]
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in replacements:
                        undo_items.append((value, key, item))
                        value[key] = replacements[id(item)]
    undo_attrs = [(cls, attr, vars(cls)[attr]) for cls, attr, _ in class_attrs]
    for cls, attr, wrapper in class_attrs:
        setattr(cls, attr, wrapper)
    try:
        yield
    finally:
        for target, key, original in undo_items:
            target[key] = original
        for cls, attr, original in undo_attrs:
            setattr(cls, attr, original)


class Tracer:
    """Call stack, per-module self time, counters and spans of one traced pass."""

    def __init__(self, keep_spans: bool = True):
        # frame: [layer, start, child_time, span_id]
        self.stack = [[None, 0.0, 0.0, -1]]
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.active = Counter()
        self.keep_spans = keep_spans
        self.spans: list[list] = []
        self.dropped_spans = 0

    def wrap(self, fn, layer: str, name: str, observe=None):
        """Wrapper timing `fn` as part of `layer`.

        The wrapper's own bookkeeping is timed too and booked to
        self_s["trace"], so it inflates neither the caller's self time
        nor the callee's.
        """
        clock = time.perf_counter
        stack, self_s, counts, active = self.stack, self.self_s, self.counts, self.active
        spanned = layer in SPAN_LAYERS
        tracked = name in TRACKED_NAMES
        calls_key, seconds_key = layer + ".all_calls", name + ".seconds"
        spans, open_span = self.spans, self._open_span

        def traced(*args, **kwargs):
            enter = clock()
            parent = stack[-1]
            outer = parent[0] != layer
            # hgf calls nested in hgf (t_prime under t_derivatives) are too many to keep
            span_id = open_span(name, parent[3]) if spanned and (outer or layer != "hgf") \
                else parent[3]
            frame = [layer, 0.0, 0.0, span_id]
            stack.append(frame)
            active[layer] += 1
            if tracked:
                active[name] += 1
            result = error = None
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                active[layer] -= 1
                if tracked:
                    active[name] -= 1
                duration = end - frame[1]
                self_s[layer] += duration - frame[2]
                counts[calls_key] += 1
                counts[seconds_key] += duration
                if span_id != parent[3]:
                    span = spans[span_id]
                    span[1], span[2] = frame[1], end
                if observe is not None:
                    observe(args, result, error, outer)
                leave = clock()
                parent[2] += leave - enter
                self_s["trace"] += leave - enter - duration

        traced.__wrapped__ = fn
        return traced

    def _open_span(self, name: str, parent: int) -> int:
        if not self.keep_spans or len(self.spans) >= MAX_SPANS:
            self.dropped_spans += self.keep_spans
            return parent
        self.spans.append([name, 0.0, 0.0, parent])
        return len(self.spans) - 1

    # -- observers: counters taken where the work happens ---------------------------

    def _observe_core(self, name: str):
        counts, active = self.counts, self.active
        from parmeans.errors import ParMeansError

        def observe(args, result, error, outer):
            if not outer:
                return
            counts["core.evals"] += 1
            if active["inequalities"]:
                counts["inequalities.evals"] += 1
            if active["hessian_logF"]:
                counts["convexity.hessian_evals"] += 1
            if name in CORE_RESULTS:
                band = in_band(args[0].p, args[0].q)
                if name == "four_param_F":
                    band = band or in_band(args[1].r, args[1].s)
                counts["core.band_evals"] += band
            if error is not None:
                counts["core.refused" if isinstance(error, ParMeansError)
                       else "core.foreign_errors"] += 1
                return
            if name in CORE_RESULTS:
                counts["core.branch." + result.branch] += 1
                result = result.value
            usable = math.isfinite(result) and (name in CORE_LOGS or result > 0.0)
            counts["core.nonfinite"] += not usable

        return observe

    def _observe_hgf(self, name: str):
        counts, active = self.counts, self.active

        def observe(args, result, error, outer):
            if outer:
                counts["hgf.calls"] += 1
                if name in HGF_EVALUATORS and active["hessian_logF"]:
                    counts["convexity.hessian_evals"] += 1

        return observe

    def _count_generator_call(self, args, result, error, outer):
        if outer:
            self.counts["generators.calls"] += 1

    def _wrap_generator_factory(self, fn, name: str):
        traced = self.wrap(fn, "generators", name, self._count_generator_call)

        def counted(gen):
            # Frozen instances: return a copy whose callables are traced too.
            changes = {field: self.wrap(getattr(gen, field), "generators",
                                        f"{gen.label}.{field}", self._count_generator_call)
                       for field in GENERATOR_CALLABLES
                       if getattr(gen, field) is not None
                       and not hasattr(getattr(gen, field), "__wrapped__")}
            return dataclasses.replace(gen, **changes) if changes else gen

        def factory(*args, **kwargs):
            result = traced(*args, **kwargs)
            return [counted(g) for g in result] if isinstance(result, list) else counted(result)

        factory.__wrapped__ = fn
        return factory

    def _observe_quadrature(self, args, result, error, outer):
        self.counts["quadrature.calls"] += 1
        if result is not None:
            self.counts["quadrature.subdivisions"] += result.subdivisions

    def _observe_inequalities(self, name: str):
        counts = self.counts

        def observe(args, result, error, outer):
            if result is None or name not in ("check_case", "special_reductions_check"):
                return
            report = result[0] if name == "check_case" else result
            counts["inequalities.samples"] += report.total
            counts["inequalities.decided"] += report.passed + report.failed

        return observe

    def _observe_hessian(self, args, result, error, outer):
        self.counts["convexity.hessians"] += 1
        if result is not None and result.verdict != "inconclusive":
            self.counts["convexity.decided"] += 1

    def instrument(self):
        """Context manager routing the package's public calls through this tracer."""
        replacements = {}
        modules = {layer: importlib.import_module(f"parmeans.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for name, fn in public_functions(module).items():
                if layer == "generators":
                    replacements[id(fn)] = self._wrap_generator_factory(fn, name)
                    continue
                observe = None
                if layer == "core" and name in CORE_MEANS | CORE_LOGS | CORE_RESULTS:
                    observe = self._observe_core(name)
                elif layer == "hgf":
                    observe = self._observe_hgf(name)
                elif layer == "quadrature" and name in ("integrate", "integrate_fixed"):
                    observe = self._observe_quadrature
                elif layer == "inequalities":
                    observe = self._observe_inequalities(name)
                elif layer == "convexity" and name == "hessian_logF":
                    observe = self._observe_hessian
                replacements[id(fn)] = self.wrap(fn, layer, name, observe)
        core = modules["core"]
        class_attrs = tuple(
            (getattr(core, cls), "__post_init__",
             self.wrap(vars(getattr(core, cls))["__post_init__"], "core",
                       f"{cls}.__post_init__"))
            for cls in CORE_CLASSES)
        return rebound(replacements, class_attrs)

    def layer_metrics(self) -> dict:
        """This pass's per-module values, keyed by per-layer metric name."""
        c, s = self.counts, self.self_s
        samples = c["inequalities.samples"]
        hessians = c["convexity.hessians"]
        out = {
            "stable.calls": c["stable.all_calls"],
            "stable.self_s": s["stable"],
            "core.evals": c["core.evals"],
            "core.self_s": s["core"],
        }
        for branch in BRANCHES:
            out["core.branch." + branch] = c["core.branch." + branch]
        out.update({
            "core.band_evals": c["core.band_evals"],
            "core.refused": c["core.refused"],
            "core.foreign_errors": c["core.foreign_errors"],
            "core.nonfinite": c["core.nonfinite"],
            "inequalities.samples": samples,
            "inequalities.self_s": s["inequalities"],
            "inequalities.evals_per_sample": c["inequalities.evals"] / samples if samples else 0.0,
            "inequalities.decided_ratio": c["inequalities.decided"] / samples if samples else 0.0,
            "convexity.hessians": hessians,
            "convexity.self_s": s["convexity"],
            "convexity.evals_per_hessian":
                c["convexity.hessian_evals"] / hessians if hessians else 0.0,
            "convexity.decided_ratio": c["convexity.decided"] / hessians if hessians else 0.0,
            "hgf.calls": c["hgf.calls"],
            "hgf.self_s": s["hgf"],
            "generators.calls": c["generators.calls"],
            "generators.self_s": s["generators"],
            "quadrature.calls": c["quadrature.calls"],
            "quadrature.subdivisions": c["quadrature.subdivisions"],
            "quadrature.self_s": s["quadrature"],
        })
        for fn_name, metric in SUITES_TIMED.items():
            out[metric] = c[fn_name + ".seconds"]
        out["cli.self_s"] = s["cli"]
        return out

    def write_spans(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "fields": ["name", "start_s", "end_s", "parent"],
                       "dropped": self.dropped_spans, "spans": self.spans}, handle)
