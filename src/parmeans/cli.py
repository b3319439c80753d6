"""Command-line driver: eval, hessian, check, scan, report.

Exit codes: 0 pass, 1 failure, 2 bad arguments, 3 inconclusive-heavy,
4 I/O failure.  Identical configuration (including seed) produces
identical output bytes apart from the timestamp field of JSON reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone

from .convexity import EXCLUSION_BAND, CheckReport, HessianReport, _family_hessian
from .core import (
    GeneratorPair,
    MeanPoint,
    ParamPair,
    family_evaluator,
    parse_parameter,
)
from .errors import DomainError, ParMeansError
from .inequalities import SamplingPlan
from .stable import log_ratio
from .suites import convexity_suite, full_suite, identity_suite, inequality_suite

SCHEMA_VERSION = 1
INCONCLUSIVE_FRACTION_LIMIT = 0.05

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BAD_ARGS = 2
EXIT_INCONCLUSIVE = 3
EXIT_IO = 4

_FAMILY_ALIASES = {"f": "four_param", "four_param": "four_param", "hd": "hd",
                   "stolarsky": "stolarsky", "gini": "gini",
                   "identric2": "identric2", "heronian2": "heronian2"}

_REGION_ALIASES = {"pos": "positive_quadrant", "positive": "positive_quadrant",
                   "positive_quadrant": "positive_quadrant",
                   "neg": "negative_quadrant", "negative": "negative_quadrant",
                   "negative_quadrant": "negative_quadrant"}


def _lookup(table: dict, name: str, what: str) -> str:
    """table[name.lower()], or a ParMeansError that lists the choices."""
    try:
        return table[name.lower()]
    except KeyError:
        raise ParMeansError(f"unknown {what} {name!r}; choices: {', '.join(table)}") from None


def _resolve_family(args):
    name = _lookup(_FAMILY_ALIASES, args.family, "family")
    gen = None
    if name == "four_param":
        if args.r is None or args.s is None:
            raise ParMeansError("family F needs --r and --s")
        gen = GeneratorPair(args.r, args.s)
    return name, gen


def _fmt(x: float) -> str:
    return "%.17g" % x


def cmd_eval(args) -> int:
    name, gen = _resolve_family(args)
    ev = family_evaluator(name, gen)
    res = ev(ParamPair(args.p, args.q), MeanPoint(args.a, args.b))
    obj = {"family": name, "p": args.p, "q": args.q, "a": args.a, "b": args.b,
           "value": res.value, "branch": res.branch,
           "est_rel_error": res.est_rel_error}
    if gen is not None:
        obj["r"], obj["s"] = gen.r, gen.s
    print(json.dumps(obj))
    return EXIT_PASS


def _hessian_rows(args, pairs) -> tuple[str, list]:
    """(family, [(p, q, d2_pp, d2_qq, d2_pq, delta, verdict)]) as scan_convexity reads each
    point: the evaluator, whose errors propagate, then the classified closed form."""
    name, gen = _resolve_family(args)
    ev, hessian = family_evaluator(name, gen), _family_hessian(name, gen)
    pt = MeanPoint(args.a, args.b)
    w = log_ratio(pt.a, pt.b)
    rows = []
    for p, q in pairs:
        ev(ParamPair(p, q), pt)
        d2_pp, d2_qq, d2_pq, delta, est_pp, _, _, est_delta = hessian(p, q, w)
        verdict = HessianReport.classify(d2_pp, delta, est_pp, est_delta)
        rows.append((p, q, d2_pp, d2_qq, d2_pq, delta, verdict))
    return name, rows


def cmd_hessian(args) -> int:
    if abs(args.p - args.q) <= EXCLUSION_BAND:
        raise DomainError(f"the closed-form Hessian needs |p - q| > {EXCLUSION_BAND}")
    name, [(p, q, d2_pp, d2_qq, d2_pq, delta, verdict)] = _hessian_rows(args, [(args.p, args.q)])
    print(json.dumps({"family": name, "p": p, "q": q, "a": args.a, "b": args.b, "d2_pp": d2_pp,
                      "d2_qq": d2_qq, "d2_pq": d2_pq, "delta": delta, "verdict": verdict}))
    return EXIT_PASS


def _run_suite(args) -> list:
    plan = SamplingPlan(seed=args.seed, random_count=args.random_count,
                        grid_b_count=args.grid_b)
    if args.suite == "all":
        return full_suite(seed=args.seed, plan=plan)
    if args.suite == "convexity":
        filters = {}
        if args.family_filter:
            family = _lookup(_FAMILY_ALIASES, args.family_filter, "family")
            if family == "four_param":
                raise ParMeansError("the convexity suite has no F; scan --family F --r --s does")
            filters["families"] = (family,)
        if args.region:
            filters["regions"] = (_lookup(_REGION_ALIASES, args.region, "region"),)
        return convexity_suite(**filters)
    if args.suite == "inequalities":
        return inequality_suite(plan)
    if args.suite == "identities":
        return identity_suite(count=min(args.random_count, 1000), seed=args.seed)
    raise ParMeansError(f"unknown suite {args.suite!r}")


def _totals(reports: list) -> tuple[int, int, int]:
    """(failed, inconclusive, total) samples over the reports."""
    return (sum(r.failed for r in reports), sum(r.inconclusive for r in reports),
            sum(r.total for r in reports))


def _write_json(path: str, payload: dict, what: str) -> bool:
    """Write payload as indented JSON; on failure say so on stderr and return False."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def check_exit_code(failures: int, inconclusive: int, total: int) -> int:
    if failures:
        return EXIT_FAIL
    if total and inconclusive / total > INCONCLUSIVE_FRACTION_LIMIT:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_check(args) -> int:
    reports = _run_suite(args)
    failures, inconclusive, total = _totals(reports)
    for r in reports:
        status = "PASS" if r.failed == 0 else "FAIL"
        print(f"{status} {r.case_id}: total={r.total} passed={r.passed} "
              f"failed={r.failed} inconclusive={r.inconclusive} "
              f"worst_margin={r.worst_margin:.3e}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_echo": {
            "suite": args.suite,
            "seed": args.seed,
            "random_count": args.random_count,
            "grid_b": args.grid_b,
            "family": args.family_filter,
            "region": args.region,
        },
        "seed": args.seed,
        "cases": [r.to_dict() for r in reports],
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if args.out and not _write_json(args.out, payload, "report"):
        return EXIT_IO
    print(f"done: {len(reports)} cases, {failures} failures, "
          f"{inconclusive}/{total} inconclusive")
    return check_exit_code(failures, inconclusive, total)


def cmd_scan(args) -> int:
    _, rows = _hessian_rows(args, [(p, q) for p in args.p_grid for q in args.q_grid
                                   if abs(p - q) > EXCLUSION_BAND])
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["p", "q", "d2_pp", "d2_qq", "d2_pq", "delta", "verdict"])
        for p, q, dpp, dqq, dpq, delta, verdict in rows:
            writer.writerow([_fmt(p), _fmt(q), _fmt(dpp), _fmt(dqq),
                             _fmt(dpq), _fmt(delta), verdict])
    except OSError as exc:
        print(f"error: cannot write CSV: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if args.out:
            out.close()
    return EXIT_PASS


def _read_cases(path: str) -> list[CheckReport]:
    """The cases of one JSON report, each read by CheckReport.from_dict."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ParMeansError(str(exc)) from None
    cases = payload.get("cases") if isinstance(payload, dict) else None
    if not isinstance(cases, list):
        raise ParMeansError("no list of cases")
    return [CheckReport.from_dict(case) for case in cases]


def cmd_report(args) -> int:
    merged: dict[str, CheckReport] = {}
    try:
        for path in args.inputs:
            for case in _read_cases(path):
                prior = merged.get(case.case_id)
                merged[case.case_id] = case if prior is None else prior.merge(case)
    except OSError as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return EXIT_IO
    except ParMeansError as exc:
        print(f"error: malformed report: {path}: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    reports = [merged[cid] for cid in sorted(merged)]
    width = max((len(r.case_id) for r in reports), default=8)
    print(f"{'case':<{width}}  total  passed  failed  inconclusive  worst_margin")
    for r in reports:
        print(f"{r.case_id:<{width}}  {r.total:5d}  {r.passed:6d}  "
              f"{r.failed:6d}  {r.inconclusive:12d}  {r.worst_margin:.3e}")
    if args.out and not _write_json(args.out, {"schema_version": SCHEMA_VERSION,
                                               "cases": [r.to_dict() for r in reports]},
                                    "summary"):
        return EXIT_IO
    return check_exit_code(*_totals(reports))


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, raw = line.partition("=")
            values[key.strip()] = raw.strip()
    return values


def _grid(text: str) -> list[float]:
    return [parse_parameter(tok) for tok in text.split(",") if tok.strip()]


def build_parser(check_defaults: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; check_defaults replace the check command's defaults."""
    parser = argparse.ArgumentParser(
        prog="parmeans",
        description="Parametric bivariate means: evaluation, convexity scans, "
                    "inequality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_args(p, with_params=True):
        p.add_argument("--family", required=True,
                       help="stolarsky | gini | identric2 | heronian2 | F | hd")
        if with_params:
            p.add_argument("--p", type=parse_parameter, required=True)
            p.add_argument("--q", type=parse_parameter, required=True)
        p.add_argument("--r", type=parse_parameter, default=None)
        p.add_argument("--s", type=parse_parameter, default=None)
        p.add_argument("--a", type=parse_parameter, required=True)
        p.add_argument("--b", type=parse_parameter, required=True)

    p_eval = sub.add_parser("eval", help="evaluate one mean")
    add_family_args(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_hess = sub.add_parser("hessian", help="closed-form Hessian of ln M")
    add_family_args(p_hess)
    p_hess.set_defaults(func=cmd_hessian)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("--suite", required=True,
                         choices=["all", "convexity", "inequalities", "identities"])
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--random-count", type=int, default=10_000, dest="random_count")
    p_check.add_argument("--grid-b", type=int, default=40, dest="grid_b")
    p_check.add_argument("--family", dest="family_filter", default=None)
    p_check.add_argument("--region", default=None)
    p_check.add_argument("--out", default=None)
    p_check.add_argument("--config", default=None)
    p_check.set_defaults(func=cmd_check, **(check_defaults or {}))

    p_scan = sub.add_parser("scan", help="CSV closed-form Hessian scan over a parameter grid")
    add_family_args(p_scan, with_params=False)
    p_scan.add_argument("--p-grid", type=_grid, required=True, dest="p_grid")
    p_scan.add_argument("--q-grid", type=_grid, required=True, dest="q_grid")
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_rep = sub.add_parser("report", help="merge prior JSON reports")
    p_rep.add_argument("--inputs", nargs="+", required=True)
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        try:
            overrides = _load_config_file(args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        defaults = {}
        for key, raw in overrides.items():
            attr = key.replace("-", "_")
            if attr in ("func", "command") or not hasattr(args, attr):
                print(f"error: unknown config key {key!r}", file=sys.stderr)
                return EXIT_BAD_ARGS
            current = getattr(args, attr)
            try:
                if isinstance(current, int) and not isinstance(current, bool):
                    defaults[attr] = int(raw)
                elif isinstance(current, float):
                    defaults[attr] = float(raw)
                else:
                    defaults[attr] = raw
            except ValueError:
                print(f"error: config key {key!r} has a non-numeric value {raw!r}",
                      file=sys.stderr)
                return EXIT_BAD_ARGS
        # the file supplies defaults: flags given on the command line win
        args = build_parser(defaults).parse_args(argv)
    try:
        return args.func(args)
    except ParMeansError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    raise SystemExit(main())
