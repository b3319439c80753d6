"""CLI surface: worked examples, exit codes, determinism, schema."""

import json

import pytest

from parmeans.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_stolarsky(capsys):
    code, out, _ = run(capsys, "eval", "--family", "stolarsky",
                       "--p", "2", "--q", "1", "--a", "4", "--b", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(3.0, rel=1e-12)
    assert obj["branch"] == "generic"
    assert obj["est_rel_error"] >= 0.0


def test_eval_four_param_zero_corner(capsys):
    code, out, _ = run(capsys, "eval", "--family", "F", "--p", "0", "--q", "0",
                       "--r", "1", "--s", "0", "--a", "9", "--b", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == pytest.approx(6.0, rel=1e-12)
    assert obj["branch"] == "both_zero"


def test_eval_hd(capsys):
    code, out, _ = run(capsys, "eval", "--family", "hd",
                       "--p", "2", "--q", "1", "--a", "4", "--b", "2")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(6.0, rel=1e-12)


def test_eval_rational_parameters(capsys):
    code, out, _ = run(capsys, "eval", "--family", "stolarsky",
                       "--p", "4/3", "--q", "2/3", "--a", "1", "--b", "9")
    assert code == 0
    obj = json.loads(out)
    # S_{4/3,2/3} = A_{2/3}: the rational flags hit the exact locus
    assert obj["p"] == pytest.approx(4.0 / 3.0, abs=0.0)
    assert obj["value"] == pytest.approx(((1 + 9 ** (2 / 3)) / 2) ** 1.5, rel=1e-12)


def test_eval_bad_arguments(capsys):
    code, _, err = run(capsys, "eval", "--family", "stolarsky",
                       "--p", "1", "--q", "2", "--a", "-4", "--b", "2")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "eval", "--family", "F",
                       "--p", "1", "--q", "2", "--a", "4", "--b", "2")
    assert code == 2  # missing --r/--s
    code, _, err = run(capsys, "eval", "--family", "nosuch",
                       "--p", "1", "--q", "2", "--a", "4", "--b", "2")
    assert code == 2


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["eval", "--family", "stolarsky", "--p", "1"])
    assert info.value.code == 2


def test_hessian_command(capsys):
    code, out, _ = run(capsys, "hessian", "--family", "stolarsky",
                       "--p", "1", "--q", "2", "--a", "1", "--b", "10")
    assert code == 0
    obj = json.loads(out)
    assert list(obj) == ["family", "p", "q", "a", "b", "d2_pp", "d2_qq", "d2_pq",
                         "delta", "verdict"]
    assert obj["verdict"] == "concave"
    assert obj["delta"] == pytest.approx(
        obj["d2_pp"] * obj["d2_qq"] - obj["d2_pq"] ** 2, rel=1e-12)


def test_scan_csv(tmp_path, capsys):
    out_file = tmp_path / "scan.csv"
    args = ["scan", "--family", "gini",
            "--p-grid", "0.3,0.7,1.3,2.1,3.5", "--q-grid", "0.4,0.9,1.7,2.6,4.0",
            "--a", "1", "--b", "10", "--out", str(out_file)]
    assert main(list(args)) == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "p,q,d2_pp,d2_qq,d2_pq,delta,verdict"
    assert len(lines) == 26  # header + 5x5 grid
    assert all(line.endswith("concave") for line in lines[1:])
    # determinism: rerun is byte-identical (no timestamp in CSV)
    first = out_file.read_bytes()
    assert main(list(args)) == 0
    assert out_file.read_bytes() == first


def test_check_identities_suite(tmp_path, capsys):
    out_file = tmp_path / "r.json"
    code, out, _ = run(capsys, "check", "--suite", "identities", "--seed", "7",
                       "--random-count", "200", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["schema_version"] == 1
    assert payload["seed"] == 7
    assert {c["id"] for c in payload["cases"]} == {
        "identity[hd=e^(1/L)*S]", "identity[hd*gini=hd(2p,2q)^2]",
        "identity[I(a^2,b^2)/I=Z]", "identity[I_pp=Y^(1/p)]",
        "identity[reduction_table]", "special_reductions",
    }
    for case in payload["cases"]:
        assert case["failed"] == 0
        assert set(case) >= {"id", "total", "passed", "failed", "inconclusive",
                             "worst_margin", "worst_witness"}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_check_without_samples_writes_strict_json(tmp_path, capsys):
    # a check with no samples reports the 1e300 sentinel, not Infinity
    from parmeans.suites import identity_suite

    assert {r.worst_margin for r in identity_suite(count=0)[:5]} == {1e300}
    out_file = tmp_path / "id.json"
    code, _, _ = run(capsys, "check", "--suite", "identities", "--random-count", "0",
                     "--out", str(out_file))
    assert code == 0
    with open(out_file, encoding="utf-8") as handle:
        payload = json.load(handle, parse_constant=_reject_constant)
    assert [c["worst_margin"] for c in payload["cases"][:5]] == [1e300] * 5


def test_check_inequalities_exit_zero_and_13_cases(tmp_path, capsys):
    out_file = tmp_path / "ineq.json"
    code, out, _ = run(capsys, "check", "--suite", "inequalities", "--seed", "7",
                       "--random-count", "150", "--grid-b", "8",
                       "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["cases"]) == 13
    assert sum(c["failed"] for c in payload["cases"]) == 0


def test_check_convexity_filtered(capsys):
    code, out, _ = run(capsys, "check", "--suite", "convexity",
                       "--family", "stolarsky", "--region", "neg")
    assert code == 0
    assert "convexity[stolarsky,negative_quadrant]" in out
    assert "FAIL" not in out


def test_check_report_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code, _, _ = run(capsys, "check", "--suite", "identities", "--seed", "3",
                         "--random-count", "100", "--out", str(f))
        assert code == 0
    p1 = json.loads(f1.read_text())
    p2 = json.loads(f2.read_text())
    p1.pop("timestamp")
    p2.pop("timestamp")
    assert p1 == p2


def test_check_out_io_error(capsys):
    code, _, err = run(capsys, "check", "--suite", "identities",
                       "--random-count", "50",
                       "--out", "/nonexistent-dir/report.json")
    assert code == 4
    assert "cannot write" in err


def test_report_merge(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    run(capsys, "check", "--suite", "identities", "--seed", "1",
        "--random-count", "60", "--out", str(f1))
    code, out, _ = run(capsys, "report", "--inputs", str(f1), str(f1))
    assert code == 0
    assert "identity[reduction_table]" in out
    # doubled totals after merging the same file twice
    line = [ln for ln in out.splitlines() if "reduction_table" in ln][0]
    assert " 120 " in line or "120" in line.split()


def test_report_missing_file(capsys):
    code, _, err = run(capsys, "report", "--inputs", "/no/such/file.json")
    assert code == 4


def test_report_propagates_failures(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "schema_version": 1,
        "cases": [{"id": "c", "total": 3, "passed": 1, "failed": 2,
                   "inconclusive": 0, "worst_margin": -0.5, "worst_witness": {}}],
    }))
    code, out, _ = run(capsys, "report", "--inputs", str(bad))
    assert code == 1


def test_report_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "report", "--inputs", str(bad))
    assert code == 2


def _write_report(path, cases):
    path.write_text(json.dumps({"schema_version": 1, "cases": cases}))
    return str(path)


def test_report_reads_its_own_summary(tmp_path, capsys):
    f1, summary = tmp_path / "a.json", tmp_path / "summary.json"
    run(capsys, "check", "--suite", "identities", "--seed", "1",
        "--random-count", "60", "--out", str(f1))
    code, _, _ = run(capsys, "report", "--inputs", str(f1), str(f1), "--out", str(summary))
    assert code == 0
    code, out, _ = run(capsys, "report", "--inputs", str(summary), str(f1))
    assert code == 0
    line = [ln for ln in out.splitlines() if "reduction_table" in ln][0]
    assert line.split()[1] == "180"  # 60 samples in each of three reports
    cases = {c["id"]: c for c in json.loads(f1.read_text())["cases"]}
    merged = json.loads(summary.read_text())["cases"]
    assert [c["id"] for c in merged] == sorted(cases)
    for case in merged:  # the check report's own schema, witnesses and notes kept
        single = cases[case["id"]]
        assert case["total"] == 2 * single["total"]
        assert (case["worst_witness"], case["notes"]) == \
            (single["worst_witness"], single["notes"])


def test_report_summary_of_infinite_margins_is_strict_json(tmp_path, capsys):
    # a version-1 report written before the 1e300 rule carries Infinity margins
    old = tmp_path / "old.json"
    old.write_text('{"schema_version": 1, "cases": ['
                   '{"id": "a", "total": 0, "passed": 0, "failed": 0, "inconclusive": 0,'
                   ' "worst_margin": Infinity},'
                   '{"id": "b", "total": 1, "passed": 1, "failed": 0, "inconclusive": 0,'
                   ' "worst_margin": -Infinity}]}')
    summary = tmp_path / "summary.json"
    code, _, _ = run(capsys, "report", "--inputs", str(old), "--out", str(summary))
    assert code == 0
    with open(summary, encoding="utf-8") as handle:
        payload = json.load(handle, parse_constant=_reject_constant)
    assert [c["worst_margin"] for c in payload["cases"]] == [1e300, -1e300]
    assert [(c["worst_witness"], c["notes"]) for c in payload["cases"]] == [({}, "")] * 2


def test_report_summary_of_non_finite_witness_is_strict_json(tmp_path, capsys):
    # witness values follow the margin rule: +-Infinity -> +-1e300, NaN -> null
    old = tmp_path / "old.json"
    old.write_text('{"schema_version": 1, "cases": ['
                   '{"id": "a", "total": 1, "passed": 1, "failed": 0, "inconclusive": 0,'
                   ' "worst_margin": 0.5, "worst_witness": {"delta": Infinity}},'
                   '{"id": "b", "total": 1, "passed": 1, "failed": 0, "inconclusive": 0,'
                   ' "worst_margin": 0.5, "worst_witness":'
                   ' {"p": 1.0, "d2": [-Infinity, NaN], "why": "x"}}]}')
    summary = tmp_path / "summary.json"
    code, _, _ = run(capsys, "report", "--inputs", str(old), "--out", str(summary))
    assert code == 0
    with open(summary, encoding="utf-8") as handle:
        payload = json.load(handle, parse_constant=_reject_constant)
    assert [c["worst_witness"] for c in payload["cases"]] == [
        {"delta": 1e300}, {"p": 1.0, "d2": [-1e300, None], "why": "x"}]


def test_check_convexity_is_strict_json_without_inconclusive(tmp_path, capsys):
    out_file = tmp_path / "conv.json"
    code, _, _ = run(capsys, "check", "--suite", "convexity", "--seed", "0",
                     "--out", str(out_file))
    assert code == 0
    with open(out_file, encoding="utf-8") as handle:
        payload = json.load(handle, parse_constant=_reject_constant)
    assert len(payload["cases"]) == 10
    assert sum(c["inconclusive"] for c in payload["cases"]) == 0
    assert sum(c["failed"] for c in payload["cases"]) == 0


_CASE = {"id": "c", "total": 3, "passed": 3, "failed": 0, "inconclusive": 0,
         "worst_margin": 0.5}


@pytest.mark.parametrize("payload", [
    "[1, 2]",
    '{"schema_version": 1, "cases": {"c": 1}}',
    '{"schema_version": 1}',
    json.dumps({"cases": [{**_CASE, "passed": 1}]}),
    json.dumps({"cases": [{**_CASE, "worst_margin": float("nan")}]}),
    json.dumps({"cases": [{**_CASE, "total": "3"}]}),
    json.dumps({"cases": [{k: v for k, v in _CASE.items() if k != "id"}]}),
    json.dumps({"cases": [_CASE, [1]]}),
], ids=["top-level-list", "cases-not-list", "no-cases", "counts-do-not-add-up",
        "nan-margin", "string-count", "no-id", "case-not-object"])
def test_report_malformed_input_exits_2(tmp_path, capsys, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(payload)
    code, out, err = run(capsys, "report", "--inputs", str(bad))
    assert code == 2
    assert "error: malformed report" in err
    assert "Traceback" not in out + err


def test_report_exit_code_inconclusive(tmp_path, capsys):
    # 6 of 100 merged samples inconclusive is beyond the 5% limit; 5 of 100 is not
    a = _write_report(tmp_path / "a.json", [{**_CASE, "total": 50, "passed": 47,
                                             "inconclusive": 3}])
    b = _write_report(tmp_path / "b.json", [{**_CASE, "total": 50, "passed": 47,
                                             "inconclusive": 3}])
    c = _write_report(tmp_path / "c.json", [{**_CASE, "total": 50, "passed": 48,
                                             "inconclusive": 2}])
    assert run(capsys, "report", "--inputs", a, b)[0] == 3
    assert run(capsys, "report", "--inputs", a, c)[0] == 0


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed = 9\nrandom-count = 80\n")
    out_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "check", "--suite", "identities",
                     "--config", str(cfg), "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["seed"] == 9
    assert payload["config_echo"]["random_count"] == 80


def test_config_supplies_defaults_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed = 0\nrandom-count = 80\n")
    out_file = tmp_path / "r.json"
    code, _, _ = run(capsys, "check", "--suite", "identities", "--seed", "5",
                     "--config", str(cfg), "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["seed"] == 5
    assert payload["config_echo"]["seed"] == 5
    assert payload["config_echo"]["random_count"] == 80


@pytest.mark.parametrize("line", ["format = json", "func = x", "command = eval"])
def test_config_unknown_key_exits_2(tmp_path, capsys, line):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(line + "\n")
    code, _, err = run(capsys, "check", "--suite", "identities", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err and "Traceback" not in err


def test_check_exit_code_thresholds():
    from parmeans.cli import check_exit_code
    assert check_exit_code(0, 0, 100) == 0
    assert check_exit_code(1, 0, 100) == 1
    assert check_exit_code(0, 5, 100) == 0     # exactly 5% is not beyond
    assert check_exit_code(0, 6, 100) == 3
    assert check_exit_code(2, 50, 100) == 1    # failures dominate
    assert check_exit_code(0, 0, 0) == 0


def test_config_non_numeric_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("random-count = many\n")
    code, _, err = run(capsys, "check", "--suite", "identities", "--config", str(cfg))
    assert code == 2
    assert "random-count" in err and "Traceback" not in err


def test_negative_random_count_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "check", "--suite", "inequalities", "--random-count", "-5")
    assert code == 2
    assert "random_count" in err
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("random-count = -1\n")
    code, _, _ = run(capsys, "check", "--suite", "identities", "--config", str(cfg))
    assert code == 2



# -- names resolve through one case-insensitive table ----------------------------

def test_check_convexity_family_and_region_ignore_case(capsys):
    code, out, _ = run(capsys, "check", "--suite", "convexity",
                       "--family", "Gini", "--region", "POS")
    assert code == 0
    assert "convexity[gini,positive_quadrant]" in out and "done: 1 cases" in out


def test_check_convexity_region_in_capitals(capsys):
    code, out, _ = run(capsys, "check", "--suite", "convexity", "--region", "NEG")
    assert code == 0
    assert "done: 5 cases" in out and "positive_quadrant" not in out


@pytest.mark.parametrize("argv, choice", [
    (["check", "--suite", "convexity", "--family", "nosuch"], "heronian2"),
    (["check", "--suite", "convexity", "--region", "nosuch"], "negative_quadrant"),
    (["eval", "--family", "nosuch", "--p", "1", "--q", "2", "--a", "4", "--b", "2"], "gini"),
])
def test_unknown_name_lists_the_choices(capsys, argv, choice):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "'nosuch'; choices:" in err and choice in err


def test_check_convexity_refuses_family_F_and_names_scan(capsys):
    code, _, err = run(capsys, "check", "--suite", "convexity", "--family", "F")
    assert code == 2
    assert "has no F" in err and "scan --family F --r --s" in err


def test_a_key_error_inside_a_command_is_not_a_bad_name(monkeypatch):
    # main once turned any KeyError into exit 2 "unknown name"
    from parmeans import cli

    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_eval", broken)
    with pytest.raises(KeyError):
        main(["eval", "--family", "gini", "--p", "1", "--q", "2", "--a", "4", "--b", "2"])


# -- hessian and scan read the closed form that the convexity check uses ---------

@pytest.mark.parametrize("family", ["stolarsky", "gini", "identric2", "heronian2", "hd"])
def test_hessian_and_scan_equal_the_closed_form_on_the_suite_grid(tmp_path, capsys, family):
    from parmeans.convexity import EXCLUSION_BAND, HessianReport
    from parmeans.stable import log_ratio
    from parmeans.suites import DEFAULT_GRID, DEFAULT_MEAN_POINTS
    from test_convexity import closed_form_hessian

    out_file = tmp_path / "scan.csv"
    for pt in DEFAULT_MEAN_POINTS:
        point = [f"--a={pt.a!r}", f"--b={pt.b!r}"]
        w = log_ratio(pt.a, pt.b)
        for sign in (1.0, -1.0):
            grid = [sign * v for v in DEFAULT_GRID]
            rows = []
            for p in grid:
                for q in grid:
                    code, out, _ = run(capsys, "hessian", "--family", family,
                                       f"--p={p!r}", f"--q={q!r}", *point)
                    if abs(p - q) <= EXCLUSION_BAND:
                        assert (code, out) == (2, "")
                        continue
                    d2_pp, d2_qq, d2_pq, delta, est_pp, _, _, est_delta = \
                        closed_form_hessian(family, None, p, q, w)
                    verdict = HessianReport.classify(d2_pp, delta, est_pp, est_delta)
                    assert code == 0
                    assert json.loads(out) == {
                        "family": family, "p": p, "q": q, "a": pt.a, "b": pt.b,
                        "d2_pp": d2_pp, "d2_qq": d2_qq, "d2_pq": d2_pq,
                        "delta": delta, "verdict": verdict}
                    rows.append(",".join(["%.17g" % v for v in (p, q, d2_pp, d2_qq, d2_pq, delta)]
                                         + [verdict]))
            text = ",".join(repr(v) for v in grid)
            assert main(["scan", "--family", family, f"--p-grid={text}", f"--q-grid={text}",
                         *point, "--out", str(out_file)]) == 0
            assert out_file.read_text().splitlines()[1:] == rows
