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

