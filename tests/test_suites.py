"""The check counts of the full suite, pinned case by case, and the
convexity and identity reports, pinned field by field."""

import json
from pathlib import Path

import pytest

from parmeans import cli
from parmeans.suites import full_suite

# (id, total, passed, failed, inconclusive) of full_suite(seed=0), in report
# order: 29 cases, 136349 samples, none failed or inconclusive
FULL_SUITE_SEED_0 = [
    ('convexity[stolarsky,positive_quadrant]', 60, 60, 0, 0),
    ('convexity[stolarsky,negative_quadrant]', 60, 60, 0, 0),
    ('convexity[gini,positive_quadrant]', 60, 60, 0, 0),
    ('convexity[gini,negative_quadrant]', 60, 60, 0, 0),
    ('convexity[identric2,positive_quadrant]', 60, 60, 0, 0),
    ('convexity[identric2,negative_quadrant]', 60, 60, 0, 0),
    ('convexity[heronian2,positive_quadrant]', 60, 60, 0, 0),
    ('convexity[heronian2,negative_quadrant]', 60, 60, 0, 0),
    ('convexity[hd,positive_quadrant]', 60, 60, 0, 0),
    ('convexity[hd,negative_quadrant]', 60, 60, 0, 0),
    ('gen_lin', 10160, 10160, 0, 0),
    ('gen_jia_cao', 10160, 10160, 0, 0),
    ('gen_sandor', 10160, 10160, 0, 0),
    ('new_ineq_1', 10160, 10160, 0, 0),
    ('new_ineq_2', 10160, 10160, 0, 0),
    ('stolarsky_double', 10042, 10042, 0, 0),
    ('gini_double', 10042, 10042, 0, 0),
    ('stolarsky_yang', 10040, 10040, 0, 0),
    ('sandor_yang', 10040, 10040, 0, 0),
    ('new_est_1', 10040, 10040, 0, 0),
    ('new_est_2_i', 10040, 10040, 0, 0),
    ('new_est_2_z', 10040, 10040, 0, 0),
    ('new_est_3', 10040, 10040, 0, 0),
    ('identity[hd=e^(1/L)*S]', 1000, 1000, 0, 0),
    ('identity[hd*gini=hd(2p,2q)^2]', 1000, 1000, 0, 0),
    ('identity[I(a^2,b^2)/I=Z]', 1000, 1000, 0, 0),
    ('identity[I_pp=Y^(1/p)]', 1000, 1000, 0, 0),
    ('identity[reduction_table]', 400, 400, 0, 0),
    ('special_reductions', 225, 225, 0, 0),
]


def test_full_suite_counts_are_pinned():
    # counts only, not margins, so libm rounding on another platform cannot move them
    counts = [(r.case_id, r.total, r.passed, r.failed, r.inconclusive) for r in full_suite(seed=0)]
    assert counts == FULL_SUITE_SEED_0
    assert sum(row[1] for row in counts) == 136349


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("suite", ["convexity", "identities"])
def test_suite_reproduces_its_golden_report(suite, seed, tmp_path, capsys):
    # the check --suite JSON, timestamp aside, as committed (the inequalities'
    # golden reports are checked in test_inequalities)
    out = tmp_path / "report.json"
    assert cli.main(["check", "--suite", suite, "--seed", str(seed), "--out", str(out)]) == 0
    got = json.loads(out.read_text(encoding="utf-8"))
    del got["timestamp"]
    golden = Path(__file__).parent / "data" / f"{suite}_seed{seed}.json"
    assert got == json.loads(golden.read_text(encoding="utf-8"))
