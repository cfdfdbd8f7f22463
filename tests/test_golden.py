"""Numerical regression against pinned reports.

Each case runs a small bundled config through the CLI and compares its
output byte for byte with the file pinned under tests/golden/. A refactor
that moves any estimate, count or coverage in the last printed digit fails
here. Regenerating a pinned file is a deliberate change of results and
belongs in its own commit with a CHANGES.md entry explaining it.
"""

from pathlib import Path

import pytest

from twophase_ate.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent


@pytest.mark.parametrize("case", ["missing50_all8", "kang_dr_known", "raking_gap_linearized"])
def test_study_report_matches_golden(case, tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(GOLDEN / f"{case}.cfg"), "--out", str(out),
                 "--parallelism", "1"])
    assert code == EXIT_OK
    assert (out / "report.csv").read_bytes() == (GOLDEN / f"{case}.report.csv").read_bytes()


def test_example_estimate_matches_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the config names its data file relative to the repo root
    out = tmp_path / "out"
    code = main(["--config", str(ROOT / "repro" / "example_estimate.cfg"), "--out", str(out),
                 "--parallelism", "1"])
    assert code == EXIT_OK
    golden = GOLDEN / "example_estimate.estimates.csv"
    assert (out / "estimates.csv").read_bytes() == golden.read_bytes()
