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


def _estimate(cfg, golden, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the configs name their data files relative to the repo root
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "--parallelism", "1"])
    assert code == EXIT_OK
    assert (out / "estimates.csv").read_bytes() == (GOLDEN / golden).read_bytes()


def test_example_estimate_matches_golden(tmp_path, monkeypatch):
    _estimate(ROOT / "repro" / "example_estimate.cfg", "example_estimate.estimates.csv",
              tmp_path, monkeypatch)


def test_continuous_estimate_matches_golden(tmp_path, monkeypatch):
    # raking_gap cohort (n=500, written by write_csv), continuous outcome with
    # bounds taken from the data, all eight estimators
    _estimate(GOLDEN / "raking_gap_estimate.cfg", "raking_gap_estimate.estimates.csv",
              tmp_path, monkeypatch)
