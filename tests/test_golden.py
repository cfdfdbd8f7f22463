"""Numerical regression against pinned reports.

Each case runs a small bundled config through the CLI and compares its
output byte for byte with the file pinned under tests/golden/. A refactor
that moves any estimate, count or coverage in the last printed digit fails
here. Regenerating a pinned file is a deliberate change of results and
belongs in its own commit with a CHANGES.md entry explaining it.
"""

import os
from pathlib import Path

import pytest

from twophase_ate.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parent.parent


# every pinned study report is checked: a new <case>.report.csv with its
# <case>.cfg joins the suite without being listed here
STUDY_CASES = sorted(p.name.removesuffix(".report.csv") for p in GOLDEN.glob("*.report.csv"))


def test_every_golden_config_has_a_pinned_output():
    for cfg in GOLDEN.glob("*.cfg"):
        case = cfg.stem
        assert ((GOLDEN / f"{case}.report.csv").exists()
                or (GOLDEN / f"{case}.estimates.csv").exists()), cfg.name


# with a pool, the census reference is computed while the runs proceed;
# each census report is run that way too, and must not depend on it
STUDY_RUNS = ([pytest.param(case, 1, id=case) for case in STUDY_CASES]
              + [pytest.param(case, 2, id=f"{case}-pool") for case in STUDY_CASES
                 if "census" in case])


@pytest.mark.parametrize("case, parallelism", STUDY_RUNS)
def test_study_report_matches_golden(case, parallelism, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # so that parallelism 2 opens a pool
    out = tmp_path / "out"
    code = main(["--config", str(GOLDEN / f"{case}.cfg"), "--out", str(out),
                 "--parallelism", str(parallelism)])
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
