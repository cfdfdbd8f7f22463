import dataclasses
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from twophase_ate import cli, sim
from twophase_ate.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_ESTIMATOR_FAILURE,
    EXIT_OK,
    KEYS,
    main,
    parse_config_text,
)
from twophase_ate.data_model import CsvSchema, Dataset, load_csv, write_csv
from twophase_ate.estimators import (
    _EIC_MODES,
    ESTIMATOR_IDS,
    OPTIONS_READ,
    EstimatorOptions,
    run_roster,
)
from twophase_ate.glm import GlmError
from twophase_ate.nuisance import NuisanceConfig
from twophase_ate.sim import DgpSpec, generate

from util import (
    fulldata_tmle,
    make_full_dataset,
    make_twophase_dataset,
    run_python,
    zero_covariate_cohort,
)

OPTION_NAMES = sorted(set().union(*OPTIONS_READ.values()))
SCHEMA = CsvSchema(treatment="a", outcome="y", delta="d", w1=("u1",), w2=("v1", "v2"))
ROOT = Path(__file__).resolve().parent.parent

SCHEMA_LINES = [
    "schema.treatment = a",
    "schema.outcome = y",
    "schema.delta = d",
    "schema.w1 = u1",
    "schema.w2 = v1, v2",
]


def write_cfg(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_rows(path):
    import csv

    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestEstimateMode:
    def test_toy_dataset_produces_sane_row(self, tmp_path):
        ds = make_twophase_dataset(np.random.default_rng(0), n=120)
        data = tmp_path / "toy.csv"
        write_csv(ds, data, SCHEMA)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate",
            f"data.path = {data}",
            *SCHEMA_LINES,
            "estimators = ipcw_tmle",
        ])
        code = main(["--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "out" / "estimates.csv")
        assert len(rows) == 1
        row = rows[0]
        psi, lo, hi = float(row["psi_hat"]), float(row["ci_lo"]), float(row["ci_hi"])
        assert np.isfinite(psi) and lo < psi < hi
        assert row["converged"] == "true"

    def test_known_pi_one_matches_fulldata_fixture(self, tmp_path):
        ds = make_full_dataset(np.random.default_rng(1), n=200)
        data = tmp_path / "full.csv"
        write_csv(ds, data, SCHEMA)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate",
            f"data.path = {data}",
            *SCHEMA_LINES,
            "estimators = ipcw_tmle",
            "nuisance.known_pi = 1.0",
        ])
        code = main(["--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        row = read_rows(tmp_path / "out" / "estimates.csv")[0]
        assert float(row["psi_hat"]) == pytest.approx(fulldata_tmle(ds), abs=1e-8)

    def test_known_constants_match_per_row_values(self, tmp_path):
        data = tmp_path / "toy.csv"
        write_csv(make_twophase_dataset(np.random.default_rng(8), n=200), data, SCHEMA)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate",
            f"data.path = {data}",
            *SCHEMA_LINES,
            "nuisance.known_pi = 0.4",
            "nuisance.known_g = 0.5",
        ])
        code = main(["--config", cfg, "--out", str(tmp_path / "out")])
        rows = read_rows(tmp_path / "out" / "estimates.csv")
        ds = load_csv(data, SCHEMA)
        ncfg = NuisanceConfig(known_pi=np.full(ds.n, 0.4), known_g=np.full(ds.n, 0.5))
        _, results = run_roster(ds, [(e, EstimatorOptions()) for e in ESTIMATOR_IDS], ncfg)
        assert [row["estimator"] for row in rows] == list(ESTIMATOR_IDS)
        for row, (res, _) in zip(rows, results):
            assert [row[k] for k in ("psi_hat", "se", "ci_lo", "ci_hi")] == [
                f"{v:.10g}" for v in (res.psi_hat, res.se, *res.ci95)], row["estimator"]
            assert (row["n_iter"], row["converged"]) == (
                str(res.n_outer_iterations), str(res.converged).lower())
        assert code == (EXIT_OK if all(res.converged for res, _ in results)
                        else EXIT_ESTIMATOR_FAILURE)

    def test_missing_delta_column_is_config_error(self, tmp_path):
        ds = make_twophase_dataset(np.random.default_rng(2), n=60)
        data = tmp_path / "toy.csv"
        write_csv(ds, data, SCHEMA)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate",
            f"data.path = {data}",
            "schema.treatment = a",
            "schema.outcome = y",
            "schema.w1 = u1",
        ])
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg", ["mode = estimate", "sim.banana = 3"])
        assert main(["--config", cfg]) == EXIT_CONFIG_ERROR

    def test_estimator_failure_exits_one(self, tmp_path):
        # single-arm phase-2 data: the outcome regression is unidentifiable
        lines = ["u1,v1,v2,a,y,d"]
        rng = np.random.default_rng(3)
        for i in range(30):
            a = 1 if i < 25 else 0
            d = 1 if a == 1 else 0
            v1 = f"{rng.normal():.3f}" if d else ""
            v2 = f"{rng.normal():.3f}" if d else ""
            lines.append(f"{rng.normal():.3f},{v1},{v2},{a},{i % 2},{d}")
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines) + "\n")
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate",
            f"data.path = {data}",
            *SCHEMA_LINES,
            "estimators = aipcw",
        ])
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_ESTIMATOR_FAILURE
        row = read_rows(tmp_path / "out" / "estimates.csv")[0]
        assert row["converged"] == "false"

    def test_one_failed_estimator_leaves_the_other_rows(self, tmp_path, capsys):
        # on this draw only tmle_alt fails: its arm fluctuation is degenerate
        ds, _ = generate(DgpSpec("kang_dr", n=20, seed=11))
        data = tmp_path / "cohort.csv"
        write_csv(ds, data, CsvSchema(treatment="a", outcome="y", delta="d",
                                      w1=("u1", "u2"), w2=("v1", "v2")))
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate",
            f"data.path = {data}",
            *[line if line != "schema.w1 = u1" else "schema.w1 = u1, u2" for line in SCHEMA_LINES],
        ])
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_ESTIMATOR_FAILURE
        rows = read_rows(tmp_path / "out" / "estimates.csv")
        assert [row["estimator"] for row in rows] == list(ESTIMATOR_IDS)
        for row in rows:
            if row["estimator"] == "tmle_alt":
                assert row["psi_hat"] == row["se"] == "" and row["converged"] == "false"
            else:
                assert np.isfinite(float(row["psi_hat"]))
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("estimator ")]
        assert len(failed) == 1
        assert failed[0].startswith("estimator tmle_alt failed: tmle_alt failed: degenerate")

    def test_phase2_covariate_constant_at_zero(self, tmp_path):
        # raking once died here with a LinAlgError traceback, and the other
        # estimators' rows were lost with it
        data = tmp_path / "cohort.csv"
        write_csv(zero_covariate_cohort(), data,
                  CsvSchema(treatment="a", outcome="y", delta="d", w1=("u1", "u2"),
                            w2=("v1", "v2")))
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate", f"data.path = {data}", "schema.treatment = a",
            "schema.outcome = y", "schema.delta = d", "schema.w1 = u1, u2",
            "schema.w2 = v1, v2", "estimators = raking, aipcw, tmle_alt",
        ])
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "estimates.csv")
        assert [r["estimator"] for r in rows] == ["raking", "aipcw", "tmle_alt"]
        for r in rows:
            assert np.isfinite([float(r[k]) for k in ("psi_hat", "se", "ci_lo", "ci_hi")]).all()


    def test_overflowing_covariate_names_its_cause(self, tmp_path, capsys):
        # a phase-2 covariate of order 1e154 overflows the outcome fit's Gram
        # matrix; every estimator used to fail on "non-finite values"
        ds, _ = generate(DgpSpec("missing_rate", n=300, seed=4))
        ds = Dataset(w1=ds.w1, a=ds.a, y=ds.y, delta=ds.delta, w2=ds.w2 * 1e154,
                     y_kind=ds.y_kind)
        data = tmp_path / "cohort.csv"
        write_csv(ds, data, CsvSchema(treatment="a", outcome="y", delta="d",
                                      w1=("u1", "u2"), w2=("v1", "v2")))
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate", f"data.path = {data}", "schema.treatment = a",
            "schema.outcome = y", "schema.delta = d", "schema.w1 = u1, u2",
            "schema.w2 = v1, v2", "estimators = aipcw, raking",
        ])
        assert main(["--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_ESTIMATOR_FAILURE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for line in err:
            assert line.endswith("nuisance fitting failed: non-finite Gram matrix: "
                                 "a covariate is too large in magnitude; rescale it"), line


class TestBundledExample:
    def test_example_cohort_estimates(self, tmp_path, repro_dir, monkeypatch):
        monkeypatch.chdir(repro_dir.parent)  # config uses a repo-relative path
        out = tmp_path / "out"
        code = main(["--config", str(repro_dir / "example_estimate.cfg"), "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out / "estimates.csv")
        assert [r["estimator"] for r in rows] == ["aipcw", "ipcw_tmle", "raking"]
        for r in rows:
            psi, lo, hi = float(r["psi_hat"]), float(r["ci_lo"]), float(r["ci_hi"])
            assert np.isfinite(psi) and lo < psi < hi
            assert r["converged"] == "true"


class TestFreshProcess:
    """`python -m twophase_ate.cli` in a new interpreter, as a user runs it,
    writes the same bytes as an in-process main call."""

    @pytest.mark.parametrize("cfg, flags, output", [
        ("repro/example_estimate.cfg", [], "estimates.csv"),
        ("repro/smoke_n300.cfg", ["--parallelism", "1"], "report.csv"),  # no pool
    ])
    def test_same_output_as_in_process(self, cfg, flags, output, tmp_path, monkeypatch):
        argv = ["--config", cfg, *flags, "--out"]
        proc = run_python("-m", "twophase_ate.cli", *argv, str(tmp_path / "fresh"), cwd=ROOT)
        assert proc.returncode == EXIT_OK, proc.stderr
        monkeypatch.chdir(ROOT)  # the configs name their data files relative to the repo root
        assert main([*argv, str(tmp_path / "in_process")]) == EXIT_OK
        fresh, in_process = tmp_path / "fresh" / output, tmp_path / "in_process" / output
        assert fresh.read_bytes() == in_process.read_bytes()


class TestSimulateMode:
    def test_smoke_config_runs_and_is_deterministic(self, tmp_path, repro_dir):
        cfg = repro_dir / "smoke_n300.cfg"
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--config", str(cfg), "--out", str(out1), "--parallelism", "1"]) == EXIT_OK
        assert main(["--config", str(cfg), "--out", str(out2), "--parallelism", "1"]) == EXIT_OK
        r1 = (out1 / "report.csv").read_bytes()
        r2 = (out2 / "report.csv").read_bytes()
        assert r1 == r2
        assert (out1 / "report.meta.json").exists()

    def test_sidecar_is_strict_json_when_an_estimator_never_succeeds(self, tmp_path):
        # every draw of six records fails aipcw; the sidecar held "aipcw": NaN
        import json

        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate", "sim.dgp = missing_rate", "sim.n = 6", "sim.n_runs = 2",
            "seed = 3", "estimators = aipcw",
        ])
        assert main(["--config", cfg, "--out", str(tmp_path), "--parallelism", "1"]) == EXIT_ESTIMATOR_FAILURE
        assert read_rows(tmp_path / "report.csv")[0]["n_ok"] == "0"

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        meta = json.loads((tmp_path / "report.meta.json").read_text(), parse_constant=reject)
        assert meta["mean_runtime_s"] == {}

    def test_mode_mixing_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate",
            "data.path = nope.csv",
            "sim.dgp = kang_dr",
            "sim.n = 100",
            "sim.n_runs = 1",
        ])
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR

    def test_unknown_dgp_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate",
            "sim.dgp = mystery",
            "sim.n = 100",
            "sim.n_runs = 1",
        ])
        assert main(["--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR


class TestConfigParsing:
    def test_duplicate_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path / "run.cfg", ["mode = estimate", "mode = simulate"])
        assert main(["--config", cfg]) == EXIT_CONFIG_ERROR

    def test_comments_and_blank_lines_ignored(self):
        from twophase_ate.cli import parse_config_text

        cfg = parse_config_text("# header\n\nmode = simulate  # trailing\n")
        assert cfg == {"mode": "simulate"}

    def test_mode_flag_overrides_config(self, tmp_path):
        # config says estimate but is otherwise a simulate config; the
        # --mode flag must win
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate",
            "sim.dgp = missing_rate",
            "sim.n = 200",
            "sim.n_runs = 1",
            "estimators = aipcw",
        ])
        out = tmp_path / "out"
        code = main(["--config", cfg, "--mode", "simulate", "--out", str(out),
                     "--parallelism", "1"])
        assert code == EXIT_OK
        assert (out / "report.csv").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG_ERROR

    def test_env_var_parallelism_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TWOPHASE_THREADS", "1")
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate",
            "sim.dgp = missing_rate",
            "sim.n = 200",
            "sim.n_runs = 2",
            "estimators = aipcw",
        ])
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "report.csv").exists()


class TestConfigHardening:
    """Malformed values exit 2 with a message, never a traceback or a silent answer."""

    def simulate_cfg(self, tmp_path, *extra):
        return write_cfg(tmp_path / "run.cfg", [
            "mode = simulate",
            "sim.dgp = missing_rate",
            "sim.n = 200",
            "sim.n_runs = 1",
            "estimators = aipcw, ipcw_tmle_target_pi",
            *extra,
        ])

    def run(self, cfg, tmp_path, capsys):
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), "--parallelism", "1"])
        return code, capsys.readouterr().err

    def test_non_numeric_truncation(self, tmp_path, capsys):
        cfg = self.simulate_cfg(tmp_path, "nuisance.trunc_pi = abc, 1")
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "nuisance.trunc_pi" in err and "abc" in err

    @pytest.mark.parametrize("key, pair", [
        ("trunc_pi", "0.9, 0.1"),  # reversed: np.clip would set every pi to 0.1
        ("trunc_pi", "0, 1"),
        ("trunc_pi", "0.1, 1.5"),
        ("trunc_g", "0.1, 1"),
        ("trunc_g", "0.5, 0.5"),
    ])
    def test_truncation_out_of_order_or_range(self, tmp_path, capsys, key, pair):
        cfg = self.simulate_cfg(tmp_path, f"nuisance.{key} = {pair}")
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert f"nuisance.{key}" in err
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_truncation_checked_in_estimate_mode(self, tmp_path, capsys):
        ds = make_twophase_dataset(np.random.default_rng(5), n=60)
        data = tmp_path / "toy.csv"
        write_csv(ds, data, SCHEMA)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate", f"data.path = {data}", *SCHEMA_LINES,
            "nuisance.trunc_pi = 0.9, 0.1",
        ])
        code, _ = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR

    def test_non_integer_thread_variable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TWOPHASE_THREADS", "x")
        cfg = self.simulate_cfg(tmp_path)
        code = main(["--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG_ERROR
        assert "TWOPHASE_THREADS" in capsys.readouterr().err

    def test_negative_max_outer_iter(self, tmp_path, capsys):
        cfg = self.simulate_cfg(tmp_path, "estimator.ipcw_tmle_target_pi.max_outer_iter = -3")
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "max_outer_iter" in err

    def test_zero_max_outer_iter_still_runs(self, tmp_path, capsys):
        cfg = self.simulate_cfg(tmp_path, "estimator.ipcw_tmle_target_pi.max_outer_iter = 0")
        code, _ = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_OK


    @pytest.mark.parametrize("key", [
        f"estimator.{est}.{opt}" for est in ESTIMATOR_IDS for opt in OPTION_NAMES
        if opt not in OPTIONS_READ[est]])
    def test_option_the_estimator_never_reads(self, tmp_path, capsys, key):
        # estimator.aipcw.mode = linearized once wrote an aipcw:linearized
        # row holding the refit numbers
        value = "linearized" if key.endswith(".mode") else "3"
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate", "sim.dgp = missing_rate", "sim.n = 200", "sim.n_runs = 1",
            f"estimators = {key.split('.')[1]}", f"{key} = {value}",
        ])
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert key in err
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("raw", [*_EIC_MODES, "Refit", "linearised", "", "estimate"])
    def test_mode_parser_accepts_what_the_options_accept(self, raw):
        parse = cli.KEYS["estimator.quasi_tmle.mode"][1]
        try:
            EstimatorOptions(mode=raw)
        except ValueError:
            with pytest.raises(ValueError):
                parse(raw)
        else:
            assert parse(raw) == raw

    def test_option_rows_are_the_estimator_options(self):
        assert {option: default for option, (_, default) in cli._OPTION_ROWS.items()} == \
            dataclasses.asdict(EstimatorOptions())

    @pytest.mark.parametrize("key", [
        f"estimator.{est}.{opt}" for est in ESTIMATOR_IDS for opt in sorted(OPTIONS_READ[est])])
    def test_option_the_estimator_reads(self, key):
        value = "refit" if key.endswith(".mode") else "0"
        assert parse_config_text(f"{key} = {value}") == {key: value}

    def test_study_with_an_unusable_draw_reports_it(self, tmp_path, capsys):
        # seed 42 of this law draws no phase-2 record; it used to abort the
        # whole study with exit 2 and no report
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate", "seed = 37", "sim.dgp = missing_rate", "sim.n = 40",
            "sim.n_runs = 6", "sim.missing_intercept = -2.5", "estimators = aipcw",
        ])
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_ESTIMATOR_FAILURE  # 5 of 6 runs failed
        rows = read_rows(tmp_path / "out" / "report.csv")
        assert (rows[0]["n_ok"], rows[0]["n_failed"]) == ("1", "5")

    @pytest.mark.parametrize("line", ["sim.gamma = nan", "sim.gamma = -inf",
                                      "sim.missing_intercept = 1e400"])
    def test_non_finite_dgp_parameter(self, tmp_path, capsys, line):
        # not a run failure of every draw: the study is misconfigured
        code, err = self.run(self.simulate_cfg(tmp_path, line), tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "must be finite" in err
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_gamma_too_large(self, tmp_path, capsys):
        # gamma = 1e308 overflowed the outcome draw: every run failed as an
        # unusable draw and the study exited 1
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate", "sim.dgp = raking_gap", "sim.n = 200", "sim.n_runs = 1",
            "sim.gamma = 1e308", "estimators = aipcw",
        ])
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "sim.gamma must lie in" in err
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("line, key", [("seed = abc", "seed"),
                                           ("parallelism = -3", "parallelism")])
    def test_malformed_value_that_a_flag_overrides(self, tmp_path, capsys, line, key):
        # the flag used to hide the config value, which was never read
        cfg = self.simulate_cfg(tmp_path, line)
        code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                     "--seed", "2", "--parallelism", "1"])
        assert code == EXIT_CONFIG_ERROR
        assert f"{key}: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("lo, hi", [("-1e308", "1e308"), ("-inf", "inf"), ("0", "inf")])
    def test_outcome_bounds_must_be_finite(self, tmp_path, capsys, lo, hi, monkeypatch):
        # +-1e308 once overflowed the span to inf and reported psi_hat = -inf
        # with converged = true
        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate", "data.path = tests/golden/raking_gap_cohort.csv",
            "data.y_kind = continuous", f"data.y_lo = {lo}", f"data.y_hi = {hi}",
            "schema.treatment = a", "schema.outcome = y", "schema.delta = delta",
            "schema.w1 = x1, x2", "schema.w2 = z1, z2", "estimators = aipcw, eee",
        ])
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "outcome bounds" in err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_non_utf8_config_byte(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"mode = simulate\n# caf\xe9\nsim.dgp = missing_rate\n")
        code, err = self.run(str(cfg), tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "cannot read config" in err and "utf-8" in err

    @pytest.mark.parametrize("seed, n_runs", [(-1, 1), (2**64 - 1, 2), (2**64, 1)])
    def test_seed_outside_philox_key_range(self, tmp_path, capsys, seed, n_runs):
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate", "sim.dgp = missing_rate", "sim.n = 200",
            f"sim.n_runs = {n_runs}", "estimators = aipcw",
        ])
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), "--parallelism", "1",
                     "--seed", str(seed)])
        assert code == EXIT_CONFIG_ERROR
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_largest_seed_still_runs(self, tmp_path, capsys):
        cfg = self.simulate_cfg(tmp_path, f"seed = {2**64 - 1}")
        code, _ = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_OK

    @pytest.mark.parametrize("n_runs", [0, -2])
    def test_empty_study(self, tmp_path, capsys, n_runs):
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate", "sim.dgp = missing_rate", "sim.n = 200",
            f"sim.n_runs = {n_runs}", "estimators = aipcw",
        ])
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "sim.n_runs" in err
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("y_kind, bounds", [
        ("binary", ["data.y_lo = 0", "data.y_hi = 1"]),
        ("continuous", ["data.y_lo = -5"]),
        ("continuous", ["data.y_hi = 5"]),
    ])
    def test_outcome_bounds_that_would_be_ignored(self, tmp_path, capsys, y_kind, bounds):
        ds = make_twophase_dataset(np.random.default_rng(5), n=60)
        data = tmp_path / "toy.csv"
        write_csv(ds, data, SCHEMA)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate", f"data.path = {data}", *SCHEMA_LINES,
            f"data.y_kind = {y_kind}", *bounds,
        ])
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "data.y_" in err
        assert not (tmp_path / "out" / "estimates.csv").exists()

    def test_data_keys_in_simulate_mode(self, tmp_path, capsys):
        cfg = self.simulate_cfg(tmp_path, "data.y_lo = 0", "data.y_hi = 1")
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "data.*" in err

    def test_sim_keys_in_estimate_mode(self, tmp_path, capsys):
        ds = make_twophase_dataset(np.random.default_rng(5), n=60)
        data = tmp_path / "toy.csv"
        write_csv(ds, data, SCHEMA)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate", f"data.path = {data}", *SCHEMA_LINES, "sim.n_runs = 5",
        ])
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "sim.*" in err

    def test_option_for_an_estimator_not_in_the_roster(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate", "sim.dgp = missing_rate", "sim.n = 200", "sim.n_runs = 1",
            "estimators = aipcw", "estimator.quasi_tmle.mode = linearized",
        ])
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "estimator.quasi_tmle.mode" in err and "not in estimators" in err
        assert not (tmp_path / "out" / "report.csv").exists()

    def test_schema_keys_in_simulate_mode(self, tmp_path, capsys):
        cfg = self.simulate_cfg(tmp_path, "schema.w1 = u1")
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "schema.*" in err

    @pytest.mark.parametrize("source", ["config", "argv", "environment"])
    def test_negative_worker_count(self, tmp_path, capsys, monkeypatch, source):
        # parallelism = -3 once ran one worker without a word
        extra, argv = [], []
        if source == "config":
            extra = ["parallelism = -3"]
        elif source == "argv":
            argv = ["--parallelism", "-5"]
        else:
            monkeypatch.setenv("TWOPHASE_THREADS", "-3")
        cfg = self.simulate_cfg(tmp_path, *extra)
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), *argv])
        assert code == EXIT_CONFIG_ERROR
        assert ">= 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("mode", ["simulate", "estimate"])
    def test_duplicate_roster_entry(self, tmp_path, capsys, mode):
        # two aipcw rows, and a sidecar keyed by label that kept only one
        if mode == "simulate":
            lines = ["mode = simulate", "sim.dgp = missing_rate", "sim.n = 200", "sim.n_runs = 1"]
        else:
            data = tmp_path / "toy.csv"
            write_csv(make_twophase_dataset(np.random.default_rng(5), n=60), data, SCHEMA)
            lines = ["mode = estimate", f"data.path = {data}", *SCHEMA_LINES]
        cfg = write_cfg(tmp_path / "run.cfg", [*lines, "estimators = aipcw, eee, aipcw"])
        code, err = self.run(cfg, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "aipcw is listed more than once" in err
        assert not (tmp_path / "out").exists()


SIMULATE_LINES = ["mode = simulate", "sim.dgp = missing_rate", "sim.n = 200", "sim.n_runs = 2"]


@pytest.fixture()
def no_work(monkeypatch):
    """Stop main where it would read the CSV, run the roster or run the study."""
    def reached(*args, **kwargs):
        raise TestBundledConfigs.Reached

    for name in ("load_csv", "run_roster", "run_study"):
        monkeypatch.setattr(cli, name, reached)


class TestEverySourceParsed:
    """Each flag, config line and environment value is parsed in full before
    any work, so an override never hides a malformed value."""

    def config(self, tmp_path, mode, *extra):
        if mode == "simulate":
            return write_cfg(tmp_path / "run.cfg", [*SIMULATE_LINES, *extra])
        return write_cfg(tmp_path / "run.cfg", [
            "mode = estimate", "data.path = toy.csv", *SCHEMA_LINES, *extra])

    def exit_two(self, capsys, argv, name):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert f"{name}: " in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("extra, argv", [([], ["--parallelism", "1"]),
                                             (["parallelism = 1"], [])])
    def test_malformed_thread_variable_under_a_worker_count(
            self, tmp_path, capsys, monkeypatch, no_work, extra, argv):
        monkeypatch.setenv("TWOPHASE_THREADS", "abc")
        cfg = self.config(tmp_path, "simulate", *extra)
        self.exit_two(capsys, ["--config", cfg, "--out", str(tmp_path / "out"), *argv],
                      "TWOPHASE_THREADS")

    @pytest.mark.parametrize("mode", ["simulate", "estimate"])
    @pytest.mark.parametrize("roster", [",", "aipcw,,raking", "aipcw,"])
    def test_empty_roster_item(self, tmp_path, capsys, no_work, mode, roster):
        # "estimators = ," once ran an empty roster and wrote a header-only report
        cfg = self.config(tmp_path, mode, f"estimators = {roster}")
        self.exit_two(capsys, ["--config", cfg, "--out", str(tmp_path / "out")], "estimators")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["simulate", "estimate"])
    @pytest.mark.parametrize("under", [False, True])
    def test_unusable_output_directory(self, tmp_path, capsys, no_work, mode, under):
        # the study used to run in full, then die with a traceback and exit 1
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        cfg = self.config(tmp_path, mode)
        self.exit_two(capsys, ["--config", cfg, "--out", str(out), "--parallelism", "1"], "out")

    def test_malformed_mode_under_the_mode_flag(self, tmp_path, capsys, no_work):
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = bogus", "data.path = toy.csv", *SCHEMA_LINES])
        self.exit_two(capsys, ["--config", cfg, "--mode", "estimate",
                               "--out", str(tmp_path / "out")], "mode")

    @pytest.mark.parametrize("flag, value", [("--mode", "bogus"), ("--seed", "1.5"),
                                             ("--parallelism", "two")])
    def test_malformed_flag(self, tmp_path, capsys, no_work, flag, value):
        cfg = self.config(tmp_path, "simulate")
        self.exit_two(capsys, ["--config", cfg, "--out", str(tmp_path / "out"), flag, value],
                      flag)

    @pytest.mark.parametrize("mode, line, message", [
        ("estimate", "out =", "out: expected a value"),
        ("estimate", "data.y_lo = abc", "data.y_lo: expected a number, got 'abc'"),
        ("estimate", "nuisance.known_pi = 1.5",
         "nuisance.known_pi: expected a probability in (0, 1], got '1.5'"),
        ("simulate", "nuisance.known_g = maybe",
         "nuisance.known_g: expected a boolean, got 'maybe'"),
        ("simulate", "estimators = aipcw, bogus", "estimators: unknown estimator 'bogus'"),
        ("simulate", "no equals sign", "run.cfg:5: expected 'key = value', got 'no equals sign'"),
        ("simulate", " = 3", "run.cfg:5: empty key"),
    ])
    def test_malformed_line(self, tmp_path, capsys, no_work, mode, line, message):
        cfg = self.config(tmp_path, mode, line)
        code = main(["--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.endswith(f"{message}\n") and err.count("\n") == 1, err


class TestWorkerCount:
    """A flag beats the config, which beats TWOPHASE_THREADS; a count of 0
    falls back to TWOPHASE_THREADS, then to one worker per CPU."""

    @pytest.mark.parametrize("extra, argv, threads, expected", [
        (["parallelism = 0"], [], "1", 1),
        ([], ["--parallelism", "0"], "1", 1),
        (["parallelism = 1"], ["--parallelism", "2"], "3", 2),
        (["parallelism = 1"], [], "2", 1),
        ([], [], "2", 2),
        ([], [], None, os.cpu_count() or 1),
    ])
    def test_order(self, tmp_path, monkeypatch, extra, argv, threads, expected):
        seen = []

        def record(study):
            seen.append(study.parallelism)
            raise TestBundledConfigs.Reached

        monkeypatch.setattr(cli, "run_study", record)
        if threads is None:
            monkeypatch.delenv("TWOPHASE_THREADS", raising=False)
        else:
            monkeypatch.setenv("TWOPHASE_THREADS", threads)
        cfg = write_cfg(tmp_path / "run.cfg", [*SIMULATE_LINES, *extra])
        with pytest.raises(TestBundledConfigs.Reached):
            main(["--config", cfg, "--out", str(tmp_path / "out"), *argv])
        assert seen == [expected]


class TestEveryMessage:
    """A boolean known mechanism, each verbose line and a failed estimate,
    through main: its exit code and its output."""

    @pytest.mark.parametrize("raw, known", [("false", False), ("No", False), ("yes", True)])
    def test_boolean_known_mechanism(self, tmp_path, monkeypatch, raw, known):
        seen = []

        def record(study):
            seen.append((study.known_pi, study.known_g))
            raise TestBundledConfigs.Reached

        monkeypatch.setattr(cli, "run_study", record)
        cfg = write_cfg(tmp_path / "run.cfg", [*SIMULATE_LINES, f"nuisance.known_pi = {raw}"])
        with pytest.raises(TestBundledConfigs.Reached):
            main(["--config", cfg, "--out", str(tmp_path / "out")])
        assert seen == [(known, False)]

    def test_verbose_estimate(self, tmp_path, capsys):
        ds = make_twophase_dataset(np.random.default_rng(0), n=120)
        data = tmp_path / "toy.csv"
        write_csv(ds, data, SCHEMA)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = estimate", f"data.path = {data}", *SCHEMA_LINES, "estimators = aipcw"])
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--verbose"]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"loaded 120 records ({ds.n_phase2} phase-2) from {data}\n"
            f"wrote {out / 'estimates.csv'}\n")

    def test_verbose_simulate(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg", [*SIMULATE_LINES[:3], "sim.n_runs = 1",
                                                "estimators = aipcw"])
        out = tmp_path / "out"
        assert main(["--config", cfg, "--out", str(out), "--parallelism", "1",
                     "--verbose"]) == EXIT_OK
        assert re.fullmatch(rf"wrote {re.escape(str(out / 'report.csv'))} \(\d+\.\ds\)\n",
                            capsys.readouterr().out)

    def test_census_that_cannot_be_fit(self, tmp_path, capsys, monkeypatch):
        def unfit(spec):
            raise GlmError("singular weighted Gram matrix even after ridge retry")

        monkeypatch.setattr(sim, "census_psi", unfit)
        cfg = write_cfg(tmp_path / "run.cfg", [
            "mode = simulate", "sim.dgp = raking_gap", "sim.n = 200", "sim.n_runs = 1",
            "sim.reference = census", "estimators = aipcw"])
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), "--parallelism", "1"])
        assert code == EXIT_ESTIMATOR_FAILURE
        assert capsys.readouterr().err == (
            "estimation failed: singular weighted Gram matrix even after ridge retry\n")


class TestReadme:
    def test_cli_section_matches_the_key_table(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        missing = [key for key in KEYS
                   if not key.startswith("estimator.") and f"`{key}`" not in section]
        assert not missing, f"README's CLI section does not name {missing}"
        prefixes = "|".join(sorted({key.split(".")[0] for key in KEYS if "." in key}))
        named = set(re.findall(rf"(?<![\w.])(?:{prefixes})\.\w+(?:\.\w+)*", section))
        assert named and named <= set(KEYS), sorted(named - set(KEYS))


class TestBundledConfigs:
    """Every config the repository ships passes the CLI's checks."""

    class Reached(Exception):
        """Raised in place of running the study or the roster."""

    @pytest.mark.parametrize("cfg", sorted(
        str(p.relative_to(ROOT)) for p in [*ROOT.glob("repro/*.cfg"),
                                            *ROOT.glob("tests/golden/*.cfg")]))
    def test_config_is_accepted(self, cfg, tmp_path, monkeypatch):
        def reached(*args, **kwargs):
            raise self.Reached

        monkeypatch.setattr(cli, "run_study", reached)
        monkeypatch.setattr(cli, "run_roster", reached)
        monkeypatch.chdir(ROOT)  # the configs name their data files relative to the repo root
        with pytest.raises(self.Reached):
            main(["--config", cfg, "--out", str(tmp_path / "out"), "--parallelism", "1"])


class TestCsvHardening:
    """Unreadable or ambiguous CSV input exits 2 with a message."""

    def run(self, data, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "run.cfg",
                        ["mode = estimate", f"data.path = {data}", *SCHEMA_LINES])
        code = main(["--config", cfg, "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def good_text(self, tmp_path):
        data = tmp_path / "good.csv"
        write_csv(make_twophase_dataset(np.random.default_rng(6), n=60), data, SCHEMA)
        return data.read_text(encoding="utf-8")

    def test_missing_file(self, tmp_path, capsys):
        code, err = self.run(tmp_path / "absent.csv", tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "absent.csv" in err

    def test_directory(self, tmp_path, capsys):
        code, err = self.run(tmp_path, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "cannot read CSV file" in err

    def test_invalid_utf8_byte(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(self.good_text(tmp_path).encode("utf-8").replace(b"\n", b"\xff\n", 3))
        code, err = self.run(data, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "UTF-8" in err

    def test_field_over_csv_limit(self, tmp_path, capsys):
        text = self.good_text(tmp_path)
        data = tmp_path / "long.csv"
        data.write_text(text.replace("\n", "\n" + "1" * 200_000, 2), encoding="utf-8")
        code, err = self.run(data, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "line 2" in err and "field limit" in err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        text = self.good_text(tmp_path)
        code, _ = self.run(tmp_path / "good.csv", tmp_path, capsys)
        plain = (tmp_path / "out" / "estimates.csv").read_bytes()
        data = tmp_path / "bom.csv"
        data.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert (code, self.run(data, tmp_path, capsys)[0]) == (EXIT_OK, EXIT_OK)
        assert (tmp_path / "out" / "estimates.csv").read_bytes() == plain

    @pytest.mark.parametrize("column, cell", [("u1", "nan"), ("y", "inf"), ("v2", "-1e400")])
    def test_non_finite_cell_names_its_row(self, column, cell, tmp_path, capsys):
        rows = [line.split(",") for line in self.good_text(tmp_path).splitlines()]
        header = rows[0]
        # the first phase-2 row after the second, so that v2 is filled there
        k = next(i for i in range(3, len(rows)) if rows[i][header.index("d")] == "1")
        rows[k][header.index(column)] = cell
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(map(",".join, rows)) + "\n", encoding="utf-8")
        code, err = self.run(data, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert f"row {k}: column {column} must be finite, got '{cell}'" in err

    def test_duplicated_schema_column(self, tmp_path, capsys):
        # the row loop read the last u1 column and estimated from it
        rows = self.good_text(tmp_path).splitlines()
        data = tmp_path / "dup.csv"
        data.write_text("\n".join(["u1," + rows[0]] + ["0.5," + r for r in rows[1:]]) + "\n",
                        encoding="utf-8")
        code, err = self.run(data, tmp_path, capsys)
        assert code == EXIT_CONFIG_ERROR
        assert "'u1'" in err and "more than once" in err
        assert not (tmp_path / "out" / "estimates.csv").exists()


@pytest.fixture()
def repro_dir():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent / "repro"


# every config key main accepts, plus one it must reject
_FUZZ_KEYS = sorted(KEYS) + [
    f"estimator.{est}.{opt}" for est in ESTIMATOR_IDS for opt in OPTION_NAMES
    if opt not in OPTIONS_READ[est]
] + ["sim.banana"]
_EDGE_VALUES = ("nan", "1e400", "0.9, 0.1", "18446744073709551615", "")
_BASE = {
    "simulate": {"mode": "simulate", "sim.dgp": "missing_rate", "sim.n": "60",
                 "sim.n_runs": "1", "estimators": "aipcw, raking"},
    "estimate": {"mode": "estimate", "data.path": "toy.csv", "estimators": "aipcw, eee",
                 **dict(line.split(" = ") for line in SCHEMA_LINES)},
}


def _one_line(text):
    return " ".join(text.splitlines())


def _small(key, value):
    """Cap the study size keys at 40 and the worker count at 2, so a drawn
    integer cannot ask for a huge study or many processes; the value is read
    as the config parser reads it, up to any comment."""
    cap = {"sim.n": 40, "sim.n_runs": 40, "parallelism": 2}.get(key)
    if cap is None:
        return value
    try:
        return str(cap) if int(value.split("#", 1)[0]) > cap else value
    except ValueError:
        return value


# flag values; --out stays inside the scratch directory: a new directory, the
# CSV file, a path under that file, or nothing
_FLAG_VALUES = st.one_of(st.sampled_from(_EDGE_VALUES), st.text(max_size=20).map(_one_line))
_OUT_VALUES = ("out", "toy.csv", "toy.csv/sub", "")


class TestFuzzMain:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(base=st.sampled_from(sorted(_BASE)),
           dropped=st.sets(st.sampled_from(sorted(set().union(*_BASE.values()))),
                           max_size=2),
           lines=st.dictionaries(
               st.sampled_from(_FUZZ_KEYS),
               st.one_of(st.sampled_from(_EDGE_VALUES), st.text(max_size=20).map(_one_line)),
               max_size=4),
           flags=st.fixed_dictionaries({}, optional={
               "mode": st.sampled_from(sorted(_BASE)) | _FLAG_VALUES,
               "seed": st.integers(0, 2**64).map(str) | _FLAG_VALUES,
               "parallelism": st.integers(0, 2).map(str) | _FLAG_VALUES}),
           out=st.sampled_from(_OUT_VALUES),
           threads=st.none() | st.integers(0, 2).map(str)
           | _FLAG_VALUES.map(lambda text: text.replace("\0", "")))
    def test_any_config_exits_with_a_contract_code(self, base, dropped, lines, flags, out,
                                                   threads):
        cfg = {k: v for k, v in _BASE[base].items() if k not in dropped}
        cfg.update(lines)
        text = "".join(f"{key} = {_small(key, value)}\n" for key, value in cfg.items())
        # the --key=value form passes a value that starts with "-" as a value
        argv = ["--config", "run.cfg", f"--out={out}",
                *(f"--{key}={_small(key, value)}" for key, value in flags.items())]
        cwd = os.getcwd()
        # a worker count of 0 means one per CPU, so the CPU count is capped too
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
                mock.patch("os.cpu_count", return_value=2):
            os.environ.pop("TWOPHASE_THREADS", None)
            if threads is not None:
                os.environ["TWOPHASE_THREADS"] = _small("parallelism", threads)
            os.chdir(tmp)  # relative data paths stay inside the scratch directory
            try:
                write_csv(make_twophase_dataset(np.random.default_rng(0), n=80),
                          Path("toy.csv"), SCHEMA)
                Path("run.cfg").write_text(text, encoding="utf-8")
                code = main(argv)
            finally:
                os.chdir(cwd)
        event(f"{base} exit {code}")
        assert code in (EXIT_OK, EXIT_ESTIMATOR_FAILURE, EXIT_CONFIG_ERROR), (text, argv, threads)
