import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from twophase_ate.cli import (
    _ESTIMATOR_OPTION_KEYS,
    _KNOWN_KEYS,
    EXIT_CONFIG_ERROR,
    EXIT_ESTIMATOR_FAILURE,
    EXIT_OK,
    main,
)
from twophase_ate.data_model import CsvSchema, load_csv, write_csv
from twophase_ate.estimators import ESTIMATOR_IDS, EstimatorOptions, run_roster
from twophase_ate.nuisance import NuisanceConfig

from util import fulldata_tmle, make_full_dataset, make_twophase_dataset

SCHEMA = CsvSchema(treatment="a", outcome="y", delta="d", w1=("u1",), w2=("v1", "v2"))

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
_FUZZ_KEYS = sorted(_KNOWN_KEYS) + [
    f"estimator.{est}.{opt}" for est in ESTIMATOR_IDS for opt in _ESTIMATOR_OPTION_KEYS
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
    """Cap the study size keys, so a drawn integer cannot ask for a huge study;
    the value is read as the config parser reads it, up to any comment."""
    if key not in ("sim.n", "sim.n_runs"):
        return value
    try:
        return "40" if int(value.split("#", 1)[0]) > 40 else value
    except ValueError:
        return value


class TestFuzzMain:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(base=st.sampled_from(sorted(_BASE)),
           dropped=st.sets(st.sampled_from(sorted(set().union(*_BASE.values()))),
                           max_size=2),
           lines=st.dictionaries(
               st.sampled_from(_FUZZ_KEYS),
               st.one_of(st.sampled_from(_EDGE_VALUES), st.text(max_size=20).map(_one_line)),
               max_size=4))
    def test_any_config_exits_with_a_contract_code(self, base, dropped, lines):
        cfg = {k: v for k, v in _BASE[base].items() if k not in dropped}
        cfg.update(lines)
        text = "".join(f"{key} = {_small(key, value)}\n" for key, value in cfg.items())
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)  # relative data paths stay inside the scratch directory
            try:
                write_csv(make_twophase_dataset(np.random.default_rng(0), n=80),
                          Path("toy.csv"), SCHEMA)
                Path("run.cfg").write_text(text, encoding="utf-8")
                code = main(["--config", "run.cfg", "--out", "out", "--parallelism", "1"])
            finally:
                os.chdir(cwd)
        event(f"{base} exit {code}")
        assert code in (EXIT_OK, EXIT_ESTIMATOR_FAILURE, EXIT_CONFIG_ERROR), text
