import math
import os
import tracemalloc

import numpy as np
import pytest

from twophase_ate import sim
from twophase_ate.glm import expit, fit_glm
from twophase_ate.sim import (
    _CENSUS_CHUNK,
    DGP_IDS,
    PINNED_PSI,
    RAKING_GAP_HET_MEAN,
    DgpSpec,
    StudyEstimator,
    StudySpec,
    _aggregate,
    _census_draw,
    _RunOutcome,
    census_psi,
    generate,
    reference_psi,
    run_study,
    true_psi,
    write_report_csv,
)


class TestGenerate:
    def test_seed_determinism(self):
        spec = DgpSpec("kang_dr", n=500, seed=99)
        d1, t1 = generate(spec)
        d2, t2 = generate(spec)
        np.testing.assert_array_equal(d1.w1, d2.w1)
        np.testing.assert_array_equal(d1.w2[d1.phase2], d2.w2[d2.phase2])
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(d1.delta, d2.delta)
        np.testing.assert_array_equal(t1.pi0, t2.pi0)

    def test_different_seeds_differ(self):
        d1, _ = generate(DgpSpec("kang_dr", n=100, seed=1))
        d2, _ = generate(DgpSpec("kang_dr", n=100, seed=2))
        assert not np.array_equal(d1.y, d2.y)

    def test_kang_zero_latents_give_half(self):
        from twophase_ate.sim import _kang_g, _kang_pi

        z0 = np.zeros((1, 4))
        assert _kang_pi(z0)[0] == 0.5
        assert _kang_g(z0)[0] == 0.5

    def test_kang_car_pi_is_function_of_phase1(self):
        # the sampling probability must be recoverable from phase-1 columns
        ds, truth = generate(DgpSpec("kang_dr", n=2000, seed=5))
        z1 = 2.0 * np.log(ds.w1[:, 0])
        z2 = np.cbrt(ds.w1[:, 1])
        np.testing.assert_allclose(truth.pi0, expit(-0.1 * z1 + 0.1 * z2), atol=1e-10)

    def test_missing_rate_car_pi_is_function_of_phase1(self):
        ds, truth = generate(DgpSpec("missing_rate", n=2000, seed=6))
        np.testing.assert_allclose(
            truth.pi0, expit(1.1 + 0.2 * ds.w1[:, 0] + 0.2 * ds.y), atol=1e-12)

    def test_raking_gap_car_pi_is_function_of_phase1(self):
        ds, truth = generate(DgpSpec("raking_gap", n=2000, seed=7))
        np.testing.assert_allclose(truth.pi0, expit(0.5 * ds.w1[:, 0]), atol=1e-12)

    @pytest.mark.parametrize("intercept,target", [(1.1, 0.20), (-0.3, 0.50), (-1.1, 0.70)])
    def test_realized_missingness(self, intercept, target):
        spec = DgpSpec("missing_rate", n=100_000, seed=3, missing_intercept=intercept)
        ds, _ = generate(spec)
        missing = 1.0 - ds.delta.mean()
        assert abs(missing - target) < 0.02

    def test_unknown_dgp_rejected(self):
        with pytest.raises(ValueError, match="unknown dgp_id"):
            DgpSpec("mystery", n=10, seed=0)


class TestTruths:
    def test_missing_rate_truth_matches_pin(self):
        v = true_psi(DgpSpec("missing_rate", n=1, seed=0), n_mc=1_000_000)
        pin, se = PINNED_PSI["missing_rate"]
        assert v == pytest.approx(pin, abs=0.002)
        assert pin == pytest.approx(0.2595, abs=0.002)

    def test_kang_truth_matches_pin(self):
        v = true_psi(DgpSpec("kang_dr", n=1, seed=0), n_mc=1_000_000)
        pin, _ = PINNED_PSI["kang_dr"]
        assert v == pytest.approx(pin, abs=0.001)

    def test_raking_gap_truth_closed_form(self):
        spec = DgpSpec("raking_gap", n=1, seed=0, gamma=0.7)
        assert reference_psi(spec) == pytest.approx(0.7 * RAKING_GAP_HET_MEAN)
        v = true_psi(spec, n_mc=2_000_000)
        assert v == pytest.approx(reference_psi(spec), abs=0.003)

    def test_gamma_zero_kills_heterogeneity(self):
        assert reference_psi(DgpSpec("raking_gap", n=1, seed=0, gamma=0.0)) == 0.0

    def test_census_equals_truth_when_model_correct(self):
        spec = DgpSpec("raking_gap", n=1, seed=0, gamma=0.0)
        assert census_psi(spec, n_mc=400_000) == pytest.approx(0.0, abs=0.01)

    def test_census_gap_grows_with_gamma(self):
        gaps = []
        for gamma in (0.0, 0.5, 1.0):
            spec = DgpSpec("raking_gap", n=1, seed=0, gamma=gamma)
            gaps.append(abs(reference_psi(spec) - census_psi(spec, n_mc=400_000)))
        assert gaps[0] < gaps[1] < gaps[2]
        # the full-heterogeneity setting carries the documented ~0.25 gap
        assert gaps[2] == pytest.approx(0.246, abs=0.01)

    def test_missing_rate_census_value(self):
        v = census_psi(DgpSpec("missing_rate", n=1, seed=0), n_mc=1_000_000)
        assert v == pytest.approx(0.2413, abs=0.003)


class TestCensusInBoundedMemory:
    @pytest.mark.parametrize("dgp", DGP_IDS)
    def test_block_contrast_equals_full_design_contrast(self, dgp):
        n_mc = 2 * _CENSUS_CHUNK + 123
        spec = DgpSpec(dgp, n=1, seed=0)
        X, y, family = _census_draw(spec, n_mc, 5)
        fit = fit_glm(X, y, family=family)
        X1, X0 = X.copy(), X.copy()
        X1[:, 1], X0[:, 1] = 1.0, 0.0
        full = float(np.mean(fit.predict(X1) - fit.predict(X0)))
        assert census_psi(spec, n_mc=n_mc, seed=5) == full

    @pytest.mark.parametrize("dgp", DGP_IDS)
    def test_peak_traced_memory_per_row(self, dgp):
        # the draw, the fit and the contrast together stay under 160 bytes
        # a row; two full copies of the 6-column design would add 96
        n_mc = 200_000
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            census_psi(DgpSpec(dgp, n=1, seed=0), n_mc=n_mc)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / n_mc <= 160


def synthetic_outcomes(rng, n_runs, ref, sd):
    """Unbiased normal pseudo-estimator with correctly reported SE."""
    out = []
    for _ in range(n_runs):
        psi = rng.normal(ref, sd)
        out.append([_RunOutcome(psi, sd, psi - 1.96 * sd, psi + 1.96 * sd, True, 0.001)])
    return out


class TestAggregation:
    def study(self, n_runs=1000):
        return StudySpec(dgp=DgpSpec("missing_rate", n=100, seed=0),
                         estimators=(StudyEstimator("aipcw"),),
                         n_runs=n_runs, base_seed=0)

    def test_normal_theory_oracle_coverage(self):
        rng = np.random.default_rng(0)
        rep = _aggregate(self.study(), synthetic_outcomes(rng, 1000, 0.25, 0.03), 0.25)
        row = rep.rows[0]
        assert abs(row.oracle_coverage - 0.95) < 0.02
        assert abs(row.coverage - 0.95) < 0.02
        assert row.abs_bias < 0.004

    def test_mse_identity(self):
        rng = np.random.default_rng(1)
        rep = _aggregate(self.study(500), synthetic_outcomes(rng, 500, 0.2, 0.05), 0.2)
        row = rep.rows[0]
        lhs = row.mse
        rhs = row.abs_bias**2 + row.emp_se**2 * (row.n_ok - 1) / row.n_ok
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_single_run_degenerates(self):
        rng = np.random.default_rng(2)
        rep = _aggregate(self.study(1), synthetic_outcomes(rng, 1, 0.2, 0.05), 0.2)
        row = rep.rows[0]
        assert math.isnan(row.emp_se) and math.isnan(row.oracle_coverage)
        assert row.coverage in (0.0, 1.0)

    def test_failures_excluded_and_counted(self):
        rng = np.random.default_rng(3)
        outcomes = synthetic_outcomes(rng, 10, 0.2, 0.05)
        outcomes[3] = [_RunOutcome(error="boom")]
        outcomes[7] = [_RunOutcome(error="boom")]
        rep = _aggregate(self.study(10), outcomes, 0.2)
        row = rep.rows[0]
        assert row.n_ok == 8 and row.n_failed == 2
        assert row.first_error == "boom"
        assert not math.isnan(row.psi_mean)


class TestRunStudy:
    def small_study(self, parallelism=1):
        return StudySpec(
            dgp=DgpSpec("missing_rate", n=300, seed=0),
            estimators=(StudyEstimator("aipcw"), StudyEstimator("ipcw_tmle")),
            n_runs=6, base_seed=500, parallelism=parallelism,
        )

    def test_deterministic_report(self, tmp_path):
        r1 = run_study(self.small_study())
        r2 = run_study(self.small_study())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(r1, p1)
        write_report_csv(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        r1 = run_study(self.small_study(parallelism=1))
        r2 = run_study(self.small_study(parallelism=2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(r1, p1)
        write_report_csv(r2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("parallelism, cpus, workers", [
        (100_000, 8, 6),  # no more workers than runs
        (64, 4, 4),  # no more workers than processors
        (3, None, None),  # processor count unknown: serial, no pool
        (1, 8, None),
    ])
    def test_pool_is_bounded_by_runs_and_processors(self, tmp_path, monkeypatch,
                                                    parallelism, cpus, workers):
        serial = tmp_path / "serial.csv"
        write_report_csv(run_study(self.small_study()), serial)
        opened = []

        class RecordingPool:
            """Records its size and runs `map` serially in this process."""

            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        pooled = tmp_path / "pooled.csv"
        write_report_csv(run_study(self.small_study(parallelism=parallelism)), pooled)
        assert opened == ([] if workers is None else [workers])
        assert pooled.read_bytes() == serial.read_bytes()

    def test_rows_carry_sane_metrics(self):
        rep = run_study(self.small_study())
        for row in rep.rows:
            assert row.n_ok == 6 and row.n_failed == 0
            assert 0.0 <= row.coverage <= 1.0
            assert row.mse >= 0.0


class TestSpecValidation:
    def test_negative_max_outer_iter_rejected(self):
        with pytest.raises(ValueError, match="max_outer_iter"):
            StudyEstimator("ipcw_tmle_target_pi", max_outer_iter=-3)

    @pytest.mark.parametrize("trunc", [{"trunc_pi": (0.9, 0.1)}, {"trunc_g": (0.01, 1.0)}])
    def test_bad_truncation_rejected(self, trunc):
        with pytest.raises(ValueError, match="trunc_"):
            StudySpec(dgp=DgpSpec("missing_rate", n=100, seed=0),
                      estimators=(StudyEstimator("aipcw"),), n_runs=1, base_seed=0, **trunc)


class TestSidecar:
    def test_nuisance_fit_time_reported_beside_estimator_times(self, tmp_path):
        import json

        from twophase_ate.sim import write_sidecar

        study = StudySpec(dgp=DgpSpec("missing_rate", n=300, seed=0),
                          estimators=(StudyEstimator("aipcw"), StudyEstimator("eee")),
                          n_runs=2, base_seed=7)
        report = run_study(study)
        path = tmp_path / "report.meta.json"
        write_sidecar(report, study, path, wall_time=1.0)
        meta = json.loads(path.read_text())
        assert meta["mean_nuisance_fit_s"] == report.mean_nuisance_fit > 0
        assert set(meta["mean_runtime_s"]) == {"aipcw", "eee"}
