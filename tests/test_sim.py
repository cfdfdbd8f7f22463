import hashlib
import math
import os
import re

import numpy as np
import pytest

from twophase_ate import sim
from twophase_ate.estimators import ESTIMATOR_IDS, EstimateResult, EstimatorOptions
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
    census_psi,
    generate,
    reference_psi,
    run_study,
    true_psi,
    write_report_csv,
)

from util import traced_peak


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

    def test_raking_gap_het_mean_is_pinned(self):
        # Phi(-1) = erfc(1/sqrt 2)/2; the pin is the value every raking_gap
        # reference and golden report was computed with
        assert RAKING_GAP_HET_MEAN == 1.8741177682605028
        closed = 1.25 - 1.25 * math.erfc(1 / math.sqrt(2)) + 2 * math.sin(1) * math.exp(-0.5)
        assert abs(RAKING_GAP_HET_MEAN - closed) <= 1e-15

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
        assert v == 0.24268986174605986

    @pytest.mark.parametrize("dgp, value", [("raking_gap", 1.6315027660746542),
                                            ("near_positivity", 0.49934282618104014)])
    def test_linear_census_at_study_size_is_pinned(self, dgp, value):
        # the draw size and seed of every census study's reference
        assert census_psi(DgpSpec(dgp, n=1, seed=0)) == value


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

    # traced peak bytes a row at 200,000 draws: the design and the outcome
    # take 56, and the contrast is written over the outcome. The linear fit
    # adds nothing of full length, and the 2^13-row blocks' temporaries
    # about 3.4 (59.4 in all, against 80 at 2^16-row blocks that copied the
    # design); the logistic fit's weighted copy of the design adds 48 more,
    # and its IRLS vectors the rest
    PEAK_BYTES_PER_ROW = {"kang_dr": 128, "missing_rate": 128,
                          "raking_gap": 60, "near_positivity": 60}

    @pytest.mark.parametrize("dgp", DGP_IDS)
    def test_peak_traced_memory_per_row(self, dgp):
        # the draw, the fit and the contrast together; one more full-length
        # vector would add 8
        n_mc = 200_000
        peak = traced_peak(lambda: census_psi(DgpSpec(dgp, n=1, seed=0), n_mc=n_mc))
        assert peak / n_mc <= self.PEAK_BYTES_PER_ROW[dgp]



def _dataset_digest(ds, truth) -> str:
    sha = hashlib.sha256()
    for arr in (ds.w1, ds.a, ds.y, ds.delta, ds.w2, truth.pi0, truth.g0):
        sha.update(repr((arr.dtype.str, arr.shape)).encode())
        sha.update(arr.tobytes())
    return sha.hexdigest()[:16]


class TestStreamOrderAcrossBlocks:
    """Populations are drawn one block of rows at a time, in the stream
    order of one full-length draw per kind (latents, treatment, outcome,
    phase-2 flag). Pinned from a tree that drew every kind in one call:
    census_psi at seed 4 and true_psi at seed 5 on n rows, and the digest
    of generate's arrays at seed 3. Any change of draw order moves them."""

    B = 256  # block size while these run, so that the edges are cheap to reach
    PINS = {
        ("kang_dr", 255): (0.24348043704141187, 0.24304847797833992, "dd05bd9b1f44e1a8"),
        ("kang_dr", 256): (0.2364023485571125, 0.2431444387610866, "576abf55382d7733"),
        ("kang_dr", 257): (0.2689302858931421, 0.24319801114341164, "231c7cb7a79d8b9d"),
        ("kang_dr", 635): (0.17051976595356386, 0.24286187703743362, "2a2082995f363bc6"),
        ("missing_rate", 255): (0.18708953761163435, 0.2540724880085589, "19273c1abf3a66fc"),
        ("missing_rate", 256): (0.2137293143925808, 0.25437812254554504, "8b591cd5ba18b3d2"),
        ("missing_rate", 257): (0.24098985108305776, 0.2537736606961292, "d42c0a3be55def7b"),
        ("missing_rate", 635): (0.24349281557915692, 0.2630094163298594, "39c40009b648e854"),
        ("raking_gap", 255): (1.4819523490807256, 1.720997040910055, "368eaac30d0df562"),
        ("raking_gap", 256): (2.084477693517211, 1.7297372780622267, "c73100a006b2c6d5"),
        ("raking_gap", 257): (1.2465673369621812, 1.7213283885845474, "cc510b72fbbe911d"),
        ("raking_gap", 635): (1.3809391223192442, 1.8527222844425804, "93384d7f8cdc78e7"),
        ("near_positivity", 255): (-0.07465247030835616, 0.5, "0d2bc9d22ef9fac9"),
        ("near_positivity", 256): (0.25631086715160223, 0.5, "661f4b0262b3d871"),
        ("near_positivity", 257): (0.529437860218251, 0.5, "3b35eda4c12f9266"),
        ("near_positivity", 635): (0.3352710450741946, 0.5, "5239c65fb0ebd266"),
    }
    # generate's digest at seed 3 on 2 * 2^16 + 123 rows and on
    # 2 * 2^13 + 123: three blocks at the former block size and at the one
    # the package ships with. Both were pinned from 2^16-row blocks
    FULL_SIZE_DIGESTS = {
        131_195: {"kang_dr": "ac96ebfea9a1a20c", "missing_rate": "dc238300ad63d29e",
                  "raking_gap": "13baab68735f858b", "near_positivity": "44f6982d04e72460"},
        16_507: {"kang_dr": "f9ebc35bee6b99c3", "missing_rate": "1f2192e7dfd2208d",
                 "raking_gap": "49ce164117e27cde", "near_positivity": "4dd33ec6189a4e8d"},
    }

    @pytest.mark.parametrize("dgp", DGP_IDS)
    def test_values_at_block_edges_are_pinned(self, dgp, monkeypatch):
        monkeypatch.setattr(sim, "_CENSUS_CHUNK", self.B)
        for n in (self.B - 1, self.B, self.B + 1, 2 * self.B + 123):
            spec = DgpSpec(dgp, n=n, seed=3)
            got = (census_psi(spec, n_mc=n, seed=4), true_psi(spec, n_mc=n, seed=5),
                   _dataset_digest(*generate(spec)))
            assert got == self.PINS[dgp, n], n

    @pytest.mark.parametrize("dgp", DGP_IDS)
    def test_dataset_over_three_full_blocks_is_pinned(self, dgp):
        for n, digests in self.FULL_SIZE_DIGESTS.items():
            spec = DgpSpec(dgp, n=n, seed=3)
            assert _dataset_digest(*generate(spec)) == digests[dgp], n


class TestPopulationArguments:
    @pytest.mark.parametrize("population", [census_psi, true_psi])
    @pytest.mark.parametrize("kwargs,message", [
        ({"n_mc": 0}, "n_mc must be >= 1, got 0"),
        ({"n_mc": -5}, "n_mc must be >= 1, got -5"),
        ({"n_mc": 1000.0}, "n_mc must be an integer, got 1000.0"),
        ({"n_mc": True}, "n_mc must be an integer, got True"),
        ({"seed": -1}, r"seed must be in \[0, 18446744073709551615\], got -1"),
        ({"seed": 2**64}, r"seed must be in \[0, 18446744073709551615\], got 18446744073709551616"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ])
    def test_bad_argument_is_named(self, population, kwargs, message):
        with pytest.raises(ValueError, match=message):
            population(DgpSpec("raking_gap", n=1, seed=0), **kwargs)

    @pytest.mark.parametrize("population", [census_psi, true_psi])
    def test_numpy_integers_accepted(self, population):
        spec = DgpSpec("missing_rate", n=1, seed=0)
        assert (population(spec, n_mc=np.int64(500), seed=np.uint64(2**64 - 1))
                == population(spec, n_mc=500, seed=2**64 - 1))


def synthetic_outcomes(rng, n_runs, ref, sd):
    """Unbiased normal pseudo-estimator with correctly reported SE: per run,
    its nuisance-fit seconds and its one (result, seconds) outcome."""
    out = []
    for _ in range(n_runs):
        psi = rng.normal(ref, sd)
        res = EstimateResult("aipcw", psi, sd, (psi - 1.96 * sd, psi + 1.96 * sd),
                             0.0, 0, True, 0.0)
        out.append((0.002, [(res, 0.001)]))
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
        outcomes[3] = (0.002, [("boom", 0.0)])
        outcomes[7] = (0.002, [("boom", 0.0)])
        rep = _aggregate(self.study(10), outcomes, 0.2)
        row = rep.rows[0]
        assert row.n_ok == 8 and row.n_failed == 2
        assert rep.mean_nuisance_fit == pytest.approx(0.002)
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


class TestCensusOverlap:
    """With a pool, the census reference is computed while the runs proceed."""

    def census_study(self, parallelism=2, n_runs=4):
        return StudySpec(dgp=DgpSpec("raking_gap", n=300, seed=0),
                         estimators=(StudyEstimator("raking"),), n_runs=n_runs,
                         base_seed=11, reference="census", parallelism=parallelism)

    @pytest.fixture
    def pools(self, monkeypatch):
        """Replaces the process pool with one that runs `map` serially in
        this process, and only when its results are read; each pool records
        how many runs ran and how it was shut down."""
        opened = []

        class LazyPool:
            def __init__(self, max_workers):
                self.runs, self.shutdowns = 0, []
                opened.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                def counted(*args):
                    self.runs += 1
                    return fn(*args)
                return map(counted, *iterables)

            def shutdown(self, wait=True, *, cancel_futures=False):
                self.shutdowns.append(cancel_futures)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", LazyPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return opened

    def test_census_computed_once(self, pools, monkeypatch, tmp_path):
        calls = []

        def counted(spec):
            calls.append(spec)
            return 0.75

        monkeypatch.setattr(sim, "census_psi", counted)
        serial = run_study(self.census_study(parallelism=1))
        assert len(calls) == 1
        pooled = run_study(self.census_study())
        assert len(calls) == 2 and calls[1] == self.census_study().dgp
        (pool,) = pools
        assert pool.runs == 4 and pool.shutdowns == []
        assert pooled.psi_ref == 0.75
        write_report_csv(serial, tmp_path / "serial.csv")
        write_report_csv(pooled, tmp_path / "pooled.csv")
        assert (tmp_path / "pooled.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_failed_reference_cancels_pending_runs(self, pools, monkeypatch):
        def broken(spec):
            raise RuntimeError("census draw failed")

        monkeypatch.setattr(sim, "census_psi", broken)
        with pytest.raises(RuntimeError, match="census draw failed"):
            run_study(self.census_study(n_runs=50))
        (pool,) = pools
        assert pool.shutdowns == [True]  # cancel_futures: no wait for the queued runs
        assert pool.runs == 0

    def test_failed_reference_propagates_from_a_real_pool(self, monkeypatch):
        def broken(spec):
            raise RuntimeError("census draw failed")

        monkeypatch.setattr(sim, "census_psi", broken)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match="census draw failed"):
            run_study(self.census_study(n_runs=6))


class TestUnusableDraw:
    # missing_rate at n=40 with sampling intercept -2.5: run 41 of base seed 1
    # (seed 42) draws no phase-2 record at all
    def study(self, estimators=("aipcw", "eee"), base_seed=42, n_runs=1):
        return StudySpec(dgp=DgpSpec("missing_rate", n=40, seed=0, missing_intercept=-2.5),
                         estimators=tuple(StudyEstimator(e) for e in estimators),
                         n_runs=n_runs, base_seed=base_seed)

    def test_draw_has_no_phase2_record(self):
        from twophase_ate.data_model import DataError

        with pytest.raises(DataError, match="no phase-2 records"):
            generate(DgpSpec("missing_rate", n=40, seed=42, missing_intercept=-2.5))

    def test_counts_as_a_failed_run_for_every_estimator(self):
        report = run_study(self.study())
        for row in report.rows:
            assert (row.n_ok, row.n_failed) == (0, 1)
            assert "no phase-2 records" in row.first_error

    def test_study_with_an_unusable_draw_completes(self):
        # seeds 37..42: seed 37 estimates, 38..41 fail at the nuisance fit
        # and 42 draws no phase-2 record
        row = run_study(self.study(estimators=("aipcw",), base_seed=37, n_runs=6)).rows[0]
        assert (row.n_ok, row.n_failed) == (1, 5)


class TestSpecValidation:
    def test_negative_max_outer_iter_rejected(self):
        with pytest.raises(ValueError, match="max_outer_iter"):
            StudyEstimator("ipcw_tmle_target_pi", max_outer_iter=-3)

    @pytest.mark.parametrize("n_runs", [0, -1])
    def test_study_without_runs_rejected(self, n_runs):
        # n_runs = 0 once gave an all-NaN report and a sidecar with seeds [5, 4]
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            StudySpec(dgp=DgpSpec("missing_rate", n=100, seed=0),
                      estimators=(StudyEstimator("aipcw"),), n_runs=n_runs, base_seed=5)

    @pytest.mark.parametrize("estimator_id, options", [
        ("aipcw", {"mode": "linearized"}),
        ("raking", {"mode": "linearized"}),
        ("tmle_alt", {"mode": "linearized"}),
        ("quasi_tmle", {"max_outer_iter": 3}),
        ("eee", {"max_outer_iter": 0}),
    ])
    def test_option_the_estimator_never_reads_rejected(self, estimator_id, options):
        # aipcw:linearized would label a report row that holds refit numbers
        with pytest.raises(ValueError, match=f"{estimator_id} has no '{next(iter(options))}'"):
            StudyEstimator(estimator_id, **options)

    @pytest.mark.parametrize("estimator_id", ESTIMATOR_IDS)
    def test_defaults_are_the_estimator_options_defaults(self, estimator_id):
        assert StudyEstimator(estimator_id).options == EstimatorOptions()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="refit|linearized"):
            StudyEstimator("quasi_tmle", mode="linearised")

    @pytest.mark.parametrize("trunc", [{"trunc_pi": (0.9, 0.1)}, {"trunc_g": (0.01, 1.0)}])
    def test_bad_truncation_rejected(self, trunc):
        with pytest.raises(ValueError, match="trunc_"):
            StudySpec(dgp=DgpSpec("missing_rate", n=100, seed=0),
                      estimators=(StudyEstimator("aipcw"),), n_runs=1, base_seed=0, **trunc)

    @pytest.mark.parametrize("roster", [
        (StudyEstimator("aipcw"), StudyEstimator("eee"), StudyEstimator("aipcw")),
        (StudyEstimator("quasi_tmle"), StudyEstimator("eee", label="quasi_tmle")),
    ])
    def test_duplicate_label_rejected(self, roster):
        # the sidecar's mean_runtime_s is keyed by label and kept only one row
        with pytest.raises(ValueError, match="'(aipcw|quasi_tmle)' appears more than once"):
            StudySpec(dgp=DgpSpec("missing_rate", n=100, seed=0), estimators=roster,
                      n_runs=1, base_seed=0)

    @pytest.mark.parametrize("label", ["raking, census", 'raking "census"', "a\nb", "a\rb"])
    def test_label_report_csv_cannot_hold_rejected(self, label):
        # report.csv joins unquoted fields: a comma wrote 13 fields under the
        # 12-field header, and a line break split the row in two
        with pytest.raises(ValueError, match=re.escape(repr(label))):
            StudyEstimator("raking", label=label)

    def test_other_labels_write_one_row_of_twelve_fields(self, tmp_path):
        labels = ("raking: census ref", "aipcw (known pi)", "eee;1")
        rows = tuple(sim.EstimatorRow(StudyEstimator("raking", label=label).label, "raking",
                                      "refit", 1, 0, 0, 0.5, 0.0, 0.1, 0.0, 1.0, 1.0, 0.01)
                     for label in labels)
        report = sim.SimReport(rows, 0.5, "census", 1, DgpSpec("raking_gap", n=10, seed=0), 0, 0.0)
        write_report_csv(report, tmp_path / "report.csv")
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == list(labels)
        assert {line.count(",") for line in lines} == {11}

    @pytest.mark.parametrize("field, value, message", [
        # 2.5 drew seed 2's dataset, and -3 or 2^64 overflowed in generate
        ("seed", 2.5, "seed must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("seed", -3, r"seed must be in \[0, 18446744073709551615\]"),
        ("seed", 2**64, r"seed must be in \[0, 18446744073709551615\]"),
        # a bare TypeError escaped generate
        ("n", 100.5, "n must be an integer"),
        ("n", 0, "n must be >= 1"),
    ])
    def test_dgp_spec_that_cannot_draw_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            DgpSpec("missing_rate", **{"n": 100, "seed": 0, field: value})

    def test_largest_seeds_accepted(self):
        assert DgpSpec("missing_rate", n=10, seed=2**64 - 1).seed == 2**64 - 1
        study = StudySpec(dgp=DgpSpec("missing_rate", n=100, seed=0),
                          estimators=(StudyEstimator("aipcw"),), n_runs=3, base_seed=2**64 - 3)
        assert study.base_seed == 2**64 - 3

    def test_numpy_integers_stored_as_python_ints(self, tmp_path):
        # an np.int64 base_seed wrapped base_seed + r to a negative seed, and
        # json cannot write a numpy integer to the sidecar
        import json

        from twophase_ate.sim import write_sidecar

        study = StudySpec(dgp=DgpSpec("missing_rate", n=np.int64(200), seed=np.uint64(3)),
                          estimators=(StudyEstimator("tmle_alt", max_outer_iter=np.int32(5)),),
                          n_runs=np.int64(2), base_seed=np.int64(2**63 - 1),
                          parallelism=np.int64(1))
        stored = (study.dgp.n, study.dgp.seed, study.n_runs, study.base_seed,
                  study.parallelism, study.estimators[0].max_outer_iter)
        assert [type(v) for v in stored] == [int] * 6
        write_sidecar(run_study(study), study, tmp_path / "report.meta.json", wall_time=1.0)
        meta = json.loads((tmp_path / "report.meta.json").read_text())
        assert meta["seeds"] == [2**63 - 1, 2**63]

    @pytest.mark.parametrize("fields, message", [
        # 1.5 truncated every run's seed
        ({"base_seed": 1.5}, "base_seed must be an integer"),
        ({"base_seed": -1}, "base_seed must be in"),
        # the last run would draw with seed 2^64
        ({"base_seed": 2**64 - 2, "n_runs": 3}, "base_seed must be in"),
        # a bare TypeError escaped run_study
        ({"n_runs": 2.5}, "n_runs must be an integer"),
        ({"parallelism": 1.5}, "parallelism must be an integer"),
        ({"parallelism": 0}, "parallelism must be >= 1"),
        # the pinned truth was used and the sidecar said "kind": "bogus"
        ({"reference": "bogus"}, "reference must be truth|census"),
    ])
    def test_study_spec_that_cannot_run_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            StudySpec(dgp=DgpSpec("missing_rate", n=100, seed=0),
                      estimators=(StudyEstimator("aipcw"),), **{"n_runs": 2, "base_seed": 5, **fields})

    def test_same_estimator_in_two_modes_is_allowed(self):
        roster = (StudyEstimator("quasi_tmle"), StudyEstimator("quasi_tmle", mode="linearized"))
        study = StudySpec(dgp=DgpSpec("missing_rate", n=100, seed=0), estimators=roster,
                          n_runs=1, base_seed=0)
        assert [e.label for e in study.estimators] == ["quasi_tmle", "quasi_tmle:linearized"]


class TestGammaBound:
    def test_gamma_whose_metrics_would_overflow_rejected(self):
        # gamma = 1e308 overflowed gamma * het to inf, and every draw failed
        with pytest.raises(ValueError, match="gamma must lie in"):
            DgpSpec("raking_gap", n=100, seed=0, gamma=1e308)
        with pytest.raises(ValueError, match="gamma must lie in"):
            DgpSpec("raking_gap", n=100, seed=0, gamma=-2.0 * sim._GAMMA_MAX)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_gamma_gives_a_finite_report(self, sign):
        # RuntimeWarning is an error under the test settings, so an overflow
        # anywhere in the draw, the estimators or the aggregation fails here
        study = StudySpec(dgp=DgpSpec("raking_gap", n=200, seed=0, gamma=sign * sim._GAMMA_MAX),
                          estimators=(StudyEstimator("aipcw"), StudyEstimator("raking")),
                          n_runs=2, base_seed=3)
        for row in run_study(study).rows:
            assert row.n_ok == 2
            assert np.isfinite([row.psi_mean, row.abs_bias, row.emp_se, row.mse * 1e3]).all()


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

    @pytest.mark.parametrize("other_repo", [False, True])
    def test_git_hash_names_the_package_checkout(self, tmp_path, monkeypatch, other_repo):
        # run from outside the source tree, the hash was "unknown"; run inside
        # another repository, it was that repository's HEAD
        import shutil
        import subprocess

        git = shutil.which("git")
        package_dir = os.path.dirname(os.path.abspath(sim.__file__))
        expected = "unknown"
        if git is not None:
            out = subprocess.run([git, "rev-parse", "HEAD"], cwd=package_dir,
                                 capture_output=True, text=True)
            expected = out.stdout.strip() if out.returncode == 0 else "unknown"
        if other_repo:
            if git is None:
                pytest.skip("git is not installed")
            env = {**os.environ, "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                   "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"}
            subprocess.run([git, "init", "-q"], cwd=tmp_path, check=True, env=env)
            subprocess.run([git, "commit", "-q", "--allow-empty", "-m", "other"],
                           cwd=tmp_path, check=True, env=env)
            other_head = subprocess.run([git, "rev-parse", "HEAD"], cwd=tmp_path, check=True,
                                        capture_output=True, text=True).stdout.strip()
            assert other_head != expected
        monkeypatch.chdir(tmp_path)
        assert sim._git_hash() == expected
