import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase_ate import estimators
from twophase_ate.data_model import Dataset
from twophase_ate.estimators import (
    ESTIMATOR_IDS,
    FULL_EIC_SOLVERS,
    EstimatorError,
    EstimatorOptions,
    RakeSolution,
    fit_context,
    rake_weights,
    run_estimator,
    run_roster,
)
from twophase_ate.glm import expit
from twophase_ate.nuisance import NuisanceConfig, fit_mbar, fit_nuisances
from twophase_ate.sim import DgpSpec, generate

from util import (
    bisect_oracle,
    fulldata_gcomp,
    fulldata_onestep,
    fulldata_tmle,
    make_full_dataset,
    make_twophase_dataset,
    reference_census_influence,
)

PI_ONE = lambda ds: NuisanceConfig(known_pi=np.ones(ds.n))


class TestRakeWeights:
    def test_identity_when_constraint_holds(self):
        # delta == 1 everywhere makes the constraint hold exactly at lam=0
        m = np.array([0.5, -1.0, 2.0])
        sol = rake_weights(m, pi=np.ones(3), delta=np.ones(3, dtype=int))
        assert sol.lam == 0.0
        np.testing.assert_array_equal(sol.a, 1.0)
        np.testing.assert_array_equal(sol.pi_star, np.ones(3))

    def test_zero_calibration_variable(self):
        sol = rake_weights(np.zeros(5), pi=np.full(5, 0.5),
                           delta=np.array([1, 0, 1, 0, 1]))
        assert sol.lam == 0.0 and sol.converged
        np.testing.assert_array_equal(sol.a, 1.0)

    def test_three_row_hand_instance_matches_bisection(self):
        m = np.array([1.0, -0.5, 0.8])
        pi = np.array([0.5, 0.8, 0.4])
        delta = np.array([1, 0, 1])
        target = m.sum()

        def F(lam):
            idx = [0, 2]
            return sum(np.exp(-lam * m[i]) * m[i] / pi[i] for i in idx) - target

        lam_ref = bisect_oracle(F, -10.0, 10.0)
        sol = rake_weights(m, pi, delta)
        assert sol.converged
        assert sol.lam == pytest.approx(lam_ref, abs=1e-8)
        np.testing.assert_allclose(sol.a, np.exp(-sol.lam * m), atol=1e-12)
        np.testing.assert_allclose(sol.pi_star, pi / sol.a, atol=1e-12)

    def test_infeasible_constraint_raises(self):
        m = np.array([0.0, 1.0])  # phase-2 value is zero, total is 1
        with pytest.raises(EstimatorError, match="infeasible"):
            rake_weights(m, pi=np.array([0.5, 0.5]), delta=np.array([1, 0]))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_random_instances_satisfy_kkt(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 60))
        m = rng.normal(size=n)
        pi = rng.uniform(0.1, 1.0, size=n)
        delta = (rng.random(n) < 0.6).astype(int)
        # mixed signs among phase-2 values guarantee the dual has a root
        delta[np.argmax(m)] = 1
        delta[np.argmin(m)] = 1
        sol = rake_weights(m, pi, delta)
        assert sol.converged
        p2 = delta == 1
        cal = np.sum(sol.a[p2] / pi[p2] * m[p2]) - m.sum()
        assert abs(cal) <= 1e-8
        assert np.all(sol.a > 0)

        def F(lam):
            return float(np.sum(np.exp(-lam * m[p2]) * m[p2] / pi[p2]) - m.sum())

        lo, hi = -1.0, 1.0
        for _ in range(60):
            if F(lo) * F(hi) < 0:
                break
            lo *= 2
            hi *= 2
        lam_ref = bisect_oracle(F, lo, hi)
        assert sol.lam == pytest.approx(lam_ref, abs=1e-8)

    def test_grid_fallback_matches_newton(self):
        rng = np.random.default_rng(43)
        m = rng.normal(size=40)
        pi = rng.uniform(0.2, 0.9, size=40)
        delta = (rng.random(40) < 0.5).astype(int)
        delta[[np.argmax(m), np.argmin(m)]] = 1
        newton_only = rake_weights(m, pi, delta)
        # one Newton step cannot meet the tolerance, so the bracket fallback runs
        fallback = rake_weights(m, pi, delta, max_iter=1)
        assert newton_only.converged and fallback.converged
        assert fallback.n_iter > 1
        assert fallback.lam == pytest.approx(newton_only.lam, abs=1e-8)

    def test_equation_rescaling_leaves_lambda_unchanged(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=30)
        pi = rng.uniform(0.2, 0.9, size=30)
        delta = (rng.random(30) < 0.5).astype(int)
        delta[0] = 1
        base = rake_weights(m, pi, delta)
        for c in (0.25, 4.0):
            scaled = rake_weights(m, pi / c, delta, target=c * m.sum())
            assert scaled.lam == pytest.approx(base.lam, abs=1e-8)
            np.testing.assert_allclose(scaled.a, base.a, atol=1e-8)


class TestNoCoarseningOracle:
    """With known sampling probability one, every estimator must reproduce an
    independently coded full-data counterpart."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fulldata_equivalences(self, seed):
        ds = make_full_dataset(np.random.default_rng(seed), n=250)
        cfg = PI_ONE(ds)
        onestep, tmle, gcomp = fulldata_onestep(ds), fulldata_tmle(ds), fulldata_gcomp(ds)
        assert run_estimator(ds, "aipcw", cfg).psi_hat == pytest.approx(onestep, abs=1e-8)
        assert run_estimator(ds, "eee", cfg).psi_hat == pytest.approx(onestep, abs=1e-8)
        for est in ("ipcw_tmle", "ipcw_tmle_target_pi", "ipcw_tmle_rake_pi",
                    "quasi_tmle", "tmle_alt"):
            assert run_estimator(ds, est, cfg).psi_hat == pytest.approx(tmle, abs=1e-8), est
        assert run_estimator(ds, "raking", cfg).psi_hat == pytest.approx(gcomp, abs=1e-8)

    def test_linearized_modes_agree_too(self):
        ds = make_full_dataset(np.random.default_rng(77), n=250)
        cfg = PI_ONE(ds)
        tmle = fulldata_tmle(ds)
        opts = EstimatorOptions(mode="linearized")
        for est in ("ipcw_tmle_target_pi", "quasi_tmle"):
            assert run_estimator(ds, est, cfg, opts).psi_hat == pytest.approx(tmle, abs=1e-8)


class TestScoreSolving:
    @pytest.mark.parametrize("est", sorted(FULL_EIC_SOLVERS))
    def test_eic_mean_below_threshold(self, est):
        for seed in range(5):
            ds = make_twophase_dataset(np.random.default_rng(seed), n=250)
            r = run_estimator(ds, est)
            assert r.converged, (est, seed)
            assert r.eic_mean_abs <= r.s_n + 1e-12, (est, seed)

    def test_aipcw_solves_score_exactly(self):
        ds = make_twophase_dataset(np.random.default_rng(5))
        r = run_estimator(ds, "aipcw")
        assert r.eic_mean_abs <= 1e-10

    def test_eee_solves_score_exactly(self):
        ds = make_twophase_dataset(np.random.default_rng(6))
        r = run_estimator(ds, "eee")
        assert r.eic_mean_abs <= 1e-8


def constant_outcome_dataset(rng, n=120):
    """y identically 0.5: every regression is exactly solved at the start."""
    w = rng.normal(size=(n, 2))
    a = (rng.random(n) < 0.5).astype(int)
    pi = 0.6 + 0.2 * (w[:, 0] > 0)
    delta = (rng.random(n) < pi).astype(int)
    delta[:4] = 1
    w2 = w[:, 1:].copy()
    w2[delta == 0] = np.nan
    return Dataset(w1=w[:, :1], a=a, y=np.full(n, 0.5), delta=delta, w2=w2,
                   y_kind="continuous", y_bounds=(0.0, 1.0))


class TestFixedPoints:
    def test_ipcw_tmle_keeps_solved_fit(self):
        ds = constant_outcome_dataset(np.random.default_rng(8))
        r = run_estimator(ds, "ipcw_tmle")
        assert r.details["epsilon"] == 0.0
        assert r.psi_hat == pytest.approx(0.0, abs=1e-10)

    def test_quasi_tmle_fixed_point_matches_eee(self):
        ds = constant_outcome_dataset(np.random.default_rng(9))
        r_q = run_estimator(ds, "quasi_tmle")
        r_e = run_estimator(ds, "eee")
        assert r_q.details["epsilon"] == pytest.approx(0.0, abs=1e-10)
        assert r_q.details["gamma"] == pytest.approx(0.0, abs=1e-10)
        assert r_q.psi_hat == pytest.approx(r_e.psi_hat, abs=1e-10)

    def test_target_pi_collapses_to_single_fluctuation(self):
        ds = constant_outcome_dataset(np.random.default_rng(10))
        r_t = run_estimator(ds, "ipcw_tmle_target_pi")
        r_1 = run_estimator(ds, "ipcw_tmle")
        assert r_t.psi_hat == pytest.approx(r_1.psi_hat, abs=1e-10)

    def test_rake_pi_identity_calibration(self):
        ds = constant_outcome_dataset(np.random.default_rng(11))
        r = run_estimator(ds, "ipcw_tmle_rake_pi")
        rake: RakeSolution = r.details["rake"]
        np.testing.assert_allclose(rake.a, 1.0, atol=1e-6)

    def test_unconverged_raking_keeps_previous_pi(self, monkeypatch):
        ds = make_twophase_dataset(np.random.default_rng(12))
        ctx = fit_context(ds)
        pi0 = ctx.nuisances.pi

        def stalled(mbar, pi, delta):
            a = np.full_like(pi, 0.5)
            return RakeSolution(lam=1.0, a=a, pi_star=pi / a, constraint_residual=1.0,
                                n_iter=100, converged=False)

        monkeypatch.setattr(estimators, "rake_weights", stalled)
        r = run_estimator(ds, "ipcw_tmle_rake_pi", ctx)
        assert not r.converged
        assert r.n_outer_iterations == 0
        np.testing.assert_array_equal(r.details["pi_final"], pi0)

    def test_tmle_alt_never_refits_the_same_values(self, monkeypatch):
        # resid2 changes only with q_a, so its regression is fitted once
        # per Q fluctuation, never twice in a row on identical values
        fitted = []

        def spy(ds, values2, **kw):
            fitted.append(np.array(values2))
            return fit_mbar(ds, values2, **kw)

        monkeypatch.setattr(estimators, "fit_mbar", spy)
        for seed in range(5):
            ds, _ = generate(DgpSpec("missing_rate", n=1000, seed=seed))
            ctx = fit_context(ds)
            fitted.clear()
            r = run_estimator(ds, "tmle_alt", ctx)
            assert r.n_outer_iterations >= 1
            assert len(fitted) == r.n_outer_iterations + 1
            for before, after in zip(fitted, fitted[1:]):
                assert not np.array_equal(before, after)


class TestPlugInProperty:
    def test_ipcw_tmle_solves_weighted_fulldata_score(self):
        for seed in range(4):
            ds = make_twophase_dataset(np.random.default_rng(30 + seed))
            r = run_estimator(ds, "ipcw_tmle")
            assert abs(r.details["weighted_fulldata_score"]) <= 1e-9

    def test_ipcw_tmle_plugin_identity(self):
        ds = make_twophase_dataset(np.random.default_rng(12))
        r = run_estimator(ds, "ipcw_tmle")
        # recompute the weighted plug-in from the targeted outcome fits
        wts2 = 1.0 / fit_nuisances(ds).pi[ds.phase2]
        plug = float(wts2 @ (r.details["q1"] - r.details["q0"]) / wts2.sum())
        assert r.psi_hat == pytest.approx(plug, abs=1e-8)

    def test_quasi_tmle_plugin_identity(self):
        ds = make_twophase_dataset(np.random.default_rng(13))
        r = run_estimator(ds, "quasi_tmle")
        assert r.psi_hat == pytest.approx(r.details["psi_plug"], abs=1e-10)

    def test_tmle_alt_plugin_identity(self):
        ds = make_twophase_dataset(np.random.default_rng(14))
        r = run_estimator(ds, "tmle_alt")
        plug = float(np.mean(r.details["m1_star"] - r.details["m0_star"]))
        assert r.psi_hat == pytest.approx(plug, abs=1e-10)


class TestRakingEstimator:
    def test_correct_working_model_recovers_truth(self):
        # gamma=0: homogeneous linear truth, raking is consistent for the ATE
        spec = DgpSpec("raking_gap", n=20_000, seed=123, gamma=0.0)
        ds, truth = generate(spec)
        r = run_estimator(ds, "raking")
        assert abs(r.psi_hat - truth.psi_true) <= 3.0 * r.se

    def test_pi_component_scored_to_zero(self):
        ds = make_twophase_dataset(np.random.default_rng(15), n=400)
        r = run_estimator(ds, "raking")
        rake: RakeSolution = r.details["rake"]
        h = r.details["calibration_values"]
        d = ds.delta
        score = np.sum(d / rake.pi_star * h - h)
        assert abs(score) <= 1e-8

    def test_psi_is_calibrated_weighted_plugin(self):
        ds = make_twophase_dataset(np.random.default_rng(16), n=400)
        r = run_estimator(ds, "raking")
        rake: RakeSolution = r.details["rake"]
        p2 = ds.phase2
        wts1 = 1.0 / rake.pi_star[p2]
        fit = r.details["working_fit"]
        X = np.column_stack([np.ones(len(p2)), ds.a[p2].astype(float),
                             ds.w1[p2], ds.w2[p2]])
        X1 = X.copy()
        X1[:, 1] = 1.0
        X0 = X.copy()
        X0[:, 1] = 0.0
        plug = float(wts1 @ (fit.predict(X1) - fit.predict(X0)) / wts1.sum())
        assert r.psi_hat == pytest.approx(plug, abs=1e-10)


def _census_dataset(rng, y_kind: str, d2: int, n: int = 400) -> Dataset:
    """Two-phase data with d2 phase-2 covariates and about 40% censored."""
    w = rng.normal(size=(n, 2 + d2))
    a = (rng.random(n) < expit(0.4 * w[:, 0] - 0.3 * w[:, 1])).astype(int)
    lin = 0.2 + 0.6 * a - 0.5 * w[:, 0] + 0.3 * w[:, 2:].sum(axis=1)
    if y_kind == "binary":
        y = (rng.random(n) < expit(lin)).astype(float)
        bounds = (0.0, 1.0)
    else:
        y = 3.0 * lin + rng.normal(size=n)
        bounds = (float(y.min()) - 1.0, float(y.max()) + 1.0)
    delta = (rng.random(n) < expit(0.4 + 0.5 * w[:, 0])).astype(int)
    w2 = w[:, 2:].copy()
    w2[delta == 0] = np.nan
    return Dataset(w1=w[:, :2], a=a, y=y, delta=delta, w2=w2, y_kind=y_kind, y_bounds=bounds)


class TestCensusQuadrature:
    """The offset quadrature of the raking working model matches the
    full-design quadrature it replaced."""

    @pytest.mark.parametrize("y_kind", ["binary", "continuous"])
    @pytest.mark.parametrize("d2", [0, 2, estimators._GH_MAX_DIM + 1])
    def test_offset_form_matches_full_design(self, y_kind, d2):
        ctx = fit_context(_census_dataset(np.random.default_rng(10 + d2), y_kind, d2))
        family = "bernoulli" if y_kind == "binary" else "gaussian"
        imputation = estimators._fit_imputation(ctx) if d2 else None
        tilt = np.random.default_rng(3).uniform(0.5, 2.0, size=len(ctx.p2))
        for wts2 in (ctx.wts0, ctx.wts0 * tilt):
            model = estimators._CensusModel(ctx, imputation, wts2, family)
            ref = reference_census_influence(ctx, imputation, wts2, family)
            censored = ctx.scaled.delta == 0
            assert censored.sum() > 50
            np.testing.assert_array_equal(model.u_uncentered[~censored], ref[~censored])
            err = np.max(np.abs(model.u_uncentered - ref))
            assert err <= 1e-12 * np.max(np.abs(ref))


class TestResultContract:
    def test_ci_is_psi_plus_minus_1_96_se(self):
        ds = make_twophase_dataset(np.random.default_rng(17))
        for est in ESTIMATOR_IDS:
            r = run_estimator(ds, est)
            assert r.ci95[0] == pytest.approx(r.psi_hat - 1.96 * r.se, abs=1e-12)
            assert r.ci95[1] == pytest.approx(r.psi_hat + 1.96 * r.se, abs=1e-12)

    def test_negative_max_outer_iter_rejected(self):
        # a negative cap used to skip the outer loop and crash on an unbound state
        with pytest.raises(ValueError, match="max_outer_iter"):
            EstimatorOptions(max_outer_iter=-3)

    def test_unknown_estimator_rejected(self):
        ds = make_twophase_dataset(np.random.default_rng(18))
        with pytest.raises(EstimatorError, match="unknown"):
            run_estimator(ds, "magic")

    def test_scale_invariance_of_pipeline(self):
        # estimators on a pre-scaled copy with identity bounds must agree
        # with the scale-aware runner on the raw data
        spec = DgpSpec("raking_gap", n=500, seed=3, gamma=0.5)
        ds, _ = generate(spec)
        lo, hi = ds.y_bounds
        y01 = (ds.y - lo) / (hi - lo)
        pre = Dataset(w1=ds.w1, a=ds.a, y=y01, delta=ds.delta, w2=ds.w2,
                      y_kind="continuous", y_bounds=(0.0, 1.0))
        for est in ("aipcw", "ipcw_tmle", "quasi_tmle", "raking"):
            r_raw = run_estimator(ds, est)
            r_pre = run_estimator(pre, est)
            assert r_raw.psi_hat == pytest.approx(r_pre.psi_hat * (hi - lo), abs=1e-10)


class TestAsymptoticAgreement:
    def test_estimates_cluster_within_half_se(self):
        spec = DgpSpec("missing_rate", n=1000, seed=21)
        ds, _ = generate(spec)
        ests = ("aipcw", "ipcw_tmle_target_pi", "eee", "quasi_tmle", "tmle_alt")
        results = [run_estimator(ds, e) for e in ests]
        psis = np.array([r.psi_hat for r in results])
        se = np.median([r.se for r in results])
        gaps = [abs(psis[i] - psis[j]) for i in range(len(psis))
                for j in range(i + 1, len(psis))]
        assert np.median(gaps) < 0.5 * se


def _roster_results(ds):
    _, out = run_roster(ds, [(e, EstimatorOptions()) for e in ESTIMATOR_IDS])
    results = [res for res, _ in out]
    assert all(not isinstance(res, EstimatorError) for res in results), results
    return results


def _with_columns(ds, rows, a):
    return Dataset(w1=ds.w1[rows], a=a[rows], y=ds.y[rows], delta=ds.delta[rows],
                   w2=ds.w2[rows], y_kind=ds.y_kind, y_bounds=ds.y_bounds)


class TestInvariances:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_row_permutation_leaves_estimates_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        ds = make_twophase_dataset(rng)
        shuffled = _with_columns(ds, rng.permutation(ds.n), ds.a)
        for base, moved in zip(_roster_results(ds), _roster_results(shuffled)):
            assert moved.psi_hat == pytest.approx(base.psi_hat, abs=1e-8), base.estimator_id
            assert moved.se == pytest.approx(base.se, abs=1e-8), base.estimator_id

    @settings(max_examples=24, deadline=None)
    @given(seed=st.integers(0, 100_000), c=st.floats(1e-2, 1e3), b=st.floats(-1e3, 1e3))
    def test_affine_outcome_map_scales_estimates(self, seed, c, b):
        # y -> c*y + b with the bounds mapped alike: the scaled outcome is the
        # same up to rounding, so estimates and SEs scale by c
        ds, _ = generate(DgpSpec("raking_gap", n=300, seed=seed))
        lo, hi = ds.y_bounds
        moved = Dataset(w1=ds.w1, a=ds.a, y=c * ds.y + b, delta=ds.delta, w2=ds.w2,
                        y_kind="continuous", y_bounds=(c * lo + b, c * hi + b))
        for base, mapped in zip(_roster_results(ds), _roster_results(moved)):
            tol = 1e-8 * c * base.se
            assert mapped.psi_hat == pytest.approx(c * base.psi_hat, rel=0, abs=tol), \
                base.estimator_id
            assert mapped.se == pytest.approx(c * base.se, rel=0, abs=tol), base.estimator_id
            assert (mapped.n_outer_iterations, mapped.converged) == (
                base.n_outer_iterations, base.converged), base.estimator_id

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_duplicated_records_keep_psi_and_shrink_se(self, seed):
        # every fit and influence value repeats, so psi is unchanged and the
        # ddof=1 variance gives SE * sqrt((n-1)/(2n-1)); the estimators left
        # out stop at a threshold, or integrate on a grid, that depends on n
        ds = make_twophase_dataset(np.random.default_rng(seed))
        doubled = _with_columns(ds, np.tile(np.arange(ds.n), 2), ds.a)
        roster = [(e, EstimatorOptions()) for e in
                  ("aipcw", "eee", "ipcw_tmle", "ipcw_tmle_rake_pi", "quasi_tmle")]
        shrink = np.sqrt((ds.n - 1) / (2 * ds.n - 1))
        for (base, _), (twice, _) in zip(run_roster(ds, roster)[1],
                                         run_roster(doubled, roster)[1]):
            tol = 1e-8 * base.se
            assert twice.psi_hat == pytest.approx(base.psi_hat, rel=0, abs=tol), \
                base.estimator_id
            assert twice.se == pytest.approx(shrink * base.se, rel=0, abs=tol), \
                base.estimator_id

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_treatment_label_swap_negates_estimates(self, seed):
        ds = make_twophase_dataset(np.random.default_rng(seed))
        swapped = _with_columns(ds, np.arange(ds.n), 1 - ds.a)
        for base, flipped in zip(_roster_results(ds), _roster_results(swapped)):
            assert flipped.psi_hat == pytest.approx(-base.psi_hat, abs=1e-8), base.estimator_id
