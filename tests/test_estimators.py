import dataclasses

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
    FittedContext,
    RakeSolution,
    rake_weights,
    run_estimator,
    run_roster,
)
from twophase_ate.glm import P_MIN, _cho_solve, _factor_spd, expit, fit_fluctuation, fit_glm, logit
from twophase_ate.nuisance import NuisanceConfig, aw_designs, fit_mbar, fit_nuisances
from twophase_ate.sim import DgpSpec, generate, reference_psi

from util import (
    bisect_oracle,
    census_information,
    compounding_rake_cohort,
    fulldata_gcomp,
    fulldata_onestep,
    fulldata_tmle,
    make_full_dataset,
    make_twophase_dataset,
    reference_census_influence,
    reference_imputation,
    zero_covariate_cohort,
)

PI_ONE = lambda ds: NuisanceConfig(known_pi=np.ones(ds.n))


def record(monkeypatch, name):
    """Spy on estimators.<name>: the list it returns gains (args, kwargs,
    result) for every call."""
    original, calls = getattr(estimators, name), []

    def spy(*args, **kwargs):
        calls.append((args, kwargs, original(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(estimators, name, spy)
    return calls


def quasi_fluctuation(secants, bisects) -> float:
    """The fluctuation coefficient quasi_tmle used: the secant's root, or the
    bisection's once the secant failed."""
    (_, _, res), = secants
    if not res.converged:
        (_, _, res), = bisects
    return float(res.x)


def quasi_plugin(ctx, eps):
    """quasi_tmle's plug-in and weighted shift gamma at fluctuation eps in
    refit mode, recomputed from the context on the scaled outcome."""
    q_a, q1, q0 = (expit(logit(q, P_MIN) + eps * h)
                   for q, h in ((ctx.q_a0, ctx.h2), (ctx.q10, ctx.h1), (ctx.q00, ctx.h0)))
    psi = ctx.hajek_plugin(q1, q0, ctx.pi0)
    m_all = ctx.mbar_all(ctx.dbar(q_a, q1, q0))
    return psi, (psi - float(np.mean(m_all))) / float(ctx.wts0.sum() / ctx.n)


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
    def test_ipcw_tmle_keeps_solved_fit(self, monkeypatch):
        ds = constant_outcome_dataset(np.random.default_rng(8))
        fits = record(monkeypatch, "fit_fluctuation")
        r = run_estimator(ds, "ipcw_tmle")
        (_, _, fit), = fits  # its one fluctuation
        assert fit.epsilon == 0.0
        assert r.psi_hat == pytest.approx(0.0, abs=1e-10)

    def test_quasi_tmle_fixed_point_matches_eee(self, monkeypatch):
        ds = constant_outcome_dataset(np.random.default_rng(9))
        ctx = FittedContext(ds)
        secants, bisects = record(monkeypatch, "secant"), record(monkeypatch, "bisect")
        r_q = run_estimator(ds, "quasi_tmle", ctx)
        r_e = run_estimator(ds, "eee", ctx)
        eps = quasi_fluctuation(secants, bisects)
        psi, gamma = quasi_plugin(ctx, eps)
        assert r_q.psi_hat == psi * ctx.scale.span
        assert eps == pytest.approx(0.0, abs=1e-10)
        assert gamma == pytest.approx(0.0, abs=1e-10)
        assert r_q.psi_hat == pytest.approx(r_e.psi_hat, abs=1e-10)

    def test_target_pi_collapses_to_single_fluctuation(self):
        ds = constant_outcome_dataset(np.random.default_rng(10))
        r_t = run_estimator(ds, "ipcw_tmle_target_pi")
        r_1 = run_estimator(ds, "ipcw_tmle")
        assert r_t.psi_hat == pytest.approx(r_1.psi_hat, abs=1e-10)

    def test_rake_pi_identity_calibration(self, monkeypatch):
        ds = constant_outcome_dataset(np.random.default_rng(11))
        solves = record(monkeypatch, "rake_weights")
        run_estimator(ds, "ipcw_tmle_rake_pi")
        assert solves
        for _, _, rake in solves:
            np.testing.assert_allclose(rake.a, 1.0, atol=1e-6)

    def test_unconverged_raking_keeps_previous_pi(self, monkeypatch):
        ds = make_twophase_dataset(np.random.default_rng(12))
        ctx = FittedContext(ds)

        def stalled(mbar, pi, delta):
            a = np.full_like(pi, 0.5)
            return RakeSolution(lam=1.0, a=a, pi_star=pi / a, constraint_residual=1.0,
                                n_iter=100, converged=False)

        monkeypatch.setattr(estimators, "rake_weights", stalled)
        r = run_estimator(ds, "ipcw_tmle_rake_pi", ctx)
        assert not r.converged
        assert r.n_outer_iterations == 0
        # the start state, at pi0, is what a run allowed no step reports
        assert r == run_estimator(ds, "ipcw_tmle_rake_pi", ctx, EstimatorOptions(max_outer_iter=0))

    def test_raking_stalled_after_one_calibration_reports_that_pass(self, monkeypatch):
        # with known pi this dataset needs more than one pass, so the second
        # raking solve is reached and fails
        ds, truth = generate(DgpSpec("raking_gap", n=300, seed=1))
        ctx = FittedContext(ds, NuisanceConfig(known_pi=truth.pi0))
        first = run_estimator(ds, "ipcw_tmle_rake_pi", ctx, EstimatorOptions(max_outer_iter=1))
        start = run_estimator(ds, "ipcw_tmle_rake_pi", ctx, EstimatorOptions(max_outer_iter=0))
        assert not first.converged
        solves = []

        def once(mbar, pi, delta):
            solves.append(rake_weights(mbar, pi, delta))
            if len(solves) == 1:
                return solves[0]
            return dataclasses.replace(solves[-1], converged=False)

        monkeypatch.setattr(estimators, "rake_weights", once)
        r = run_estimator(ds, "ipcw_tmle_rake_pi", ctx)
        assert len(solves) == 2
        assert r.n_outer_iterations == 1 and not r.converged
        assert r == first  # the calibrated pass, not the failed solve's
        assert r.eic_mean_abs < start.eic_mean_abs
        # the reported plug-in is the first fluctuation's, weighted by the
        # calibrated solve's pi
        _, q1, q0, _ = ctx.first_q
        assert r.psi_hat == ctx.hajek_plugin(q1, q0, solves[0].pi_star) * ctx.scale.span

    @pytest.mark.parametrize("est", ["tmle_alt", "ipcw_tmle_target_pi", "ipcw_tmle_rake_pi"])
    def test_never_refits_the_same_values(self, monkeypatch, est):
        # the regressed values change only with the Q fluctuation, so their
        # regression is fitted once per Q fluctuation, never twice in a row
        # on identical values
        fitted = []

        def spy(ds, values2, **kw):
            fitted.append(np.array(values2))
            return fit_mbar(ds, values2, **kw)

        monkeypatch.setattr(estimators, "fit_mbar", spy)
        for seed in range(5):
            ds, _ = generate(DgpSpec("missing_rate", n=1000, seed=seed))
            ctx = FittedContext(ds)
            fitted.clear()
            r = run_estimator(ds, est, ctx)
            assert r.n_outer_iterations >= 1
            assert len(fitted) == r.n_outer_iterations + 1
            for before, after in zip(fitted, fitted[1:]):
                assert not np.array_equal(before, after)

    @pytest.mark.parametrize("est", ["ipcw_tmle_target_pi", "ipcw_tmle_rake_pi"])
    def test_linearized_fits_no_unused_slope(self, monkeypatch, est):
        # linearized mode fits the level regression once up front, then a
        # slope and the next level per Q fluctuation; the final pass, which
        # only checks convergence, used to fit a slope it never read
        calls = []

        def spy(ds, values2, **kw):
            calls.append(1)
            return fit_mbar(ds, values2, **kw)

        monkeypatch.setattr(estimators, "fit_mbar", spy)
        linearized = EstimatorOptions(mode="linearized")
        for seed in range(3):
            ds, _ = generate(DgpSpec("missing_rate", n=1000, seed=seed))
            ctx = FittedContext(ds)
            calls.clear()
            r = run_estimator(ds, est, ctx, linearized)
            assert r.n_outer_iterations >= 1
            assert len(calls) == 1 + 2 * r.n_outer_iterations

    def test_tmle_alt_runs_no_round_that_cannot_move(self, monkeypatch):
        # with no step allowed the loop state never moves, so a second round
        # would refit the same arm regressions to the same values: one
        # round, two arm fluctuations
        calls = []

        def spy(*args, **kw):
            calls.append(1)
            return fit_fluctuation(*args, **kw)

        monkeypatch.setattr(estimators, "fit_fluctuation", spy)
        ds, _ = generate(DgpSpec("missing_rate", n=300, seed=1))
        r = run_estimator(ds, "tmle_alt", options=EstimatorOptions(max_outer_iter=0))
        assert len(calls) == 2
        assert (r.n_outer_iterations, r.converged) == (0, False)
        assert r.psi_hat == pytest.approx(0.2918812806040898, rel=1e-12)
        assert r.se == pytest.approx(0.05531946382722826, rel=1e-12)


def kang_dr_20(seed):
    return generate(DgpSpec("kang_dr", n=20, seed=seed))[0]


class TestFailuresOnRealDraws:
    """Twenty-record kang_dr draws, estimated pi, on which one solve fails."""

    def test_one_failure_leaves_the_other_slots(self):
        _, out = run_roster(kang_dr_20(11), [(e, EstimatorOptions()) for e in ESTIMATOR_IDS])
        results = dict(zip(ESTIMATOR_IDS, (r for r, _ in out)))
        failure = results.pop("tmle_alt")
        assert isinstance(failure, EstimatorError)
        assert str(failure).startswith("tmle_alt failed: degenerate fluctuation")
        assert all(np.isfinite(r.psi_hat) for r in results.values())

    def test_raked_pi_past_the_floats_stops_the_loop(self, monkeypatch):
        # each pass of ipcw_tmle_rake_pi rakes the last pass's pi*; the third
        # solve meets its constraint, but with pi* of 0 and inf, on which
        # the EIC would divide by zero and overflow
        solves = record(monkeypatch, "rake_weights")
        r = run_estimator(compounding_rake_cohort(), "ipcw_tmle_rake_pi")
        assert np.isfinite([r.psi_hat, r.se, *r.ci95]).all()
        assert (r.n_outer_iterations, r.converged) == (2, False)
        *calibrated, (_, _, last) = solves
        assert len(calibrated) == 2 and all(rake.converged for _, _, rake in calibrated)
        assert abs(last.constraint_residual) <= 1e-8 and not last.converged
        assert not (np.isfinite(last.pi_star).all() and (last.pi_star > 0).all())

    def test_quasi_tmle_finds_no_root(self):
        with pytest.raises(EstimatorError,
                           match=r"plug-in fluctuation solve failed: no root in \[-10, 10\]"):
            run_estimator(kang_dr_20(3), "quasi_tmle")

    def test_raking_stalls_and_quasi_tmle_bisects(self, monkeypatch):
        ds = kang_dr_20(9)
        with pytest.raises(EstimatorError, match="raking solver stalled: vanishing gradient"):
            run_estimator(ds, "raking")
        ctx = FittedContext(ds)
        secants, bisects = record(monkeypatch, "secant"), record(monkeypatch, "bisect")
        r = run_estimator(ds, "quasi_tmle", ctx)
        (_, _, fallback), = bisects
        assert fallback.converged and not secants[0][2].converged  # the secant failed
        psi, _ = quasi_plugin(ctx, quasi_fluctuation(secants, bisects))
        assert r.psi_hat == psi * ctx.scale.span  # the plug-in at the bisection's root


def sparse_missing_rate(seed):
    return generate(DgpSpec("missing_rate", n=300, seed=seed, missing_intercept=-2.5))


class TestTinyPiBound:
    """missing_rate n=300 draws at sampling intercept -2.5 with a lower pi
    bound far below the default, so that 1/pi reaches 1e12 or more and a
    scalar equation leaves the floats. That must end the solve, never warn,
    and leave every roster entry a finite estimate or a named failure."""

    ROSTER = ([(e, EstimatorOptions()) for e in ESTIMATOR_IDS]
              + [(e, EstimatorOptions(mode="linearized")) for e in ESTIMATOR_IDS
                 if "mode" in estimators.OPTIONS_READ[e]])

    def results(self, ds, config):
        _, out = run_roster(ds, self.ROSTER, config)
        for res, _ in out:
            assert isinstance(res, EstimatorError) or np.isfinite([res.psi_hat, res.se]).all()
        return {(e, opts.mode): res for (e, opts), (res, _) in zip(self.ROSTER, out)}

    def test_fluctuation_slope_past_the_floats(self):
        # estimated pi bounded by 1e-300: (w h) h in fit_fluctuation's slope
        # overflowed for ipcw_tmle_target_pi and tmle_alt
        ds, _ = sparse_missing_rate(20)
        results = self.results(ds, NuisanceConfig(trunc_pi=(1e-300, 1.0)))
        for key in [("ipcw_tmle_target_pi", "refit"), ("ipcw_tmle_target_pi", "linearized"),
                    ("tmle_alt", "refit")]:
            assert isinstance(results[key], estimators.EstimateResult)

    def test_raking_constraint_past_the_floats(self):
        # known pi of 1e-9 times the truth, bounded by 1e-12: the raking
        # constraint w0 @ (tilt m2) overflowed for raking and ipcw_tmle_rake_pi
        ds, truth = sparse_missing_rate(1)
        results = self.results(ds, NuisanceConfig(known_pi=truth.pi0 * 1e-9,
                                                  trunc_pi=(1e-12, 1.0)))
        for key in [("raking", "refit"), ("ipcw_tmle_rake_pi", "refit"),
                    ("ipcw_tmle_rake_pi", "linearized")]:
            assert not results[key].converged

    def test_raking_refuses_an_unusable_calibration(self, monkeypatch):
        # a calibrated pi of 0 was divided by
        real = estimators.rake_weights

        def zero_pi_star(*args, **kwargs):
            rake = real(*args, **kwargs)
            pi_star = rake.pi_star.copy()
            pi_star[np.flatnonzero(args[2] == 1)[0]] = 0.0
            return dataclasses.replace(rake, pi_star=pi_star)

        monkeypatch.setattr(estimators, "rake_weights", zero_pi_star)
        with pytest.raises(EstimatorError, match="raking calibration failed: calibrated pi is "
                                                 "not finite and positive"):
            run_estimator(make_twophase_dataset(np.random.default_rng(3)), "raking")


def scripted(means):
    """A monitor and a step over states 0, 1, 2, ...: state k reports psi k
    and an EIC on 100 records of mean means[k], dyadic so the mean is exact
    (of these, only 0 meets s_n, about 0.022 at n=100); stepping to a state
    whose mean is None fails."""

    def monitor(k):
        return float(k), means[k] + np.tile([-1.0, 1.0], 50)

    def step(k):
        return None if means[k + 1] is None else k + 1

    return monitor, step


class TestTargetLoop:
    def target(self, means, max_iter=10):
        (state, psi, d), best, steps, converged = estimators._target(
            0, *scripted(means), max_iter)
        assert psi == state and np.mean(d) == means[state]
        return state, None if best is None else best[0], steps, converged

    def test_first_pass_is_mandatory(self):
        assert self.target([0.0, 0.0]) == (1, 1, 1, True)

    def test_no_steps_allowed(self):
        assert self.target([0.0, 0.0], max_iter=0) == (0, None, 0, False)

    def test_failed_step_keeps_the_best_stepped_pass(self):
        assert self.target([0.5, 0.25, 0.375, None]) == (2, 1, 2, False)
        assert self.target([0.5, None]) == (0, None, 0, False)

    def test_cap_tells_best_from_last(self):
        assert self.target([0.5, 0.375, 0.125, 0.25, 0.0], max_iter=3) == (3, 2, 3, False)

    def test_ties_keep_the_earlier_pass(self):
        assert self.target([0.5, 0.25, 0.25], max_iter=2) == (2, 1, 2, False)


class TestPlugInProperty:
    def test_ipcw_tmle_solves_weighted_fulldata_score(self):
        for seed in range(4):
            ds = make_twophase_dataset(np.random.default_rng(30 + seed))
            ctx = FittedContext(ds)
            r = run_estimator(ds, "ipcw_tmle", ctx)
            psi, dbar2, _ = ctx.first_eic  # the context's step that ipcw_tmle reports
            assert r.psi_hat == psi * ctx.scale.span
            assert abs(np.sum((dbar2 - psi) * ctx.wts0) / ctx.n) <= 1e-9

    def test_ipcw_tmle_plugin_identity(self):
        ds = make_twophase_dataset(np.random.default_rng(12))
        ctx = FittedContext(ds)
        r = run_estimator(ds, "ipcw_tmle", ctx)
        # recompute the weighted plug-in from the targeted outcome fits
        _, q1, q0, _ = ctx.first_q
        wts2 = 1.0 / fit_nuisances(ds).pi[ds.phase2]
        plug = float(wts2 @ (q1 - q0) / wts2.sum())
        assert r.psi_hat == pytest.approx(plug, abs=1e-8)

    def test_quasi_tmle_plugin_identity(self, monkeypatch):
        ds = make_twophase_dataset(np.random.default_rng(13))
        ctx = FittedContext(ds)
        secants, bisects = record(monkeypatch, "secant"), record(monkeypatch, "bisect")
        r = run_estimator(ds, "quasi_tmle", ctx)
        psi, _ = quasi_plugin(ctx, quasi_fluctuation(secants, bisects))
        assert r.psi_hat == pytest.approx(psi * ctx.scale.span, abs=1e-10)

    def test_tmle_alt_plugin_identity(self):
        # allowed no step, tmle_alt targets the arm regressions at (Q0, pi0):
        # psi is the mean of their targeted contrast, recomputed here
        ds = make_twophase_dataset(np.random.default_rng(14))
        ctx = FittedContext(ds)
        r = run_estimator(ds, "tmle_alt", ctx, EstimatorOptions(max_outer_iter=0))
        inv_pi = 1.0 / ctx.pi0
        m_star = []
        for q_arm in (ctx.q10, ctx.q00):
            resp = np.clip(q_arm, P_MIN, 1.0 - P_MIN)
            m_all = fit_glm(ctx.design.x2, resp, family="bernoulli").predict(ctx.design.x_all)
            eps = fit_fluctuation(resp, logit(m_all[ctx.p2], P_MIN), inv_pi[ctx.p2]).epsilon
            m_star.append(expit(logit(m_all, P_MIN) + eps * inv_pi))
        plug = float(np.mean(m_star[0] - m_star[1])) * ctx.scale.span
        assert r.psi_hat == pytest.approx(plug, abs=1e-10)


class TestRakingEstimator:
    def test_correct_working_model_recovers_truth(self):
        # gamma=0: homogeneous linear truth, raking is consistent for the ATE
        spec = DgpSpec("raking_gap", n=20_000, seed=123, gamma=0.0)
        ds, _ = generate(spec)
        r = run_estimator(ds, "raking")
        assert abs(r.psi_hat - reference_psi(spec)) <= 3.0 * r.se

    def test_pi_component_scored_to_zero(self, monkeypatch):
        ds = make_twophase_dataset(np.random.default_rng(15), n=400)
        solves = record(monkeypatch, "rake_weights")
        run_estimator(ds, "raking")
        ((h, _, d), _, rake), = solves  # calibration values and the solve
        score = np.sum(d / rake.pi_star * h - h)
        assert abs(score) <= 1e-8

    def test_psi_is_calibrated_weighted_plugin(self, monkeypatch):
        ds = make_twophase_dataset(np.random.default_rng(16), n=400)
        solves, fits = record(monkeypatch, "rake_weights"), record(monkeypatch, "fit_glm")
        r = run_estimator(ds, "raking")
        (_, _, rake), = solves
        p2 = ds.phase2
        wts1 = 1.0 / rake.pi_star[p2]
        _, kwargs, fit = fits[-1]  # the working model refitted at the calibrated weights
        np.testing.assert_array_equal(kwargs["w"], wts1)
        X = np.column_stack([np.ones(len(p2)), ds.a[p2].astype(float),
                             ds.w1[p2], ds.w2[p2]])
        X1 = X.copy()
        X1[:, 1] = 1.0
        X0 = X.copy()
        X0[:, 1] = 0.0
        plug = float(wts1 @ (fit.predict(X1) - fit.predict(X0)) / wts1.sum())
        assert r.psi_hat == pytest.approx(plug, abs=1e-10)

    def test_phase2_covariate_constant_at_zero(self):
        # the working model's information matrix is singular on the dead
        # column; solving it once raised an uncaught LinAlgError
        ds = zero_covariate_cohort()
        ctx = FittedContext(ds)
        for est in ("raking", "aipcw", "tmle_alt"):
            r = run_estimator(ds, est, ctx)
            assert np.isfinite([r.psi_hat, r.se, *r.ci95]).all() and r.se > 0


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
        ctx = FittedContext(_census_dataset(np.random.default_rng(10 + d2), y_kind, d2))
        family = "bernoulli" if y_kind == "binary" else "gaussian"
        censored = np.flatnonzero(ctx.scaled.delta == 0)
        designs2 = aw_designs(ctx.scaled, ctx.p2)
        imputed = estimators._imputation(ctx, censored)
        imputation = reference_imputation(ctx) if d2 else None
        tilt = np.random.default_rng(3).uniform(0.5, 2.0, size=len(ctx.p2))
        for wts2 in (ctx.wts0, ctx.wts0 * tilt):
            _, _, u = estimators._working_model(ctx, designs2, censored, imputed, wts2, family)
            ref = reference_census_influence(ctx, imputation, wts2, family)
            censored_rows = ctx.scaled.delta == 0
            assert censored_rows.sum() > 50
            np.testing.assert_array_equal(u[~censored_rows], ref[~censored_rows])
            err = np.max(np.abs(u - ref))
            assert err <= 1e-12 * np.max(np.abs(ref))

    def test_designs_built_once_per_row_set(self, monkeypatch):
        # the phase-2 and censored designs do not depend on the weights, so
        # the preliminary and the final working model share them
        ctx = FittedContext(_census_dataset(np.random.default_rng(12), "binary", 2))
        calls = []

        def counting(ds, rows, w2=None):
            calls.append(rows)
            return aw_designs(ds, rows, w2)

        monkeypatch.setattr(estimators, "aw_designs", counting)
        estimators.estimate_raking(ctx)
        censored = np.flatnonzero(ctx.scaled.delta == 0)
        assert sorted(tuple(rows) for rows in calls) == sorted([tuple(ctx.p2), tuple(censored)])

    @pytest.mark.parametrize("y_kind", ["binary", "continuous"])
    def test_cholesky_alpha_matches_lu_solve(self, y_kind):
        ctx = FittedContext(_census_dataset(np.random.default_rng(12), y_kind, 2))
        family = "bernoulli" if y_kind == "binary" else "gaussian"
        _, info, grad = census_information(ctx, ctx.wts0, family)
        assert np.linalg.cond(info) < 1e3
        factor, ridge_used = _factor_spd(info)
        alpha, lu = _cho_solve(factor, grad), np.linalg.solve(info, grad)
        assert not ridge_used
        assert np.max(np.abs(alpha - lu)) <= 1e-12 * np.max(np.abs(lu))


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

    @pytest.mark.parametrize("cap", [2.5, 2.0, "3", None, False])
    def test_non_integer_max_outer_iter_rejected(self, cap):
        # a float cap was accepted, and the bare TypeError it raised from
        # range() escaped run_roster and ended a whole study
        with pytest.raises(ValueError, match="max_outer_iter must be an integer"):
            EstimatorOptions(max_outer_iter=cap)

    def test_numpy_integer_max_outer_iter_accepted(self):
        assert EstimatorOptions(max_outer_iter=np.int64(4)).max_outer_iter == 4

    @pytest.mark.parametrize("mode", ["linearised", "", "Linearized"])
    def test_unknown_mode_rejected(self, mode):
        # a misspelt mode used to run refit silently
        with pytest.raises(ValueError, match="refit|linearized"):
            EstimatorOptions(mode=mode)

    def test_estimator_table_is_pinned(self):
        # the order is the default roster, and so the row order of
        # estimates.csv and report.csv when no estimators are listed
        assert ESTIMATOR_IDS == ("aipcw", "ipcw_tmle", "ipcw_tmle_target_pi",
                                 "ipcw_tmle_rake_pi", "raking", "eee", "quasi_tmle",
                                 "tmle_alt")
        loop = frozenset({"mode", "max_outer_iter"})
        assert estimators.OPTIONS_READ == {
            "aipcw": frozenset(), "ipcw_tmle": frozenset(),
            "ipcw_tmle_target_pi": loop, "ipcw_tmle_rake_pi": loop,
            "raking": frozenset(), "eee": frozenset(),
            "quasi_tmle": frozenset({"mode"}), "tmle_alt": frozenset({"max_outer_iter"}),
        }
        assert FULL_EIC_SOLVERS == frozenset({"aipcw", "ipcw_tmle_target_pi",
                                              "ipcw_tmle_rake_pi", "eee", "quasi_tmle",
                                              "tmle_alt"})
        assert list(estimators._DISPATCH) == list(ESTIMATOR_IDS)

    def test_options_table_names_every_estimator(self):
        assert set(estimators.OPTIONS_READ) == set(ESTIMATOR_IDS)
        fields = {f.name for f in dataclasses.fields(EstimatorOptions)}
        assert set().union(*estimators.OPTIONS_READ.values()) == fields

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
