import numpy as np
import pytest

from twophase_ate.data_model import Dataset
from twophase_ate.glm import fit_glm
from twophase_ate.nuisance import (
    TRUNC_G_DEFAULT,
    TRUNC_PI_DEFAULT,
    GlmPredictor,
    MbarDesign,
    NuisanceConfig,
    NuisanceError,
    aw_features,
    fit_g_ipcw,
    fit_mbar,
    fit_nuisances,
    fit_pi,
    fit_q_ipcw,
    pin_known,
    v_features,
    w_features,
)

from util import make_twophase_dataset


def coinflip_dataset(rng, n=10_000, p_delta=0.5):
    w = rng.normal(size=(n, 2))
    a = (rng.random(n) < 0.5).astype(int)
    y = (rng.random(n) < 0.3).astype(float)
    delta = (rng.random(n) < p_delta).astype(int)
    w2 = w[:, 1:].copy()
    w2[delta == 0] = np.nan
    return Dataset(w1=w[:, :1], a=a, y=y, delta=delta, w2=w2)


class TestFitPi:
    def test_coinflip_recovers_half(self):
        ds = coinflip_dataset(np.random.default_rng(0))
        pi = fit_pi(ds)
        vals = pi.predict(v_features(ds))
        assert abs(vals.mean() - 0.5) < 0.02

    def test_constant_delta_rejected(self):
        rng = np.random.default_rng(1)
        ds = coinflip_dataset(rng, n=50, p_delta=1.1)  # all delta = 1
        with pytest.raises(NuisanceError, match="constant"):
            fit_pi(ds)

    def test_predictions_respect_truncation(self):
        ds = make_twophase_dataset(np.random.default_rng(2))
        pi = fit_pi(ds, trunc=(0.2, 0.8))
        vals = pi.predict(v_features(ds))
        assert vals.min() >= 0.2 and vals.max() <= 0.8


class TestKnownMechanisms:
    def test_truncation_still_applies(self):
        pred = pin_known(np.full(3, 0.001), bounds=(0.01, 0.99))
        assert np.all(pred.predict(np.zeros((3, 1))) == 0.01)

    def test_pinned_values_slice_by_rows(self):
        vals = np.linspace(0.1, 0.9, 10)
        pred = pin_known(vals)
        rows = np.array([2, 5])
        got = pred.predict(np.zeros((2, 4)), rows=rows)
        np.testing.assert_array_equal(got, vals[rows])

    def test_pinned_misalignment_raises(self):
        pred = pin_known(np.ones(5))
        with pytest.raises(NuisanceError):
            pred.predict(np.zeros((3, 1)))


class TestFitQIpcw:
    def test_pi_one_equals_unweighted_fit(self):
        ds = make_twophase_dataset(np.random.default_rng(3))
        pi = pin_known(np.ones(ds.n))
        q = fit_q_ipcw(ds, pi)
        p2 = ds.phase2
        X = np.column_stack([np.ones(len(p2)), aw_features(ds, p2)])
        ref = fit_glm(X, ds.y[p2], family="bernoulli")
        np.testing.assert_allclose(q.fit.coefficients, ref.coefficients, atol=1e-10)

    def test_independent_outcome_recovers_marginal(self):
        ds = coinflip_dataset(np.random.default_rng(4))
        pi = pin_known(np.full(ds.n, 0.5))
        q = fit_q_ipcw(ds, pi)
        p2 = ds.phase2
        vals = q.predict(aw_features(ds, p2))
        assert abs(vals.mean() - 0.3) < 0.02

    def test_weight_rescaling_invariance(self):
        ds = make_twophase_dataset(np.random.default_rng(5))
        q1 = fit_q_ipcw(ds, pin_known(np.full(ds.n, 0.8)))
        q2 = fit_q_ipcw(ds, pin_known(np.full(ds.n, 0.4)))
        np.testing.assert_allclose(q1.fit.coefficients, q2.fit.coefficients, atol=1e-10)

    def test_missing_arm_rejected(self):
        rng = np.random.default_rng(6)
        ds0 = make_twophase_dataset(rng)
        a = ds0.a.copy()
        a[ds0.delta == 1] = 1  # no controls in phase 2
        ds = Dataset(w1=ds0.w1, a=a, y=ds0.y, delta=ds0.delta, w2=ds0.w2)
        with pytest.raises(NuisanceError, match="a=0"):
            fit_q_ipcw(ds, pin_known(np.ones(ds.n)))


class TestFitGIpcw:
    def test_randomized_treatment_recovers_half(self):
        ds = coinflip_dataset(np.random.default_rng(7))
        g = fit_g_ipcw(ds, pin_known(np.full(ds.n, 0.5)))
        vals = g.predict(w_features(ds, ds.phase2))
        assert abs(vals.mean() - 0.5) < 0.02

    def test_truncation_clips_exactly(self):
        ds = make_twophase_dataset(np.random.default_rng(8))
        g = fit_g_ipcw(ds, pin_known(np.ones(ds.n)), trunc=(0.45, 0.55))
        vals = g.predict(w_features(ds, ds.phase2))
        assert vals.min() >= 0.45 and vals.max() <= 0.55


class TestFitMbar:
    def test_constant_values(self):
        ds = make_twophase_dataset(np.random.default_rng(9))
        pred = fit_mbar(ds, np.full(ds.n_phase2, 3.25))
        np.testing.assert_allclose(pred.predict(v_features(ds)), 3.25, atol=1e-8)

    def test_exact_linear_recovery(self):
        ds = make_twophase_dataset(np.random.default_rng(10))
        p2 = ds.phase2
        vals = 1.0 + 2.0 * ds.w1[p2, 0] - 0.5 * ds.a[p2] + 0.25 * ds.y[p2]
        pred = fit_mbar(ds, vals)
        target_all = 1.0 + 2.0 * ds.w1[:, 0] - 0.5 * ds.a + 0.25 * ds.y
        np.testing.assert_allclose(pred.predict(v_features(ds)), target_all, atol=1e-8)

    def test_extrapolates_linearly_to_censored_rows(self):
        ds = make_twophase_dataset(np.random.default_rng(11))
        p2 = ds.phase2
        pred = fit_mbar(ds, ds.w1[p2, 0].copy())
        censored = np.flatnonzero(ds.delta == 0)
        got = pred.predict(v_features(ds, censored), rows=censored)
        np.testing.assert_allclose(got, ds.w1[censored, 0], atol=1e-8)

    def test_underdetermined_uses_ridge(self):
        # 2 phase-2 rows, 4 features: rank-deficient but should not raise
        ds = Dataset(w1=np.arange(10, dtype=float).reshape(5, 2), a=[0, 1, 0, 1, 0],
                     y=[0.0, 1.0, 1.0, 0.0, 1.0], delta=[1, 1, 0, 0, 0],
                     w2=np.array([[1.0], [2.0], [np.nan], [np.nan], [np.nan]]))
        pred = fit_mbar(ds, np.array([1.0, 2.0]))
        assert np.all(np.isfinite(pred.predict(v_features(ds))))

    def test_shared_design_matches_fresh_fit_exactly(self):
        ds = make_twophase_dataset(np.random.default_rng(14))
        design = MbarDesign(ds)
        rng = np.random.default_rng(15)
        for _ in range(3):
            vals = rng.normal(size=ds.n_phase2)
            fresh = fit_mbar(ds, vals).fit
            shared = fit_mbar(ds, vals, design=design).fit
            assert np.array_equal(fresh.coefficients, shared.coefficients)
            assert fresh.converged == shared.converged

    def test_shared_design_keeps_the_checks(self):
        ds = make_twophase_dataset(np.random.default_rng(16))
        design = MbarDesign(ds)
        with pytest.raises(NuisanceError, match="align"):
            fit_mbar(ds, np.ones(ds.n_phase2 + 1), design=design)
        vals = np.ones(ds.n_phase2)
        vals[3] = np.nan
        with pytest.raises(NuisanceError, match="non-finite"):
            fit_mbar(ds, vals, design=design)


class TestFitNuisances:
    def test_bundle_with_known_mechanisms(self):
        rng = np.random.default_rng(12)
        ds = make_twophase_dataset(rng)
        ns = fit_nuisances(ds, NuisanceConfig(known_pi=np.full(ds.n, 0.7),
                                              known_g=np.full(ds.n, 0.5)))
        pi_vals = ns.pi.predict(v_features(ds), rows=np.arange(ds.n))
        assert np.all(pi_vals == 0.7)
        g_vals = ns.g.predict(w_features(ds, ds.phase2), rows=ds.phase2)
        assert np.all(g_vals == 0.5)

    @pytest.mark.parametrize("trunc", [{"trunc_pi": (0.9, 0.1)}, {"trunc_pi": (0.0, 1.0)},
                                       {"trunc_g": (0.2, 1.0)}, {"trunc_g": (0.6, 0.4)}])
    def test_invalid_truncation_rejected(self, trunc):
        with pytest.raises(ValueError, match="trunc_"):
            NuisanceConfig(**trunc)

    def test_default_bundle_fits_everything(self):
        ds = make_twophase_dataset(np.random.default_rng(13))
        ns = fit_nuisances(ds)
        assert isinstance(ns.pi, GlmPredictor) and isinstance(ns.g, GlmPredictor)
        assert (ns.trunc_pi, ns.pi.bounds, ns.g.bounds) == (
            TRUNC_PI_DEFAULT, TRUNC_PI_DEFAULT, TRUNC_G_DEFAULT)
        q_vals = ns.q.predict(aw_features(ds, ds.phase2))
        assert np.all((q_vals > 0) & (q_vals < 1))
