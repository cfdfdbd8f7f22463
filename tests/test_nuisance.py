import dataclasses

import numpy as np
import pytest

from twophase_ate.data_model import Dataset
from twophase_ate.estimators import ESTIMATOR_IDS, EstimatorError, EstimatorOptions, run_roster
from twophase_ate.glm import GlmError, fit_glm
from twophase_ate.nuisance import (
    TRUNC_G_DEFAULT,
    TRUNC_PI_DEFAULT,
    MbarDesign,
    NuisanceConfig,
    NuisanceError,
    aw_designs,
    fit_g_ipcw,
    fit_mbar,
    fit_nuisances,
    fit_pi,
    fit_q_ipcw,
    v_features,
)

from util import make_full_dataset, make_twophase_dataset


def pi_fit(ds, **kw):
    return fit_pi(MbarDesign(ds), ds.delta, **kw)


def weights(ds, pi):
    """1/pi on the phase-2 rows, for sampling probabilities pi of every record."""
    return 1.0 / pi[ds.phase2]


def q_fit(ds, pi):
    return fit_q_ipcw(ds, aw_designs(ds, ds.phase2)[0], weights(ds, pi))


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
        vals = pi_fit(ds)
        assert vals.shape == (ds.n,)
        assert abs(vals.mean() - 0.5) < 0.02

    def test_constant_delta_rejected(self):
        rng = np.random.default_rng(1)
        ds = coinflip_dataset(rng, n=50, p_delta=1.1)  # all delta = 1
        with pytest.raises(NuisanceError, match="constant"):
            pi_fit(ds)

    def test_predictions_respect_truncation(self):
        ds = make_twophase_dataset(np.random.default_rng(2))
        vals = pi_fit(ds, trunc=(0.2, 0.8))
        assert vals.min() >= 0.2 and vals.max() <= 0.8

    def test_values_are_the_truncated_fit_on_every_record(self):
        ds = make_twophase_dataset(np.random.default_rng(2))
        X = np.column_stack([np.ones(ds.n), v_features(ds)])
        ref = fit_glm(X, ds.delta.astype(float), family="bernoulli").predict(X)
        np.testing.assert_array_equal(pi_fit(ds, trunc=(0.2, 0.8)), np.clip(ref, 0.2, 0.8))


class TestKnownMechanisms:
    def test_truncation_still_applies(self):
        ds = make_twophase_dataset(np.random.default_rng(20))
        pi, g1, *_ = fit_nuisances(ds, NuisanceConfig(known_pi=np.full(ds.n, 0.001),
                                                      known_g=np.full(ds.n, 0.999)))
        assert np.all(pi == TRUNC_PI_DEFAULT[0])
        assert np.all(g1 == TRUNC_G_DEFAULT[1])

    def test_pinned_values_slice_by_rows(self):
        # known pi covers every record, known g is taken on the phase-2 rows
        ds = make_twophase_dataset(np.random.default_rng(21))
        vals = np.linspace(0.1, 0.9, ds.n)
        pi, g1, *_ = fit_nuisances(ds, NuisanceConfig(known_pi=vals, known_g=vals))
        np.testing.assert_array_equal(pi, vals)
        np.testing.assert_array_equal(g1, vals[ds.phase2])

    def test_pinned_misalignment_raises(self):
        ds = make_twophase_dataset(np.random.default_rng(24))
        with pytest.raises(NuisanceError, match="one value per record"):
            fit_nuisances(ds, NuisanceConfig(known_pi=np.ones(ds.n + 1)))

    @pytest.mark.parametrize("name", ["known_pi", "known_g"])
    @pytest.mark.parametrize("make", [
        lambda n: np.ones(n - 1),  # too short
        lambda n: np.full((n, 1), 0.5),  # a column passes a length check
        lambda n: np.where(np.arange(n) == 3, np.nan, 0.5),
        lambda n: np.where(np.arange(n) == 3, np.inf, 0.5),
        lambda n: ["x"] * n,
    ], ids=["short", "column", "nan", "inf", "text"])
    def test_malformed_values_rejected_by_name(self, name, make):
        ds = make_twophase_dataset(np.random.default_rng(22))
        with pytest.raises(NuisanceError, match=name):
            fit_nuisances(ds, NuisanceConfig(**{name: make(ds.n)}))

    @pytest.mark.parametrize("name", ["known_pi", "known_g"])
    @pytest.mark.parametrize("value", [1.5, -0.2, 1.0 + 1e-12])
    def test_values_outside_the_unit_interval_rejected_by_name(self, name, value):
        # they used to be clipped: known pi = 1.5 gave the estimate of 1.0,
        # and known g = -0.2 that of the lower truncation bound
        ds = make_twophase_dataset(np.random.default_rng(25))
        values = np.full(ds.n, 0.5)
        values[7] = value
        with pytest.raises(NuisanceError, match=rf"{name} must lie in \[0, 1\]"):
            fit_nuisances(ds, NuisanceConfig(**{name: values}))

    def test_unit_interval_ends_are_accepted_and_truncated(self):
        ds = make_twophase_dataset(np.random.default_rng(26))
        pi, g1, *_ = fit_nuisances(ds, NuisanceConfig(known_pi=np.ones(ds.n),
                                                      known_g=np.zeros(ds.n)))
        assert np.all(pi == TRUNC_PI_DEFAULT[1])
        assert np.all(g1 == TRUNC_G_DEFAULT[0])

    @pytest.mark.parametrize("name", ["known_pi", "known_g"])
    @pytest.mark.parametrize("make", [
        lambda n: np.full((n, 1), 0.5),
        lambda n: np.where(np.arange(n) == 3, np.nan, 0.5),
    ], ids=["column", "nan"])
    def test_malformed_values_fail_every_estimator(self, name, make):
        ds = make_twophase_dataset(np.random.default_rng(23))
        roster = [(est, EstimatorOptions()) for est in ESTIMATOR_IDS]
        _, results = run_roster(ds, roster, NuisanceConfig(**{name: make(ds.n)}))
        for res, _ in results:
            assert isinstance(res, EstimatorError)
            assert name in str(res)


class TestFitQIpcw:
    def test_pi_one_equals_unweighted_fit(self):
        ds = make_twophase_dataset(np.random.default_rng(3))
        q = q_fit(ds, np.ones(ds.n))
        p2 = ds.phase2
        X = np.column_stack([np.ones(len(p2)), ds.a[p2], ds.w1[p2], ds.w2[p2]])
        ref = fit_glm(X, ds.y[p2], family="bernoulli")
        np.testing.assert_allclose(q.coefficients, ref.coefficients, atol=1e-10)

    def test_independent_outcome_recovers_marginal(self):
        ds = coinflip_dataset(np.random.default_rng(4))
        q = q_fit(ds, np.full(ds.n, 0.5))
        X, _, _ = aw_designs(ds, ds.phase2)
        assert abs(q.predict(X).mean() - 0.3) < 0.02

    def test_weight_rescaling_invariance(self):
        ds = make_twophase_dataset(np.random.default_rng(5))
        q1 = q_fit(ds, np.full(ds.n, 0.8))
        q2 = q_fit(ds, np.full(ds.n, 0.4))
        np.testing.assert_allclose(q1.coefficients, q2.coefficients, atol=1e-10)

    def test_infinite_weight_rejected_as_non_finite(self):
        # a zero pi's weight; fit_nuisances never makes one, as every pi is
        # truncated to a positive lower bound
        ds = make_twophase_dataset(np.random.default_rng(5))
        pi = np.ones(ds.n)
        pi[ds.phase2[0]] = 0.0
        with np.errstate(divide="ignore"):
            wts2 = weights(ds, pi)
        with pytest.raises(GlmError, match="non-finite"):
            fit_q_ipcw(ds, aw_designs(ds, ds.phase2)[0], wts2)

    def test_unscaled_continuous_outcome_rejected(self):
        # FittedContext scales the outcome first; a direct call must too
        ds0 = make_twophase_dataset(np.random.default_rng(6))
        y = 3.0 * ds0.y - 1.0
        ds = ds0.replace_y(y, "continuous", (-1.0, 2.0))
        with pytest.raises(NuisanceError, match=r"outcome must be in \[0, 1\]; scale"):
            q_fit(ds, np.ones(ds.n))

    def test_missing_arm_rejected(self):
        rng = np.random.default_rng(6)
        ds0 = make_twophase_dataset(rng)
        a = ds0.a.copy()
        a[ds0.delta == 1] = 1  # no controls in phase 2
        ds = Dataset(w1=ds0.w1, a=a, y=ds0.y, delta=ds0.delta, w2=ds0.w2)
        with pytest.raises(NuisanceError, match="a=0"):
            q_fit(ds, np.ones(ds.n))


class TestFitGIpcw:
    def test_randomized_treatment_recovers_half(self):
        ds = coinflip_dataset(np.random.default_rng(7))
        vals = fit_g_ipcw(ds, np.full(ds.n_phase2, 2.0))
        assert vals.shape == (ds.n_phase2,)
        assert abs(vals.mean() - 0.5) < 0.02

    def test_truncation_clips_exactly(self):
        ds = make_twophase_dataset(np.random.default_rng(8))
        vals = fit_g_ipcw(ds, np.ones(ds.n_phase2), trunc=(0.45, 0.55))
        assert vals.min() >= 0.45 and vals.max() <= 0.55


class TestFitMbar:
    def test_constant_values(self):
        ds = make_twophase_dataset(np.random.default_rng(9))
        pred = fit_mbar(MbarDesign(ds), np.full(ds.n_phase2, 3.25))
        assert pred.shape == (ds.n,)
        np.testing.assert_allclose(pred, 3.25, atol=1e-8)

    def test_exact_linear_recovery(self):
        ds = make_twophase_dataset(np.random.default_rng(10))
        p2 = ds.phase2
        vals = 1.0 + 2.0 * ds.w1[p2, 0] - 0.5 * ds.a[p2] + 0.25 * ds.y[p2]
        pred = fit_mbar(MbarDesign(ds), vals)
        target_all = 1.0 + 2.0 * ds.w1[:, 0] - 0.5 * ds.a + 0.25 * ds.y
        np.testing.assert_allclose(pred, target_all, atol=1e-8)

    def test_extrapolates_linearly_to_censored_rows(self):
        ds = make_twophase_dataset(np.random.default_rng(11))
        p2 = ds.phase2
        pred = fit_mbar(MbarDesign(ds), ds.w1[p2, 0].copy())
        censored = np.flatnonzero(ds.delta == 0)
        np.testing.assert_allclose(pred[censored], ds.w1[censored, 0], atol=1e-8)

    def test_underdetermined_uses_ridge(self):
        # 2 phase-2 rows, 4 features: rank-deficient but should not raise
        ds = Dataset(w1=np.arange(10, dtype=float).reshape(5, 2), a=[0, 1, 0, 1, 0],
                     y=[0.0, 1.0, 1.0, 0.0, 1.0], delta=[1, 1, 0, 0, 0],
                     w2=np.array([[1.0], [2.0], [np.nan], [np.nan], [np.nan]]))
        pred = fit_mbar(MbarDesign(ds), np.array([1.0, 2.0]))
        assert np.all(np.isfinite(pred))

    def test_shared_design_matches_fresh_fit_exactly(self):
        ds = make_twophase_dataset(np.random.default_rng(14))
        design = MbarDesign(ds)
        rng = np.random.default_rng(15)
        for _ in range(3):
            vals = rng.normal(size=ds.n_phase2)
            assert np.array_equal(fit_mbar(MbarDesign(ds), vals), fit_mbar(design, vals))

    def test_overflowing_gram_matrix_fails_by_name(self):
        # x2'x2 of a column near 1e160 leaves the floats
        ds0 = make_full_dataset(np.random.default_rng(19), n=40)
        w1 = ds0.w1 * 1e160
        ds = Dataset(w1=w1, a=ds0.a, y=ds0.y, delta=ds0.delta, w2=ds0.w2)
        with pytest.raises(NuisanceError, match="regression of influence values failed: "
                                                "non-finite Gram matrix"):
            fit_mbar(MbarDesign(ds), np.ones(ds.n))

    def test_shared_design_keeps_the_checks(self):
        ds = make_twophase_dataset(np.random.default_rng(16))
        design = MbarDesign(ds)
        with pytest.raises(NuisanceError, match="align"):
            fit_mbar(design, np.ones(ds.n_phase2 + 1))
        vals = np.ones(ds.n_phase2)
        vals[3] = np.nan
        with pytest.raises(NuisanceError, match="non-finite"):
            fit_mbar(design, vals)


class TestFitNuisances:
    def test_bundle_with_known_mechanisms(self):
        rng = np.random.default_rng(12)
        ds = make_twophase_dataset(rng)
        pi, g1, *_ = fit_nuisances(ds, NuisanceConfig(known_pi=np.full(ds.n, 0.7),
                                                      known_g=np.full(ds.n, 0.5)))
        assert pi.shape == (ds.n,) and np.all(pi == 0.7)
        assert g1.shape == (ds.n_phase2,) and np.all(g1 == 0.5)

    @pytest.mark.parametrize("trunc", [{"trunc_pi": (0.9, 0.1)}, {"trunc_pi": (0.0, 1.0)},
                                       {"trunc_g": (0.2, 1.0)}, {"trunc_g": (0.6, 0.4)}])
    def test_invalid_truncation_rejected(self, trunc):
        with pytest.raises(ValueError, match="trunc_"):
            NuisanceConfig(**trunc)

    def test_config_cannot_be_changed_after_it_is_checked(self):
        # assigning (0.9, 0.1) used to pass, and every pi was then clipped to 0.1
        cfg = NuisanceConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.trunc_pi = (0.9, 0.1)
        assert cfg.trunc_pi == TRUNC_PI_DEFAULT

    def test_default_bundle_fits_everything(self):
        ds = make_twophase_dataset(np.random.default_rng(13))
        pi, g1, q, wts2, designs2, design = fit_nuisances(ds)
        np.testing.assert_array_equal(pi, pi_fit(ds))
        np.testing.assert_array_equal(wts2, weights(ds, pi))
        np.testing.assert_array_equal(g1, fit_g_ipcw(ds, wts2))
        np.testing.assert_array_equal(q.coefficients, q_fit(ds, pi).coefficients)
        np.testing.assert_array_equal(design.x_all, MbarDesign(ds).x_all)
        for built, fresh in zip(designs2, aw_designs(ds, ds.phase2)):
            np.testing.assert_array_equal(built, fresh)
        q_vals = q.predict(designs2[0])
        assert np.all((q_vals > 0) & (q_vals < 1))


class TestAwDesigns:
    def test_columns_and_arms(self):
        ds = make_twophase_dataset(np.random.default_rng(17))
        p2 = ds.phase2
        X, X1, X0 = aw_designs(ds, p2)
        np.testing.assert_array_equal(
            X, np.column_stack([np.ones(len(p2)), ds.a[p2], ds.w1[p2], ds.w2[p2]]))
        assert np.all(X1[:, 1] == 1.0) and np.all(X0[:, 1] == 0.0)
        for Z in (X1, X0):
            np.testing.assert_array_equal(np.delete(Z, 1, axis=1), np.delete(X, 1, axis=1))

    def test_replacement_covariates(self):
        ds = make_twophase_dataset(np.random.default_rng(18))
        censored = np.flatnonzero(ds.delta == 0)
        w2 = np.full((len(censored), ds.d_w2), 7.0)
        for Z in aw_designs(ds, censored, w2):
            assert np.all(Z[:, 2 + ds.d_w1:] == 7.0)
            np.testing.assert_array_equal(Z[:, 2:2 + ds.d_w1], ds.w1[censored])
