import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophase_ate.data_model import Dataset
from twophase_ate.eic import (
    _moments,
    clever_covariate,
    eic_components,
    eic_variance,
    evaluate_nuisances,
    fulldata_eic_values,
    linearized_slope_values,
    observed_eic,
)
from twophase_ate.glm import expit, logit
from twophase_ate.nuisance import NuisanceConfig, fit_mbar, fit_nuisances

from util import make_twophase_dataset


class TestCleverCovariate:
    def test_half(self):
        assert clever_covariate(1, 0.5) == 2.0
        assert clever_covariate(0, 0.5) == -2.0

    def test_quarter(self):
        assert clever_covariate(1, 0.25) == 4.0
        assert clever_covariate(0, 0.25) == pytest.approx(-1 / 0.75)

    def test_reciprocal_identity(self):
        g = np.random.default_rng(0).uniform(0.05, 0.95, size=100)
        a = np.ones(100)
        np.testing.assert_allclose(clever_covariate(a, g) * g, 1.0, atol=1e-12)


class TestFulldataEic:
    def test_zero_residuals_center_to_zero(self):
        rng = np.random.default_rng(1)
        n = 50
        q1 = rng.uniform(0.2, 0.8, n)
        q0 = rng.uniform(0.2, 0.8, n)
        a = (rng.random(n) < 0.5).astype(int)
        q_a = np.where(a == 1, q1, q0)
        g1 = rng.uniform(0.2, 0.8, n)
        psi = float(np.mean(q1 - q0))
        dbar = fulldata_eic_values(q_a, clever_covariate(a, g1), q_a, q1, q0)
        assert abs((dbar - psi).mean()) < 1e-12

    def test_single_record_arithmetic(self):
        dbar = fulldata_eic_values(y=[1.0], h=clever_covariate([1], [0.5]), q_a=[0.5],
                                   q1=[0.5], q0=[0.5])
        assert dbar[0] == pytest.approx(1.0)

    def test_mc_mean_zero_at_truth(self):
        # linear-gaussian construction with analytic conditional regression:
        #   g depends on w1 only, so E[w2 | v] is available in closed form
        rng = np.random.default_rng(3)
        n = 400_000
        w1 = rng.normal(size=n)
        w2 = rng.normal(size=n)
        g1 = expit(0.4 * w1)
        a = (rng.random(n) < g1).astype(float)
        b0, b1, b2, tau, sig = 0.3, 0.5, 0.8, 0.25, 0.7
        q_a = b0 + b1 * w1 + b2 * w2 + tau * a
        y = q_a + sig * rng.standard_normal(n)
        q1 = b0 + b1 * w1 + b2 * w2 + tau
        q0 = q1 - tau
        d_f = fulldata_eic_values(y, clever_covariate(a, g1), q_a, q1, q0) - tau
        mc_se = d_f.std() / np.sqrt(n)
        assert abs(d_f.mean()) < 3 * mc_se


def _hand_observed_eic(y, a, delta, w2seen, pi, g1, q_a, q1, q0, mbar, psi):
    """Row-by-row scalar transcription of the weighted-projection formula."""
    out = []
    for i in range(len(y)):
        proj = (mbar[i] - psi) / pi[i] * (delta[i] - pi[i])
        if delta[i] == 1:
            h = a[i] / g1[i] - (1 - a[i]) / (1 - g1[i])
            dbar = h * (y[i] - q_a[i]) + q1[i] - q0[i]
            out.append(delta[i] * (dbar - psi) / pi[i] - proj)
        else:
            out.append(-proj)
    return np.array(out)


def _eic_inputs(ds, nuisances):
    """The per-row pieces the estimators feed to observed_eic and
    eic_components at the initial fit `nuisances`, as `fit_nuisances`
    returns it: (pi, resid2, r_all, contrast2, c_all, dbar2, mbar_all)."""
    pi, g1, q, _, designs2, design = nuisances
    q_a, q1, q0 = evaluate_nuisances(q, designs2)
    p2 = ds.phase2
    h2 = clever_covariate(ds.a[p2], g1)
    resid2 = h2 * (ds.y[p2] - q_a)
    contrast2 = q1 - q0
    dbar2 = fulldata_eic_values(ds.y[p2], h2, q_a, q1, q0)
    return (pi, resid2, fit_mbar(design, resid2), contrast2,
            fit_mbar(design, contrast2), dbar2, fit_mbar(design, dbar2))


class TestObservedEic:
    def test_no_coarsening_reduces_to_fulldata(self):
        rng = np.random.default_rng(4)
        n = 80
        w = rng.normal(size=(n, 2))
        a = (rng.random(n) < 0.5).astype(int)
        y = (rng.random(n) < 0.5).astype(float)
        ds = Dataset(w1=w[:, :1], a=a, y=y, delta=np.ones(n, dtype=int), w2=w[:, 1:])
        nuisances = fit_nuisances(ds, NuisanceConfig(known_pi=np.ones(n)))
        pi, *_, dbar2, mbar = _eic_inputs(ds, nuisances)
        psi = 0.1
        d = observed_eic(dbar2, mbar, pi, psi, ds.phase2, ds.delta)
        np.testing.assert_allclose(d, dbar2 - psi, atol=1e-10)

    def test_representations_agree_pointwise(self):
        for seed in range(12):
            ds = make_twophase_dataset(np.random.default_rng(seed), n=150)
            pi, resid2, r_all, contrast2, c_all, dbar2, mbar = _eic_inputs(ds, fit_nuisances(ds))
            d = observed_eic(dbar2, mbar, pi, 0.17, ds.phase2, ds.delta)
            d_q, d_pi, d_gamma, d_pv = eic_components(resid2, r_all, contrast2, c_all,
                                                      pi, 0.17, ds.phase2, ds.delta)
            np.testing.assert_allclose(d_q + d_pi + d_gamma + d_pv, d, atol=1e-10)
            # structural zeros on censored rows
            censored = ds.delta == 0
            assert np.all(d_q[censored] == 0)
            assert np.all(d_gamma[censored] == 0)

    def test_rearranged_form_matches(self):
        # delta/pi*(dbar - mbar) + mbar - psi, the form eee and quasi_tmle target
        ds = make_twophase_dataset(np.random.default_rng(20), n=200)
        pi, *_, dbar2, mbar = _eic_inputs(ds, fit_nuisances(ds))
        p2 = ds.phase2
        psi = 0.05
        d = observed_eic(dbar2, mbar, pi, psi, p2, ds.delta)
        rearranged = (mbar - psi).copy()
        rearranged[p2] += (dbar2 - mbar[p2]) / pi[p2]
        np.testing.assert_allclose(d, rearranged, atol=1e-10)

    def test_hand_computed_small_instance(self):
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        a = np.array([1, 0, 1, 0, 1])
        delta = np.array([1, 1, 0, 1, 0])
        pi = np.array([0.8, 0.5, 0.4, 0.9, 0.6])
        g1_all = np.array([0.5, 0.25, 0.7, 0.4, 0.55])
        q1_all = np.array([0.6, 0.55, 0.55, 0.7, 0.5])
        q0_all = np.array([0.3, 0.35, 0.25, 0.5, 0.45])
        mbar = np.array([0.2, 0.4, -0.1, 0.3, 0.0])
        psi = 0.22
        p2 = np.flatnonzero(delta == 1)
        q_a = np.where(a == 1, q1_all, q0_all)
        h2 = clever_covariate(a[p2], g1_all[p2])
        dbar2 = fulldata_eic_values(y[p2], h2, q_a[p2], q1_all[p2], q0_all[p2])
        d = observed_eic(dbar2, mbar, pi, psi, p2, delta)
        ref = _hand_observed_eic(y, a, delta, None, pi, g1_all, q_a, q1_all,
                                 q0_all, mbar, psi)
        np.testing.assert_allclose(d, ref, atol=1e-12)


class TestLinearizedSlope:
    def test_symmetric_cancellation_logistic(self):
        # a = 1 and g1 = 0.5: h_a = h1 = 2, h0 = -2
        half = np.array([0.5])
        slope = linearized_slope_values(h_a=np.array([2.0]), h1=np.array([2.0]),
                                        h0=np.array([-2.0]), q_a=half, q1=half, q0=half)
        assert slope[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        n = 500
        g1 = rng.uniform(0.1, 0.9, n)
        q1 = rng.uniform(0.1, 0.9, n)
        q0 = rng.uniform(0.1, 0.9, n)
        a = (rng.random(n) < 0.5).astype(int)
        q_a = np.where(a == 1, q1, q0)
        y = (rng.random(n) < q_a).astype(float)
        h_a = clever_covariate(a, g1)
        h1, h0 = 1 / g1, -1 / (1 - g1)

        def dbar(eps):
            qe_a = expit(logit(q_a) + eps * h_a)
            qe1 = expit(logit(q1) + eps * h1)
            qe0 = expit(logit(q0) + eps * h0)
            return h_a * (y - qe_a) + qe1 - qe0

        eps = 1e-5
        fd = (dbar(eps) - dbar(-eps)) / (2 * eps)
        slope = linearized_slope_values(h_a, h1, h0, q_a, q1, q0)
        np.testing.assert_allclose(slope, fd, rtol=1e-4, atol=1e-7)


class TestEicVariance:
    def test_constant_values_degenerate(self):
        d = np.full(10, 2.0)
        v = eic_variance(d, psi=0.4, sigma2=_moments(d)[1])
        assert v.se == 0.0 and v.ci_lo == v.ci_hi == 0.4

    def test_two_point(self):
        d = np.array([-1.0, 1.0])
        v = eic_variance(d, psi=0.0, sigma2=_moments(d)[1])
        assert v.se == pytest.approx(1.0)
        assert v.ci_hi == pytest.approx(1.96)

    def test_standard_normal_unit_variance(self):
        d = np.random.default_rng(8).standard_normal(10_000)
        v = eic_variance(d, psi=0.0, sigma2=_moments(d)[1])
        assert v.se == pytest.approx(0.01, rel=0.03)

    def test_requires_two_values(self):
        with pytest.raises(ValueError):
            eic_variance(np.array([1.0]), psi=0.0, sigma2=0.0)

    def test_a_given_variance_is_used(self):
        d = np.random.default_rng(9).standard_normal(50)
        v = eic_variance(d, 0.1, sigma2=2.0)
        assert v.se == np.sqrt(2.0 / 50)
        assert (v.ci_lo, v.ci_hi) == (0.1 - 1.96 * v.se, 0.1 + 1.96 * v.se)
        with pytest.raises(TypeError):
            eic_variance(d, 0.1)  # no variance of its own


class TestMoments:
    """_moments is np.mean and np.var(ddof=1) bit for bit, np.std its root.

    Lengths cross the block edges of numpy's pairwise summation (8-way
    unrolled blocks of 128), so a numpy release that sums differently, or
    computes the variance another way, fails here by name."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.one_of(st.integers(2, 5_000),
                       st.sampled_from([2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130, 255, 256,
                                        257, 1_000, 1_024, 1_025, 5_000])),
           seed=st.integers(0, 2**32 - 1), loc=st.floats(-1e6, 1e6),
           log_scale=st.floats(-30.0, 30.0))
    def test_matches_numpy(self, n, seed, loc, log_scale):
        d = loc + 10.0**log_scale * np.random.default_rng(seed).standard_normal(n)
        mean, var = _moments(d)
        assert np.float64(mean).tobytes() == np.mean(d).tobytes()
        assert np.float64(var).tobytes() == np.var(d, ddof=1).tobytes()
        assert np.sqrt(var).tobytes() == np.std(d, ddof=1).tobytes()

    def test_leaves_its_input_as_it_was(self):
        d = np.arange(10.0)
        d.flags.writeable = False
        assert _moments(d) == (4.5, np.var(np.arange(10.0), ddof=1))
