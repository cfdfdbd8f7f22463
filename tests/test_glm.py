import importlib.machinery
import re
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twophase_ate import glm, roots
from twophase_ate.glm import (
    LOGIT_CLIP,
    PRED_CLIP,
    GlmError,
    P_MIN,
    _cho_solve,
    _clip,
    _factor_spd,
    _least_squares,
    _scipy_kernels,
    expit,
    fit_fluctuation,
    fit_glm,
    logit,
)

from util import bisect_oracle, fit_fluctuation_at


class TestExpitLogit:
    def test_expit_zero(self):
        assert expit(0.0) == 0.5

    def test_logit_half(self):
        assert logit(0.5) == 0.0

    def test_round_trip_on_clipped_domain(self):
        p = np.linspace(1e-12, 1 - 1e-12, 1001)
        np.testing.assert_allclose(expit(logit(p)), p, atol=1e-10)

    def test_symmetry(self):
        x = np.random.default_rng(0).normal(size=200) * 5
        np.testing.assert_allclose(expit(-x), 1 - expit(x), atol=1e-12)

    def test_logit_clips_boundary(self):
        assert np.isfinite(logit(0.0)) and np.isfinite(logit(1.0))


# the edge values np.clip and its stand-in must agree on, each bound among them
_EDGES = [np.nan, -np.inf, np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
          1.0, -1.0]


class TestClip:
    """glm._clip is np.clip, bit for bit, at every bound the package clips to."""

    @settings(max_examples=200, deadline=None)
    @given(bound=st.sampled_from([P_MIN, PRED_CLIP, LOGIT_CLIP]),
           x=arrays(np.float64, st.integers(0, 40),
                    elements=st.one_of(st.floats(allow_subnormal=True, width=64),
                                       st.sampled_from(_EDGES + [P_MIN, PRED_CLIP, LOGIT_CLIP,
                                                                 1.0 - P_MIN, 1.0 - PRED_CLIP,
                                                                 1.0 - LOGIT_CLIP]))))
    def test_matches_np_clip(self, bound, x):
        lo, hi = bound, 1.0 - bound
        assert _clip(x, lo, hi).tobytes() == np.clip(x, lo, hi).tobytes()
        # and elementwise on a scalar, as logit is called on scalars too
        for v in x[:3]:
            assert np.float64(_clip(v, lo, hi)).tobytes() == np.float64(np.clip(v, lo, hi)).tobytes()

    def test_reversed_bounds_give_the_upper_one(self):
        x = np.array(_EDGES)
        assert _clip(x, 0.9, 0.1).tobytes() == np.clip(x, 0.9, 0.1).tobytes()


class TestFitGlm:
    def test_intercept_only_bernoulli_is_weighted_mean(self):
        X = np.ones((4, 1))
        fit = fit_glm(X, [0, 1, 1, 1], family="bernoulli")
        assert fit.converged
        np.testing.assert_allclose(fit.predict(X), 0.75, atol=1e-9)

    def test_gaussian_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            X = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
            y = rng.normal(size=40)
            w = rng.uniform(0.1, 2.0, size=40)
            fit = fit_glm(X, y, w, family="gaussian")
            beta_ref = np.linalg.solve((X * w[:, None]).T @ X, (X * w[:, None]).T @ y)
            np.testing.assert_allclose(fit.coefficients, beta_ref, atol=1e-10)

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_weight_two_equals_duplicated_row(self, family):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(20), rng.normal(size=(20, 2))])
        y = (rng.random(20) < 0.5).astype(float)
        w = np.ones(20)
        w[3] = 2.0
        X_dup = np.vstack([X, X[3:4]])
        y_dup = np.append(y, y[3])
        f1 = fit_glm(X, y, w, family=family)
        f2 = fit_glm(X_dup, y_dup, family=family)
        np.testing.assert_allclose(f1.coefficients, f2.coefficients, atol=1e-10)

    def test_zero_weight_rows_have_no_influence(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = (rng.random(30) < 0.4).astype(float)
        w = np.ones(30)
        w[10:] = 0.0
        X[10:] = 1e6  # garbage in zero-weight rows must not matter
        y_sub, X_sub = y[:10], X[:10]
        f1 = fit_glm(X, y, w, family="bernoulli")
        f2 = fit_glm(X_sub, y_sub, family="bernoulli")
        np.testing.assert_allclose(f1.coefficients, f2.coefficients, atol=1e-9)

    def test_score_small_at_convergence(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(100), rng.normal(size=(100, 2))])
        y = (rng.random(100) < expit(X @ [0.2, 0.5, -0.3])).astype(float)
        w = rng.uniform(0.5, 2.0, size=100)
        fit = fit_glm(X, y, w, family="bernoulli")
        assert fit.converged
        p = fit.predict(X)
        score = X.T @ (w * (y - p))
        assert np.max(np.abs(score)) <= 1e-8

    def test_separable_data_stays_finite(self):
        # perfectly separated: plain IRLS would diverge
        x = np.concatenate([-np.ones(10) - np.arange(10) * 0.1,
                            np.ones(10) + np.arange(10) * 0.1])
        y = (x > 0).astype(float)
        X = np.column_stack([np.ones(20), x])
        fit = fit_glm(X, y, family="bernoulli")
        assert np.all(np.isfinite(fit.coefficients))
        assert np.all((fit.predict(X) > 0) & (fit.predict(X) < 1))

    def test_collinear_design_uses_ridge(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        X = np.column_stack([np.ones(50), x, x])  # exact collinearity
        y = (rng.random(50) < expit(x)).astype(float)
        fit = fit_glm(X, y, family="bernoulli")
        assert np.all(np.isfinite(fit.coefficients))

    def test_totally_singular_raises(self):
        X = np.zeros((10, 2))
        with pytest.raises(GlmError, match="singular"):
            fit_glm(X, np.zeros(10), family="gaussian")

    def test_all_zero_weights_rejected(self):
        with pytest.raises(GlmError, match="positive"):
            fit_glm(np.ones((3, 1)), [0.0, 1.0, 1.0], w=[0, 0, 0], family="bernoulli")

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_overflowing_covariate_names_its_cause(self, family):
        # x'x overflows; numpy's overflow warning, an error under the test
        # settings, used to come first, and the fit then failed on NaN
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(50), rng.normal(size=50) * 1e154])
        y = (rng.random(50) < 0.5).astype(float)
        with pytest.raises(GlmError, match="covariate is too large in magnitude"):
            fit_glm(X, y, family=family)

    def test_nan_rejected(self):
        with pytest.raises(GlmError):
            fit_glm(np.array([[1.0], [np.nan]]), [0.0, 1.0], family="gaussian")


class TestNamedErrors:
    """Each input a fit cannot use fails with a GlmError that names it."""

    X = np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]])
    Y = np.array([0.0, 1.0, 1.0, 0.0])

    def test_ridge_retry_that_still_fails(self):
        # indefinite: eigenvalues 3 and -1, and the ridge adds only 1e-8
        with pytest.raises(GlmError, match="^singular weighted Gram matrix even after ridge"):
            _factor_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("design, width", [(np.ones((3, 3)), "3"), (np.ones(2), "?")])
    def test_design_of_the_wrong_width(self, design, width):
        fit = fit_glm(self.X, self.Y, family="gaussian")
        with pytest.raises(GlmError, match=f"^design has {re.escape(width)} columns, "
                                           f"fit expects 2$"):
            fit.predict(design)

    @pytest.mark.parametrize("X, y, w, message", [
        (np.ones(4), Y, None, "design matrix must be 2-d"),
        (X[:3], Y, None, "X, y, w lengths disagree"),
        (np.ones((0, 2)), np.ones(0), None, "empty design"),
        (X, [0.0, np.inf, 1.0, 0.0], None, "non-finite values in X, y or w"),
        (X, Y, np.ones(3), "X, y, w lengths disagree"),
        (X, Y, [1.0, np.nan, 1.0, 1.0], "non-finite values in X, y or w"),
        (X, Y, [1.0, -0.5, 1.0, 1.0], "negative weights"),
    ])
    def test_unusable_input_rejected(self, X, y, w, message):
        with pytest.raises(GlmError, match=f"^{re.escape(message)}$"):
            fit_glm(X, y, w, family="gaussian")

    def test_unknown_family(self):
        with pytest.raises(GlmError, match="^unknown family 'poisson'$"):
            fit_glm(self.X, self.Y, family="poisson")

    @pytest.mark.parametrize("bad", [-0.5, 2.0])
    def test_bernoulli_response_outside_the_unit_interval(self, bad):
        with pytest.raises(GlmError, match=r"^bernoulli responses must lie in \[0, 1\]$"):
            fit_glm(self.X, [0.0, 1.0, bad, 0.0], family="bernoulli")

    @pytest.mark.parametrize("offset, w, message", [
        (np.zeros(3), None, "fluctuation inputs disagree in length"),
        ([0.0, np.nan, 0.0, 0.0], None, "non-finite offset in fluctuation fit"),
        (np.zeros(4), [1.0, -1.0, 1.0, 1.0], "negative weights in fluctuation fit"),
    ])
    def test_unusable_fluctuation_input_rejected(self, offset, w, message):
        with pytest.raises(GlmError, match=f"^{message}$"):
            fit_fluctuation(self.Y, offset, np.ones(4), w)


@st.composite
def spd_systems(draw):
    """A random symmetric positive definite matrix of size 1..8 and a right-hand side."""
    dim = draw(st.integers(1, 8))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    B = draw(arrays(float, (dim, dim + draw(st.integers(0, 4))), elements=entries))
    H = B @ B.T + draw(st.floats(1e-3, 10.0)) * np.eye(dim)
    return H, draw(arrays(float, dim, elements=entries))


class TestCholeskyKernels:
    """The raw LAPACK kernels behind every regression fit."""

    @settings(max_examples=60, deadline=None)
    @given(system=spd_systems())
    def test_matches_scipy_cho_factor_bit_for_bit(self, system):
        H, b = system
        factor, ridge_used = _factor_spd(H)
        ref = scipy.linalg.cho_factor(H, check_finite=False)
        assert not ridge_used and ref[1] is False
        assert np.array_equal(factor, ref[0])
        x = _cho_solve(factor, b)
        assert np.array_equal(x, scipy.linalg.cho_solve(ref, b, check_finite=False))

    def test_rank_deficient_gram_uses_ridge(self):
        # a treatment column that is zero on every record: the Gram matrix
        # has a zero row and column, so the plain factorisation must fail
        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(40), np.zeros(40), rng.normal(size=40)])
        H = X.T @ X
        with pytest.raises(np.linalg.LinAlgError):
            scipy.linalg.cho_factor(H)
        factor, ridge_used = _factor_spd(H)
        assert ridge_used
        x = _cho_solve(factor, X.T @ rng.normal(size=40))
        assert np.all(np.isfinite(x)) and x[1] == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_gram_rejected(self, bad):
        with pytest.raises(GlmError, match="non-finite Gram matrix"):
            _factor_spd(np.array([[bad, 0.0], [0.0, 1.0]]))

    def test_empty_design_gives_empty_fit(self):
        fit = fit_glm(np.zeros((3, 0)), [1.0, 2.0, 3.0], family="gaussian")
        assert fit.coefficients.shape == (0,) and fit.converged


class TestScipyKernels:
    """`_scipy_kernels` loads a compiled scipy module from its file and
    falls back to the public module whenever that does not work."""

    LAPACK = ("linalg._flapack", "scipy.linalg.lapack", ("dpotrf", "dpotrs"))

    def test_a_module_not_yet_imported_is_loaded_from_its_file(self, monkeypatch):
        monkeypatch.delitem(sys.modules, "scipy.special._special_ufuncs")
        got = _scipy_kernels("special._special_ufuncs", "scipy.special", ("expit", "ndtr"))
        assert got[0] is scipy.special.expit and got[1] is scipy.special.ndtr

    def test_no_file_falls_back_to_the_public_module(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        got = _scipy_kernels(*self.LAPACK, locations=[str(tmp_path)])
        assert got[0] is scipy.linalg.lapack.dpotrf and got[1] is scipy.linalg.lapack.dpotrs

    def test_a_file_that_does_not_load_falls_back_to_the_public_module(self, monkeypatch,
                                                                       tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        (tmp_path / "linalg").mkdir()
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (tmp_path / "linalg" / f"_flapack{suffix}").write_bytes(b"not a shared object")
        got = _scipy_kernels(*self.LAPACK, locations=[str(tmp_path)])
        assert got[0] is scipy.linalg.lapack.dpotrf and got[1] is scipy.linalg.lapack.dpotrs

    def test_a_missing_name_falls_back_to_the_public_module(self):
        # logsumexp is Python code in scipy.special, not in the compiled module
        got = _scipy_kernels("special._special_ufuncs", "scipy.special", ("expit", "logsumexp"))
        assert got[0] is scipy.special.expit and got[1] is scipy.special.logsumexp


class TestLeastSquares:
    """The one least-squares solve: fit_glm's gaussian family and the
    linear census both call it."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_solves_the_normal_equations_bit_for_bit(self, weighted):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
        y = rng.normal(size=60)
        w = rng.uniform(0.1, 2.0, size=60) if weighted else None
        Xw = X if w is None else X * w[:, None]
        ref = _cho_solve(_factor_spd(Xw.T @ X)[0], Xw.T @ y)
        assert np.array_equal(_least_squares(X, y, w), ref)
        assert np.array_equal(fit_glm(X, y, w, family="gaussian").coefficients, ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_outcome_named(self, bad):
        # the helper does not scan y; the intercept column carries it into X'y
        X = np.column_stack([np.ones(5), [0.0, 1.0, 0.0, 1.0, 1.0]])
        y = np.arange(5.0)
        y[2] = bad
        with pytest.raises(GlmError, match="non-finite X'y"):
            _least_squares(X, y)

    def test_overflowing_outcome_names_its_cause(self):
        # finite values whose X'y overflows gave NaN coefficients, not an error
        X = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        with pytest.raises(GlmError, match="non-finite X'y"):
            fit_glm(X, [1e308, 1e308, 1e308], family="gaussian")


class TestFitFluctuation:
    def test_exact_offset_gives_zero(self):
        rng = np.random.default_rng(6)
        offset = rng.normal(size=50)
        h = rng.normal(size=50)
        y = expit(offset)  # score at 0 vanishes exactly
        fit = fit_fluctuation(y, offset, h)
        assert fit.x == 0.0 and fit.converged

    def test_zero_covariate_gives_zero(self):
        y = np.array([0.0, 1.0, 1.0])
        fit = fit_fluctuation(y, np.zeros(3), np.zeros(3))
        assert fit.x == 0.0 and fit.converged

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_bisection_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        offset = rng.normal(scale=0.8, size=n)
        h = rng.normal(size=n)
        y = (rng.random(n) < 0.5).astype(float)
        w = rng.uniform(0.2, 3.0, size=n)

        def score(eps):
            return float((w * h) @ (y - expit(offset + eps * h)))

        if score(-20) * score(20) > 0:
            with pytest.raises(GlmError):
                fit_fluctuation(y, offset, h, w)
            return
        fit = fit_fluctuation_at(1e-12, y, offset, h, w)
        eps_ref = bisect_oracle(score, -20.0, 20.0)
        assert fit.x == pytest.approx(eps_ref, abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.floats(0.2, 5.0))
    def test_equivariance_under_covariate_scaling(self, seed, c):
        rng = np.random.default_rng(seed)
        n = 30
        offset = rng.normal(scale=0.5, size=n)
        h = rng.normal(size=n) + 0.1
        y = (rng.random(n) < 0.6).astype(float)

        def score(eps):
            return float(h @ (y - expit(offset + eps * h)))

        if score(-20) * score(20) > 0:
            return
        f1 = fit_fluctuation_at(1e-13, y, offset, h)
        f2 = fit_fluctuation_at(1e-13, y, offset, c * h)
        assert f2.x == pytest.approx(f1.x / c, abs=1e-8)
        np.testing.assert_allclose(expit(offset + f1.x * h),
                                   expit(offset + f2.x * (c * h)), atol=1e-8)

    def test_degenerate_score_raises(self):
        # all responses 1 with positive covariate: score never changes sign
        y = np.ones(10)
        h = np.ones(10)
        with pytest.raises(GlmError, match="degenerate"):
            fit_fluctuation(y, np.zeros(10), h)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("row", range(4))
    @pytest.mark.parametrize("name", ["y", "h", "w"])
    def test_non_finite_input_is_named(self, name, row, bad):
        # a NaN or inf leaves the score without a sign change, which is not
        # the cause worth naming
        args = {"y": np.array([0.0, 1.0, 1.0, 0.0]), "h": np.array([1.0, 2.0, -1.0, 0.5]),
                "w": np.array([1.0, 2.0, 0.5, 1.0])}
        args[name][row] = bad
        with pytest.raises(GlmError, match=f"^non-finite {name} in fluctuation fit$"):
            fit_fluctuation(args["y"], np.array([0.1, -0.2, 0.3, 0.0]), args["h"], args["w"])

    def test_n_iter_counts_newton_steps_and_halvings(self, monkeypatch):
        # from 0, Newton takes two steps to eps = 1.86 and its third leaves
        # [-20, 20]; bisection on that interval then finds the root near -1.78
        spied = {}
        for module, name in ((glm, "newton"), (roots, "bisect")):
            def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                spied[_name] = _real(*args, **kwargs)
                return spied[_name]
            monkeypatch.setattr(module, name, spy)
        fit = fit_fluctuation([1.0, 1.0, 0.0], [-2.3, -1.8, -0.9], [-2.0, -0.2, -0.9])
        newton, fallback = spied["newton"], spied["bisect"]
        assert (newton.n_iter, newton.converged) == (2, False)
        assert fallback.converged and fit.converged
        assert (fit.x, fit.f) == (fallback.x, fallback.f)
        assert fit.n_iter == 2 + fallback.n_iter
        assert fit.x == pytest.approx(-1.78228391, abs=1e-8)

    def test_one_fitted_mean_per_epsilon(self, monkeypatch):
        # Newton reads the score and its slope at each eps; both come from
        # one expit pass, so a solve of k steps makes k + 1 of them
        calls = []

        def spy(x):
            calls.append(x)
            return expit(x)

        rng = np.random.default_rng(3)
        offset = rng.normal(scale=0.8, size=200)
        h = rng.normal(size=200)
        y = (rng.random(200) < expit(offset + 0.7 * h)).astype(float)
        monkeypatch.setattr(glm, "expit", spy)
        fit = fit_fluctuation(y, offset, h, rng.uniform(0.5, 2.0, size=200))
        assert fit.converged and fit.n_iter >= 2
        assert len(calls) == 1 + fit.n_iter
