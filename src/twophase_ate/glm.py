"""Weighted GLM engine and one-dimensional offset fluctuation fits.

Two families are supported, gaussian and bernoulli, fit by iteratively
reweighted least squares on a caller-supplied design matrix. The same
machinery drives every nuisance regression, and `fit_fluctuation` solves
the univariate offset-logistic score equation used by every targeting
step. No coefficient standard errors are produced: inference elsewhere
is influence-curve based.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .roots import RootResult, _last_value, bracketed, newton

__all__ = [
    "GlmError",
    "GlmFit",
    "dpotrf",
    "dpotrs",
    "expit",
    "ndtr",
    "logit",
    "fit_glm",
    "fit_fluctuation",
]

# Probability clipping inside logit/expit pipelines (offsets, working
# responses). Distinct from the Pi/g truncation policy in `nuisance`.
P_MIN = 1e-6
# Hard clip for logit itself; keeps expit(logit(p)) = p to 1e-10 elsewhere.
LOGIT_CLIP = 1e-12
# Bernoulli predictions are kept strictly inside (0, 1).
PRED_CLIP = 1e-12

MAX_ITER = 100
COEF_TOL = 1e-10
SCORE_TOL = 1e-8
RIDGE_SCALE = 1e-8
FLUCT_TOL = 1e-10
FLUCT_BRACKET = 20.0


def _scipy_kernels(compiled: str, public: str, names: tuple[str, ...],
                   locations=None) -> tuple:
    """The functions `names` of scipy's compiled module `scipy.<compiled>`.

    The module is loaded from its file, and the package inits on the way
    are not run: those of `scipy.linalg` and `scipy.special` load scipy's
    array-API layer and with it numpy.f2py, numpy.testing and unittest,
    about two thirds of the package's import time, which every CLI call
    pays. The functions are the objects scipy itself hands out (a later
    `import scipy.special` finds the loaded module), so every result is the
    same. A module already imported is reused. The public module `public`
    is imported instead when the file is not under `locations` (scipy's own
    directories by default), does not load, or lacks a name: older scipy
    releases keep expit in `_ufuncs`, which loads only through its package.
    """
    name = f"scipy.{compiled}"
    module = sys.modules.get(name)
    if module is None:
        if locations is None:
            # no scipy at all: the public import below raises by name
            spec = importlib.util.find_spec("scipy")
            locations = spec.submodule_search_locations if spec else []
        stem = compiled.replace(".", os.sep)
        paths = [os.path.join(root, stem + suffix) for root in locations
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in paths if os.path.isfile(p)), None)
        if path is not None:
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(name, path, loader=loader))
                loader.exec_module(module)
            except (ImportError, OSError):
                module = None
    if module is None or not all(hasattr(module, attr) for attr in names):
        module = importlib.import_module(public)
    return tuple(getattr(module, attr) for attr in names)


# LAPACK's Cholesky factor and solve, and the logistic and normal CDFs
dpotrf, dpotrs = _scipy_kernels("linalg._flapack", "scipy.linalg.lapack", ("dpotrf", "dpotrs"))
expit, ndtr = _scipy_kernels("special._special_ufuncs", "scipy.special", ("expit", "ndtr"))


class GlmError(RuntimeError):
    """A regression could not be fit (degenerate design or response)."""


def _clip(x, lo, hi):
    """np.clip(x, lo, hi) without its Python wrapper, for the per-iteration
    kernels. Bit for bit np.clip's result when neither bound is zero: NaN
    stays NaN, lo > hi gives hi, and an x equal to a nonzero bound has its
    bits. (At a zero bound, np.clip keeps the sign of a zero x.)"""
    x = np.maximum(x, lo)
    # in place on the new array: np.clip's peak memory, one result array
    return np.minimum(x, hi, out=x) if x.ndim else np.minimum(x, hi)


def logit(p, eps: float = LOGIT_CLIP):
    p = _clip(p, eps, 1.0 - eps)
    return np.log(p) - np.log1p(-p)


def _factor_spd(H: np.ndarray) -> tuple[np.ndarray, bool]:
    """Cholesky factor of symmetric positive definite H, with a ridge retry.

    Returns (factor, ridge_used), the factor as LAPACK dpotrf leaves it:
    upper triangle U with U'U = H, lower triangle untouched (scipy's
    cho_factor form, without that wrapper's per-call checks). Raises
    GlmError when H is not finite (its products overflowed) or when even
    the ridged matrix is not positive definite. Every linear solve in the
    package is this factor followed by `_cho_solve`.
    """
    if not np.isfinite(H).all():
        raise GlmError("non-finite Gram matrix: a covariate is too large in magnitude; "
                       "rescale it")
    factor, info = dpotrf(H, lower=0, clean=0)
    if info == 0:
        return factor, False
    dim = H.shape[0]
    lam = RIDGE_SCALE * np.trace(H) / dim
    if lam <= 0 or not np.isfinite(lam):
        raise GlmError("singular weighted Gram matrix (zero trace)")
    factor, info = dpotrf(H + lam * np.eye(dim), lower=0, clean=0)
    if info != 0:
        raise GlmError("singular weighted Gram matrix even after ridge retry")
    return factor, True


def _cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H x = b given the `_factor_spd` factor of H."""
    if factor.size == 0:
        return np.zeros(0)
    return dpotrs(factor, b, lower=0)[0]


# an overflowed product, or an inf in y meeting a zero of X, is rejected
# by name below, not warned about
@np.errstate(over="ignore", invalid="ignore")
def _least_squares(X: np.ndarray, y: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """(Weighted) least-squares coefficients from the normal equations,
    forming X'X directly when unweighted. X and y are not scanned: a
    non-finite Gram matrix fails in `_factor_spd`, and a non-finite Xw'y (a
    NaN or inf in y reaches it through the intercept) fails here."""
    Xw = X if w is None else X * w[:, None]
    factor, _ = _factor_spd(Xw.T @ X)
    rhs = Xw.T @ y
    if not np.isfinite(rhs).all():
        raise GlmError("non-finite X'y: the outcome is not finite or too large in magnitude")
    return _cho_solve(factor, rhs)


@dataclass(frozen=True)
class GlmFit:
    """A fitted weighted GLM on a fixed design.

    `converged` is True only when the weighted score equations are solved
    to SCORE_TOL in max-norm.
    """

    coefficients: np.ndarray
    family: str
    converged: bool
    n_iter: int
    feature_dim: int

    def linear_predictor(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.feature_dim:
            raise GlmError(
                f"design has {X.shape[-1] if X.ndim == 2 else '?'} columns, "
                f"fit expects {self.feature_dim}"
            )
        return X @ self.coefficients

    def mean(self, eta: np.ndarray) -> np.ndarray:
        """The fitted mean at linear predictor eta (inverse link, clipped)."""
        if self.family == "gaussian":
            return eta
        return _clip(expit(eta), PRED_CLIP, 1.0 - PRED_CLIP)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.mean(self.linear_predictor(X))


def _validate_inputs(X, y, w):
    """X and y as float arrays, and w too unless it is None (unit weights)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if X.ndim != 2:
        raise GlmError("design matrix must be 2-d")
    if X.shape[0] != len(y):
        raise GlmError("X, y, w lengths disagree")
    if X.shape[0] == 0:
        raise GlmError("empty design")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise GlmError("non-finite values in X, y or w")
    if w is None:
        return X, y, None
    w = np.asarray(w, dtype=float).ravel()
    if len(w) != len(y):
        raise GlmError("X, y, w lengths disagree")
    if not np.isfinite(w).all():
        raise GlmError("non-finite values in X, y or w")
    if w.min() < 0:
        raise GlmError("negative weights")
    if not w.max() > 0:
        raise GlmError("no positive weights")
    return X, y, w


# a covariate too large in magnitude overflows the Gram matrix, which
# _factor_spd then rejects by name
@np.errstate(over="ignore")
def fit_glm(X, y, w=None, family: str = "gaussian") -> GlmFit:
    """Weighted GLM via IRLS on the design X (caller supplies the intercept).

    gaussian: closed-form weighted least squares (`_least_squares`).
    bernoulli: Newton/IRLS with probability clipping, which multiplies w in
    only when given; a singular weighted Gram matrix triggers one ridge
    retry (ridge = 1e-8 * trace/dim) before failing.
    """
    X, y, w = _validate_inputs(X, y, w)
    p_dim = X.shape[1]

    if family == "gaussian":
        beta = _least_squares(X, y, w)
        resid = y - X @ beta
        score = X.T @ (resid if w is None else w * resid)
        converged = bool(np.abs(score).max() <= SCORE_TOL) if p_dim else True
        return GlmFit(beta, "gaussian", converged, 1, p_dim)

    if family != "bernoulli":
        raise GlmError(f"unknown family {family!r}")
    if y.min() < 0.0 or y.max() > 1.0:
        raise GlmError("bernoulli responses must lie in [0, 1]")

    def weighted(v):
        # unit weights are left out, not multiplied in: 1.0 * v == v
        return v if w is None else w * v

    beta = np.zeros(p_dim)
    n_iter = 0
    score_norm = np.inf
    for n_iter in range(1, MAX_ITER + 1):
        p = _clip(expit(X @ beta), P_MIN, 1.0 - P_MIN)
        score = X.T @ weighted(y - p)
        score_norm = float(np.abs(score).max())
        if score_norm <= SCORE_TOL:
            break
        H = (X * (weighted(p) * (1.0 - p))[:, None]).T @ X
        factor, _ = _factor_spd(H)
        step = _cho_solve(factor, score)
        beta = beta + step
        if np.abs(step).max() <= COEF_TOL:
            p = _clip(expit(X @ beta), P_MIN, 1.0 - P_MIN)
            score_norm = float(np.abs(X.T @ weighted(y - p)).max())
            break
    converged = score_norm <= SCORE_TOL
    return GlmFit(beta, "bernoulli", bool(converged), n_iter, p_dim)


@np.errstate(over="ignore", invalid="ignore")
def fit_fluctuation(y, offset_logit, h, w=None) -> RootResult:
    """Solve sum_i w_i h_i (y_i - expit(offset_i + eps * h_i)) = 0 for eps.

    The score is monotone non-increasing in eps: Newton's method within
    +-FLUCT_BRACKET solves it, with a bisection fallback on that interval
    (`roots.bracketed`); the result's x is eps, 0 when |score(0)| <= FLUCT_TOL
    (as when h is zero). Huge weights or covariates can take the score or its
    slope past the floats: Newton stops at a slope that is not finite, and a
    score with no sign change is a named GlmError, which names a non-finite
    y, h or w when one is the cause. The score and its slope at one eps
    share one fitted mean.
    """
    y = np.asarray(y, dtype=float).ravel()
    offset = np.asarray(offset_logit, dtype=float).ravel()
    h = np.asarray(h, dtype=float).ravel()
    w = np.ones_like(y) if w is None else np.asarray(w, dtype=float).ravel()
    if not (len(y) == len(offset) == len(h) == len(w)):
        raise GlmError("fluctuation inputs disagree in length")
    if np.any(~np.isfinite(offset)):
        raise GlmError("non-finite offset in fluctuation fit")
    if np.any(w < 0):
        raise GlmError("negative weights in fluctuation fit")
    wh = w * h
    whh = wh * h
    mean = _last_value(lambda eps: expit(offset + eps * h))

    def score(eps: float) -> float:
        return float(wh @ (y - mean(eps)))

    def dscore(eps: float) -> float:
        p = mean(eps)
        return float(-whh @ (p * (1.0 - p)))

    res = newton(score, dscore, score(0.0), FLUCT_TOL, max_iter=30, bound=FLUCT_BRACKET)
    res = bracketed(score, res, lambda _: (-FLUCT_BRACKET, FLUCT_BRACKET), FLUCT_TOL)
    if res is None:
        # a NaN anywhere makes the score NaN at every eps; checked only
        # here, so a call that converges pays nothing for it
        for name, values in (("y", y), ("h", h), ("w", w)):
            if not np.isfinite(values).all():
                raise GlmError(f"non-finite {name} in fluctuation fit")
        raise GlmError(
            "degenerate fluctuation: score has no sign change on "
            f"[-{FLUCT_BRACKET}, {FLUCT_BRACKET}]"
        )
    return res
