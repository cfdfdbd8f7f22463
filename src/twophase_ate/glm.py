"""Weighted GLM engine and one-dimensional offset fluctuation fits.

Two families are supported, gaussian and bernoulli, fit by iteratively
reweighted least squares on a caller-supplied design matrix. The same
machinery drives every nuisance regression, and `fit_fluctuation` solves
the univariate offset-logistic score equation used by every targeting
step. No coefficient standard errors are produced: inference elsewhere
is influence-curve based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.special import expit

from .roots import bisect, newton

__all__ = [
    "GlmError",
    "GlmFit",
    "FluctuationFit",
    "expit",
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


class GlmError(RuntimeError):
    """A regression could not be fit (degenerate design or response)."""


def logit(p, eps: float = LOGIT_CLIP):
    p = np.clip(p, eps, 1.0 - eps)
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
        return np.clip(expit(eta), PRED_CLIP, 1.0 - PRED_CLIP)

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

    gaussian: closed-form weighted least squares; without weights it forms
    X'X directly, with no weighted copy of X. bernoulli: Newton/IRLS with
    probability clipping; a singular weighted Gram matrix triggers one ridge
    retry (ridge = 1e-8 * trace/dim) before failing.
    """
    X, y, w = _validate_inputs(X, y, w)
    p_dim = X.shape[1]

    if family == "gaussian":
        Xw = X if w is None else X * w[:, None]
        factor, _ = _factor_spd(Xw.T @ X)
        beta = _cho_solve(factor, Xw.T @ y)
        resid = y - X @ beta
        score = X.T @ (resid if w is None else w * resid)
        converged = bool(np.max(np.abs(score)) <= SCORE_TOL) if p_dim else True
        return GlmFit(beta, "gaussian", converged, 1, p_dim)

    if family != "bernoulli":
        raise GlmError(f"unknown family {family!r}")
    if y.min() < 0.0 or y.max() > 1.0:
        raise GlmError("bernoulli responses must lie in [0, 1]")
    if w is None:
        w = np.ones(len(y))

    beta = np.zeros(p_dim)
    n_iter = 0
    score_norm = np.inf
    for n_iter in range(1, MAX_ITER + 1):
        p = np.clip(expit(X @ beta), P_MIN, 1.0 - P_MIN)
        score = X.T @ (w * (y - p))
        score_norm = float(np.max(np.abs(score)))
        if score_norm <= SCORE_TOL:
            break
        H = (X * (w * p * (1.0 - p))[:, None]).T @ X
        factor, _ = _factor_spd(H)
        step = _cho_solve(factor, score)
        beta = beta + step
        if np.max(np.abs(step)) <= COEF_TOL:
            p = np.clip(expit(X @ beta), P_MIN, 1.0 - P_MIN)
            score_norm = float(np.max(np.abs(X.T @ (w * (y - p)))))
            break
    converged = score_norm <= SCORE_TOL
    return GlmFit(beta, "bernoulli", bool(converged), n_iter, p_dim)


@dataclass(frozen=True)
class FluctuationFit:
    """Solution of the weighted univariate offset-logistic score equation."""

    epsilon: float
    score: float
    n_iter: int
    converged: bool


@np.errstate(over="ignore", invalid="ignore")
def fit_fluctuation(y, offset_logit, h, w=None, tol: float = FLUCT_TOL) -> FluctuationFit:
    """Solve sum_i w_i h_i (y_i - expit(offset_i + eps * h_i)) = 0 for eps.

    The score is monotone non-increasing in eps: Newton's method within
    +-FLUCT_BRACKET solves it, with a bisection fallback on that interval.
    Returns eps=0 immediately when the score at zero is already below tol
    (this covers h identically zero). Huge weights or covariates can take
    the score or its slope past the floats: Newton stops at a slope that is
    not finite, and a score with no sign change is a named GlmError.
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

    def score(eps: float) -> float:
        return float(wh @ (y - expit(offset + eps * h)))

    def dscore(eps: float) -> float:
        p = expit(offset + eps * h)
        return float(-(wh * h) @ (p * (1.0 - p)))

    s0 = score(0.0)
    if abs(s0) <= tol:
        return FluctuationFit(0.0, s0, 0, True)

    res = newton(score, dscore, s0, tol, max_iter=30, bound=FLUCT_BRACKET)
    if not res.converged:
        res = bisect(score, (-FLUCT_BRACKET, FLUCT_BRACKET), tol)
        if res is None:
            raise GlmError(
                "degenerate fluctuation: score has no sign change on "
                f"[-{FLUCT_BRACKET}, {FLUCT_BRACKET}]"
            )
    return FluctuationFit(res.x, res.f, res.n_iter, res.converged)
