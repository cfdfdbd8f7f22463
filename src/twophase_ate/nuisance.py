"""Fitting and wrapping of the four nuisance functions.

Pi (phase-2 sampling mechanism), g (treatment mechanism), Q (outcome
regression) and the conditional regression of full-data influence values
on phase-1 variables are all fitted as main-term GLMs and wrapped as
Predictors; probability outputs are truncated. A known Pi or g is given
as one value per record and wrapped the same way.

Feature conventions (columns, in order):
  V-features : w1 columns, a, y          (all rows)
  W-features : w1 columns, w2 columns    (phase-2 rows only)
  AW-features: a, w1 columns, w2 columns (phase-2 rows only)
An intercept is added internally by the GLM-backed predictors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .glm import GlmError, GlmFit, GramFactor, fit_glm

__all__ = [
    "NuisanceError",
    "Predictor",
    "GlmPredictor",
    "PinnedPredictor",
    "NuisanceSet",
    "NuisanceConfig",
    "check_truncation",
    "TRUNC_PI_DEFAULT",
    "TRUNC_G_DEFAULT",
    "v_features",
    "w_features",
    "aw_features",
    "MbarDesign",
    "fit_pi",
    "fit_g_ipcw",
    "fit_q_ipcw",
    "fit_mbar",
    "pin_known",
    "fit_nuisances",
]

# Default truncation: positivity floors for the sampling and treatment
# mechanisms. Configurable; these are practical floors, not estimates.
TRUNC_PI_DEFAULT = (0.01, 1.0)
TRUNC_G_DEFAULT = (0.01, 0.99)


class NuisanceError(RuntimeError):
    """A nuisance function is unidentifiable or cannot be fit."""


# ---------------------------------------------------------------------------
# feature builders
# ---------------------------------------------------------------------------


def v_features(ds: Dataset, rows: np.ndarray | None = None) -> np.ndarray:
    """Phase-1 feature rows (w1, a, y); defined for every record."""
    if rows is None:
        rows = slice(None)
    return np.column_stack([ds.w1[rows], ds.a[rows].astype(float), ds.y[rows]])


def w_features(ds: Dataset, rows: np.ndarray) -> np.ndarray:
    """Full covariate rows (w1, w2); valid on phase-2 rows only."""
    return np.column_stack([ds.w1[rows], ds.w2[rows]])


def aw_features(ds: Dataset, rows: np.ndarray, a_value: int | None = None) -> np.ndarray:
    """Treatment-plus-covariate rows; a_value overrides the observed arm."""
    a = ds.a[rows].astype(float) if a_value is None else np.full(len(rows), float(a_value))
    return np.column_stack([a, ds.w1[rows], ds.w2[rows]])


def _add_intercept(X: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(X.shape[0]), X])


# ---------------------------------------------------------------------------
# predictors
# ---------------------------------------------------------------------------


class Predictor:
    """Opaque fitted function over feature rows.

    Subclasses implement `_raw(X, rows)`; `predict` applies the declared
    truncation. `rows` gives the dataset positions of the feature rows;
    only predictors holding per-row values use it.
    """

    bounds: tuple[float, float] | None = None

    def _raw(self, X: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        vals = np.asarray(self._raw(np.asarray(X, dtype=float), rows), dtype=float)
        if self.bounds is not None:
            vals = np.clip(vals, self.bounds[0], self.bounds[1])
        return vals


@dataclass
class GlmPredictor(Predictor):
    """GLM fit plus main-term feature map (intercept added here)."""

    fit: GlmFit
    bounds: tuple[float, float] | None = None

    def _raw(self, X: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
        return self.fit.predict(_add_intercept(X))


@dataclass
class PinnedPredictor(Predictor):
    """Per-row known values aligned with one specific dataset.

    Used to inject simulation truths that depend on latent variables and
    therefore cannot be written as functions of the observed features.
    The features are ignored: values are indexed by `rows`, or must cover
    the whole dataset when no rows are given.
    """

    values: np.ndarray
    bounds: tuple[float, float] | None = None

    def _raw(self, X: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
        if rows is not None:
            return self.values[rows]
        if X.shape[0] != len(self.values):
            raise NuisanceError(
                f"pinned predictor holds {len(self.values)} rows, asked for {X.shape[0]}"
            )
        return self.values


def pin_known(values: np.ndarray, bounds: tuple[float, float] | None = None) -> PinnedPredictor:
    return PinnedPredictor(values=np.asarray(values, dtype=float), bounds=bounds)


# ---------------------------------------------------------------------------
# nuisance fits
# ---------------------------------------------------------------------------


def fit_pi(ds: Dataset, trunc: tuple[float, float] = TRUNC_PI_DEFAULT) -> Predictor:
    """Logistic regression of the phase-2 indicator on (w1, a, y), all rows."""
    delta = ds.delta
    if delta.min() == delta.max():
        raise NuisanceError("phase-2 indicator is constant: sampling mechanism unidentifiable")
    X = _add_intercept(v_features(ds))
    fit = fit_glm(X, delta.astype(float), family="bernoulli")
    return GlmPredictor(fit=fit, bounds=trunc)


def _ipcw_weights(ds: Dataset, pi: Predictor) -> np.ndarray:
    p2 = ds.phase2
    pi_vals = pi.predict(v_features(ds, p2), rows=p2)
    if np.any(pi_vals <= 0):
        raise NuisanceError("nonpositive sampling probabilities after truncation")
    return 1.0 / pi_vals


def fit_q_ipcw(ds: Dataset, pi: Predictor) -> Predictor:
    """Outcome regression on (a, w1, w2) over phase-2 rows, weights 1/Pi.

    The outcome must already live in [0, 1] (binary, or scaled); the fit is
    bernoulli-family so predictions respect the outcome bounds.
    """
    p2 = ds.phase2
    y2 = ds.y[p2]
    if y2.min() < 0.0 or y2.max() > 1.0:
        raise NuisanceError("outcome must be in [0, 1]; scale continuous outcomes first")
    a2 = ds.a[p2]
    for arm in (0, 1):
        if np.sum(a2 == arm) < 2:
            raise NuisanceError(f"fewer than 2 phase-2 records with a={arm}: Q({arm},.) unidentifiable")
    X = _add_intercept(aw_features(ds, p2))
    fit = fit_glm(X, y2, w=_ipcw_weights(ds, pi), family="bernoulli")
    return GlmPredictor(fit=fit, bounds=None)


def fit_g_ipcw(ds: Dataset, pi: Predictor,
               trunc: tuple[float, float] = TRUNC_G_DEFAULT) -> Predictor:
    """Propensity regression of a on (w1, w2) over phase-2 rows, weights 1/Pi."""
    p2 = ds.phase2
    a2 = ds.a[p2].astype(float)
    for arm in (0, 1):
        if np.sum(a2 == arm) < 2:
            raise NuisanceError(f"fewer than 2 phase-2 records with a={arm}: g unidentifiable")
    X = _add_intercept(w_features(ds, p2))
    fit = fit_glm(X, a2, w=_ipcw_weights(ds, pi), family="bernoulli")
    return GlmPredictor(fit=fit, bounds=trunc)


class MbarDesign:
    """The design [1, w1, a, y] of the conditional regressions, for one dataset.

    x_all covers every record (where the regressions are predicted) and x2
    the phase-2 rows (where they are fit). The Cholesky factor of x2'x2 is
    built on the first fit and reused by every later one.
    """

    def __init__(self, ds: Dataset):
        self.x_all = _add_intercept(v_features(ds))
        self.x2 = self.x_all[ds.phase2]
        self._gram: GramFactor | None = None

    def fit(self, values: np.ndarray) -> GlmFit:
        if self._gram is None:
            self._gram = GramFactor(self.x2)
        return self._gram.fit(values)


def fit_mbar(ds: Dataset, values: np.ndarray, design: MbarDesign | None = None) -> Predictor:
    """Gaussian regression of per-phase-2-row values on (w1, a, y).

    The prediction is defined for every record since the features are
    phase-1 measurable. Rank-deficient designs fall back to the GLM ridge;
    only total singularity raises. Pass the dataset's `design` to reuse its
    factored Gram matrix across regressions.
    """
    if design is None:
        design = MbarDesign(ds)
    values = np.asarray(values, dtype=float).ravel()
    if len(values) != design.x2.shape[0]:
        raise NuisanceError("values must align with the phase-2 rows")
    try:
        fit = design.fit(values)
    except GlmError as exc:
        raise NuisanceError(f"regression of influence values failed: {exc}") from exc
    return GlmPredictor(fit=fit, bounds=None)


# ---------------------------------------------------------------------------
# bundled nuisance set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuisanceSet:
    """Fitted nuisance functions. pi and g already truncate their outputs;
    trunc_pi bounds the sampling mechanism again after it is targeted."""

    pi: Predictor
    g: Predictor
    q: Predictor
    trunc_pi: tuple[float, float] = TRUNC_PI_DEFAULT


def check_truncation(trunc_pi: tuple[float, float], trunc_g: tuple[float, float]) -> None:
    """Require 0 < lo < hi <= 1 for pi and 0 < lo < hi < 1 for g.

    np.clip with lo > hi silently maps every value to hi, so a reversed
    pair would otherwise give a wrong answer without any error.
    """
    lo, hi = trunc_pi
    if not 0.0 < lo < hi <= 1.0:
        raise ValueError(f"trunc_pi must satisfy 0 < lo < hi <= 1, got ({lo}, {hi})")
    lo, hi = trunc_g
    if not 0.0 < lo < hi < 1.0:
        raise ValueError(f"trunc_g must satisfy 0 < lo < hi < 1, got ({lo}, {hi})")


@dataclass
class NuisanceConfig:
    """How to obtain the nuisance set for one dataset.

    known_pi / known_g, when given, are per-row values aligned with the
    dataset (simulation truths, or a design-fixed constant repeated); they
    replace the fitted mechanism and are truncated like it.
    """

    trunc_pi: tuple[float, float] = TRUNC_PI_DEFAULT
    trunc_g: tuple[float, float] = TRUNC_G_DEFAULT
    known_pi: np.ndarray | None = None
    known_g: np.ndarray | None = None

    def __post_init__(self):
        check_truncation(self.trunc_pi, self.trunc_g)


def _known_predictor(values, bounds, n: int) -> Predictor:
    values = np.asarray(values, dtype=float)
    if len(values) != n:
        raise NuisanceError("known mechanism values do not align with the dataset")
    return pin_known(values, bounds=bounds)


def fit_nuisances(ds: Dataset, config: NuisanceConfig | None = None) -> NuisanceSet:
    """Fit (or inject) Pi and g, then the IPCW-weighted outcome regression."""
    cfg = config or NuisanceConfig()
    if cfg.known_pi is not None:
        pi = _known_predictor(cfg.known_pi, cfg.trunc_pi, ds.n)
    else:
        pi = fit_pi(ds, trunc=cfg.trunc_pi)
    if cfg.known_g is not None:
        g = _known_predictor(cfg.known_g, cfg.trunc_g, ds.n)
    else:
        g = fit_g_ipcw(ds, pi, trunc=cfg.trunc_g)
    q = fit_q_ipcw(ds, pi)
    return NuisanceSet(pi=pi, g=g, q=q, trunc_pi=cfg.trunc_pi)
