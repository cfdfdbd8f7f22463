"""Fitting of the four nuisance functions, evaluated on the dataset they fit.

Pi (phase-2 sampling mechanism), g (treatment mechanism), Q (outcome
regression) and the conditional regression of full-data influence values
on phase-1 variables are all fitted as main-term GLMs. Nothing is
predicted out of sample, so each fit returns its values on the records it
was fitted to; probability outputs are truncated. A known Pi or g is given
as one probability per record and truncated the same way.

`fit_nuisances` builds each design and weight once and returns them with
the fits, for `estimators.FittedContext` to keep; `fit_mbar` is the one
phase-1 regression.

Design conventions (columns, in order):
  V-design : 1, w1 columns, a, y          (all rows)
  W-design : 1, w1 columns, w2 columns    (phase-2 rows only)
  AW-design: 1, a, w1 columns, w2 columns (phase-2 rows only)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import Dataset
from .glm import GlmError, GlmFit, _cho_solve, _clip, _factor_spd, fit_glm

__all__ = [
    "NuisanceError",
    "NuisanceConfig",
    "check_truncation",
    "TRUNC_PI_DEFAULT",
    "TRUNC_G_DEFAULT",
    "aw_designs",
    "MbarDesign",
    "fit_pi",
    "fit_g_ipcw",
    "fit_q_ipcw",
    "fit_mbar",
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


def aw_designs(ds: Dataset, rows: np.ndarray,
               w2: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outcome design [1, a, w1, w2] of `rows` at the observed arm, at
    a=1 and at a=0. `w2` replaces the rows' phase-2 covariates when given."""
    X = np.column_stack([np.ones(len(rows)), ds.a[rows].astype(float), ds.w1[rows],
                         ds.w2[rows] if w2 is None else w2])
    X1, X0 = X.copy(), X.copy()
    X1[:, 1] = 1.0
    X0[:, 1] = 0.0
    return X, X1, X0


# ---------------------------------------------------------------------------
# nuisance fits
# ---------------------------------------------------------------------------


class MbarDesign:
    """The V-design [1, w1, a, y] of one dataset.

    x_all covers every record (where pi is fit and the conditional
    regressions are predicted) and x2 the phase-2 rows (where those are
    fit). `fit_mbar` factors x2'x2 on its first regression and reuses it.
    """

    def __init__(self, ds: Dataset):
        self.x_all = np.column_stack([np.ones(ds.n), ds.w1, ds.a.astype(float), ds.y])
        self.x2 = self.x_all[ds.phase2]
        self._factor: np.ndarray | None = None


def fit_pi(design: MbarDesign, delta: np.ndarray,
           trunc: tuple[float, float] = TRUNC_PI_DEFAULT) -> np.ndarray:
    """Logistic regression of the phase-2 indicator delta on the V-design of
    every record; returns the truncated fitted probabilities."""
    if delta.min() == delta.max():
        raise NuisanceError("phase-2 indicator is constant: sampling mechanism unidentifiable")
    fit = fit_glm(design.x_all, delta.astype(float), family="bernoulli")
    return _clip(fit.predict(design.x_all), trunc[0], trunc[1])


def fit_q_ipcw(ds: Dataset, X: np.ndarray, wts2: np.ndarray) -> GlmFit:
    """Outcome regression of y on the AW-design X of the phase-2 rows (the
    first of their `aw_designs`), with weights wts2 = 1/pi on those rows.

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
    return fit_glm(X, y2, w=wts2, family="bernoulli")


def fit_g_ipcw(ds: Dataset, wts2: np.ndarray,
               trunc: tuple[float, float] = TRUNC_G_DEFAULT) -> np.ndarray:
    """Propensity regression of a on (w1, w2) over phase-2 rows, weights
    wts2 = 1/pi there; returns the truncated g(1|w) of the phase-2 rows."""
    p2 = ds.phase2
    a2 = ds.a[p2].astype(float)
    for arm in (0, 1):
        if np.sum(a2 == arm) < 2:
            raise NuisanceError(f"fewer than 2 phase-2 records with a={arm}: g unidentifiable")
    X = np.column_stack([np.ones(len(p2)), ds.w1[p2], ds.w2[p2]])
    fit = fit_glm(X, a2, w=wts2, family="bernoulli")
    return _clip(fit.predict(X), trunc[0], trunc[1])


def fit_mbar(design: MbarDesign, values: np.ndarray) -> np.ndarray:
    """Least-squares regression of per-phase-2-row values on the V-design,
    predicted on every record (the features are phase-1 measurable).

    Rank-deficient designs fall back to the GLM ridge; only total
    singularity raises. The design's factored Gram matrix is built on its
    first regression and shared by every later one.
    """
    values = np.asarray(values, dtype=float).ravel()
    if len(values) != design.x2.shape[0]:
        raise NuisanceError("values must align with the phase-2 rows")
    if not np.all(np.isfinite(values)):
        raise NuisanceError("regression of influence values failed: non-finite values to regress")
    if design._factor is None:
        with np.errstate(over="ignore"):  # _factor_spd rejects an overflowed Gram
            gram = design.x2.T @ design.x2
        try:
            design._factor, _ = _factor_spd(gram)
        except GlmError as exc:
            raise NuisanceError(f"regression of influence values failed: {exc}") from exc
    return design.x_all @ _cho_solve(design._factor, design.x2.T @ values)


# ---------------------------------------------------------------------------
# the nuisance fit of one dataset
# ---------------------------------------------------------------------------


def check_truncation(trunc_pi: tuple[float, float], trunc_g: tuple[float, float]) -> None:
    """Require 0 < lo < hi <= 1 for pi and 0 < lo < hi < 1 for g.

    Clipping with lo > hi silently maps every value to hi, so a reversed
    pair would otherwise give a wrong answer without any error.
    """
    lo, hi = trunc_pi
    if not 0.0 < lo < hi <= 1.0:
        raise ValueError(f"trunc_pi must satisfy 0 < lo < hi <= 1, got ({lo}, {hi})")
    lo, hi = trunc_g
    if not 0.0 < lo < hi < 1.0:
        raise ValueError(f"trunc_g must satisfy 0 < lo < hi < 1, got ({lo}, {hi})")


@dataclass(frozen=True)
class NuisanceConfig:
    """How to obtain the nuisances of one dataset.

    known_pi / known_g, when given, are per-row probabilities in [0, 1]
    aligned with the dataset (simulation truths, or a design-fixed constant
    repeated); they replace the fitted mechanism and are truncated like it.
    """

    trunc_pi: tuple[float, float] = TRUNC_PI_DEFAULT
    trunc_g: tuple[float, float] = TRUNC_G_DEFAULT
    known_pi: np.ndarray | None = None
    known_g: np.ndarray | None = None

    def __post_init__(self):
        check_truncation(self.trunc_pi, self.trunc_g)


def _known(values, bounds: tuple[float, float], n: int, name: str) -> np.ndarray:
    """A known mechanism's per-record probabilities, checked and truncated."""
    try:
        values = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.shape != (n,) or not np.all(np.isfinite(values)):
        raise NuisanceError(f"{name} must be a finite 1-D array with one value per record ({n})")
    if values.min() < 0.0 or values.max() > 1.0:
        raise NuisanceError(f"{name} must lie in [0, 1]")
    return _clip(values, bounds[0], bounds[1])


def fit_nuisances(ds: Dataset, config: NuisanceConfig | None = None) -> tuple:
    """Fit (or inject) Pi and g, then the IPCW-weighted outcome regression,
    with the arrays they were fitted on: (pi, g1, q, wts2, designs2, design).

    pi is on every record and g1 = g(1|w) on the phase-2 rows, both
    truncated; q is the outcome regression, fitted on designs2[0] with
    weights wts2 = 1/pi on the phase-2 rows; designs2 are the phase-2 rows'
    `aw_designs` (observed arm, a=1, a=0); design is the dataset's V-design,
    on which pi was fitted.
    """
    cfg = config or NuisanceConfig()
    p2 = ds.phase2
    design = MbarDesign(ds)
    if cfg.known_pi is not None:
        pi = _known(cfg.known_pi, cfg.trunc_pi, ds.n, "known_pi")
    else:
        pi = fit_pi(design, ds.delta, trunc=cfg.trunc_pi)
    wts2 = 1.0 / pi[p2]  # pi >= trunc_pi[0] > 0
    if cfg.known_g is not None:
        g1 = _known(cfg.known_g, cfg.trunc_g, ds.n, "known_g")[p2]
    else:
        g1 = fit_g_ipcw(ds, wts2, trunc=cfg.trunc_g)
    designs2 = aw_designs(ds, p2)
    q = fit_q_ipcw(ds, designs2[0], wts2)
    return pi, g1, q, wts2, designs2, design
