"""Efficient-influence-curve evaluation for the two-phase ATE problem.

The observed-data influence curve is built in two algebraically equal
representations: the weighted-full-data-minus-projection form
(`observed_eic`), and the four-component decomposition into outcome
score, sampling score, conditional full-data distribution, and marginal
phase-1 part (`eic_components`). The estimators use both, so their
pointwise equality is the single best wiring check in this code base.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .glm import GlmFit

__all__ = [
    "EicVariance",
    "evaluate_nuisances",
    "clever_covariate",
    "fulldata_eic_values",
    "observed_eic",
    "eic_components",
    "linearized_slope_values",
    "eic_variance",
]


def evaluate_nuisances(q: GlmFit, designs2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The outcome regression q on its phase-2 designs (observed arm, a=1,
    a=0), as `fit_nuisances` returns them: (q_a, q1, q0)."""
    return tuple(q.predict(X) for X in designs2)


def clever_covariate(a, g1):
    """H(a, w) = a/g(1|w) - (1-a)/g(0|w); g must already be truncated."""
    a = np.asarray(a, dtype=float)
    g1 = np.asarray(g1, dtype=float)
    return a / g1 - (1.0 - a) / (1.0 - g1)


def fulldata_eic_values(y, h, q_a, q1, q0) -> np.ndarray:
    """Uncentered full-data influence values h*(y - Q(a,w)) + Q(1,w) - Q(0,w)
    on full-data rows, where h = clever_covariate(a, g1)."""
    return h * (np.asarray(y, dtype=float) - q_a) + q1 - q0


def observed_eic(dbar2, mbar_all, pi, psi: float, phase2, delta) -> np.ndarray:
    """Observed-data influence values on all rows, weighted-projection form:
    delta/pi * (dbar - psi) - (delta - pi)/pi * (mbar - psi).

    dbar2 holds the uncentered full-data values on the phase-2 rows (in
    `phase2` order); mbar_all is their regression on phase-1 features,
    predicted on every row.
    """
    d = -(mbar_all - psi) / pi * (delta - pi)
    d[phase2] += (dbar2 - psi) / pi[phase2]
    return d


def eic_components(resid2, r_all, contrast2, c_all, pi, psi: float, phase2, delta):
    """The four components of the observed-data influence values on all rows.

    The full-data values split into the residual part resid2 = h*(y - Q(a,w))
    and the contrast part contrast2 = Q(1,w) - Q(0,w), with phase-1
    regressions r_all and c_all. Returns (outcome score, sampling score,
    conditional full-data part, marginal phase-1 part); their sum is
    observed_eic(resid2 + contrast2, r_all + c_all, pi, psi, phase2, delta).
    The outcome and conditional parts are zero on delta=0 rows.
    """
    n = len(pi)
    d_q = np.zeros(n)
    d_q[phase2] = resid2 / pi[phase2]
    d_pi = -(delta - pi) / pi * r_all
    d_gamma = np.zeros(n)
    d_gamma[phase2] = (contrast2 - c_all[phase2]) / pi[phase2]
    d_pv = c_all - psi
    return d_q, d_pi, d_gamma, d_pv


def linearized_slope_values(h_a, h1, h0, q_a, q1, q0) -> np.ndarray:
    """Slope at zero of the uncentered full-data influence values in the
    coefficient of the logistic outcome fluctuation, given the clever
    covariates h_a = clever_covariate(a, g1), h1 = 1/g1 and h0 = -1/(1 - g1)
    and the outcome regression at a, 1 and 0, all arrays."""
    j_a = q_a * (1.0 - q_a)
    j1 = q1 * (1.0 - q1)
    j0 = q0 * (1.0 - q0)
    return j1 * h1 - j0 * h0 - j_a * h_a**2


@dataclass(frozen=True)
class EicVariance:
    se: float
    ci_lo: float
    ci_hi: float


def _moments(d: np.ndarray) -> tuple[float, float]:
    """The mean and the sample variance (ddof=1) of the 1-d float array d.

    Bit for bit np.mean(d) and np.var(d, ddof=1): the same pairwise sums
    (np.add.reduce) divided by the same counts, taken once and without
    numpy's Python wrappers. np.std(d, ddof=1) is the square root of the
    variance.
    """
    n = len(d)
    mean = np.add.reduce(d) / n
    x = d - mean
    return float(mean), float(np.add.reduce(np.multiply(x, x, out=x)) / (n - 1))


def eic_variance(d_obs: np.ndarray, psi: float, *, sigma2: float) -> EicVariance:
    """Wald machinery: the standard error implied by sigma2, the sample
    variance of the influence values d_obs, and the 95% interval around psi."""
    n = len(d_obs)
    if n < 2:
        raise ValueError("need at least 2 influence values for a variance")
    se = float(np.sqrt(sigma2 / n))
    return EicVariance(se=se, ci_lo=psi - 1.96 * se, ci_hi=psi + 1.96 * se)
