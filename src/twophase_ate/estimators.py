"""Eight ATE estimators for two-phase designs, plus the raking calibration solver.

Every estimator consumes a Dataset whose outcome already lives in [0, 1]
(binary, or scaled) together with a fitted NuisanceSet, and reports a
point estimate, influence-curve standard error, Wald interval, and
score-solving diagnostics. `run_estimator` is the scale-aware front door:
it runs the estimator on a `FittedContext` (the outcome scaled onto [0, 1],
the nuisances fitted and evaluated once) and maps the estimate back to the
raw outcome scale. `fit_context` builds that context once per dataset and
`run_roster` runs several estimators against it.

Conventions shared by all routines here:
  * weighted plug-in means over the covariate distribution use normalized
    (Hajek) inverse-probability weights, which makes the stated score
    identities hold exactly rather than up to an O_p(n^-1/2) remainder;
  * iterative targeting stops when the absolute empirical mean of the
    relevant influence curve drops below sigma_n / (sqrt(n) * log n).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .data_model import Dataset, OutcomeScale, scale_outcome
from .eic import (
    clever_covariate,
    eic_components,
    eic_variance,
    evaluate_nuisances,
    fulldata_eic_values,
    linearized_slope_values,
    observed_eic,
)
from .glm import P_MIN, GlmError, expit, fit_fluctuation, fit_glm, logit
from .nuisance import (
    MbarDesign,
    NuisanceConfig,
    NuisanceError,
    NuisanceSet,
    fit_mbar,
    fit_nuisances,
)
from .roots import bisect, newton, secant

__all__ = [
    "EstimatorError",
    "EstimatorOptions",
    "EstimateResult",
    "RakeSolution",
    "rake_weights",
    "estimate_aipcw",
    "estimate_ipcw_tmle",
    "estimate_ipcw_tmle_target_pi",
    "estimate_ipcw_tmle_rake_pi",
    "estimate_raking",
    "estimate_eee",
    "estimate_quasi_tmle",
    "estimate_tmle_alt",
    "FittedContext",
    "fit_context",
    "run_estimator",
    "run_roster",
    "ESTIMATOR_IDS",
    "FULL_EIC_SOLVERS",
]

ESTIMATOR_IDS = (
    "aipcw",
    "ipcw_tmle",
    "ipcw_tmle_target_pi",
    "ipcw_tmle_rake_pi",
    "raking",
    "eee",
    "quasi_tmle",
    "tmle_alt",
)

# Estimators whose construction drives the empirical mean of the full
# observed-data EIC to (near) zero. Plain ipcw_tmle does not target the
# sampling mechanism and raking targets the census parameter, so neither
# carries the |P_n D| <= s_n guarantee.
FULL_EIC_SOLVERS = frozenset(
    {"aipcw", "ipcw_tmle_target_pi", "ipcw_tmle_rake_pi", "eee", "quasi_tmle", "tmle_alt"}
)


class EstimatorError(RuntimeError):
    """An estimator could not produce a usable estimate."""


@dataclass(frozen=True)
class EstimatorOptions:
    max_outer_iter: int = 50
    mode: str = "refit"  # "refit" | "linearized" handling of the EIC regression
    fluct_tol: float = 1e-10
    root_tol: float = 1e-10  # plug-in root solve (quasi_tmle)
    rake_tol: float = 1e-8

    def __post_init__(self):
        if self.max_outer_iter < 0:
            raise ValueError(f"max_outer_iter must be >= 0, got {self.max_outer_iter}")


DEFAULT_OPTIONS = EstimatorOptions()


@dataclass(frozen=True)
class EstimateResult:
    estimator_id: str
    psi_hat: float
    se: float
    ci95: tuple[float, float]
    eic_mean_abs: float
    n_outer_iterations: int
    converged: bool
    s_n: float  # convergence threshold sigma_n/(sqrt(n) log n) at the final fit
    details: dict | None = field(default=None, compare=False, repr=False)


def _result(estimator_id, psi, d_obs, n, n_outer, converged, details=None) -> EstimateResult:
    var = eic_variance(d_obs, psi)
    return EstimateResult(
        estimator_id=estimator_id,
        psi_hat=float(psi),
        se=var.se,
        ci95=(var.ci_lo, var.ci_hi),
        eic_mean_abs=float(abs(np.mean(d_obs))),
        n_outer_iterations=int(n_outer),
        converged=bool(converged),
        s_n=_threshold(d_obs, n),
        details=details,
    )


def _threshold(d_obs: np.ndarray, n: int) -> float:
    return float(np.std(d_obs, ddof=1) / (np.sqrt(n) * np.log(n)))


# ---------------------------------------------------------------------------
# shared per-dataset working state
# ---------------------------------------------------------------------------


class _Work:
    """Evaluated nuisances and the recurring per-row algebra for one dataset.

    One instance is shared by every estimator run with the same nuisance
    set on the same dataset (see `_work`), so its arrays are read-only.
    """

    def __init__(self, ds: Dataset, ns: NuisanceSet):
        if ds.n < 3:
            raise EstimatorError("need at least 3 records")
        if ds.y.min() < 0.0 or ds.y.max() > 1.0:
            raise EstimatorError("outcome must be in [0, 1]; use run_estimator for raw scales")
        vals = evaluate_nuisances(ds, ns)
        self.ds = ds
        self.n = ds.n
        self.p2 = ds.phase2
        self.delta = ds.delta.astype(float)
        self.y2 = ds.y[self.p2]
        self.a2 = ds.a[self.p2]
        self.pi0 = vals.pi
        self.g1 = vals.g1
        self.h2 = clever_covariate(self.a2, self.g1)
        self.h1 = 1.0 / self.g1
        self.h0 = -1.0 / (1.0 - self.g1)
        self.q_a0, self.q10, self.q00 = vals.q_a, vals.q1, vals.q0
        self.design = MbarDesign(ds)
        shared = [v for v in vars(self).values() if isinstance(v, np.ndarray)]
        for arr in shared + [self.design.x_all, self.design.x2]:
            arr.flags.writeable = False

    def dbar(self, q_a, q1, q0) -> np.ndarray:
        return fulldata_eic_values(self.y2, self.h2, q_a, q1, q0)

    def hajek_plugin(self, q1, q0, pi) -> float:
        w = 1.0 / pi[self.p2]
        return float((w @ (q1 - q0)) / w.sum())

    def mbar_all(self, values2: np.ndarray) -> np.ndarray:
        """Regression of phase-2 values on phase-1 features, predicted on all rows."""
        pred = fit_mbar(self.ds, values2, design=self.design)
        # pred.predict(v_features(ds)) without rebuilding the intercept column
        return pred.fit.predict(self.design.x_all)

    def fluctuate_q(self, q_a, q1, q0, pi, tol):
        """One weighted logistic targeting step of the outcome regression."""
        fit = fit_fluctuation(self.y2, logit(q_a, P_MIN), self.h2,
                              w=1.0 / pi[self.p2], tol=tol)
        eps = fit.epsilon
        if eps != 0.0:
            q_a = expit(logit(q_a, P_MIN) + eps * self.h2)
            q1 = expit(logit(q1, P_MIN) + eps * self.h1)
            q0 = expit(logit(q0, P_MIN) + eps * self.h0)
        return q_a, q1, q0, fit


def _work(ds: Dataset, ns: NuisanceSet) -> _Work:
    """The working state of ns on ds: built on first use, then kept on the
    (immutable) nuisance set and reused while it is asked for the same
    dataset object."""
    memo = getattr(ns, "_evaluated", None)
    if memo is not None and memo.ds is ds:
        return memo
    w = _Work(ds, ns)
    object.__setattr__(ns, "_evaluated", w)
    return w


# ---------------------------------------------------------------------------
# raking calibration solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RakeSolution:
    """Exponential-tilting calibration of inverse-probability weights.

    a holds per-record scale factors exp(-lambda * m_i) (positive by
    construction); pi_star = pi / a is the calibrated sampling mechanism.
    """

    lam: float
    a: np.ndarray
    pi_star: np.ndarray
    constraint_residual: float
    n_iter: int
    converged: bool


def rake_weights(mbar: np.ndarray, pi: np.ndarray, delta: np.ndarray,
                 tol: float = 1e-8, max_iter: int = 100,
                 target: float | None = None) -> RakeSolution:
    """Calibrate weights 1/pi on phase-2 rows to reproduce the full-sample
    total of mbar, by Newton-Raphson on the scalar dual.

    Solves 0 = sum_{delta=1} exp(-lam*m_i)*m_i/pi_i - target starting from
    lam=0, stopping when the constraint residual drops below tol. The
    default target is sum_all m_i; rescaling the weights and the target by
    a common factor rescales the whole equation and leaves lam unchanged.
    """
    m = np.asarray(mbar, dtype=float).ravel()
    pi = np.asarray(pi, dtype=float).ravel()
    delta = np.asarray(delta).ravel()
    p2 = np.flatnonzero(delta == 1)
    m2 = m[p2]
    w0 = 1.0 / pi[p2]
    target = float(m.sum()) if target is None else float(target)

    def tilt(lam: float) -> np.ndarray:
        return np.exp(np.clip(-lam * m2, -700.0, 700.0))

    def F(lam: float) -> float:
        return float(w0 @ (tilt(lam) * m2) - target)

    def dF(lam: float) -> float:
        g = float(-(w0 * m2**2) @ tilt(lam))
        if abs(g) < 1e-14:
            raise EstimatorError(
                "raking solver stalled: vanishing gradient with unsatisfied constraint"
            )
        return g

    def solution(lam: float, n_iter: int, converged: bool) -> RakeSolution:
        a = np.exp(np.clip(-lam * m, -700.0, 700.0))
        return RakeSolution(lam=float(lam), a=a, pi_star=pi / a,
                            constraint_residual=F(lam), n_iter=n_iter, converged=converged)

    f0 = F(0.0)
    if abs(f0) <= tol:
        return RakeSolution(lam=0.0, a=np.ones_like(m), pi_star=pi.copy(),
                            constraint_residual=f0, n_iter=0, converged=True)
    if np.all(m2 == 0.0):
        raise EstimatorError(
            "raking constraint infeasible: calibration variable vanishes on "
            "phase-2 rows but the full-sample total is nonzero"
        )

    res = newton(F, dF, f0, tol, max_iter)
    if res.converged:
        return solution(res.x, res.n_iter, True)
    # F is strictly decreasing, so its root is the one sign change on a
    # symmetric doubling grid wide enough to hold it
    steps = max(1.0, abs(res.x)) * 2.0 ** np.arange(60)
    fallback = bisect(F, np.concatenate([-steps[::-1], steps]), tol)
    if fallback is None:
        return solution(res.x, res.n_iter, False)
    return solution(fallback.x, res.n_iter + fallback.n_iter, fallback.converged)


# ---------------------------------------------------------------------------
# estimating-equation estimators
# ---------------------------------------------------------------------------


def estimate_aipcw(ds: Dataset, ns: NuisanceSet,
                   options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Augmented IPCW: the closed-form solution of 0 = P_n D at the initial fit."""
    w = _work(ds, ns)
    dbar2 = w.dbar(w.q_a0, w.q10, w.q00)
    mbar = w.mbar_all(dbar2)
    pi = w.pi0
    psi = float(
        np.sum(dbar2 / pi[w.p2]) / w.n
        - np.sum(mbar * (w.delta - pi) / pi) / w.n
    )
    d = observed_eic(dbar2, mbar, pi, psi, w.p2, w.delta)
    return _result("aipcw", psi, d, w.n, 0, True,
                   details={"mbar": mbar, "dbar2": dbar2})


def estimate_eee(ds: Dataset, ns: NuisanceSet,
                 options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Targets the conditional-EIC regression with a weighted intercept shift,
    then averages the targeted regression over all records."""
    w = _work(ds, ns)
    dbar2 = w.dbar(w.q_a0, w.q10, w.q00)
    mbar = w.mbar_all(dbar2)
    wts2 = 1.0 / w.pi0[w.p2]
    zeta = float((wts2 @ (dbar2 - mbar[w.p2])) / wts2.sum())
    mbar_star = mbar + zeta
    psi = float(np.mean(mbar_star))
    d = observed_eic(dbar2, mbar_star, w.pi0, psi, w.p2, w.delta)
    return _result("eee", psi, d, w.n, 0, True,
                   details={"zeta": zeta, "mbar_star": mbar_star, "dbar2": dbar2})


# ---------------------------------------------------------------------------
# IPCW-TMLE family
# ---------------------------------------------------------------------------


def estimate_ipcw_tmle(ds: Dataset, ns: NuisanceSet,
                       options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Single weighted logistic targeting of the outcome regression."""
    w = _work(ds, ns)
    q_a, q1, q0, fit = w.fluctuate_q(w.q_a0, w.q10, w.q00, w.pi0, options.fluct_tol)
    psi = w.hajek_plugin(q1, q0, w.pi0)
    dbar2 = w.dbar(q_a, q1, q0)
    mbar = w.mbar_all(dbar2)
    d = observed_eic(dbar2, mbar, w.pi0, psi, w.p2, w.delta)
    wts2 = 1.0 / w.pi0[w.p2]
    weighted_fulldata_score = float(np.sum((dbar2 - psi) * wts2) / w.n)
    return _result(
        "ipcw_tmle", psi, d, w.n, 1, fit.converged,
        details={
            "epsilon": fit.epsilon,
            "q1": q1, "q0": q0,
            "weighted_fulldata_score": weighted_fulldata_score,
        },
    )


@dataclass
class _LoopState:
    psi: float
    d: np.ndarray
    pnd: float
    s_n: float
    q1: np.ndarray
    q0: np.ndarray
    pi: np.ndarray


def _iterative_ipcw_tmle(ds, ns, options, use_raking: bool, estimator_id: str) -> EstimateResult:
    """Alternate outcome targeting and sampling-mechanism targeting until the
    empirical EIC mean is below threshold.

    The sampling mechanism is updated either by a logistic fluctuation with
    the conditional-EIC clever covariate, or (use_raking) by calibrating the
    inverse-probability weights so the same score equation holds exactly.
    options.mode == "linearized" reuses two regressions (level and slope of
    the fluctuated full-data EIC) per outer iteration instead of refitting.
    """
    w = _work(ds, ns)
    pi = w.pi0.copy()
    q_a, q1, q0 = w.q_a0.copy(), w.q10.copy(), w.q00.copy()
    linearized = options.mode == "linearized"
    best: _LoopState | None = None
    n_outer = 0
    converged = False
    epsilons: list[float] = []
    rake_last: RakeSolution | None = None

    for k in range(options.max_outer_iter + 1):
        dbar2 = w.dbar(q_a, q1, q0)
        psi = w.hajek_plugin(q1, q0, pi)
        m_level = w.mbar_all(dbar2)
        if linearized:
            m_slope = w.mbar_all(linearized_slope_values(w.a2, w.g1, q_a, q1, q0))
        d = observed_eic(dbar2, m_level, pi, psi, w.p2, w.delta)
        pnd = float(abs(np.mean(d)))
        s_n = _threshold(d, w.n)
        state = _LoopState(psi=psi, d=d, pnd=pnd, s_n=s_n, q1=q1, q0=q0, pi=pi)
        # the first targeting pass is mandatory: the threshold governs
        # iteration, not whether to target at all
        if k > 0 and (best is None or pnd < best.pnd):
            best = state
        if k > 0 and pnd <= s_n:
            converged = True
            break
        if k == options.max_outer_iter:
            break

        # outcome targeting at the current weights
        q_a, q1, q0, fit = w.fluctuate_q(q_a, q1, q0, pi, options.fluct_tol)
        epsilons.append(fit.epsilon)
        psi_new = w.hajek_plugin(q1, q0, pi)
        if linearized:
            m_new = m_level + fit.epsilon * m_slope
        else:
            m_new = w.mbar_all(w.dbar(q_a, q1, q0))
        m_centered = m_new - psi_new

        # sampling-mechanism targeting
        if use_raking:
            rake_last = rake_weights(m_centered, pi, w.delta, tol=options.rake_tol)
            if not rake_last.converged:
                # uncalibrated weights would leave the score equation unsolved
                break
            pi = rake_last.pi_star
        else:
            cov = m_centered / pi
            dfit = fit_fluctuation(w.delta, logit(pi, P_MIN), cov, tol=options.fluct_tol)
            pi = np.clip(expit(logit(pi, P_MIN) + dfit.epsilon * cov),
                         ns.trunc_pi[0], ns.trunc_pi[1])
        n_outer += 1

    final = state if converged else (best if best is not None else state)
    details = {
        "epsilons": epsilons,
        "pi_final": final.pi,
        "q1": final.q1,
        "q0": final.q0,
    }
    if rake_last is not None:
        details["rake"] = rake_last
    res = _result(estimator_id, final.psi, final.d, w.n, n_outer, converged, details)
    # keep the threshold the loop actually used
    return replace(res, s_n=final.s_n)


def estimate_ipcw_tmle_target_pi(ds: Dataset, ns: NuisanceSet,
                                 options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    return _iterative_ipcw_tmle(ds, ns, options, use_raking=False,
                                estimator_id="ipcw_tmle_target_pi")


def estimate_ipcw_tmle_rake_pi(ds: Dataset, ns: NuisanceSet,
                               options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    return _iterative_ipcw_tmle(ds, ns, options, use_raking=True,
                                estimator_id="ipcw_tmle_rake_pi")


# ---------------------------------------------------------------------------
# generalized raking (census working model)
# ---------------------------------------------------------------------------


# 3-node probabilists' Gauss-Hermite rule: exact for cubic integrands
_GH_NODES = np.array([-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
_GH_WEIGHTS = np.array([1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
# tensor grids grow as 3^d; beyond this, collapse to mean-only imputation
_GH_MAX_DIM = 5


@dataclass
class _ImputationModel:
    """Normal linear model of each phase-2 covariate given phase-1 features."""

    mean: np.ndarray  # (n, d2) fitted conditional means, every record
    sd: np.ndarray  # (d2,) residual scales

    def grid(self, rows: np.ndarray):
        """Quadrature draws (weight, covariate matrix) approximating the
        conditional law of the phase-2 covariates on the given rows."""
        d2 = self.mean.shape[1]
        base = self.mean[rows]
        if d2 > _GH_MAX_DIM:
            yield 1.0, base
            return
        import itertools

        for combo in itertools.product(range(len(_GH_NODES)), repeat=d2):
            weight = float(np.prod(_GH_WEIGHTS[list(combo)]))
            shift = self.sd * _GH_NODES[list(combo)]
            yield weight, base + shift


def _fit_imputation(w: _Work) -> _ImputationModel:
    ds = w.ds
    mean = np.zeros((ds.n, ds.d_w2))
    sd = np.zeros(ds.d_w2)
    dof = max(1, len(w.p2) - w.design.x2.shape[1])
    for j in range(ds.d_w2):
        mean[:, j] = w.design.fit(ds.w2[w.p2, j]).predict(w.design.x_all)
        resid = ds.w2[w.p2, j] - mean[w.p2, j]
        sd[j] = float(np.sqrt(resid @ resid / dof))
    return _ImputationModel(mean=mean, sd=sd)


class _CensusModel:
    """Weighted main-term working model of y on (a, w1, w2) with its
    influence-value machinery.

    Influence values are exact on phase-2 rows; on censored rows they are
    conditional expectations under the normal linear imputation model,
    computed by Gauss-Hermite quadrature (the deterministic counterpart of
    averaging over imputation draws)."""

    def __init__(self, w: _Work, imputation: _ImputationModel | None,
                 wts2: np.ndarray, family: str):
        ds = w.ds

        def designs(rows, w2mat):
            """The design [1, a, w1, w2] at the observed arm, a=1 and a=0."""
            X = np.column_stack([np.ones(len(rows)), ds.a[rows].astype(float),
                                 ds.w1[rows], w2mat])
            X1, X0 = X.copy(), X.copy()
            X1[:, 1] = 1.0
            X0[:, 1] = 0.0
            return X, X1, X0

        def pieces(rows, X, X1, X0, alpha):
            q_a, q1, q0 = (self.fit.predict(Z) for Z in (X, X1, X0))
            return (X @ alpha) * (ds.y[rows] - q_a) + (q1 - q0)

        Xp, Xp1, Xp0 = designs(w.p2, ds.w2[w.p2])
        self.fit = fit_glm(Xp, w.y2, w=wts2, family=family)
        q_a2, q12, q02 = (self.fit.predict(Z) for Z in (Xp, Xp1, Xp0))
        if family == "bernoulli":
            j_a, j1, j0 = q_a2 * (1 - q_a2), q12 * (1 - q12), q02 * (1 - q02)
        else:
            j_a = j1 = j0 = np.ones(len(w.p2))
        wn = wts2 / wts2.sum()
        info = (Xp * (wn * j_a)[:, None]).T @ Xp
        grad = (j1[:, None] * Xp1 - j0[:, None] * Xp0).T @ wn
        alpha = np.linalg.solve(info, grad)
        self.psi_plugin = float(wn @ (q12 - q02))

        u = np.empty(ds.n)
        u[w.p2] = pieces(w.p2, Xp, Xp1, Xp0, alpha)
        censored = np.flatnonzero(ds.delta == 0)
        if len(censored):
            if imputation is None:  # no phase-2 covariates: nothing to impute
                u[censored] = pieces(censored, *designs(censored, ds.w2[censored]), alpha)
            else:
                acc = np.zeros(len(censored))
                for weight, w2mat in imputation.grid(censored):
                    acc += weight * pieces(censored, *designs(censored, w2mat), alpha)
                u[censored] = acc
        self.u_uncentered = u

    def influence(self, psi: float) -> np.ndarray:
        return self.u_uncentered - psi


def estimate_raking(ds: Dataset, ns: NuisanceSet,
                    options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Classic generalized raking: calibrate the inverse-probability weights
    against working-model influence values, refit the working model with
    the calibrated weights, and report its weighted treatment contrast.

    The calibration variable is the working-model influence value per
    record: exact on phase-2 rows, and its conditional expectation under a
    normal linear imputation model on censored rows (the direct regression
    substitute for the multiple-imputation construction). Inference targets
    the census (working-model) parameter; the reported interval is honest
    for that parameter only.
    """
    w = _work(ds, ns)
    family = "bernoulli" if ds.y_kind == "binary" else "gaussian"
    pi = w.pi0
    wts0 = 1.0 / pi[w.p2]
    has_censored = len(w.p2) < ds.n and ds.d_w2 > 0
    imputation = _fit_imputation(w) if has_censored else None

    prelim = _CensusModel(w, imputation, wts0, family)
    h = prelim.influence(prelim.psi_plugin)
    rake = rake_weights(h, pi, w.delta, tol=options.rake_tol)
    wts1 = 1.0 / rake.pi_star[w.p2]

    final = _CensusModel(w, imputation, wts1, family)
    psi = final.psi_plugin
    infl = final.influence(psi)
    converged = rake.converged and final.fit.converged
    return _result(
        "raking", psi, infl, w.n, rake.n_iter, converged,
        details={"rake": rake, "pi_star": rake.pi_star, "psi_prelim": prelim.psi_plugin,
                 "calibration_values": h, "working_fit": final.fit},
    )


# ---------------------------------------------------------------------------
# quasi plug-in solver
# ---------------------------------------------------------------------------


def estimate_quasi_tmle(ds: Dataset, ns: NuisanceSet,
                        options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Joint solve of the outcome fluctuation and a weighted shift of the
    conditional-EIC regression, constrained so the reported value is the
    plug-in of the fluctuated outcome regression.

    The shift coefficient is eliminated via the plug-in constraint, leaving
    a one-dimensional root problem in the fluctuation coefficient, solved
    by the secant method with a bracketed bisection fallback.
    """
    w = _work(ds, ns)
    pi = w.pi0
    pi2 = pi[w.p2]
    wts2 = 1.0 / pi2
    pn_dpi = float(wts2.sum() / w.n)  # P_n{delta/pi}
    pn_dpi2 = float((wts2**2).sum() / w.n)  # P_n{delta/pi^2}
    lq_a = logit(w.q_a0, P_MIN)
    lq1 = logit(w.q10, P_MIN)
    lq0 = logit(w.q00, P_MIN)
    linearized = options.mode == "linearized"
    if linearized:
        m_level = w.mbar_all(w.dbar(w.q_a0, w.q10, w.q00))
        m_slope = w.mbar_all(linearized_slope_values(w.a2, w.g1, w.q_a0, w.q10, w.q00))
    n_evals = 0

    def model_at(eps: float):
        nonlocal n_evals
        n_evals += 1
        q_a = expit(lq_a + eps * w.h2)
        q1 = expit(lq1 + eps * w.h1)
        q0 = expit(lq0 + eps * w.h0)
        dbar2 = w.dbar(q_a, q1, q0)
        if linearized:
            m_all = m_level + eps * m_slope
        else:
            m_all = w.mbar_all(dbar2)
        psi_plug = float((wts2 @ (q1 - q0)) / wts2.sum())
        gamma = (psi_plug - float(np.mean(m_all))) / pn_dpi
        score = float(wts2 @ (dbar2 - m_all[w.p2]) / w.n) - gamma * pn_dpi2
        return score, (q1, q0, dbar2, m_all, psi_plug, gamma)

    def score_fn(eps: float) -> float:
        return model_at(eps)[0]

    # warm start from the plain weighted fluctuation
    warm = fit_fluctuation(w.y2, lq_a, w.h2, w=wts2, tol=options.fluct_tol)
    x1 = warm.epsilon if warm.epsilon != 0.0 else 1e-3
    res = secant(score_fn, 0.0, x1, options.root_tol, max_iter=100)
    if not res.converged:
        res = bisect(score_fn, np.linspace(-10.0, 10.0, 81), options.root_tol)
        if res is None or not res.converged:
            raise EstimatorError("plug-in fluctuation solve failed: no root in [-10, 10]")

    eps = float(res.x)
    score, (q1, q0, dbar2, m_all, psi_plug, gamma) = model_at(eps)
    psi = psi_plug  # plug-in identity: P_n targeted regression equals this
    mbar_star = m_all.copy()
    mbar_star[w.p2] += gamma * wts2
    d = observed_eic(dbar2, mbar_star, pi, psi, w.p2, w.delta)
    return _result(
        "quasi_tmle", psi, d, w.n, n_evals, True,
        details={"epsilon": eps, "gamma": gamma, "q1": q1, "q0": q0,
                 "psi_plug": psi_plug, "mbar_star": mbar_star},
    )


# ---------------------------------------------------------------------------
# TMLE under the alternative parameter representation
# ---------------------------------------------------------------------------


def _fit_bounded_regression(w: _Work, values2: np.ndarray) -> np.ndarray:
    """Bernoulli-family regression of (0,1)-valued phase-2 values on phase-1
    features, predicted on all rows; keeps predictions inside (0,1) for the
    subsequent logit-offset fluctuation."""
    resp = np.clip(values2, P_MIN, 1.0 - P_MIN)
    fit = fit_glm(w.design.x2, resp, family="bernoulli")
    return fit.predict(w.design.x_all)


def estimate_tmle_alt(ds: Dataset, ns: NuisanceSet,
                      options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Targets, in turn: the outcome regression, the sampling mechanism
    (clever covariate from the conditional residual score), and the two
    conditional arm-regressions; the estimate is the full-sample average of
    the targeted arm-regression contrast.

    The alternation loop monitors the outcome+sampling score components; the
    two conditional-regression fluctuations afterwards zero the remaining
    components, so the full EIC mean is checked (and re-looped, at most
    twice) before declaring convergence.
    """
    w = _work(ds, ns)
    pi = w.pi0.copy()
    q_a, q1, q0 = w.q_a0.copy(), w.q10.copy(), w.q00.copy()
    n_outer = 0
    converged = False
    final = None
    # resid2 and its regression r_all depend only on q_a, so they are
    # refitted only after the Q fluctuation moves it
    resid2 = w.h2 * (w.y2 - q_a)
    r_all = w.mbar_all(resid2)

    for _round in range(3):
        # alternate Q / sampling-mechanism targeting; the first pass is
        # mandatory (the threshold governs iteration, not whether to target)
        for k in range(options.max_outer_iter + 1):
            # outcome + sampling components: the EIC of the residual part alone
            d_qpi = observed_eic(resid2, r_all, pi, 0.0, w.p2, w.delta)
            pnd = float(abs(np.mean(d_qpi)))
            s_n_loop = _threshold(d_qpi, w.n)
            first_pass = k == 0 and _round == 0 and n_outer == 0
            if (pnd <= s_n_loop and not first_pass) or k == options.max_outer_iter:
                break
            q_a, q1, q0, _fit = w.fluctuate_q(q_a, q1, q0, pi, options.fluct_tol)
            resid2 = w.h2 * (w.y2 - q_a)
            r_all = w.mbar_all(resid2)
            cov = r_all / pi
            dfit = fit_fluctuation(w.delta, logit(pi, P_MIN), cov, tol=options.fluct_tol)
            pi = np.clip(expit(logit(pi, P_MIN) + dfit.epsilon * cov),
                         ns.trunc_pi[0], ns.trunc_pi[1])
            n_outer += 1

        # conditional arm-regression targeting (phase-2 fit, covariate 1/pi)
        inv_pi = 1.0 / pi
        m_star = {}
        for arm, q_arm in ((1, q1), (0, q0)):
            m_all = _fit_bounded_regression(w, q_arm)
            gfit = fit_fluctuation(np.clip(q_arm, P_MIN, 1.0 - P_MIN),
                                   logit(m_all[w.p2], P_MIN), inv_pi[w.p2],
                                   tol=options.fluct_tol)
            m_star[arm] = expit(logit(m_all, P_MIN) + gfit.epsilon * inv_pi)
        contrast_all = m_star[1] - m_star[0]
        psi = float(np.mean(contrast_all))

        d_q, d_pi, d_gamma, d_pv = eic_components(resid2, r_all, q1 - q0, contrast_all,
                                                  pi, psi, w.p2, w.delta)
        d = d_q + d_pi + d_gamma + d_pv
        final = (psi, d, m_star)
        if abs(np.mean(d)) <= _threshold(d, w.n):
            converged = True
            break

    psi, d, m_star = final
    return _result(
        "tmle_alt", psi, d, w.n, n_outer, converged,
        details={"pi_final": pi, "q1": q1, "q0": q0,
                 "m1_star": m_star[1], "m0_star": m_star[0]},
    )


# ---------------------------------------------------------------------------
# front door
# ---------------------------------------------------------------------------

_DISPATCH: dict[str, Callable] = {
    "aipcw": estimate_aipcw,
    "ipcw_tmle": estimate_ipcw_tmle,
    "ipcw_tmle_target_pi": estimate_ipcw_tmle_target_pi,
    "ipcw_tmle_rake_pi": estimate_ipcw_tmle_rake_pi,
    "raking": estimate_raking,
    "eee": estimate_eee,
    "quasi_tmle": estimate_quasi_tmle,
    "tmle_alt": estimate_tmle_alt,
}


def _unscale(res: EstimateResult, scale: OutcomeScale) -> EstimateResult:
    if scale.span == 1.0:
        return res
    s = scale.span
    return replace(
        res,
        psi_hat=res.psi_hat * s,
        se=res.se * s,
        ci95=(res.ci95[0] * s, res.ci95[1] * s),
        eic_mean_abs=res.eic_mean_abs * s,
        s_n=res.s_n * s,
    )


@dataclass(frozen=True)
class FittedContext:
    """One dataset made ready for any number of estimators.

    Holds the outcome mapped onto [0, 1] and the nuisance set fitted on it;
    the set also carries its evaluation on the scaled data, so estimators
    run against this context share one fit and one evaluation.
    """

    raw: Dataset
    scaled: Dataset
    scale: OutcomeScale
    nuisances: NuisanceSet


def fit_context(ds: Dataset,
                nuisance: NuisanceConfig | NuisanceSet | None = None) -> FittedContext:
    """Scale the outcome, fit (or accept) the nuisances and evaluate them.

    A failed fit raises EstimatorError("nuisance fitting failed: ...").
    """
    scaled, scale = scale_outcome(ds)
    if isinstance(nuisance, NuisanceSet):
        ns = nuisance
    else:
        try:
            ns = fit_nuisances(scaled, nuisance)
        except (NuisanceError, GlmError) as exc:
            raise EstimatorError(f"nuisance fitting failed: {exc}") from exc
    try:
        _work(scaled, ns)
    except (NuisanceError, GlmError) as exc:
        raise EstimatorError(f"nuisance evaluation failed: {exc}") from exc
    return FittedContext(raw=ds, scaled=scaled, scale=scale, nuisances=ns)


def run_estimator(
    ds: Dataset,
    estimator_id: str,
    nuisance: NuisanceConfig | NuisanceSet | FittedContext | None = None,
    options: EstimatorOptions = DEFAULT_OPTIONS,
) -> EstimateResult:
    """Scale the outcome, fit (or accept) nuisances, estimate, unscale.

    Pass a FittedContext from `fit_context(ds)` to reuse its scaling and
    nuisance fit; anything else is handed to `fit_context` first. The ATE
    is a difference of outcome means, so only the outcome span enters the
    back-transformation.
    """
    if estimator_id not in _DISPATCH:
        raise EstimatorError(f"unknown estimator {estimator_id!r}")
    if isinstance(nuisance, FittedContext):
        ctx = nuisance
        if ctx.raw is not ds:
            raise EstimatorError("the fitted context belongs to another dataset")
    else:
        ctx = fit_context(ds, nuisance)
    try:
        res = _DISPATCH[estimator_id](ctx.scaled, ctx.nuisances, options)
    except (NuisanceError, GlmError) as exc:
        raise EstimatorError(f"{estimator_id} failed: {exc}") from exc
    return _unscale(res, ctx.scale)


def run_roster(
    ds: Dataset,
    roster: Sequence[tuple[str, EstimatorOptions]],
    nuisance: NuisanceConfig | NuisanceSet | None = None,
) -> tuple[float, list[tuple[EstimateResult | EstimatorError, float]]]:
    """Run every (estimator_id, options) of the roster on one dataset.

    The context is fitted once and shared. Returns the seconds the shared
    fit took and, per roster entry, its result or the EstimatorError it
    raised, with the seconds it took. When the shared fit fails, every
    entry carries that error.
    """
    t0 = time.perf_counter()
    try:
        ctx = fit_context(ds, nuisance)
    except EstimatorError as exc:
        return time.perf_counter() - t0, [(exc, 0.0)] * len(roster)
    fit_s = time.perf_counter() - t0
    out = []
    for estimator_id, options in roster:
        t0 = time.perf_counter()
        try:
            res = run_estimator(ds, estimator_id, ctx, options)
        except EstimatorError as exc:
            res = exc
        out.append((res, time.perf_counter() - t0))
    return fit_s, out
