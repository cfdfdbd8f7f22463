"""Eight ATE estimators for two-phase designs, plus the raking calibration solver.

Every estimator takes a `FittedContext` (one dataset with its outcome
scaled onto [0, 1] and its nuisances fitted and evaluated on it) and
reports a point estimate, influence-curve standard error, Wald interval,
and score-solving diagnostics on the scaled outcome. `fit_context` builds
the context once per dataset; `run_estimator` runs one estimator on it and
maps the estimate back to the raw outcome scale, and `run_roster` runs
several estimators against one context.

Conventions shared by all routines here:
  * weighted plug-in means over the covariate distribution use normalized
    (Hajek) inverse-probability weights, which makes the stated score
    identities hold exactly rather than up to an O_p(n^-1/2) remainder;
  * iterative targeting stops when the absolute empirical mean of the
    relevant influence curve drops below sigma_n / (sqrt(n) * log n).
"""

from __future__ import annotations

import itertools
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
    aw_designs,
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


ROOT_TOL = 1e-10  # quasi_tmle's plug-in root solve


class EstimatorError(RuntimeError):
    """An estimator could not produce a usable estimate."""


@dataclass(frozen=True)
class EstimatorOptions:
    max_outer_iter: int = 50
    mode: str = "refit"  # "refit" | "linearized" handling of the EIC regression

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
# shared per-dataset state
# ---------------------------------------------------------------------------


class FittedContext:
    """One dataset made ready for any number of estimators, by `fit_context`.

    `raw` is the dataset as given, `scaled` the same records with the outcome
    mapped onto [0, 1] by `scale`, and `nuisances` the set fitted on `scaled`.
    The arrays hold that set evaluated on `scaled` (pi0 on every record, the
    rest on the phase-2 rows; wts0 = 1/pi0 there). Every estimator on the
    dataset shares them, so they are read-only.
    """

    def __init__(self, raw: Dataset, scaled: Dataset, scale: OutcomeScale,
                 nuisances: NuisanceSet):
        if scaled.n < 3:
            raise EstimatorError("need at least 3 records")
        q_a, q1, q0 = evaluate_nuisances(scaled, nuisances)
        self.raw, self.scaled, self.scale, self.nuisances = raw, scaled, scale, nuisances
        self.n = scaled.n
        self.p2 = scaled.phase2
        self.delta = scaled.delta.astype(float)
        self.y2 = scaled.y[self.p2]
        self.a2 = scaled.a[self.p2]
        self.pi0 = nuisances.pi
        self.wts0 = 1.0 / self.pi0[self.p2]
        self.g1 = nuisances.g1
        self.h2 = clever_covariate(self.a2, self.g1)
        self.h1 = 1.0 / self.g1
        self.h0 = -1.0 / (1.0 - self.g1)
        self.q_a0, self.q10, self.q00 = q_a, q1, q0
        self.design = MbarDesign(scaled)
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
        return fit_mbar(self.scaled, values2, design=self.design)

    def fluctuate_q(self, q_a, q1, q0, pi):
        """One weighted logistic targeting step of the outcome regression."""
        fit = fit_fluctuation(self.y2, logit(q_a, P_MIN), self.h2, w=1.0 / pi[self.p2])
        eps = fit.epsilon
        if eps != 0.0:
            q_a = expit(logit(q_a, P_MIN) + eps * self.h2)
            q1 = expit(logit(q1, P_MIN) + eps * self.h1)
            q0 = expit(logit(q0, P_MIN) + eps * self.h0)
        return q_a, q1, q0, fit

    def fluctuate_pi(self, pi, m):
        """One logistic targeting step of the sampling mechanism along m/pi,
        truncated to the nuisance set's bounds."""
        cov = m / pi
        fit = fit_fluctuation(self.delta, logit(pi, P_MIN), cov)
        lo, hi = self.nuisances.trunc_pi
        return np.clip(expit(logit(pi, P_MIN) + fit.epsilon * cov), lo, hi)


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


def estimate_aipcw(ctx: FittedContext,
                   options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Augmented IPCW: the closed-form solution of 0 = P_n D at the initial fit."""
    dbar2 = ctx.dbar(ctx.q_a0, ctx.q10, ctx.q00)
    mbar = ctx.mbar_all(dbar2)
    pi = ctx.pi0
    psi = float(
        np.sum(dbar2 / pi[ctx.p2]) / ctx.n
        - np.sum(mbar * (ctx.delta - pi) / pi) / ctx.n
    )
    d = observed_eic(dbar2, mbar, pi, psi, ctx.p2, ctx.delta)
    return _result("aipcw", psi, d, ctx.n, 0, True,
                   details={"mbar": mbar, "dbar2": dbar2})


def estimate_eee(ctx: FittedContext,
                 options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Targets the conditional-EIC regression with a weighted intercept shift,
    then averages the targeted regression over all records."""
    dbar2 = ctx.dbar(ctx.q_a0, ctx.q10, ctx.q00)
    mbar = ctx.mbar_all(dbar2)
    zeta = float((ctx.wts0 @ (dbar2 - mbar[ctx.p2])) / ctx.wts0.sum())
    mbar_star = mbar + zeta
    psi = float(np.mean(mbar_star))
    d = observed_eic(dbar2, mbar_star, ctx.pi0, psi, ctx.p2, ctx.delta)
    return _result("eee", psi, d, ctx.n, 0, True,
                   details={"zeta": zeta, "mbar_star": mbar_star, "dbar2": dbar2})


# ---------------------------------------------------------------------------
# IPCW-TMLE family
# ---------------------------------------------------------------------------


def estimate_ipcw_tmle(ctx: FittedContext,
                       options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Single weighted logistic targeting of the outcome regression."""
    q_a, q1, q0, fit = ctx.fluctuate_q(ctx.q_a0, ctx.q10, ctx.q00, ctx.pi0)
    psi = ctx.hajek_plugin(q1, q0, ctx.pi0)
    dbar2 = ctx.dbar(q_a, q1, q0)
    mbar = ctx.mbar_all(dbar2)
    d = observed_eic(dbar2, mbar, ctx.pi0, psi, ctx.p2, ctx.delta)
    weighted_fulldata_score = float(np.sum((dbar2 - psi) * ctx.wts0) / ctx.n)
    return _result(
        "ipcw_tmle", psi, d, ctx.n, 1, fit.converged,
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


def _iterative_ipcw_tmle(ctx, options, use_raking: bool, estimator_id: str) -> EstimateResult:
    """Alternate outcome targeting and sampling-mechanism targeting until the
    empirical EIC mean is below threshold.

    The sampling mechanism is updated either by a logistic fluctuation with
    the conditional-EIC clever covariate, or (use_raking) by calibrating the
    inverse-probability weights so the same score equation holds exactly.
    options.mode == "linearized" reuses two regressions (level and slope of
    the fluctuated full-data EIC) per outer iteration instead of refitting.
    """
    pi = ctx.pi0.copy()
    q_a, q1, q0 = ctx.q_a0.copy(), ctx.q10.copy(), ctx.q00.copy()
    linearized = options.mode == "linearized"
    best: _LoopState | None = None
    n_outer = 0
    converged = False
    epsilons: list[float] = []
    rake_last: RakeSolution | None = None

    for k in range(options.max_outer_iter + 1):
        dbar2 = ctx.dbar(q_a, q1, q0)
        psi = ctx.hajek_plugin(q1, q0, pi)
        m_level = ctx.mbar_all(dbar2)
        if linearized:
            m_slope = ctx.mbar_all(linearized_slope_values(ctx.a2, ctx.g1, q_a, q1, q0))
        d = observed_eic(dbar2, m_level, pi, psi, ctx.p2, ctx.delta)
        pnd = float(abs(np.mean(d)))
        s_n = _threshold(d, ctx.n)
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
        q_a, q1, q0, fit = ctx.fluctuate_q(q_a, q1, q0, pi)
        epsilons.append(fit.epsilon)
        psi_new = ctx.hajek_plugin(q1, q0, pi)
        if linearized:
            m_new = m_level + fit.epsilon * m_slope
        else:
            m_new = ctx.mbar_all(ctx.dbar(q_a, q1, q0))
        m_centered = m_new - psi_new

        # sampling-mechanism targeting
        if use_raking:
            rake_last = rake_weights(m_centered, pi, ctx.delta)
            if not rake_last.converged:
                # uncalibrated weights would leave the score equation unsolved
                break
            pi = rake_last.pi_star
        else:
            pi = ctx.fluctuate_pi(pi, m_centered)
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
    res = _result(estimator_id, final.psi, final.d, ctx.n, n_outer, converged, details)
    # keep the threshold the loop actually used
    return replace(res, s_n=final.s_n)


def estimate_ipcw_tmle_target_pi(ctx: FittedContext,
                                 options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    return _iterative_ipcw_tmle(ctx, options, use_raking=False,
                                estimator_id="ipcw_tmle_target_pi")


def estimate_ipcw_tmle_rake_pi(ctx: FittedContext,
                               options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    return _iterative_ipcw_tmle(ctx, options, use_raking=True,
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

    def grid(self):
        """Quadrature nodes (weight, shift) approximating the conditional law
        of the phase-2 covariates: each node draws mean + shift, the same
        shift on every row."""
        d2 = self.mean.shape[1]
        if d2 > _GH_MAX_DIM:
            yield 1.0, np.zeros(d2)
            return
        for combo in itertools.product(range(len(_GH_NODES)), repeat=d2):
            weight = float(np.prod(_GH_WEIGHTS[list(combo)]))
            yield weight, self.sd * _GH_NODES[list(combo)]


def _fit_imputation(ctx: FittedContext) -> _ImputationModel:
    ds, p2, design = ctx.scaled, ctx.p2, ctx.design
    mean = np.zeros((ds.n, ds.d_w2))
    sd = np.zeros(ds.d_w2)
    dof = max(1, len(p2) - design.x2.shape[1])
    for j in range(ds.d_w2):
        mean[:, j] = design.fit(ds.w2[p2, j])
        resid = ds.w2[p2, j] - mean[p2, j]
        sd[j] = float(np.sqrt(resid @ resid / dof))
    return _ImputationModel(mean=mean, sd=sd)


class _CensusModel:
    """Weighted main-term working model of y on (a, w1, w2) with its
    influence-value machinery.

    Influence values are exact on phase-2 rows; on censored rows they are
    conditional expectations under the normal linear imputation model,
    computed by Gauss-Hermite quadrature (the deterministic counterpart of
    averaging over imputation draws)."""

    def __init__(self, ctx: FittedContext, imputation: _ImputationModel | None,
                 wts2: np.ndarray, family: str):
        ds, p2 = ctx.scaled, ctx.p2
        Xp, Xp1, Xp0 = aw_designs(ds, p2)
        self.fit = fit_glm(Xp, ctx.y2, w=wts2, family=family)
        q_a2, q12, q02 = (self.fit.predict(Z) for Z in (Xp, Xp1, Xp0))
        if family == "bernoulli":
            j_a, j1, j0 = q_a2 * (1 - q_a2), q12 * (1 - q12), q02 * (1 - q02)
        else:
            j_a = j1 = j0 = np.ones(len(p2))
        wn = wts2 / wts2.sum()
        info = (Xp * (wn * j_a)[:, None]).T @ Xp
        grad = (j1[:, None] * Xp1 - j0[:, None] * Xp0).T @ wn
        alpha = np.linalg.solve(info, grad)
        self.psi_plugin = float(wn @ (q12 - q02))

        u = np.empty(ds.n)
        u[p2] = (Xp @ alpha) * (ctx.y2 - q_a2) + (q12 - q02)
        censored = np.flatnonzero(ds.delta == 0)
        if len(censored):
            # a node moves w2 by one shift on every censored row, so it moves
            # each linear predictor by one scalar: build the design once, at
            # the imputation mean, and add the scalars node by node
            beta = self.fit.coefficients
            w2 = slice(2 + ds.d_w1, None)
            if imputation is None:  # no phase-2 covariates: nothing to impute
                X, X1, X0 = aw_designs(ds, censored)
                nodes = [(1.0, np.zeros(ds.d_w2))]
            else:
                X, X1, X0 = aw_designs(ds, censored, imputation.mean[censored])
                nodes = imputation.grid()
            eta, eta1, eta0 = X @ beta, X1 @ beta, X0 @ beta
            xa, y = X @ alpha, ds.y[censored]
            acc = np.zeros(len(censored))
            for weight, shift in nodes:
                sb, sa = shift @ beta[w2], shift @ alpha[w2]
                q_a, q1, q0 = (self.fit.mean(e + sb) for e in (eta, eta1, eta0))
                acc += weight * ((xa + sa) * (y - q_a) + (q1 - q0))
            u[censored] = acc
        self.u_uncentered = u

    def influence(self, psi: float) -> np.ndarray:
        return self.u_uncentered - psi


def estimate_raking(ctx: FittedContext,
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
    ds = ctx.scaled
    family = "bernoulli" if ds.y_kind == "binary" else "gaussian"
    has_censored = len(ctx.p2) < ds.n and ds.d_w2 > 0
    imputation = _fit_imputation(ctx) if has_censored else None

    prelim = _CensusModel(ctx, imputation, ctx.wts0, family)
    h = prelim.influence(prelim.psi_plugin)
    rake = rake_weights(h, ctx.pi0, ctx.delta)
    wts1 = 1.0 / rake.pi_star[ctx.p2]

    final = _CensusModel(ctx, imputation, wts1, family)
    psi = final.psi_plugin
    infl = final.influence(psi)
    converged = rake.converged and final.fit.converged
    return _result(
        "raking", psi, infl, ctx.n, rake.n_iter, converged,
        details={"rake": rake, "pi_star": rake.pi_star, "psi_prelim": prelim.psi_plugin,
                 "calibration_values": h, "working_fit": final.fit},
    )


# ---------------------------------------------------------------------------
# quasi plug-in solver
# ---------------------------------------------------------------------------


def estimate_quasi_tmle(ctx: FittedContext,
                        options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Joint solve of the outcome fluctuation and a weighted shift of the
    conditional-EIC regression, constrained so the reported value is the
    plug-in of the fluctuated outcome regression.

    The shift coefficient is eliminated via the plug-in constraint, leaving
    a one-dimensional root problem in the fluctuation coefficient, solved
    by the secant method with a bracketed bisection fallback.
    """
    pn_dpi = float(ctx.wts0.sum() / ctx.n)  # P_n{delta/pi}
    pn_dpi2 = float((ctx.wts0**2).sum() / ctx.n)  # P_n{delta/pi^2}
    lq_a = logit(ctx.q_a0, P_MIN)
    lq1 = logit(ctx.q10, P_MIN)
    lq0 = logit(ctx.q00, P_MIN)
    linearized = options.mode == "linearized"
    if linearized:
        m_level = ctx.mbar_all(ctx.dbar(ctx.q_a0, ctx.q10, ctx.q00))
        m_slope = ctx.mbar_all(
            linearized_slope_values(ctx.a2, ctx.g1, ctx.q_a0, ctx.q10, ctx.q00))
    n_evals = 0

    def model_at(eps: float):
        nonlocal n_evals
        n_evals += 1
        q_a = expit(lq_a + eps * ctx.h2)
        q1 = expit(lq1 + eps * ctx.h1)
        q0 = expit(lq0 + eps * ctx.h0)
        dbar2 = ctx.dbar(q_a, q1, q0)
        if linearized:
            m_all = m_level + eps * m_slope
        else:
            m_all = ctx.mbar_all(dbar2)
        psi_plug = ctx.hajek_plugin(q1, q0, ctx.pi0)
        gamma = (psi_plug - float(np.mean(m_all))) / pn_dpi
        score = float(ctx.wts0 @ (dbar2 - m_all[ctx.p2]) / ctx.n) - gamma * pn_dpi2
        return score, (q1, q0, dbar2, m_all, psi_plug, gamma)

    def score_fn(eps: float) -> float:
        return model_at(eps)[0]

    # warm start from the plain weighted fluctuation
    warm = fit_fluctuation(ctx.y2, lq_a, ctx.h2, w=ctx.wts0)
    x1 = warm.epsilon if warm.epsilon != 0.0 else 1e-3
    res = secant(score_fn, 0.0, x1, ROOT_TOL)
    if not res.converged:
        res = bisect(score_fn, np.linspace(-10.0, 10.0, 81), ROOT_TOL)
        if res is None or not res.converged:
            raise EstimatorError("plug-in fluctuation solve failed: no root in [-10, 10]")

    eps = float(res.x)
    score, (q1, q0, dbar2, m_all, psi_plug, gamma) = model_at(eps)
    psi = psi_plug  # plug-in identity: P_n targeted regression equals this
    mbar_star = m_all.copy()
    mbar_star[ctx.p2] += gamma * ctx.wts0
    d = observed_eic(dbar2, mbar_star, ctx.pi0, psi, ctx.p2, ctx.delta)
    return _result(
        "quasi_tmle", psi, d, ctx.n, n_evals, True,
        details={"epsilon": eps, "gamma": gamma, "q1": q1, "q0": q0,
                 "psi_plug": psi_plug, "mbar_star": mbar_star},
    )


# ---------------------------------------------------------------------------
# TMLE under the alternative parameter representation
# ---------------------------------------------------------------------------


def _fit_bounded_regression(ctx: FittedContext, values2: np.ndarray) -> np.ndarray:
    """Bernoulli-family regression of (0,1)-valued phase-2 values on phase-1
    features, predicted on all rows; keeps predictions inside (0,1) for the
    subsequent logit-offset fluctuation."""
    resp = np.clip(values2, P_MIN, 1.0 - P_MIN)
    fit = fit_glm(ctx.design.x2, resp, family="bernoulli")
    return fit.predict(ctx.design.x_all)


def estimate_tmle_alt(ctx: FittedContext,
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
    pi = ctx.pi0.copy()
    q_a, q1, q0 = ctx.q_a0.copy(), ctx.q10.copy(), ctx.q00.copy()
    n_outer = 0
    converged = False
    final = None
    # resid2 and its regression r_all depend only on q_a, so they are
    # refitted only after the Q fluctuation moves it
    resid2 = ctx.h2 * (ctx.y2 - q_a)
    r_all = ctx.mbar_all(resid2)

    for _round in range(3):
        # alternate Q / sampling-mechanism targeting; the first pass is
        # mandatory (the threshold governs iteration, not whether to target)
        for k in range(options.max_outer_iter + 1):
            # outcome + sampling components: the EIC of the residual part alone
            d_qpi = observed_eic(resid2, r_all, pi, 0.0, ctx.p2, ctx.delta)
            pnd = float(abs(np.mean(d_qpi)))
            s_n_loop = _threshold(d_qpi, ctx.n)
            first_pass = k == 0 and _round == 0 and n_outer == 0
            if (pnd <= s_n_loop and not first_pass) or k == options.max_outer_iter:
                break
            q_a, q1, q0, _fit = ctx.fluctuate_q(q_a, q1, q0, pi)
            resid2 = ctx.h2 * (ctx.y2 - q_a)
            r_all = ctx.mbar_all(resid2)
            pi = ctx.fluctuate_pi(pi, r_all)
            n_outer += 1

        # conditional arm-regression targeting (phase-2 fit, covariate 1/pi)
        inv_pi = 1.0 / pi
        m_star = {}
        for arm, q_arm in ((1, q1), (0, q0)):
            m_all = _fit_bounded_regression(ctx, q_arm)
            gfit = fit_fluctuation(np.clip(q_arm, P_MIN, 1.0 - P_MIN),
                                   logit(m_all[ctx.p2], P_MIN), inv_pi[ctx.p2])
            m_star[arm] = expit(logit(m_all, P_MIN) + gfit.epsilon * inv_pi)
        contrast_all = m_star[1] - m_star[0]
        psi = float(np.mean(contrast_all))

        d_q, d_pi, d_gamma, d_pv = eic_components(resid2, r_all, q1 - q0, contrast_all,
                                                  pi, psi, ctx.p2, ctx.delta)
        d = d_q + d_pi + d_gamma + d_pv
        final = (psi, d, m_star)
        if abs(np.mean(d)) <= _threshold(d, ctx.n):
            converged = True
            break

    psi, d, m_star = final
    return _result(
        "tmle_alt", psi, d, ctx.n, n_outer, converged,
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


def fit_context(ds: Dataset, nuisance: NuisanceConfig | None = None) -> FittedContext:
    """Scale the outcome, fit the nuisances, evaluate them and build the
    phase-1 design, once for every estimator run on ds.

    A failed fit raises EstimatorError("nuisance fitting failed: ...").
    """
    scaled, scale = scale_outcome(ds)
    try:
        ns = fit_nuisances(scaled, nuisance)
    except (NuisanceError, GlmError) as exc:
        raise EstimatorError(f"nuisance fitting failed: {exc}") from exc
    try:
        return FittedContext(ds, scaled, scale, ns)
    except (NuisanceError, GlmError) as exc:
        raise EstimatorError(f"nuisance evaluation failed: {exc}") from exc


def run_estimator(
    ds: Dataset,
    estimator_id: str,
    nuisance: NuisanceConfig | FittedContext | None = None,
    options: EstimatorOptions = DEFAULT_OPTIONS,
) -> EstimateResult:
    """Scale the outcome, fit nuisances, estimate, unscale.

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
        res = _DISPATCH[estimator_id](ctx, options)
    except (NuisanceError, GlmError) as exc:
        raise EstimatorError(f"{estimator_id} failed: {exc}") from exc
    return _unscale(res, ctx.scale)


def run_roster(
    ds: Dataset,
    roster: Sequence[tuple[str, EstimatorOptions]],
    nuisance: NuisanceConfig | None = None,
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
