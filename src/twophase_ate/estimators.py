"""Eight ATE estimators for two-phase designs, plus the raking calibration solver.

Every estimator takes a `FittedContext` (one dataset with its outcome
scaled onto [0, 1] and its nuisances fitted and evaluated on it), targets
on the scaled outcome, and reports a point estimate, influence-curve
standard error, Wald interval and score-solving diagnostics mapped back to
the raw outcome scale. `FittedContext(ds)` builds the context once per
dataset; `run_estimator` runs one estimator on it, and `run_roster` runs
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
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .data_model import Dataset, _as_integer, scale_outcome
from .eic import (
    clever_covariate,
    eic_components,
    eic_variance,
    evaluate_nuisances,
    fulldata_eic_values,
    linearized_slope_values,
    observed_eic,
)
from .glm import P_MIN, GlmError, _cho_solve, _factor_spd, expit, fit_fluctuation, fit_glm, logit
from .nuisance import (
    TRUNC_PI_DEFAULT,
    MbarDesign,
    NuisanceConfig,
    NuisanceError,
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
    "run_estimator",
    "run_roster",
    "ESTIMATOR_IDS",
    "FULL_EIC_SOLVERS",
    "OPTIONS_READ",
]

ROOT_TOL = 1e-10  # quasi_tmle's plug-in root solve
_EIC_MODES = ("refit", "linearized")  # handling of the EIC regression; the first is the default


class EstimatorError(RuntimeError):
    """An estimator could not produce a usable estimate."""


@dataclass(frozen=True)
class EstimatorOptions:
    max_outer_iter: int = 50
    mode: str = _EIC_MODES[0]

    def __post_init__(self):
        object.__setattr__(self, "max_outer_iter",
                           _as_integer("max_outer_iter", self.max_outer_iter, 0))
        if self.mode not in _EIC_MODES:
            raise ValueError(f"mode must be {'|'.join(_EIC_MODES)}, got {self.mode!r}")


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


def _result(ctx: FittedContext, estimator_id, psi, d_obs, n_outer, converged) -> EstimateResult:
    """The reported values of an estimate made on ctx's scaled outcome, on
    the raw outcome scale. The ATE is a difference of outcome means, so
    only the outcome span enters the back-transformation."""
    var = eic_variance(d_obs, psi)
    s = ctx.scale.span
    return EstimateResult(
        estimator_id=estimator_id,
        psi_hat=float(psi) * s,
        se=var.se * s,
        ci95=(var.ci_lo * s, var.ci_hi * s),
        eic_mean_abs=float(abs(np.mean(d_obs))) * s,
        n_outer_iterations=int(n_outer),
        converged=bool(converged),
        s_n=_threshold(d_obs) * s,
    )


def _threshold(d_obs: np.ndarray) -> float:
    n = len(d_obs)
    return float(np.std(d_obs, ddof=1) / (np.sqrt(n) * np.log(n)))


def _read_only(*values) -> tuple:
    """values as a tuple, with every array among them made read-only."""
    for v in values:
        if isinstance(v, np.ndarray):
            v.flags.writeable = False
    return values


# ---------------------------------------------------------------------------
# shared per-dataset state
# ---------------------------------------------------------------------------


class FittedContext:
    """One dataset made ready for any number of estimators.

    `FittedContext(raw, nuisance)` maps the outcome of `raw` onto [0, 1]
    (`scaled`, by `scale`), fits the nuisance set `nuisances` on `scaled` as
    the `NuisanceConfig` says, and evaluates it there: pi0 on every record,
    the rest on the phase-2 rows (wts0 = 1/pi0 there). `trunc_pi` bounds the
    sampling mechanism again after it is targeted. Every estimator on the
    dataset shares the arrays, so they are read-only. A failed fit raises
    EstimatorError("nuisance fitting failed: ...").

    Four steps that several estimators begin with are built at most once,
    on first use, and read-only like the arrays: `start`, `start_slope`,
    `first_q` and `first_eic`. A step that raises is not kept, so it raises
    again in every estimator that reads it.
    """

    def __init__(self, raw: Dataset, nuisance: NuisanceConfig | None = None):
        scaled, scale = scale_outcome(raw)
        try:
            nuisances = fit_nuisances(scaled, nuisance)
        except (NuisanceError, GlmError) as exc:
            raise EstimatorError(f"nuisance fitting failed: {exc}") from exc
        q_a, q1, q0 = evaluate_nuisances(scaled, nuisances)
        self.raw, self.scaled, self.scale, self.nuisances = raw, scaled, scale, nuisances
        self.trunc_pi = TRUNC_PI_DEFAULT if nuisance is None else nuisance.trunc_pi
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

    @cached_property
    def start(self):
        """(dbar2, its regression) at the initial outcome fit."""
        dbar2 = self.dbar(self.q_a0, self.q10, self.q00)
        return _read_only(dbar2, self.mbar_all(dbar2))

    @cached_property
    def start_slope(self):
        """The regression of the linearized EIC slope at the initial outcome fit."""
        slope2 = linearized_slope_values(self.a2, self.g1, self.q_a0, self.q10, self.q00)
        return _read_only(self.mbar_all(slope2))[0]

    @cached_property
    def first_q(self):
        """(q_a, q1, q0, fit) after one outcome fluctuation at (Q0, pi0)."""
        return _read_only(*self.fluctuate_q(self.q_a0, self.q10, self.q00, self.pi0))

    @cached_property
    def first_eic(self):
        """`eic_at` the outcome fit of `first_q` and pi0."""
        q_a, q1, q0, _ = self.first_q
        return _read_only(*self.eic_at(q_a, q1, q0, self.pi0))

    def dbar(self, q_a, q1, q0) -> np.ndarray:
        return fulldata_eic_values(self.y2, self.h2, q_a, q1, q0)

    def eic_at(self, q_a, q1, q0, pi):
        """(psi, dbar2, its regression) at an outcome fit and sampling
        mechanism, psi being the Hajek plug-in."""
        dbar2 = self.dbar(q_a, q1, q0)
        return self.hajek_plugin(q1, q0, pi), dbar2, self.mbar_all(dbar2)

    def hajek_plugin(self, q1, q0, pi) -> float:
        w = 1.0 / pi[self.p2]
        return float((w @ (q1 - q0)) / w.sum())

    def mbar_all(self, values2: np.ndarray) -> np.ndarray:
        """Regression of phase-2 values on phase-1 features, predicted on all rows."""
        return fit_mbar(self.scaled, values2, design=self.design)

    def fluctuate_q(self, q_a, q1, q0, pi):
        """One weighted logistic targeting step of the outcome regression."""
        lq_a = logit(q_a, P_MIN)
        fit = fit_fluctuation(self.y2, lq_a, self.h2, w=1.0 / pi[self.p2])
        eps = fit.epsilon
        if eps != 0.0:
            q_a = expit(lq_a + eps * self.h2)
            q1 = expit(logit(q1, P_MIN) + eps * self.h1)
            q0 = expit(logit(q0, P_MIN) + eps * self.h0)
        return q_a, q1, q0, fit

    def fluctuate_pi(self, pi, m):
        """One logistic targeting step of the sampling mechanism along m/pi,
        truncated to the context's bounds."""
        cov = m / pi
        lpi = logit(pi, P_MIN)
        fit = fit_fluctuation(self.delta, lpi, cov)
        lo, hi = self.trunc_pi
        return np.clip(expit(lpi + fit.epsilon * cov), lo, hi)


# ---------------------------------------------------------------------------
# raking calibration solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RakeSolution:
    """Exponential-tilting calibration of inverse-probability weights.

    a holds per-record scale factors exp(-lambda * m_i) (positive by
    construction); pi_star = pi / a is the calibrated sampling mechanism.
    A solve whose pi_star or 1/pi_star leaves the positive floats (raking an
    already raked pi can overflow or underflow) is not converged.
    """

    lam: float
    a: np.ndarray
    pi_star: np.ndarray
    constraint_residual: float
    n_iter: int
    converged: bool


def _usable(pi: np.ndarray) -> bool:
    """Whether every pi is positive and both pi and 1/pi are finite."""
    with np.errstate(divide="ignore", over="ignore"):
        return bool(np.isfinite(pi).all() and np.isfinite(1.0 / pi).all() and (pi > 0).all())


@np.errstate(over="ignore", invalid="ignore")
def rake_weights(mbar: np.ndarray, pi: np.ndarray, delta: np.ndarray,
                 tol: float = 1e-8, max_iter: int = 100,
                 target: float | None = None) -> RakeSolution:
    """Calibrate weights 1/pi on phase-2 rows to reproduce the full-sample
    total of mbar, by Newton-Raphson on the scalar dual.

    Solves 0 = sum_{delta=1} exp(-lam*m_i)*m_i/pi_i - target starting from
    lam=0, stopping when the constraint residual drops below tol. The
    default target is sum_all m_i; rescaling the weights and the target by
    a common factor rescales the whole equation and leaves lam unchanged.
    Tiny pi can take the constraint or its slope past the floats; Newton
    stops there, and the bisection fallback finds no root where the
    constraint is not a number, so such a solve is not converged.
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
        pi_star = pi / a
        return RakeSolution(lam=float(lam), a=a, pi_star=pi_star, constraint_residual=F(lam),
                            n_iter=n_iter, converged=converged and _usable(pi_star))

    f0 = F(0.0)
    if abs(f0) <= tol:
        return solution(0.0, 0, True)
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
    dbar2, mbar = ctx.start
    pi = ctx.pi0
    psi = float(
        np.sum(dbar2 / pi[ctx.p2]) / ctx.n
        - np.sum(mbar * (ctx.delta - pi) / pi) / ctx.n
    )
    d = observed_eic(dbar2, mbar, pi, psi, ctx.p2, ctx.delta)
    return _result(ctx, "aipcw", psi, d, 0, True)


def estimate_eee(ctx: FittedContext,
                 options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Targets the conditional-EIC regression with a weighted intercept shift,
    then averages the targeted regression over all records."""
    dbar2, mbar = ctx.start
    zeta = float((ctx.wts0 @ (dbar2 - mbar[ctx.p2])) / ctx.wts0.sum())
    mbar_star = mbar + zeta
    psi = float(np.mean(mbar_star))
    d = observed_eic(dbar2, mbar_star, ctx.pi0, psi, ctx.p2, ctx.delta)
    return _result(ctx, "eee", psi, d, 0, True)


# ---------------------------------------------------------------------------
# IPCW-TMLE family
# ---------------------------------------------------------------------------


def estimate_ipcw_tmle(ctx: FittedContext,
                       options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Single weighted logistic targeting of the outcome regression."""
    psi, dbar2, mbar = ctx.first_eic
    d = observed_eic(dbar2, mbar, ctx.pi0, psi, ctx.p2, ctx.delta)
    return _result(ctx, "ipcw_tmle", psi, d, 1, ctx.first_q[3].converged)


def _target(state, monitor, step, max_iter: int):
    """The one targeting loop: evaluate the monitored EIC of state, stop once
    |P_n D| <= s_n, else step to the next state.

    monitor(state) gives (psi, d), d on all n records; step(state) gives the
    next state, or None when the update failed, which ends the loop. The
    first pass steps whatever |P_n D| is: the threshold governs iteration,
    not whether to target at all. At most max_iter steps are taken. Returns
    the last pass's (state, psi, d), the stepped pass with the smallest
    |P_n D| (None if no step was taken), the number of steps taken and
    whether the threshold was met.
    """
    best, best_pnd = None, None
    for k in itertools.count():
        psi, d = monitor(state)
        pnd = float(abs(np.mean(d)))
        if k > 0 and (best is None or pnd < best_pnd):
            best, best_pnd = (state, psi, d), pnd
        if k > 0 and pnd <= _threshold(d):
            return (state, psi, d), best, k, True
        nxt = step(state) if k < max_iter else None
        if nxt is None:
            return (state, psi, d), best, k, False
        state = nxt


def _iterative_ipcw_tmle(ctx, options, use_raking: bool, estimator_id: str) -> EstimateResult:
    """Alternate outcome targeting and sampling-mechanism targeting until the
    empirical EIC mean is below threshold; a run that does not get there
    reports its stepped pass with the smallest |P_n D|.

    The sampling mechanism is updated either by a logistic fluctuation with
    the conditional-EIC clever covariate, or (use_raking) by calibrating the
    inverse-probability weights so the same score equation holds exactly.
    options.mode == "linearized" updates the sampling mechanism along the
    level regression plus epsilon times a slope regression, both fitted at
    the current outcome fit, instead of regressing the fluctuated full-data
    EIC; it still refits the level regression once per pass, for the next.
    """
    linearized = options.mode == "linearized"

    def monitor(state):  # state: q_a, q1, q0, pi, dbar2, its regression
        _, q1, q0, pi, dbar2, m_level = state
        psi = ctx.hajek_plugin(q1, q0, pi)
        return psi, observed_eic(dbar2, m_level, pi, psi, ctx.p2, ctx.delta)

    def step(state):
        q_a, q1, q0, pi, _, m_level = state
        if linearized:  # the slope at the current fit; at (Q0, pi0) the context's shared one
            m_slope = ctx.start_slope if state is start else ctx.mbar_all(
                linearized_slope_values(ctx.a2, ctx.g1, q_a, q1, q0))
        # outcome targeting at the current weights; the first step, from
        # (Q0, pi0), is the context's shared one
        if state is start:
            (q_a, q1, q0, fit), (psi, dbar2, m_dbar) = ctx.first_q, ctx.first_eic
        else:
            q_a, q1, q0, fit = ctx.fluctuate_q(q_a, q1, q0, pi)
            psi, dbar2, m_dbar = ctx.eic_at(q_a, q1, q0, pi)
        # refit mode moves pi along the regression of dbar2; the linearized
        # step only approximates it, and the next pass needs it in both modes
        m_new = m_level + fit.epsilon * m_slope if linearized else m_dbar
        # sampling-mechanism targeting
        if use_raking:
            rake = rake_weights(m_new - psi, pi, ctx.delta)
            if not rake.converged:
                return None  # uncalibrated weights would leave the score equation unsolved
            pi = rake.pi_star
        else:
            pi = ctx.fluctuate_pi(pi, m_new - psi)
        return q_a, q1, q0, pi, dbar2, m_dbar

    start = (ctx.q_a0, ctx.q10, ctx.q00, ctx.pi0, *ctx.start)
    last, best, n_outer, converged = _target(start, monitor, step, options.max_outer_iter)
    _, psi, d = last if converged or best is None else best
    return _result(ctx, estimator_id, psi, d, n_outer, converged)


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


def _imputation(ctx: FittedContext, censored: np.ndarray):
    """The weight-independent half of the censored rows' influence values:
    their designs [1, a, w1, w2] at the mean of a normal linear model of each
    phase-2 covariate given the phase-1 features, and quadrature nodes for
    that model's law of w2: weights (k,) and shifts (k, d2), each node moving
    every row by the same shift."""
    ds, p2, design = ctx.scaled, ctx.p2, ctx.design
    mean = np.zeros((len(censored), ds.d_w2))
    sd = np.zeros(ds.d_w2)
    dof = max(1, len(p2) - design.x2.shape[1])
    for j in range(ds.d_w2):
        fitted = design.fit(ds.w2[p2, j])
        mean[:, j] = fitted[censored]
        resid = ds.w2[p2, j] - fitted[p2]
        sd[j] = float(np.sqrt(resid @ resid / dof))
    designs = aw_designs(ds, censored, mean)
    if ds.d_w2 > _GH_MAX_DIM:
        return designs, np.ones(1), np.zeros((1, ds.d_w2))
    # with d2 = 0 this is the single empty node: weight 1, no shift
    combos = np.array(list(itertools.product(range(_GH_NODES.size), repeat=ds.d_w2)), dtype=np.intp)
    return designs, np.prod(_GH_WEIGHTS[combos], axis=1), sd * _GH_NODES[combos]


def _working_model(ctx: FittedContext, designs2, censored: np.ndarray, imputed,
                   wts2: np.ndarray, family: str, fitted=None):
    """Weighted main-term working model of y on (a, w1, w2): its fit, its
    weighted treatment contrast and its uncentered influence values.
    `fitted`, when given, is that fit at wts2 with its predictions on
    designs2, which are then not refitted.

    Influence values are exact on phase-2 rows; on censored rows they are
    conditional expectations under the imputation model of `_imputation`,
    computed by Gauss-Hermite quadrature (the deterministic counterpart of
    averaging over imputation draws)."""
    ds, p2 = ctx.scaled, ctx.p2
    Xp, Xp1, Xp0 = designs2
    if fitted is None:
        fit = fit_glm(Xp, ctx.y2, w=wts2, family=family)
        fitted = fit, [fit.predict(Z) for Z in designs2]
    fit, (q_a2, q12, q02) = fitted
    if family == "bernoulli":
        j_a, j1, j0 = q_a2 * (1 - q_a2), q12 * (1 - q12), q02 * (1 - q02)
    else:
        j_a = j1 = j0 = np.ones(len(p2))
    wn = wts2 / wts2.sum()
    info = (Xp * (wn * j_a)[:, None]).T @ Xp
    grad = (j1[:, None] * Xp1 - j0[:, None] * Xp0).T @ wn
    # a phase-2 covariate constant at zero leaves info singular; the
    # ridge retry then gives that column alpha = 0
    alpha = _cho_solve(_factor_spd(info)[0], grad)

    u = np.empty(ds.n)
    u[p2] = (Xp @ alpha) * (ctx.y2 - q_a2) + (q12 - q02)
    # a node moves w2 by one shift on every censored row, so it moves each
    # linear predictor by one scalar: the designs are built once, at the
    # imputation mean, and every node is evaluated as one row of a
    # (nodes x censored) block
    (X, X1, X0), weights, shifts = imputed
    beta = fit.coefficients
    w2 = slice(2 + ds.d_w1, None)
    # one dot product per node, as a column: a single matrix-vector
    # product would round differently
    sb = np.array([[shift @ beta[w2]] for shift in shifts])
    sa = np.array([[shift @ alpha[w2]] for shift in shifts])
    q_a, q1, q0 = (fit.mean(Z @ beta + sb) for Z in (X, X1, X0))
    terms = weights[:, None] * ((X @ alpha + sa) * (ds.y[censored] - q_a) + (q1 - q0))
    u[censored] = np.add.reduce(terms, axis=0)  # node by node, in node order
    return fit, float(wn @ (q12 - q02)), u


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
    censored = np.flatnonzero(ds.delta == 0)
    designs2 = aw_designs(ds, ctx.p2)
    imputed = _imputation(ctx, censored)

    # for a binary outcome the working model at the design weights is the
    # outcome regression Q, fitted and evaluated on these rows already
    prelim = (ctx.nuisances.q, (ctx.q_a0, ctx.q10, ctx.q00)) if family == "bernoulli" else None
    _, psi_prelim, u = _working_model(ctx, designs2, censored, imputed, ctx.wts0, family, prelim)
    h = u - psi_prelim
    rake = rake_weights(h, ctx.pi0, ctx.delta)
    pi_star2 = rake.pi_star[ctx.p2]
    if not _usable(pi_star2):
        raise EstimatorError("raking calibration failed: calibrated pi is not finite and positive")
    wts1 = 1.0 / pi_star2

    fit, psi, u = _working_model(ctx, designs2, censored, imputed, wts1, family)
    return _result(ctx, "raking", psi, u - psi, rake.n_iter, rake.converged and fit.converged)


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
        (_, m_level), m_slope = ctx.start, ctx.start_slope
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
        return score, (dbar2, m_all, psi_plug, gamma)

    def score_fn(eps: float) -> float:
        return model_at(eps)[0]

    # warm start from the plain weighted fluctuation, the context's first step
    warm = ctx.first_q[3]
    x1 = warm.epsilon if warm.epsilon != 0.0 else 1e-3
    res = secant(score_fn, 0.0, x1, ROOT_TOL)
    if not res.converged:
        res = bisect(score_fn, np.linspace(-10.0, 10.0, 81), ROOT_TOL)
        if res is None or not res.converged:
            raise EstimatorError("plug-in fluctuation solve failed: no root in [-10, 10]")

    eps = float(res.x)
    # psi is the plug-in, which P_n of the targeted regression equals
    _, (dbar2, m_all, psi, gamma) = model_at(eps)
    mbar_star = m_all.copy()
    mbar_star[ctx.p2] += gamma * ctx.wts0
    d = observed_eic(dbar2, mbar_star, ctx.pi0, psi, ctx.p2, ctx.delta)
    return _result(ctx, "quasi_tmle", psi, d, n_evals, True)


# ---------------------------------------------------------------------------
# TMLE under the alternative parameter representation
# ---------------------------------------------------------------------------


def estimate_tmle_alt(ctx: FittedContext,
                      options: EstimatorOptions = DEFAULT_OPTIONS) -> EstimateResult:
    """Targets, in turn: the outcome regression, the sampling mechanism
    (clever covariate from the conditional residual score), and the two
    conditional arm-regressions; the estimate is the full-sample average of
    the targeted arm-regression contrast.

    The alternation loop monitors the outcome+sampling score components; the
    two conditional-regression fluctuations afterwards zero the remaining
    components, so the full EIC mean is checked before declaring
    convergence. Those fluctuations leave the loop state as it was, so a new
    round (at most three in all) runs only after a round that the step cap
    cut short; a run that does not converge reports its last pass.
    """

    def monitor(state):
        # outcome + sampling components: the EIC of the residual part alone
        _, _, _, pi, resid2, r_all = state
        return 0.0, observed_eic(resid2, r_all, pi, 0.0, ctx.p2, ctx.delta)

    def step(state):
        q_a, q1, q0, pi, _, _ = state
        # the first step, from (Q0, pi0), is the context's shared one
        q_a, q1, q0, _ = ctx.first_q if state is start else ctx.fluctuate_q(q_a, q1, q0, pi)
        # resid2 and its regression r_all depend only on q_a, so they are
        # refitted only after the Q fluctuation moves it
        resid2 = ctx.h2 * (ctx.y2 - q_a)
        r_all = ctx.mbar_all(resid2)
        return q_a, q1, q0, ctx.fluctuate_pi(pi, r_all), resid2, r_all

    resid2 = ctx.h2 * (ctx.y2 - ctx.q_a0)
    state = start = (ctx.q_a0, ctx.q10, ctx.q00, ctx.pi0, resid2, ctx.mbar_all(resid2))
    n_outer = 0
    for _ in range(3):
        (state, _, _), _, steps, met = _target(state, monitor, step, options.max_outer_iter)
        n_outer += steps
        _, q1, q0, pi, resid2, r_all = state

        # conditional arm-regression targeting (phase-2 fit, covariate 1/pi)
        inv_pi = 1.0 / pi
        m_star = {}
        for arm, q_arm in ((1, q1), (0, q0)):
            resp = np.clip(q_arm, P_MIN, 1.0 - P_MIN)
            m_all = fit_glm(ctx.design.x2, resp, family="bernoulli").predict(ctx.design.x_all)
            gfit = fit_fluctuation(resp, logit(m_all[ctx.p2], P_MIN), inv_pi[ctx.p2])
            m_star[arm] = expit(logit(m_all, P_MIN) + gfit.epsilon * inv_pi)
        contrast_all = m_star[1] - m_star[0]
        psi = float(np.mean(contrast_all))

        d_q, d_pi, d_gamma, d_pv = eic_components(resid2, r_all, q1 - q0, contrast_all,
                                                  pi, psi, ctx.p2, ctx.delta)
        d = d_q + d_pi + d_gamma + d_pv
        converged = abs(np.mean(d)) <= _threshold(d)
        if converged or met or steps == 0:  # only a capped round can move the state
            break

    return _result(ctx, "tmle_alt", psi, d, n_outer, converged)


# ---------------------------------------------------------------------------
# front door
# ---------------------------------------------------------------------------

_ALL_OPTIONS = frozenset(f.name for f in fields(EstimatorOptions))

# One row per estimator, in the order of the default roster: its function,
# the EstimatorOptions fields it reads (the others ignore them), and whether
# its construction drives the empirical mean of the full observed-data EIC
# to (near) zero. Plain ipcw_tmle does not target the sampling mechanism and
# raking targets the census parameter, so neither carries the
# |P_n D| <= s_n guarantee.
_ESTIMATORS: dict[str, tuple[Callable, frozenset[str], bool]] = {
    "aipcw": (estimate_aipcw, frozenset(), True),
    "ipcw_tmle": (estimate_ipcw_tmle, frozenset(), False),
    "ipcw_tmle_target_pi": (estimate_ipcw_tmle_target_pi, _ALL_OPTIONS, True),
    "ipcw_tmle_rake_pi": (estimate_ipcw_tmle_rake_pi, _ALL_OPTIONS, True),
    "raking": (estimate_raking, frozenset(), False),
    "eee": (estimate_eee, frozenset(), True),
    "quasi_tmle": (estimate_quasi_tmle, frozenset({"mode"}), True),
    "tmle_alt": (estimate_tmle_alt, frozenset({"max_outer_iter"}), True),
}

ESTIMATOR_IDS = tuple(_ESTIMATORS)
_DISPATCH: dict[str, Callable] = {e: fn for e, (fn, _, _) in _ESTIMATORS.items()}
OPTIONS_READ: dict[str, frozenset[str]] = {e: read for e, (_, read, _) in _ESTIMATORS.items()}
FULL_EIC_SOLVERS = frozenset(e for e, (_, _, full) in _ESTIMATORS.items() if full)


def run_estimator(
    ds: Dataset,
    estimator_id: str,
    nuisance: NuisanceConfig | FittedContext | None = None,
    options: EstimatorOptions = DEFAULT_OPTIONS,
) -> EstimateResult:
    """Run one estimator on ds, reported on the raw outcome scale.

    Pass a `FittedContext(ds)` to reuse its scaling and nuisance fit;
    anything else is handed to `FittedContext` first.
    """
    if estimator_id not in _DISPATCH:
        raise EstimatorError(f"unknown estimator {estimator_id!r}")
    if isinstance(nuisance, FittedContext):
        ctx = nuisance
        if ctx.raw is not ds:
            raise EstimatorError("the fitted context belongs to another dataset")
    else:
        ctx = FittedContext(ds, nuisance)
    try:
        return _DISPATCH[estimator_id](ctx, options)
    except (NuisanceError, GlmError) as exc:
        raise EstimatorError(f"{estimator_id} failed: {exc}") from exc


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
        ctx = FittedContext(ds, nuisance)
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
