"""Data-generating processes, Monte-Carlo study runner, and metrics.

Four benchmark DGPs ship:

  kang_dr         four latent standard normals pushed through nonlinear
                  transforms; main-term models on the observed covariates are
                  misspecified by design, while the sampling and treatment
                  mechanisms are available in closed form for injection.
  missing_rate    four N(1,1) covariates, binary outcome with polynomial and
                  interaction terms; the sampling intercept moves the share
                  of records missing phase-2 covariates (~20/50/70%).
  raking_gap      continuous outcome whose treatment-effect heterogeneity is
                  scaled by gamma, separating the causal contrast from the
                  main-term working-model (census) contrast.
  near_positivity continuous outcome with a 3x-strength treatment mechanism
                  pushing propensities into the 0.01 tails; separates
                  estimators that respect the outcome range from those that
                  can drift with extreme inverse weights.

All randomness flows through counter-based Philox generators keyed by the
spec seed, so identical specs reproduce byte-identical datasets. Run r of a
study uses seed base_seed + r.
"""

from __future__ import annotations

import json
import math
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.special import expit
from scipy.stats import norm

from .data_model import Dataset, default_bounds
from .estimators import ESTIMATOR_IDS, EstimateResult, EstimatorOptions, run_roster
from .glm import fit_glm
from .nuisance import TRUNC_G_DEFAULT, TRUNC_PI_DEFAULT, NuisanceConfig, check_truncation

__all__ = [
    "DgpSpec",
    "TruthRecord",
    "generate",
    "true_psi",
    "census_psi",
    "reference_psi",
    "StudyEstimator",
    "StudySpec",
    "EstimatorRow",
    "SimReport",
    "run_study",
    "write_report_csv",
    "write_sidecar",
    "PINNED_PSI",
    "RAKING_GAP_HET_MEAN",
]

DGP_IDS = ("kang_dr", "missing_rate", "raking_gap", "near_positivity")


@dataclass(frozen=True)
class DgpSpec:
    """One reproducible dataset recipe: which process, how large, which seed."""

    dgp_id: str
    n: int
    seed: int
    missing_intercept: float = 1.1  # missing_rate sampling intercept
    gamma: float = 1.0  # raking_gap heterogeneity scale

    def __post_init__(self):
        if self.dgp_id not in DGP_IDS:
            raise ValueError(f"unknown dgp_id {self.dgp_id!r}; known: {DGP_IDS}")
        if self.n < 1:
            raise ValueError("n must be positive")


@dataclass(frozen=True)
class TruthRecord:
    """Per-row generating truths for one dataset, plus the target value.

    pi0/g0 support known-mechanism injection; the outcome means support
    oracle influence-curve checks.
    """

    psi_true: float
    pi0: np.ndarray
    g0: np.ndarray
    q0_1: np.ndarray
    q0_0: np.ndarray


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# per-unit-gamma mean of the raking_gap heterogeneity term
# E[2.5*1(W2>1) - 2.5*1(W2<0) + 2 sin(W1)] with W1, W2 ~ N(1,1)
RAKING_GAP_HET_MEAN = float(
    2.5 * 0.5 - 2.5 * norm.cdf(-1.0) + 2.0 * math.sin(1.0) * math.exp(-0.5)
)

# Monte-Carlo truths pinned from a 10^7-draw oracle (true_psi with
# n_mc=10_000_000, seed=77_000_001); second entry is the MC standard error.
PINNED_PSI = {
    "kang_dr": (0.2444349849521929, 1.7e-05),
    "missing_rate": (0.25929026694274354, 3.7e-05),
}

# near_positivity has a homogeneous additive effect: exact truth
NEAR_POSITIVITY_EFFECT = 0.5


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _kang_latents(rng, n):
    z = rng.standard_normal((n, 4))
    w = np.column_stack([
        np.exp(z[:, 0] / 2.0),
        z[:, 1] ** 3,
        (z[:, 3] * z[:, 2] / 25.0 + 0.6) ** 3,
        (z[:, 2] + z[:, 3] + 20.0) ** 2,
    ])
    return z, w


def _kang_g(z):
    return expit(-0.2 * z[:, 0] - 0.6 * z[:, 1] + 0.9 * z[:, 3])


def _kang_q(z, a):
    return expit(-1.0 + 0.6 * z[:, 0] - 0.4 * z[:, 1] + 0.2 * z[:, 2]
                 - 0.5 * z[:, 3] + 1.2 * a)


def _kang_pi(z):
    # depends only on (z1, z2), which are invertible functions of the
    # phase-1 covariates: coarsening at random holds by construction
    return expit(-0.1 * z[:, 0] + 0.1 * z[:, 1])


def _mr_covariates(rng, n):
    return rng.standard_normal((n, 4)) + 1.0


def _mr_g(w, strength=1.0):
    return expit(strength * (-0.2 * w[:, 0] - 0.6 * w[:, 1] + 0.2 * w[:, 3]))


def _mr_q(w, a):
    return expit(0.1 * w[:, 0] ** 2 - 0.01 * w[:, 1] ** 3 + 0.2 * w[:, 2]
                 - 0.1 * w[:, 3] + 0.6 * a + 0.5 * a * w[:, 1] ** 2)


def _mr_pi(w1col, y, intercept):
    # phase-1 measurable: first covariate and the outcome only
    return expit(intercept + 0.2 * w1col + 0.2 * y)


def _rg_het(w):
    return (2.5 * (w[:, 1] > 1.0) - 2.5 * (w[:, 1] < 0.0) + 2.0 * np.sin(w[:, 0]))


def _rg_qlin(w):
    return -0.3 + 0.4 * w[:, 0] - 0.4 * w[:, 1] + 0.2 * w[:, 2] - 0.1 * w[:, 3]


def _rg_pi(w1col):
    return expit(0.5 * w1col)


def generate(spec: DgpSpec) -> tuple[Dataset, TruthRecord]:
    """Draw one dataset. Draw order is fixed (covariates, treatment, outcome,
    phase-2 flag) so that a given spec is byte-reproducible."""
    rng = _rng(spec.seed)
    n = spec.n

    if spec.dgp_id == "kang_dr":
        z, w = _kang_latents(rng, n)
        g0 = _kang_g(z)
        a = (rng.random(n) < g0).astype(int)
        q_a = _kang_q(z, a)
        y = (rng.random(n) < q_a).astype(float)
        pi0 = _kang_pi(z)
        delta = (rng.random(n) < pi0).astype(int)
        truth = TruthRecord(reference_psi(spec), pi0, g0, _kang_q(z, 1), _kang_q(z, 0))
        y_kind, y_bounds = "binary", (0.0, 1.0)

    elif spec.dgp_id == "missing_rate":
        w = _mr_covariates(rng, n)
        g0 = _mr_g(w)
        a = (rng.random(n) < g0).astype(int)
        q_a = _mr_q(w, a)
        y = (rng.random(n) < q_a).astype(float)
        pi0 = _mr_pi(w[:, 0], y, spec.missing_intercept)
        delta = (rng.random(n) < pi0).astype(int)
        truth = TruthRecord(reference_psi(spec), pi0, g0, _mr_q(w, 1), _mr_q(w, 0))
        y_kind, y_bounds = "binary", (0.0, 1.0)

    elif spec.dgp_id == "near_positivity":
        w = _mr_covariates(rng, n)
        g0 = _mr_g(w, strength=3.0)
        a = (rng.random(n) < g0).astype(int)
        q1 = _rg_qlin(w) + NEAR_POSITIVITY_EFFECT
        q0 = _rg_qlin(w)
        y = np.where(a == 1, q1, q0) + rng.standard_normal(n)
        pi0 = _rg_pi(w[:, 0])
        delta = (rng.random(n) < pi0).astype(int)
        truth = TruthRecord(reference_psi(spec), pi0, g0, q1, q0)
        y_kind = "continuous"
        y_bounds = default_bounds(y)

    elif spec.dgp_id == "raking_gap":
        w = _mr_covariates(rng, n)
        g0 = _mr_g(w)
        a = (rng.random(n) < g0).astype(int)
        het = _rg_het(w)
        q1 = _rg_qlin(w) + spec.gamma * het
        q0 = _rg_qlin(w)
        y = np.where(a == 1, q1, q0) + rng.standard_normal(n)
        pi0 = _rg_pi(w[:, 0])
        delta = (rng.random(n) < pi0).astype(int)
        truth = TruthRecord(reference_psi(spec), pi0, g0, q1, q0)
        y_kind = "continuous"
        y_bounds = default_bounds(y)
    else:  # pragma: no cover - guarded by DgpSpec
        raise ValueError(spec.dgp_id)

    w2 = w[:, 2:].copy()
    w2[delta == 0] = np.nan
    ds = Dataset(w1=w[:, :2], a=a, y=y, delta=delta, w2=w2,
                 y_kind=y_kind, y_bounds=y_bounds)
    return ds, truth


def true_psi(spec: DgpSpec, n_mc: int = 1_000_000, seed: int = 77_000_001) -> float:
    """Monte-Carlo mean of the true outcome contrast under the covariate law."""
    rng = _rng(seed)
    if spec.dgp_id == "kang_dr":
        z, _ = _kang_latents(rng, n_mc)
        return float(np.mean(_kang_q(z, 1) - _kang_q(z, 0)))
    if spec.dgp_id == "missing_rate":
        w = _mr_covariates(rng, n_mc)
        return float(np.mean(_mr_q(w, 1) - _mr_q(w, 0)))
    if spec.dgp_id == "near_positivity":
        return NEAR_POSITIVITY_EFFECT  # homogeneous additive effect
    w = _mr_covariates(rng, n_mc)
    return float(spec.gamma * np.mean(_rg_het(w)))


def _census_draw(spec: DgpSpec, n_mc: int, seed: int) -> tuple[np.ndarray, np.ndarray, str]:
    """The uncensored population behind census_psi: the main-term design
    [1, a, w], the outcome and the working-model family. Only these outlive
    the call; the latents and per-row truths are freed on return."""
    rng = _rng(seed)
    if spec.dgp_id == "kang_dr":
        z, w = _kang_latents(rng, n_mc)
        g0, qfn = _kang_g(z), lambda a: _kang_q(z, a)
        family = "bernoulli"
    elif spec.dgp_id == "missing_rate":
        w = _mr_covariates(rng, n_mc)
        g0, qfn = _mr_g(w), lambda a: _mr_q(w, a)
        family = "bernoulli"
    elif spec.dgp_id == "near_positivity":
        w = _mr_covariates(rng, n_mc)
        g0 = _mr_g(w, strength=3.0)
        qlin = _rg_qlin(w)
        qfn = lambda a: qlin + NEAR_POSITIVITY_EFFECT * a
        family = "gaussian"
    else:
        w = _mr_covariates(rng, n_mc)
        g0 = _mr_g(w)
        qlin, het = _rg_qlin(w), _rg_het(w)
        qfn = lambda a: qlin + spec.gamma * a * het
        family = "gaussian"
    a = (rng.random(n_mc) < g0).astype(float)
    if family == "bernoulli":
        y = (rng.random(n_mc) < qfn(a)).astype(float)
    else:
        y = qfn(a) + rng.standard_normal(n_mc)
    return np.column_stack([np.ones(n_mc), a, w]), y, family


# rows per block when census_psi predicts the treatment contrast
_CENSUS_CHUNK = 1 << 16


def census_psi(spec: DgpSpec, n_mc: int = 1_000_000, seed: int = 77_000_002) -> float:
    """Contrast of the main-term working model fit at population scale.

    Full data are drawn without censoring, the working model (logistic for
    binary outcomes, linear otherwise) is fit unweighted, and the fitted
    contrast is averaged over the draw. The a=1 and a=0 predictions are made
    block by block, so beyond the fit itself the call holds one extra
    n_mc-vector, not two more copies of the design.
    """
    X, y, family = _census_draw(spec, n_mc, seed)
    fit = fit_glm(X, y, family=family)
    contrast = np.empty(n_mc)
    for lo in range(0, n_mc, _CENSUS_CHUNK):
        block = X[lo:lo + _CENSUS_CHUNK].copy()
        block[:, 1] = 1.0
        q1 = fit.predict(block)
        block[:, 1] = 0.0
        contrast[lo:lo + _CENSUS_CHUNK] = q1 - fit.predict(block)
    return float(np.mean(contrast))


def reference_psi(spec: DgpSpec) -> float:
    """The study reference value: closed form where available, else pinned."""
    if spec.dgp_id == "raking_gap":
        return spec.gamma * RAKING_GAP_HET_MEAN
    if spec.dgp_id == "near_positivity":
        return NEAR_POSITIVITY_EFFECT
    return PINNED_PSI[spec.dgp_id][0]


# ---------------------------------------------------------------------------
# study runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyEstimator:
    estimator_id: str
    mode: str = "refit"
    max_outer_iter: int = 50
    label: str = ""

    def __post_init__(self):
        if self.estimator_id not in ESTIMATOR_IDS:
            raise ValueError(f"unknown estimator {self.estimator_id!r}")
        self.options  # EstimatorOptions rejects a negative max_outer_iter
        if not self.label:
            label = self.estimator_id
            if self.mode != "refit":
                label += f":{self.mode}"
            object.__setattr__(self, "label", label)

    @property
    def options(self) -> EstimatorOptions:
        return EstimatorOptions(mode=self.mode, max_outer_iter=self.max_outer_iter)


@dataclass(frozen=True)
class StudySpec:
    """A full Monte-Carlo experiment: DGP x estimators x seeds."""

    dgp: DgpSpec
    estimators: tuple[StudyEstimator, ...]
    n_runs: int
    base_seed: int
    known_pi: bool = False
    known_g: bool = False
    trunc_pi: tuple[float, float] = TRUNC_PI_DEFAULT
    trunc_g: tuple[float, float] = TRUNC_G_DEFAULT
    reference: str = "truth"  # or "census"
    parallelism: int = 1

    def __post_init__(self):
        check_truncation(self.trunc_pi, self.trunc_g)


@dataclass(frozen=True)
class _RunOutcome:
    psi: float = math.nan
    se: float = math.nan
    ci_lo: float = math.nan
    ci_hi: float = math.nan
    converged: bool = False
    runtime: float = math.nan
    error: str = ""


def _run_single(study: StudySpec, run_idx: int) -> tuple[float, list[_RunOutcome]]:
    """One Monte-Carlo run: the seconds of its shared nuisance fit, and one
    outcome per estimator."""
    dspec = replace(study.dgp, seed=study.base_seed + run_idx)
    ds, truth = generate(dspec)
    ncfg = NuisanceConfig(
        trunc_pi=study.trunc_pi,
        trunc_g=study.trunc_g,
        known_pi=truth.pi0 if study.known_pi else None,
        known_g=truth.g0 if study.known_g else None,
    )
    fit_s, results = run_roster(ds, [(e.estimator_id, e.options) for e in study.estimators], ncfg)
    out = []
    for r, seconds in results:
        if isinstance(r, EstimateResult):
            out.append(_RunOutcome(r.psi_hat, r.se, r.ci95[0], r.ci95[1], r.converged, seconds))
        else:
            out.append(_RunOutcome(error=str(r), runtime=seconds))
    return fit_s, out


@dataclass(frozen=True)
class EstimatorRow:
    label: str
    estimator_id: str
    mode: str
    n_ok: int
    n_failed: int
    n_not_converged: int
    psi_mean: float
    abs_bias: float
    emp_se: float
    mse: float
    coverage: float
    oracle_coverage: float
    mean_runtime: float
    first_error: str = ""


@dataclass(frozen=True)
class SimReport:
    rows: tuple[EstimatorRow, ...]
    psi_ref: float
    reference: str
    n_runs: int
    dgp: DgpSpec
    base_seed: int
    mean_nuisance_fit: float = math.nan  # seconds per run, shared by its estimators

    def row(self, label: str) -> EstimatorRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def _aggregate(study: StudySpec, outcomes: list[list[_RunOutcome]], psi_ref: float) -> SimReport:
    rows = []
    for j, est in enumerate(study.estimators):
        runs = [o[j] for o in outcomes]
        ok = [r for r in runs if not r.error]
        n_fail = len(runs) - len(ok)
        first_error = next((r.error for r in runs if r.error), "")
        if not ok:
            rows.append(EstimatorRow(est.label, est.estimator_id, est.mode, 0, n_fail,
                                     0, math.nan, math.nan, math.nan, math.nan,
                                     math.nan, math.nan, math.nan, first_error))
            continue
        psi = np.array([r.psi for r in ok])
        lo = np.array([r.ci_lo for r in ok])
        hi = np.array([r.ci_hi for r in ok])
        n_ok = len(ok)
        psi_mean = float(psi.mean())
        abs_bias = abs(psi_mean - psi_ref)
        emp_se = float(psi.std(ddof=1)) if n_ok > 1 else math.nan
        mse = float(np.mean((psi - psi_ref) ** 2))
        coverage = float(np.mean((lo <= psi_ref) & (psi_ref <= hi)))
        oracle = (float(np.mean(np.abs(psi - psi_ref) <= 1.96 * emp_se))
                  if n_ok > 1 else math.nan)
        rows.append(EstimatorRow(
            label=est.label, estimator_id=est.estimator_id, mode=est.mode,
            n_ok=n_ok, n_failed=n_fail,
            n_not_converged=sum(1 for r in ok if not r.converged),
            psi_mean=psi_mean, abs_bias=abs_bias, emp_se=emp_se, mse=mse,
            coverage=coverage, oracle_coverage=oracle,
            mean_runtime=float(np.mean([r.runtime for r in ok])),
            first_error=first_error,
        ))
    return SimReport(rows=tuple(rows), psi_ref=psi_ref, reference=study.reference,
                     n_runs=study.n_runs, dgp=study.dgp, base_seed=study.base_seed)


def run_study(study: StudySpec) -> SimReport:
    """Run the full experiment; aggregation order is fixed by run index, so
    the report is deterministic for a given spec regardless of parallelism."""
    if study.reference == "census":
        psi_ref = census_psi(study.dgp)
    else:
        psi_ref = reference_psi(study.dgp)
    indices = range(study.n_runs)
    if study.parallelism > 1:
        with ProcessPoolExecutor(max_workers=study.parallelism) as pool:
            runs = list(pool.map(_run_single, [study] * study.n_runs, indices,
                                 chunksize=max(1, study.n_runs // (8 * study.parallelism))))
    else:
        runs = [_run_single(study, r) for r in indices]
    report = _aggregate(study, [outcomes for _, outcomes in runs], psi_ref)
    if runs:
        report = replace(report, mean_nuisance_fit=float(np.mean([fit_s for fit_s, _ in runs])))
    return report


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------

_CSV_HEADER = (
    "label,estimator,mode,n_ok,n_failed,n_not_converged,psi_mean,"
    "abs_bias_x1e3,emp_se_x1e2,mse_x1e3,coverage_pct,oracle_coverage_pct"
)


def _num(x: float, scale: float = 1.0, digits: str = ".10g") -> str:
    if x != x:  # NaN
        return ""
    return format(x * scale, digits)


def write_report_csv(report: SimReport, path) -> None:
    """Table-style metrics, one row per estimator, deterministically formatted.

    Wall-clock quantities live in the metadata sidecar so a rerun of the
    same study reproduces this file byte for byte.
    """
    lines = [_CSV_HEADER]
    for r in report.rows:
        lines.append(",".join([
            r.label, r.estimator_id, r.mode, str(r.n_ok), str(r.n_failed),
            str(r.n_not_converged), _num(r.psi_mean),
            _num(r.abs_bias, 1e3), _num(r.emp_se, 1e2), _num(r.mse, 1e3),
            _num(r.coverage, 100.0), _num(r.oracle_coverage, 100.0),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _git_hash() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_sidecar(report: SimReport, study: StudySpec, path, wall_time: float) -> None:
    meta = {
        "dgp": asdict(study.dgp),
        "estimators": [asdict(e) for e in study.estimators],
        "n_runs": study.n_runs,
        "base_seed": study.base_seed,
        "seeds": [study.base_seed, study.base_seed + study.n_runs - 1],
        "known_pi": study.known_pi,
        "known_g": study.known_g,
        "trunc_pi": list(study.trunc_pi),
        "trunc_g": list(study.trunc_g),
        "reference": {"kind": report.reference, "value": report.psi_ref},
        "mean_runtime_s": {r.label: r.mean_runtime for r in report.rows},
        "mean_nuisance_fit_s": report.mean_nuisance_fit,
        "git_hash": _git_hash(),
        "wall_time_s": wall_time,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
