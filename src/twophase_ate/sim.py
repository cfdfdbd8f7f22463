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
import os
import subprocess
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .data_model import _ROW_BLOCK, DataError, Dataset, _as_integer, default_bounds
from .estimators import (
    DEFAULT_OPTIONS,
    ESTIMATOR_IDS,
    OPTIONS_READ,
    EstimateResult,
    EstimatorOptions,
    run_roster,
)
from .glm import _least_squares, expit, fit_glm, ndtr
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

_SEED_MAX = 2**64 - 1  # a seed keys a Philox stream as one uint64

# the raking_gap heterogeneity term lies in [-4.5, 4.5] (2.5 from the W2
# steps, 2 from the sine). A study squares outcome-scale quantities (the
# empirical SE, the MSE, reported x1e3), so |gamma| is capped where
# (gamma * het)^2 stays a factor 1e6 below the float maximum.
_HET_MAX = 4.5
_GAMMA_MAX = math.sqrt(np.finfo(float).max) / (1e3 * _HET_MAX)


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
        object.__setattr__(self, "n", _as_integer("n", self.n, 1))
        object.__setattr__(self, "seed", _as_integer("seed", self.seed, 0, _SEED_MAX))
        # a non-finite parameter would make every draw unusable
        for name in ("missing_intercept", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # and a huge one would overflow the outcome or the study's metrics
        if abs(self.gamma) > _GAMMA_MAX:
            raise ValueError(f"gamma must lie in [-{_GAMMA_MAX:.3g}, {_GAMMA_MAX:.3g}], where a "
                             f"study's squared errors stay finite; got {self.gamma:g}")


@dataclass(frozen=True)
class TruthRecord:
    """Per-row generating mechanisms of one dataset, for known-mechanism
    injection: the sampling probability pi0 and the treatment probability g0."""

    pi0: np.ndarray
    g0: np.ndarray


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


# per-unit-gamma mean of the raking_gap heterogeneity term
# E[2.5*1(W2>1) - 2.5*1(W2<0) + 2 sin(W1)] with W1, W2 ~ N(1,1); ndtr is the
# standard normal CDF (the statistics subpackage's normal distribution would
# add most of a second to every CLI start)
RAKING_GAP_HET_MEAN = float(
    2.5 * 0.5 - 2.5 * ndtr(-1.0) + 2.0 * math.sin(1.0) * math.exp(-0.5)
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


def _kang_covariates(z):
    return np.column_stack([
        np.exp(z[:, 0] / 2.0),
        z[:, 1] ** 3,
        (z[:, 3] * z[:, 2] / 25.0 + 0.6) ** 3,
        (z[:, 2] + z[:, 3] + 20.0) ** 2,
    ])


def _kang_g(z):
    return expit(-0.2 * z[:, 0] - 0.6 * z[:, 1] + 0.9 * z[:, 3])


def _kang_q(z, a):
    return expit(-1.0 + 0.6 * z[:, 0] - 0.4 * z[:, 1] + 0.2 * z[:, 2]
                 - 0.5 * z[:, 3] + 1.2 * a)


def _kang_pi(z):
    # depends only on (z1, z2), which are invertible functions of the
    # phase-1 covariates: coarsening at random holds by construction
    return expit(-0.1 * z[:, 0] + 0.1 * z[:, 1])


def _mr_g(w, strength=1.0):
    return expit(strength * (-0.2 * w[:, 0] - 0.6 * w[:, 1] + 0.2 * w[:, 3]))


class _Law(NamedTuple):
    """One DGP on a block of units, as functions evaluated on call: the
    covariates w = [w1 | w2], the treatment probability g0, the outcome mean
    q(a) and the sampling probability pi(y); and the outcome kind."""

    w: Callable[[], np.ndarray]
    g0: Callable[[], np.ndarray]
    q: Callable[[np.ndarray | int], np.ndarray]
    pi: Callable[[np.ndarray], np.ndarray]
    y_kind: str


def _law(spec: DgpSpec, z: np.ndarray) -> _Law:
    """spec's law on the units whose four latent standard normals are the
    rows of z. The only place where the four DGPs differ; the datasets, the
    census population and the Monte-Carlo truth all draw through it."""
    if spec.dgp_id == "kang_dr":
        return _Law(lambda: _kang_covariates(z), lambda: _kang_g(z), lambda a: _kang_q(z, a),
                    lambda y: _kang_pi(z), "binary")
    w = z + 1.0
    if spec.dgp_id == "missing_rate":
        def q(a):
            return expit(0.1 * w[:, 0] ** 2 - 0.01 * w[:, 1] ** 3 + 0.2 * w[:, 2]
                         - 0.1 * w[:, 3] + 0.6 * a + 0.5 * a * w[:, 1] ** 2)

        # phase-1 measurable: first covariate and the outcome only
        def pi(y):
            return expit(spec.missing_intercept + 0.2 * w[:, 0] + 0.2 * y)

        return _Law(lambda: w, lambda: _mr_g(w), q, pi, "binary")

    def qlin():
        return -0.3 + 0.4 * w[:, 0] - 0.4 * w[:, 1] + 0.2 * w[:, 2] - 0.1 * w[:, 3]

    def pi(y):
        return expit(0.5 * w[:, 0])

    if spec.dgp_id == "near_positivity":
        return _Law(lambda: w, lambda: _mr_g(w, strength=3.0),
                    lambda a: qlin() + NEAR_POSITIVITY_EFFECT * a, pi, "continuous")

    def q(a):
        het = 2.5 * (w[:, 1] > 1.0) - 2.5 * (w[:, 1] < 0.0) + 2.0 * np.sin(w[:, 0])
        return qlin() + spec.gamma * a * het

    return _Law(lambda: w, lambda: _mr_g(w), q, pi, "continuous")


# rows per block when a population is drawn and when census_psi predicts
_CENSUS_CHUNK = _ROW_BLOCK


def _blocks(n: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CENSUS_CHUNK, n)) for lo in range(0, n, _CENSUS_CHUNK)]


def _draw(spec: DgpSpec, rng: np.random.Generator, x: np.ndarray, a: np.ndarray,
          y: np.ndarray, truth: TruthRecord | None = None, delta: np.ndarray | None = None) -> str:
    """Draw spec's population into preallocated arrays: the covariates into
    x (n, 4), the treatment into a and the outcome into y; given truth and
    delta, also the per-row mechanisms into truth's arrays and the phase-2
    flag into delta. Returns the outcome kind.

    rng is read in the order of one full-length draw of each kind: the
    latent normals of every row, then the treatment uniforms, the outcome
    draws and the phase-2 uniforms. Each kind is drawn, and each formula
    evaluated, one block of rows at a time, with x holding the latents until
    the last pass turns them into covariates; so no full-length array exists
    besides the outputs, and a draw gives the same bits at any block size.
    """
    blocks = _blocks(len(y))
    for lo, hi in blocks:
        x[lo:hi] = rng.standard_normal((hi - lo, 4))
    for lo, hi in blocks:
        g0 = _law(spec, x[lo:hi]).g0()
        a[lo:hi] = rng.random(hi - lo) < g0
        if truth is not None:
            truth.g0[lo:hi] = g0
    for lo, hi in blocks:
        law = _law(spec, x[lo:hi])
        q_a = law.q(a[lo:hi])
        if law.y_kind == "binary":
            y[lo:hi] = rng.random(hi - lo) < q_a
        else:
            y[lo:hi] = q_a + rng.standard_normal(hi - lo)
    if truth is not None:
        for lo, hi in blocks:
            truth.pi0[lo:hi] = _law(spec, x[lo:hi]).pi(y[lo:hi])
            delta[lo:hi] = rng.random(hi - lo) < truth.pi0[lo:hi]
    for lo, hi in blocks:
        x[lo:hi] = _law(spec, x[lo:hi]).w()
    return law.y_kind


def generate(spec: DgpSpec) -> tuple[Dataset, TruthRecord]:
    """Draw one dataset. Draw order is fixed (covariates, treatment, outcome,
    phase-2 flag) so that a given spec is byte-reproducible."""
    n = spec.n
    w, y, truth = np.empty((n, 4)), np.empty(n), TruthRecord(np.empty(n), np.empty(n))
    a, delta = np.empty(n, dtype=int), np.empty(n, dtype=int)
    y_kind = _draw(spec, _rng(spec.seed), w, a, y, truth, delta)
    w2 = w[:, 2:].copy()
    w2[delta == 0] = np.nan
    bounds = (0.0, 1.0) if y_kind == "binary" else default_bounds(y)
    ds = Dataset(w1=w[:, :2], a=a, y=y, delta=delta, w2=w2, y_kind=y_kind, y_bounds=bounds)
    return ds, truth


def _check_draws(n_mc, seed) -> tuple[int, int]:
    """A Monte-Carlo population's size and seed as Python ints, or a
    ValueError naming the argument."""
    return _as_integer("n_mc", n_mc, 1), _as_integer("seed", seed, 0, _SEED_MAX)


def true_psi(spec: DgpSpec, n_mc: int = 1_000_000, seed: int = 77_000_001) -> float:
    """Monte-Carlo mean of the true outcome contrast under the covariate law,
    drawn and evaluated one block of rows at a time."""
    n_mc, seed = _check_draws(n_mc, seed)
    rng = _rng(seed)
    effect = np.empty(n_mc)
    for lo, hi in _blocks(n_mc):
        law = _law(spec, rng.standard_normal((hi - lo, 4)))
        effect[lo:hi] = law.q(1) - law.q(0)
    return float(np.mean(effect))


def _census_draw(spec: DgpSpec, n_mc: int, seed: int) -> tuple[np.ndarray, np.ndarray, str]:
    """The uncensored population behind census_psi: the main-term design
    [1, a, w], the outcome and the working-model family. The treatment and
    covariates are drawn straight into the design."""
    X = np.empty((n_mc, 6))
    X[:, 0] = 1.0
    y = np.empty(n_mc)
    y_kind = _draw(spec, _rng(seed), X[:, 2:], X[:, 1], y)
    return X, y, "bernoulli" if y_kind == "binary" else "gaussian"


def census_psi(spec: DgpSpec, n_mc: int = 1_000_000, seed: int = 77_000_002) -> float:
    """Contrast of the main-term working model fit at population scale.

    Full data are drawn without censoring, the working model (logistic for
    binary outcomes, linear otherwise) is fit unweighted, and the fitted
    contrast is averaged over the draw. The population is drawn and the
    a=1 and a=0 predictions made block by block, in place: once the fit
    has read them, each block of the design has its treatment column set
    to 1, then to 0, and the contrast goes into the outcome's buffer. The
    linear model is solved from its normal equations, so it holds nothing
    of full length besides the design and the outcome.
    """
    n_mc, seed = _check_draws(n_mc, seed)
    X, y, family = _census_draw(spec, n_mc, seed)
    if family == "gaussian":
        beta = _least_squares(X, y)  # the gaussian mean is the linear predictor

        def predict(b):
            return b @ beta
    else:
        predict = fit_glm(X, y, family=family).predict
    contrast = y  # nothing reads the outcome, or the design, again
    for lo, hi in _blocks(n_mc):
        b = X[lo:hi]
        b[:, 1] = 1.0
        q1 = predict(b)
        b[:, 1] = 0.0
        contrast[lo:hi] = q1 - predict(b)
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
    mode: str = DEFAULT_OPTIONS.mode
    max_outer_iter: int = DEFAULT_OPTIONS.max_outer_iter
    label: str = ""

    def __post_init__(self):
        if self.estimator_id not in ESTIMATOR_IDS:
            raise ValueError(f"unknown estimator {self.estimator_id!r}")
        # EstimatorOptions rejects a negative max_outer_iter or an unknown mode
        options = self.options
        for name in (f.name for f in fields(EstimatorOptions)):
            if (getattr(options, name) != getattr(DEFAULT_OPTIONS, name)
                    and name not in OPTIONS_READ[self.estimator_id]):
                raise ValueError(f"{self.estimator_id} has no {name!r} option")
        object.__setattr__(self, "max_outer_iter", options.max_outer_iter)  # as a Python int
        # report.csv writes the label as one unquoted field of one line
        if any(c in self.label for c in ',"\r\n'):
            raise ValueError(f"estimator label {self.label!r} holds a comma, a quote or a "
                             f"line break, which report.csv cannot hold")
        if not self.label:
            label = self.estimator_id
            if self.mode != DEFAULT_OPTIONS.mode:
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
        n_runs = _as_integer("n_runs", self.n_runs, 1)  # no runs would report only NaNs
        object.__setattr__(self, "n_runs", n_runs)
        # run r draws with seed base_seed + r
        object.__setattr__(self, "base_seed",
                           _as_integer("base_seed", self.base_seed, 0, _SEED_MAX - (n_runs - 1)))
        object.__setattr__(self, "parallelism", _as_integer("parallelism", self.parallelism, 1))
        if self.reference not in ("truth", "census"):
            raise ValueError(f"reference must be truth|census, got {self.reference!r}")
        check_truncation(self.trunc_pi, self.trunc_g)
        labels = [e.label for e in self.estimators]
        for label in labels:
            if labels.count(label) > 1:  # report rows and runtimes are keyed by label
                raise ValueError(f"estimator label {label!r} appears more than once")


_Outcome = tuple[EstimateResult | str, float]  # a result or its error text, and its seconds


def _run_single(study: StudySpec, run_idx: int) -> tuple[float, list[_Outcome]]:
    """One Monte-Carlo run: the seconds of its shared nuisance fit, and per
    estimator its result or error text with the seconds it took. An
    unusable draw (no phase-2 record, say) is that run's error for every
    estimator."""
    dspec = replace(study.dgp, seed=study.base_seed + run_idx)
    try:
        ds, truth = generate(dspec)
    except DataError as exc:
        return 0.0, [(f"unusable draw: {exc}", 0.0)] * len(study.estimators)
    ncfg = NuisanceConfig(
        trunc_pi=study.trunc_pi,
        trunc_g=study.trunc_g,
        known_pi=truth.pi0 if study.known_pi else None,
        known_g=truth.g0 if study.known_g else None,
    )
    fit_s, results = run_roster(ds, [(e.estimator_id, e.options) for e in study.estimators], ncfg)
    return fit_s, [(r if isinstance(r, EstimateResult) else str(r), s) for r, s in results]


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
    mean_nuisance_fit: float  # seconds per run, shared by its estimators

    def row(self, label: str) -> EstimatorRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)


def _aggregate(study: StudySpec, runs: list[tuple[float, list[_Outcome]]],
               psi_ref: float) -> SimReport:
    """The report of runs given as (nuisance-fit seconds, outcomes), in run order."""
    rows = []
    for j, est in enumerate(study.estimators):
        results = [outcomes[j] for _, outcomes in runs]
        ok = [(r, s) for r, s in results if isinstance(r, EstimateResult)]
        n_fail = len(results) - len(ok)
        first_error = next((r for r, _ in results if isinstance(r, str)), "")
        if not ok:
            rows.append(EstimatorRow(est.label, est.estimator_id, est.mode, 0, n_fail,
                                     0, math.nan, math.nan, math.nan, math.nan,
                                     math.nan, math.nan, math.nan, first_error))
            continue
        psi = np.array([r.psi_hat for r, _ in ok])
        lo, hi = np.array([r.ci95 for r, _ in ok]).T
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
            n_not_converged=sum(1 for r, _ in ok if not r.converged),
            psi_mean=psi_mean, abs_bias=abs_bias, emp_se=emp_se, mse=mse,
            coverage=coverage, oracle_coverage=oracle,
            mean_runtime=float(np.mean([s for _, s in ok])),
            first_error=first_error,
        ))
    return SimReport(rows=tuple(rows), psi_ref=psi_ref, reference=study.reference,
                     n_runs=study.n_runs, dgp=study.dgp, base_seed=study.base_seed,
                     mean_nuisance_fit=float(np.mean([fit_s for fit_s, _ in runs])))


def _reference_value(study: StudySpec) -> float:
    if study.reference == "census":
        return census_psi(study.dgp)
    return reference_psi(study.dgp)


def run_study(study: StudySpec) -> SimReport:
    """Run the full experiment; aggregation order is fixed by run index, so
    the report is deterministic for a given spec regardless of parallelism.
    With a pool, the reference value is computed in this process while the
    workers run."""
    indices = range(study.n_runs)
    # the executor starts every worker at the first submit, so never ask
    # for more than there are runs or processors
    workers = min(study.parallelism, study.n_runs, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map submits every run at once, which forks the workers before
            # the census draw could enlarge this process
            pending = pool.map(_run_single, [study] * study.n_runs, indices,
                               chunksize=max(1, study.n_runs // (8 * workers)))
            try:
                psi_ref = _reference_value(study)
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
            runs = list(pending)
    else:
        psi_ref = _reference_value(study)
        runs = [_run_single(study, r) for r in indices]
    return _aggregate(study, runs, psi_ref)


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
        # ask the checkout this package lives in, not the caller's directory
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5, cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_sidecar(report: SimReport, study: StudySpec, path, wall_time: float) -> None:
    """Strict JSON: an estimator with no successful run has no mean runtime,
    so its label is left out of mean_runtime_s."""
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
        "mean_runtime_s": {r.label: r.mean_runtime for r in report.rows if r.n_ok},
        "mean_nuisance_fit_s": report.mean_nuisance_fit,
        "git_hash": _git_hash(),
        "wall_time_s": wall_time,
    }
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, allow_nan=False)
        fh.write("\n")
