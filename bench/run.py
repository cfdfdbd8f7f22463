"""Benchmark of the twophase-ate batch CLI, driven in-process.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `twophase_ate.cli.main` call, issued by a single
caller in a closed loop: the next call starts when the previous one
returns. Inputs (config files and, for estimate mode, a cohort CSV) are made
from `--seed`. Studies run with `--parallelism 2` whatever the host; the
BLAS and worker thread variables are left as the environment sets them and
are recorded, so pool oversubscription shows in the numbers.

Every output is checked. Before the timed loop one untimed reference
operation runs on the inputs of seed 1, and its report is compared with
the file pinned under `bench/reference/` (counts exactly, numbers to
REL_TOL). Every timed output must be well formed with finite estimates, and
repeated estimate-mode calls on one cohort must give identical files. A
failed fit or a mismatch counts as a failure.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the study
serially, alternating traced and untraced calls, and prints per-layer
metrics from spans recorded around each module's public functions (see
tracing.py), plus the tracing overhead. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINNED_DIR = BENCH_DIR / "reference"
WORK_ROOT = ROOT / ".bench_work"

REFERENCE_SEED = 1
PARALLELISM = 2
SETUP_REPEATS = 3
# Pinned numbers must agree to this relative tolerance (plus ABS_TOL for
# values that are zero up to rounding); counts must agree exactly.
REL_TOL = 1e-7
ABS_TOL = 1e-10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "TWOPHASE_THREADS")

ALL_ESTIMATORS = ("raking", "aipcw", "ipcw_tmle", "ipcw_tmle_target_pi",
                  "ipcw_tmle_rake_pi", "eee", "quasi_tmle", "tmle_alt")

# Spans every traced operation of the workload must reach; a zero count
# means a wrapper missed a caller, and the traced run is then not correct.
_COMMON_SPANS = (
    "cli.main", "cli.parse_config_text", "data_model.scale_outcome",
    "nuisance.fit_nuisances", "nuisance.fit_pi", "nuisance.fit_g_ipcw",
    "nuisance.fit_q_ipcw", "glm.fit_glm", "estimators.run_estimator",
    "estimators.estimate_raking", "estimators.rake_weights",
    "eic.evaluate_nuisances", "eic.eic_variance",
)
_ALL8_SPANS = _COMMON_SPANS + tuple(f"estimators.estimate_{e}" for e in ALL_ESTIMATORS) + (
    "nuisance.fit_mbar", "glm.fit_fluctuation", "roots.secant",
)
_STUDY_SPANS = ("sim.run_study", "sim.generate", "sim.write_report_csv")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "study" or "estimate"
    config: str  # config text; {size} and {data_path} are filled in
    size: int  # Monte-Carlo runs per study call, or cohort rows
    tiny_size: int  # size used by the self-test
    estimators: tuple[str, ...]
    required_spans: tuple[str, ...]


WORKLOADS = {
    wl.name: wl for wl in (
        # Shape of repro/missing50_n1000.cfg: all eight estimators with
        # estimated nuisances, about half the rows lacking phase 2. This is
        # where per-estimator nuisance refits and the mbar regressions cost.
        Workload(
            name="study_all8_missing50",
            kind="study",
            config=("mode = simulate\nsim.dgp = missing_rate\nsim.n = 1000\n"
                    "sim.n_runs = {size}\nsim.missing_intercept = -0.3\n"
                    f"estimators = {', '.join(ALL_ESTIMATORS)}\n"),
            size=100,
            tiny_size=3,
            estimators=ALL_ESTIMATORS,
            required_spans=_ALL8_SPANS + _STUDY_SPANS,
        ),
        # Shape of repro/census_gap_n1500.cfg: raking only, continuous
        # outcome, census reference. One nuisance fit and no mbar regression
        # per dataset; stresses the census quadrature and the 10^6-row
        # census_psi fit instead.
        Workload(
            name="study_raking_census",
            kind="study",
            config=("mode = simulate\nsim.dgp = raking_gap\nsim.n = 1500\n"
                    "sim.n_runs = {size}\nsim.gamma = 1.0\nsim.reference = census\n"
                    "estimators = raking\n"),
            size=200,
            tiny_size=3,
            estimators=("raking",),
            required_spans=_COMMON_SPANS + _STUDY_SPANS + ("sim.census_psi",),
        ),
        # The analyst path: one estimate-mode call over a 10,000-row cohort
        # CSV, all eight estimators, no process pool; the CSV is parsed on
        # every call.
        Workload(
            name="estimate_cohort_n10k",
            kind="estimate",
            config=("mode = estimate\ndata.path = {data_path}\n"
                    "schema.treatment = a\nschema.outcome = y\nschema.delta = delta\n"
                    "schema.w1 = w1_0, w1_1\nschema.w2 = w2_0, w2_1\n"
                    f"estimators = {', '.join(ALL_ESTIMATORS)}\n"),
            size=10_000,
            tiny_size=400,
            estimators=ALL_ESTIMATORS,
            required_spans=_ALL8_SPANS + ("data_model.load_csv",),
        ),
    )
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no package source)."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def op_seed(seed: int, k: int, size: int) -> int:
    """Base seed of operation k: disjoint Philox streams for every op and seed."""
    return 10_000_000 * (seed % 1_000_000 + 1) + k * size


def import_package():
    """Import twophase_ate from this checkout's src/, never from elsewhere."""
    init = SRC / "twophase_ate" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"package source not found at {init}")
    sys.path.insert(0, str(SRC))
    import twophase_ate
    import twophase_ate.cli

    if Path(twophase_ate.__file__).resolve() != init.resolve():
        raise BenchError(f"imported twophase_ate from {twophase_ate.__file__}, not {init}")
    return twophase_ate


@dataclass
class Inputs:
    config: Path  # the workload config
    reference_config: Path  # config of the pinned reference operation
    out: Path


def make_inputs(wl: Workload, seed: int, size: int, work: Path,
                with_reference: bool = True) -> Inputs:
    """Write the workload's config (and cohort CSV) for this seed into work."""
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "workload.cfg"
    ref_cfg = work / "reference.cfg"
    if wl.kind == "study":
        text = wl.config.format(size=size)
        cfg.write_text(text)
        ref_cfg.write_text(text)
    else:
        seeds = [(cfg, seed)]
        if with_reference:
            seeds.append((ref_cfg, REFERENCE_SEED))
        for path, s in seeds:
            csv_path = work / f"cohort_{s}.csv"
            if not csv_path.exists():
                write_cohort(csv_path, size, op_seed(s, 0, size))
            path.write_text(wl.config.format(size=size, data_path=csv_path))
    return Inputs(cfg, ref_cfg, work / "out")


def write_cohort(path: Path, n: int, seed: int) -> None:
    from twophase_ate import CsvSchema, DgpSpec, generate, write_csv

    ds, _ = generate(DgpSpec("missing_rate", n=n, seed=seed))
    schema = CsvSchema(treatment="a", outcome="y", delta="delta",
                       w1=("w1_0", "w1_1"), w2=("w2_0", "w2_1"))
    write_csv(ds, path, schema)


def setup_probe(wl: Workload, seed: int, size: int) -> None:
    """Child-process body: time a fresh-process import plus input generation."""
    t0 = time.perf_counter()
    import_package()
    work = WORK_ROOT / f"probe-{os.getpid()}"
    try:
        make_inputs(wl, seed, size, work, with_reference=False)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(wl: Workload, seed: int, tiny: bool) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", wl.name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

_STUDY_COUNTS = ("n_ok", "n_failed", "n_not_converged")
_STUDY_FLOATS = ("psi_mean", "abs_bias_x1e3", "emp_se_x1e2", "mse_x1e3",
                 "coverage_pct", "oracle_coverage_pct")
_EST_FLOATS = ("psi_hat", "se", "ci_lo", "ci_hi", "eic_mean_abs")


@dataclass
class Check:
    """Fits attempted/failed and estimates (not) converged for one or more ops."""

    attempted: int = 0
    failed: int = 0
    estimates: int = 0
    not_converged: int = 0
    mismatches: int = 0

    def add(self, other: "Check") -> None:
        for key in vars(self):
            setattr(self, key, getattr(self, key) + getattr(other, key))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL


def _rows(text: str | None):
    return None if text is None else list(csv.DictReader(io.StringIO(text)))


def _as_float(cell: str) -> float:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return math.nan


def check_study(rows, wl: Workload, n_runs: int, reference, problems: list[str]) -> Check:
    """Well-formedness of report.csv and, with a reference, agreement with it."""
    chk = Check(attempted=n_runs * len(wl.estimators))
    if rows is None or [r.get("estimator") for r in rows] != list(wl.estimators):
        problems.append("report.csv missing or with wrong estimator rows")
        chk.failed = chk.attempted
        chk.mismatches = len(wl.estimators)
        return chk
    ref_rows = {r["label"]: r for r in reference} if reference is not None else None
    for row in rows:
        try:
            counts = {k: int(row[k]) for k in _STUDY_COUNTS}
        except (TypeError, ValueError):
            problems.append(f"{row['label']}: unparsable counts")
            chk.failed += n_runs
            chk.mismatches += 1
            continue
        chk.failed += counts["n_failed"]
        chk.estimates += counts["n_ok"]
        chk.not_converged += counts["n_not_converged"]
        values = {k: _as_float(row[k]) for k in _STUDY_FLOATS}
        bad = counts["n_ok"] + counts["n_failed"] != n_runs
        bad |= counts["n_ok"] > 1 and not all(map(math.isfinite, values.values()))
        bad |= not (0.0 <= values["coverage_pct"] <= 100.0) and counts["n_ok"] > 0
        if ref_rows is not None:
            ref = ref_rows.get(row["label"])
            if ref is None or any(int(ref[k]) != counts[k] for k in _STUDY_COUNTS):
                bad = True
            else:
                for k in _STUDY_FLOATS:
                    a, b = values[k], _as_float(ref[k])
                    if not (_close(a, b) or (math.isnan(a) and math.isnan(b))):
                        bad = True
        if bad:
            problems.append(f"{row['label']}: report row does not check out: {dict(row)}")
            chk.failed += 1
            chk.mismatches += 1
    return chk


def check_estimates(rows, code: int, wl: Workload, reference,
                    problems: list[str]) -> Check:
    """Well-formedness of estimates.csv, the exit code, and reference agreement."""
    k = len(wl.estimators)
    chk = Check(attempted=k)
    if code == 2 or rows is None or [r.get("estimator") for r in rows] != list(wl.estimators):
        problems.append(f"estimate call exited {code} without the expected rows")
        chk.failed, chk.mismatches = k, k
        return chk
    ref_rows = {r["estimator"]: r for r in reference} if reference is not None else None
    empty = 0
    for row in rows:
        if row["psi_hat"] == "":
            empty += 1
            continue
        values = {f: _as_float(row[f]) for f in _EST_FLOATS}
        chk.estimates += 1
        chk.not_converged += row["converged"] != "true"
        bad = not all(map(math.isfinite, values.values())) or values["se"] <= 0
        bad |= not values["ci_lo"] <= values["psi_hat"] <= values["ci_hi"]
        bad |= row["converged"] not in ("true", "false") or not row["n_iter"].isdigit()
        if ref_rows is not None:
            ref = ref_rows.get(row["estimator"])
            bad |= ref is None or any(ref[f] != row[f] for f in ("n_iter", "converged"))
            bad |= ref is not None and not all(
                _close(values[f], _as_float(ref[f])) for f in _EST_FLOATS)
        if bad:
            problems.append(f"{row['estimator']}: estimate row does not check out: {dict(row)}")
            chk.failed += 1
            chk.mismatches += 1
    chk.failed += empty
    if code != 0 and empty == 0:
        # a non-zero exit with every row filled: some estimate did not converge
        problems.append(f"estimate call exited {code}")
        chk.failed += 1
    return chk


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    seconds: float
    code: int
    text: str | None  # raw report.csv / estimates.csv
    meta: dict | None  # report.meta.json (studies)


def run_op(cli, wl: Workload, config: Path, out: Path, seed: int,
           parallelism: int) -> OpResult:
    out.mkdir(parents=True, exist_ok=True)
    name = "report.csv" if wl.kind == "study" else "estimates.csv"
    for stale in (out / name, out / "report.meta.json"):
        stale.unlink(missing_ok=True)
    argv = ["--config", str(config), "--out", str(out), "--seed", str(seed),
            "--parallelism", str(parallelism)]
    t0 = time.perf_counter()
    code = cli.main(argv)
    seconds = time.perf_counter() - t0
    text = (out / name).read_text() if (out / name).exists() else None
    meta = None
    if (out / "report.meta.json").exists():
        meta = json.loads((out / "report.meta.json").read_text())
    return OpResult(seconds, code, text, meta)


def check_op(res: OpResult, wl: Workload, n_runs: int, reference,
             expected_text: str | None, problems: list[str]) -> Check:
    if wl.kind == "study":
        return check_study(_rows(res.text), wl, n_runs, reference, problems)
    chk = check_estimates(_rows(res.text), res.code, wl, reference, problems)
    if expected_text is not None and res.text != expected_text:
        # every call reads the same cohort, so every call must write the same file
        problems.append("estimates.csv differs from the first call on the same cohort")
        chk.failed += 1
        chk.mismatches += 1
    return chk


def worker_busy_frac(res: OpResult, wl: Workload) -> tuple[float, float, float]:
    """(busy seconds, study wall seconds, ratio) from a study's sidecar."""
    if wl.kind != "study" or res.meta is None or res.text is None:
        return 0.0, 0.0, 0.0
    n_ok = {r["label"]: int(r["n_ok"]) for r in _rows(res.text)}
    busy = sum(t * n_ok[label] for label, t in res.meta["mean_runtime_s"].items()
               if not math.isnan(t))
    wall = res.meta["wall_time_s"]
    return busy, wall, busy / (wall * PARALLELISM)


# ---------------------------------------------------------------------------
# metadata and reporting
# ---------------------------------------------------------------------------


def run_metadata() -> dict:
    import numpy
    import scipy

    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        git_hash = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_hash = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "git_hash": git_hash,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "env": {v: os.environ.get(v) for v in THREAD_VARS},
        "parallelism": PARALLELISM,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def say(line: str) -> None:
    print(f"# {line}", flush=True)


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def reference_op(cli, wl, size, inputs, ref_dir: Path, problems) -> tuple[OpResult, Check]:
    """Untimed operation on the seed-1 inputs, compared with the pinned report."""
    res = run_op(cli, wl, inputs.reference_config, inputs.out,
                 op_seed(REFERENCE_SEED, 0, size), PARALLELISM)
    path = ref_dir / f"{wl.name}.csv"
    pinned = _rows(path.read_text()) if path.is_file() else None
    if pinned is None:
        problems.append(f"no pinned reference {path}")
        chk = check_op(res, wl, size, None, None, problems)
        chk.failed += 1
        chk.mismatches += 1
        return res, chk
    return res, check_op(res, wl, size, pinned, None, problems)


def run_untraced(cli, wl, seed, seconds, size, inputs, ref_dir, setup_samples) -> tuple[dict, Check, list]:
    problems: list[str] = []
    total = Check()
    _, chk = reference_op(cli, wl, size, inputs, ref_dir, problems)
    total.add(chk)

    latencies = []
    per_call = size if wl.kind == "study" else 1  # datasets handled by one call
    first_text = None
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        res = run_op(cli, wl, inputs.config, inputs.out, op_seed(seed, k, size), PARALLELISM)
        latencies.append(res.seconds)
        if first_text is None:
            first_text = res.text
        total.add(check_op(res, wl, size, None, first_text if wl.kind == "estimate" else None,
                           problems))
        k += 1

    busy = sum(latencies)
    p50, p90 = statistics.median(latencies), percentile(latencies, 90)
    beyond = sum(1 for x in latencies if x > p90)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        # medians resist the slow outlier calls a shared host produces
        "runs_per_s": (statistics.median(per_call / x for x in latencies), "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    say(f"setup_s samples: {', '.join(f'{x:.4f}' for x in setup_samples)}")
    say(f"{k} calls of {per_call} dataset(s), {busy:.3f} s inside cli.main; "
        f"{beyond} of {k} latency samples beyond p90")
    return metrics, total, problems


def _layer_metrics(summary: dict, n_ops: int, busy: tuple) -> dict:
    """Per-operation layer metrics and derived ratios, each with its base."""
    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "iters": 0, "converged": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("nuisance.fit_nuisances", "nuisance.fit_mbar", "glm.fit_glm",
                 "glm.fit_fluctuation", "estimators.rake_weights", "roots.secant",
                 "eic.evaluate_nuisances", "eic.eic_variance", "sim.generate",
                 "sim.census_psi", "sim.run_study", "sim.write_report_csv",
                 "data_model.load_csv", "data_model.scale_outcome",
                 "estimators.run_estimator"):
        m[f"{name}.calls"] = (row(name)["calls"] / n_ops, "count")
        m[f"{name}.total_s"] = (row(name)["total_s"] / n_ops, "s")
    for name in ("nuisance.fit_pi", "nuisance.fit_g_ipcw", "nuisance.fit_q_ipcw",
                 "cli.main", "cli.parse_config_text"):
        m[f"{name}.total_s"] = (row(name)["total_s"] / n_ops, "s")
    m["roots.bisect.calls"] = (row("roots.bisect")["calls"] / n_ops, "count")
    for est in ALL_ESTIMATORS:
        r = row(f"estimators.estimate_{est}")
        m[f"estimators.estimate_{est}.calls"] = (r["calls"] / n_ops, "count")
        m[f"estimators.estimate_{est}.self_s"] = (r["self_s"] / n_ops, "s")
    glm, fl, rake, sec = (row("glm.fit_glm"), row("glm.fit_fluctuation"),
                          row("estimators.rake_weights"), row("roots.secant"))
    m["glm.fit_glm.irls_iters"] = (glm["iters"] / n_ops, "count")
    m["glm.fit_glm.converged_ratio"] = (ratio(glm["converged"], glm["calls"]), "ratio")
    m["glm.fit_fluctuation.iters"] = (fl["iters"] / n_ops, "count")
    m["estimators.rake_weights.iters"] = (rake["iters"] / n_ops, "count")
    m["estimators.rake_weights.converged_ratio"] = (ratio(rake["converged"], rake["calls"]), "ratio")
    m["roots.secant.iters"] = (sec["iters"] / n_ops, "count")
    datasets = row("sim.generate")["calls"] + row("data_model.load_csv")["calls"]
    fits, mbar, estimates = (row("nuisance.fit_nuisances")["calls"], row("nuisance.fit_mbar")["calls"],
                             row("estimators.run_estimator")["calls"])
    m["nuisance.fits_per_dataset"] = (ratio(fits, datasets), "ratio")
    m["nuisance.mbar_fits_per_estimate"] = (ratio(mbar, estimates), "ratio")
    m["sim.worker_busy_frac"] = (busy[2], "ratio")
    say(f"nuisance.fits_per_dataset = {ratio(fits, datasets):.4g} "
        f"(fit_nuisances calls {fits} / datasets {datasets})")
    say(f"nuisance.mbar_fits_per_estimate = {ratio(mbar, estimates):.4g} "
        f"(fit_mbar calls {mbar} / run_estimator calls {estimates})")
    say(f"glm.fit_glm.converged_ratio = {ratio(glm['converged'], glm['calls']):.6g} "
        f"({glm['converged']} converged / {glm['calls']} calls)")
    say(f"estimators.rake_weights.converged_ratio = {ratio(rake['converged'], rake['calls']):.6g} "
        f"({rake['converged']} converged / {rake['calls']} calls)")
    say(f"sim.worker_busy_frac = {busy[2]:.4g} (estimator busy {busy[0]:.3f} s / "
        f"(study wall {busy[1]:.3f} s x {PARALLELISM} workers), one parallel untraced call)")
    return m


def run_traced(cli, wl, seed, seconds, size, inputs, ref_dir) -> tuple[dict, Check, list]:
    from tracing import Tracer

    problems: list[str] = []
    total = Check()
    ref_res, chk = reference_op(cli, wl, size, inputs, ref_dir, problems)
    total.add(chk)
    busy = worker_busy_frac(ref_res, wl)

    tracer = Tracer()
    traced_s, untraced_s, traced_ops = 0.0, 0.0, set()
    first_text = None
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        s = op_seed(seed, k, size)
        # alternate the order of each traced/untraced pair to cancel drift
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if traced:
                tracer.op = k
                tracer.install()
                try:
                    res = run_op(cli, wl, inputs.config, inputs.out, s, 1)
                finally:
                    tracer.uninstall()
                traced_s += res.seconds
                traced_ops.add(k)
            else:
                res = run_op(cli, wl, inputs.config, inputs.out, s, 1)
                untraced_s += res.seconds
            if first_text is None:
                first_text = res.text
            total.add(check_op(res, wl, size, None,
                               first_text if wl.kind == "estimate" else None, problems))
        k += 1

    summary = tracer.summary(traced_ops)
    missing = [name for name in wl.required_spans if summary.get(name, {}).get("calls", 0) == 0]
    if missing:
        problems.append(f"spans with zero calls (a wrapper missed its callers): {missing}")
        total.mismatches += len(missing)
    metrics = _layer_metrics(summary, len(traced_ops), busy)
    overhead = 100.0 * (traced_s / untraced_s - 1.0)
    metrics["trace.overhead_pct"] = (overhead, "%")
    say(f"tracing overhead {overhead:+.2f}% ({traced_s:.3f} s traced vs {untraced_s:.3f} s "
        f"untraced over {len(traced_ops)} serial call pairs)")
    WORK_ROOT.mkdir(exist_ok=True)
    spans_path = WORK_ROOT / f"spans-{wl.name}.jsonl"
    tracer.write_jsonl(spans_path)
    say(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return metrics, total, problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="run at the self-test size (the pinned references do not apply)")
    p.add_argument("--reference-dir", type=Path, default=PINNED_DIR,
                   help="directory of pinned reference outputs (default: bench/reference)")
    p.add_argument("--write-reference", action="store_true",
                   help="run the reference operation, write its output to --reference-dir, exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    wl = WORKLOADS[args.workload]
    size = wl.tiny_size if args.tiny else wl.size
    if args.setup_probe:
        setup_probe(wl, args.seed, size)
        return 0

    pkg = import_package()
    meta = run_metadata()
    say(f"workload {wl.name} seed {args.seed} seconds {args.seconds} trace {args.trace} "
        f"size {size}")
    say(f"meta {json.dumps(meta, sort_keys=True)}")

    setup_samples = []
    if args.trace == 0 and not args.write_reference:
        setup_samples = measure_setup(wl, args.seed, args.tiny)
    work = WORK_ROOT / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        inputs = make_inputs(wl, args.seed, size, work)
        cli = pkg.cli
        if args.write_reference:
            res = run_op(cli, wl, inputs.reference_config, inputs.out,
                         op_seed(REFERENCE_SEED, 0, size), PARALLELISM)
            problems: list[str] = []
            chk = check_op(res, wl, size, None, None, problems)
            if chk.failed or res.text is None:
                raise BenchError(f"reference operation did not check out: {problems}")
            args.reference_dir.mkdir(parents=True, exist_ok=True)
            (args.reference_dir / f"{wl.name}.csv").write_text(res.text)
            say(f"wrote {args.reference_dir / (wl.name + '.csv')}")
            return 0
        if args.trace:
            metrics, total, problems = run_traced(cli, wl, args.seed, args.seconds, size,
                                                  inputs, args.reference_dir)
        else:
            metrics, total, problems = run_untraced(cli, wl, args.seed, args.seconds, size,
                                                    inputs, args.reference_dir, setup_samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        say(f"CHECK FAILED: {problem}")
    # failure and non-convergence shares can be 0, so they are printed here
    # with their bases rather than carried as bounded metrics
    nc_frac = total.not_converged / total.estimates if total.estimates else 0.0
    say(f"failed_frac = {total.failed / total.attempted:.6g} ({total.failed} failed / "
        f"{total.attempted} attempted fits, {total.mismatches} check mismatches)")
    say(f"not_converged_frac = {nc_frac:.6g} ({total.not_converged} / {total.estimates} estimates)")
    for name, (value, unit) in metrics.items():
        say(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": total.mismatches == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
