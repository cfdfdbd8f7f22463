"""Batch front door: estimate from a CSV, or run a named simulation study.

Everything is driven by a flat key = value config file with dotted section
prefixes; command-line flags override the handful of operational keys.
Exit codes are a stable contract: 0 success, 1 estimator/run failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data_model import CsvSchema, DataError, load_csv
from .estimators import ESTIMATOR_IDS, OPTIONS_READ, EstimatorError, run_roster
from .glm import GlmError
from .nuisance import (
    TRUNC_G_DEFAULT,
    TRUNC_PI_DEFAULT,
    NuisanceConfig,
    NuisanceError,
    check_truncation,
)
from .sim import (
    DGP_IDS,
    DgpSpec,
    StudyEstimator,
    StudySpec,
    run_study,
    write_report_csv,
    write_sidecar,
)

EXIT_OK = 0
EXIT_ESTIMATOR_FAILURE = 1
EXIT_CONFIG_ERROR = 2


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


# keys accepted in config files; estimator option keys are matched by prefix
_KNOWN_KEYS = {
    "mode", "seed", "out", "parallelism",
    "data.path", "data.y_kind", "data.y_lo", "data.y_hi",
    "schema.treatment", "schema.outcome", "schema.delta", "schema.w1", "schema.w2",
    "estimators",
    "nuisance.trunc_pi", "nuisance.trunc_g", "nuisance.known_pi", "nuisance.known_g",
    "sim.dgp", "sim.n", "sim.n_runs", "sim.missing_intercept", "sim.gamma",
    "sim.reference",
}
_ESTIMATOR_OPTION_KEYS = ("mode", "max_outer_iter")


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment; keys use dotted sections."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        out[key] = value
    _reject_unknown(out, source)
    return out


def _reject_unknown(cfg: dict[str, str], source: str) -> None:
    for key in cfg:
        if key in _KNOWN_KEYS:
            continue
        parts = key.split(".")
        if (len(parts) == 3 and parts[0] == "estimator"
                and parts[1] in ESTIMATOR_IDS and parts[2] in _ESTIMATOR_OPTION_KEYS):
            est_id, option = parts[1:]
            if option in OPTIONS_READ[est_id]:
                continue
            readers = ", ".join(e for e in ESTIMATOR_IDS if option in OPTIONS_READ[e])
            raise ConfigError(f"{source}: {key}: {est_id} has no {option!r} option "
                              f"(read by {readers})")
        raise ConfigError(f"{source}: unknown config key {key!r}")


def _get_bool(cfg, key, default=False) -> bool:
    raw = cfg.get(key)
    if raw is None:
        return default
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _get_float(cfg, key, default=None) -> float | None:
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _get_int(cfg, key, default=None, minimum=None) -> int | None:
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: expected an integer >= {minimum}, got {value}")
    return value


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _get_pair(cfg, key, default) -> tuple[float, float]:
    raw = cfg.get(key)
    if raw is None:
        return default
    parts = _split_list(raw)
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected 'lo, hi', got {raw!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"{key}: expected two numbers 'lo, hi', got {raw!r}") from None


def _env_threads() -> int:
    """TWOPHASE_THREADS: default worker count; unset or 0 means one per CPU."""
    raw = os.environ.get("TWOPHASE_THREADS", "").strip()
    if not raw:
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"TWOPHASE_THREADS: expected an integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"TWOPHASE_THREADS: expected an integer >= 0, got {value}")
    return value


@dataclass(frozen=True)
class RunConfig:
    mode: str
    cfg: dict[str, str]
    out_dir: Path
    seed: int
    parallelism: int
    verbose: bool


def _estimator_list(cfg) -> list[StudyEstimator]:
    raw = cfg.get("estimators")
    ids = _split_list(raw) if raw else list(ESTIMATOR_IDS)
    out = []
    for est_id in ids:
        if est_id not in ESTIMATOR_IDS:
            raise ConfigError(f"estimators: unknown estimator {est_id!r}")
        if ids.count(est_id) > 1:  # the report rows and runtimes are keyed by label
            raise ConfigError(f"estimators: {est_id} is listed more than once")
        mode = cfg.get(f"estimator.{est_id}.mode", "refit")
        if mode not in ("refit", "linearized"):
            raise ConfigError(f"estimator.{est_id}.mode: expected refit|linearized")
        max_outer = _get_int(cfg, f"estimator.{est_id}.max_outer_iter", 50, minimum=0)
        out.append(StudyEstimator(estimator_id=est_id, mode=mode, max_outer_iter=max_outer))
    for key in cfg:
        if key.startswith("estimator.") and key.split(".")[1] not in ids:
            raise ConfigError(f"{key}: {key.split('.')[1]} is not in estimators, "
                              "so the run would ignore it")
    return out


def _truncation(cfg) -> tuple[tuple[float, float], tuple[float, float]]:
    """The validated (trunc_pi, trunc_g) pairs of either mode."""
    trunc_pi = _get_pair(cfg, "nuisance.trunc_pi", TRUNC_PI_DEFAULT)
    trunc_g = _get_pair(cfg, "nuisance.trunc_g", TRUNC_G_DEFAULT)
    try:
        check_truncation(trunc_pi, trunc_g)
    except ValueError as exc:
        raise ConfigError(f"nuisance.{exc}") from None
    return trunc_pi, trunc_g


# ---------------------------------------------------------------------------
# estimate mode
# ---------------------------------------------------------------------------


def cmd_estimate(rc: RunConfig) -> int:
    cfg = rc.cfg
    path = cfg.get("data.path")
    if not path:
        raise ConfigError("estimate mode requires data.path")
    if any(key.startswith("sim.") for key in cfg):
        raise ConfigError("estimate mode must not define sim.* keys")
    estimators = _estimator_list(cfg)
    for key in ("schema.treatment", "schema.outcome", "schema.delta", "schema.w1"):
        if key not in cfg:
            raise ConfigError(f"estimate mode requires {key}")
    y_kind = cfg.get("data.y_kind", "binary")
    if y_kind not in ("binary", "continuous"):
        raise ConfigError(f"data.y_kind: expected binary|continuous, got {y_kind!r}")
    y_lo, y_hi = _get_float(cfg, "data.y_lo"), _get_float(cfg, "data.y_hi")
    if (y_lo is None) != (y_hi is None):
        raise ConfigError("data.y_lo and data.y_hi must be given together")
    if y_lo is not None and y_kind == "binary":
        raise ConfigError("data.y_lo/data.y_hi apply to continuous outcomes only; "
                          "a binary outcome lies in [0, 1]")
    bounds = (y_lo, y_hi) if y_lo is not None else None
    schema = CsvSchema(
        treatment=cfg["schema.treatment"],
        outcome=cfg["schema.outcome"],
        delta=cfg["schema.delta"],
        w1=tuple(_split_list(cfg["schema.w1"])),
        w2=tuple(_split_list(cfg.get("schema.w2", ""))),
        y_kind=y_kind,
        y_bounds=bounds,
    )
    ds = load_csv(path, schema)
    if rc.verbose:
        print(f"loaded {ds.n} records ({ds.n_phase2} phase-2) from {path}")

    # in estimate mode, a known mechanism is a numeric constant (e.g. a
    # design-fixed sampling fraction), given to the estimators on every row
    def _known_const(key):
        raw = cfg.get(key)
        if raw is None:
            return None
        try:
            v = float(raw)
        except ValueError:
            raise ConfigError(f"{key}: estimate mode needs a numeric constant, got {raw!r}") from None
        if not 0.0 < v <= 1.0:
            raise ConfigError(f"{key}: a probability in (0, 1] is required")
        return np.full(ds.n, v)

    trunc_pi, trunc_g = _truncation(cfg)
    ncfg = NuisanceConfig(
        trunc_pi=trunc_pi, trunc_g=trunc_g,
        known_pi=_known_const("nuisance.known_pi"),
        known_g=_known_const("nuisance.known_g"),
    )
    _, results = run_roster(ds, [(e.estimator_id, e.options) for e in estimators], ncfg)
    rows = []
    all_converged = True
    for est, (r, _) in zip(estimators, results):
        if isinstance(r, EstimatorError):
            rows.append([est.label, "", "", "", "", "", "", "false"])
            all_converged = False
            print(f"estimator {est.label} failed: {r}", file=sys.stderr)
            continue
        rows.append([est.label, f"{r.psi_hat:.10g}", f"{r.se:.10g}",
                     f"{r.ci95[0]:.10g}", f"{r.ci95[1]:.10g}",
                     f"{r.eic_mean_abs:.6g}", str(r.n_outer_iterations),
                     str(r.converged).lower()])
        all_converged &= r.converged

    rc.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = rc.out_dir / "estimates.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "psi_hat", "se", "ci_lo", "ci_hi",
                         "eic_mean_abs", "n_iter", "converged"])
        writer.writerows(rows)
    if rc.verbose:
        print(f"wrote {out_path}")
    return EXIT_OK if all_converged else EXIT_ESTIMATOR_FAILURE


# ---------------------------------------------------------------------------
# simulate mode
# ---------------------------------------------------------------------------


def cmd_simulate(rc: RunConfig) -> int:
    cfg = rc.cfg
    if any(key.startswith(("data.", "schema.")) for key in cfg):
        raise ConfigError("simulate mode must not define data.* or schema.* keys")
    dgp_id = cfg.get("sim.dgp")
    if not dgp_id:
        raise ConfigError("simulate mode requires sim.dgp")
    if dgp_id not in DGP_IDS:
        raise ConfigError(f"sim.dgp: unknown dgp {dgp_id!r}; known: {', '.join(DGP_IDS)}")
    n = _get_int(cfg, "sim.n")
    n_runs = _get_int(cfg, "sim.n_runs", minimum=1)
    if n is None or n_runs is None:
        raise ConfigError("simulate mode requires sim.n and sim.n_runs")
    last_seed = rc.seed + n_runs - 1
    if rc.seed < 0 or last_seed >= 2**64:  # each run's seed keys a Philox stream
        raise ConfigError(f"seed: the runs would use seeds {rc.seed}..{last_seed}; "
                          "run seeds must lie in [0, 2^64 - 1]")
    try:
        dgp = DgpSpec(
            dgp_id=dgp_id, n=n, seed=rc.seed,
            missing_intercept=_get_float(cfg, "sim.missing_intercept", 1.1),
            gamma=_get_float(cfg, "sim.gamma", 1.0),
        )
    except ValueError as exc:
        # the dgp is checked above; every other DgpSpec message starts with
        # the name of its field, which is the sim.* key without the prefix
        raise ConfigError(f"sim.{exc}") from None
    reference = cfg.get("sim.reference", "truth")
    if reference not in ("truth", "census"):
        raise ConfigError(f"sim.reference: expected truth|census, got {reference!r}")
    trunc_pi, trunc_g = _truncation(cfg)
    study = StudySpec(
        dgp=dgp,
        estimators=tuple(_estimator_list(cfg)),
        n_runs=n_runs,
        base_seed=rc.seed,
        known_pi=_get_bool(cfg, "nuisance.known_pi"),
        known_g=_get_bool(cfg, "nuisance.known_g"),
        trunc_pi=trunc_pi,
        trunc_g=trunc_g,
        reference=reference,
        parallelism=rc.parallelism,
    )
    t0 = time.perf_counter()
    report = run_study(study)
    wall = time.perf_counter() - t0
    rc.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = rc.out_dir / "report.csv"
    write_report_csv(report, out_path)
    write_sidecar(report, study, rc.out_dir / "report.meta.json", wall)
    if rc.verbose:
        print(f"wrote {out_path} ({wall:.1f}s)")
    for row in report.rows:
        if row.n_failed > row.n_ok:
            print(f"estimator {row.label}: {row.n_failed}/{row.n_failed + row.n_ok} "
                  f"runs failed ({row.first_error})", file=sys.stderr)
            return EXIT_ESTIMATOR_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twophase-ate",
        description="ATE estimation and simulation benchmarks for two-phase designs",
    )
    p.add_argument("--config", required=True, help="path to a key = value config file")
    p.add_argument("--mode", choices=("estimate", "simulate"),
                   help="override the config's mode")
    p.add_argument("--out", help="output directory (default: config 'out' or cwd)")
    p.add_argument("--seed", type=int, help="override the config's seed")
    p.add_argument("--parallelism", type=int, help="worker count for simulate mode")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        cfg = parse_config_text(text, source=str(args.config))
        mode = args.mode or cfg.get("mode")
        if mode not in ("estimate", "simulate"):
            raise ConfigError(f"mode must be estimate|simulate, got {mode!r}")
        # a flag overrides a config value, but a malformed one is still an error
        seed = _get_int(cfg, "seed", 1)
        if args.seed is not None:
            seed = args.seed
        parallelism = _get_int(cfg, "parallelism", 0, minimum=0)
        if args.parallelism is not None:
            if args.parallelism < 0:
                raise ConfigError(f"--parallelism: expected an integer >= 0, "
                                  f"got {args.parallelism}")
            parallelism = args.parallelism
        if not parallelism:
            parallelism = _env_threads() or (os.cpu_count() or 1)
        rc = RunConfig(
            mode=mode,
            cfg=cfg,
            out_dir=Path(args.out or cfg.get("out", ".")),
            seed=seed,
            parallelism=parallelism,
            verbose=args.verbose,
        )
        if mode == "estimate":
            return cmd_estimate(rc)
        return cmd_simulate(rc)
    except (ConfigError, DataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (EstimatorError, NuisanceError, GlmError) as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
