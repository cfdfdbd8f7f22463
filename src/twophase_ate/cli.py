"""Batch front door: estimate from a CSV, or run a named simulation study.

Everything is driven by a flat key = value config file with dotted section
prefixes. One table, KEYS, gives each key its modes, parser and default; the
command-line flags feed a few of its keys, and TWOPHASE_THREADS a worker
count of 0, through the same parsers.
Exit codes are a stable contract: 0 success, 1 estimator/run failure,
2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import tempfile
import time
from collections.abc import Callable, Mapping
from pathlib import Path

import numpy as np

from . import __version__
from .data_model import CsvSchema, DataError, load_csv
from .estimators import (
    _EIC_MODES,
    DEFAULT_OPTIONS,
    ESTIMATOR_IDS,
    OPTIONS_READ,
    EstimatorError,
    run_roster,
)
from .glm import GlmError
from .nuisance import (
    TRUNC_G_DEFAULT,
    TRUNC_PI_DEFAULT,
    NuisanceConfig,
    NuisanceError,
    check_truncation,
)
from .sim import (
    _SEED_MAX,
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


# A parser turns one raw value into a typed one, or raises ValueError with a
# message that the caller prefixes with the key, flag or variable it came from.


def _text(raw: str) -> str:
    if not raw:
        raise ValueError("expected a value")
    return raw


def _number(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None


def _integer(minimum: int | None = None) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got {raw!r}") from None
        if minimum is not None and value < minimum:
            raise ValueError(f"expected an integer >= {minimum}, got {value}")
        return value
    return parse


def _choice(*options: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected {'|'.join(options)}, got {raw!r}")
        return raw
    return parse


def _boolean(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _probability(raw: str) -> float:
    value = _number(raw)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"expected a probability in (0, 1], got {raw!r}")
    return value


def _names(raw: str) -> tuple[str, ...]:
    """A comma-separated list; an empty value is the empty list."""
    items = tuple(item.strip() for item in raw.split(","))
    if items == ("",):
        return ()
    if "" in items:
        raise ValueError(f"empty list item in {raw!r}")
    return items


def _pair(raw: str) -> tuple[float, float]:
    parts = _names(raw)
    if len(parts) != 2:
        raise ValueError(f"expected 'lo, hi', got {raw!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"expected two numbers 'lo, hi', got {raw!r}") from None


def _roster(raw: str) -> tuple[str, ...]:
    ids = _names(raw) or ESTIMATOR_IDS
    for est_id in ids:
        if est_id not in ESTIMATOR_IDS:
            raise ValueError(f"unknown estimator {est_id!r}")
        if ids.count(est_id) > 1:  # the report rows and runtimes are keyed by label
            raise ValueError(f"{est_id} is listed more than once")
    return ids


REQUIRED = object()  # the default of a key that every run of its modes must set
MODES = ("estimate", "simulate")
_EST, _SIM = ("estimate",), ("simulate",)
_OPTION_ROWS = {
    "mode": (_choice(*_EIC_MODES), DEFAULT_OPTIONS.mode),
    "max_outer_iter": (_integer(0), DEFAULT_OPTIONS.max_outer_iter),
}

# key -> (modes that read it, parser or {mode: parser}, default or REQUIRED)
KEYS: dict[str, tuple[tuple[str, ...], object, object]] = {
    "mode": (MODES, _choice(*MODES), REQUIRED),
    "seed": (MODES, _integer(), 1),
    "out": (MODES, _text, "."),
    "parallelism": (MODES, _integer(0), 0),
    "estimators": (MODES, _roster, ESTIMATOR_IDS),
    "nuisance.trunc_pi": (MODES, _pair, TRUNC_PI_DEFAULT),
    "nuisance.trunc_g": (MODES, _pair, TRUNC_G_DEFAULT),
    # a design-fixed constant given on every row in estimate mode; in simulate
    # mode, whether the estimators get the simulation's true mechanism
    "nuisance.known_pi": (MODES, {"estimate": _probability, "simulate": _boolean}, None),
    "nuisance.known_g": (MODES, {"estimate": _probability, "simulate": _boolean}, None),
    "data.path": (_EST, _text, REQUIRED),
    "data.y_kind": (_EST, _choice("binary", "continuous"), "binary"),
    "data.y_lo": (_EST, _number, None),
    "data.y_hi": (_EST, _number, None),
    "schema.treatment": (_EST, _text, REQUIRED),
    "schema.outcome": (_EST, _text, REQUIRED),
    "schema.delta": (_EST, _text, REQUIRED),
    "schema.w1": (_EST, _names, REQUIRED),
    "schema.w2": (_EST, _names, ()),
    "sim.dgp": (_SIM, _choice(*DGP_IDS), REQUIRED),
    "sim.n": (_SIM, _integer(), REQUIRED),
    "sim.n_runs": (_SIM, _integer(1), REQUIRED),
    "sim.missing_intercept": (_SIM, _number, 1.1),
    "sim.gamma": (_SIM, _number, 1.0),
    "sim.reference": (_SIM, _choice("truth", "census"), "truth"),
    **{f"estimator.{est_id}.{option}": (MODES, *_OPTION_ROWS[option])
       for est_id in ESTIMATOR_IDS for option in sorted(OPTIONS_READ[est_id])},
}
_FLAGS = ("mode", "out", "seed", "parallelism")  # each --<key> flag feeds that key


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
        if key not in KEYS:
            option = key.rpartition(".")[2]
            readers = [e for e in ESTIMATOR_IDS if f"estimator.{e}.{option}" in KEYS]
            hint = (f" ({option!r} is read by {', '.join(readers)})"
                    if key.startswith("estimator.") and readers else "")
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}{hint}")
        out[key] = value
    return out


def _parse(key: str, raw: str, label: str, mode: str | None) -> object:
    parser = KEYS[key][1]
    try:
        return (parser[mode] if isinstance(parser, dict) else parser)(raw)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def resolve(cfg: dict[str, str], flags: dict[str, str],
            environ: Mapping[str, str]) -> dict[str, object]:
    """Every key of the run's mode, typed. Each source is parsed in full before
    any is used; then a flag beats the config, which beats the table's
    default. A worker count of 0 falls back to TWOPHASE_THREADS, then to one
    worker per CPU."""
    sources = ((flags, "--{}".format), (cfg, str))
    # the mode decides which keys apply and how the known mechanisms parse
    modes = [_parse("mode", raw["mode"], label("mode"), None)
             for raw, label in sources if "mode" in raw]
    if not modes:
        raise ConfigError("mode: expected estimate|simulate, got nothing")
    mode = modes[0]
    for key in cfg:
        if mode not in KEYS[key][0]:
            raise ConfigError(f"{mode} mode must not define {key.split('.')[0]}.* keys, "
                              f"got {key}")
    parsed = [{key: _parse(key, raw[key], label(key), mode) for key in raw}
              for raw, label in sources]
    threads = environ.get("TWOPHASE_THREADS", "").strip()
    threads = _parse("parallelism", threads, "TWOPHASE_THREADS", mode) if threads else 0
    values = {}
    for key, (key_modes, _, default) in KEYS.items():
        if mode in key_modes:
            values[key] = next((p[key] for p in parsed if key in p), default)
            if values[key] is REQUIRED:
                raise ConfigError(f"{mode} mode requires {key}")
    if not values["parallelism"]:
        values["parallelism"] = threads or os.cpu_count() or 1
    return values


def _output_dir(raw: str) -> Path:
    """Create the output directory and check it takes a file, before any work."""
    out_dir = Path(raw)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=out_dir).close()
    except OSError as exc:
        raise ConfigError(f"out: cannot write to directory {raw!r} ({exc.strerror})") from None
    return out_dir


# ---------------------------------------------------------------------------
# estimate mode
# ---------------------------------------------------------------------------


def cmd_estimate(v: dict, estimators: list[StudyEstimator], verbose: bool) -> int:
    y_lo, y_hi = v["data.y_lo"], v["data.y_hi"]
    if (y_lo is None) != (y_hi is None):
        raise ConfigError("data.y_lo and data.y_hi must be given together")
    if y_lo is not None and v["data.y_kind"] == "binary":
        raise ConfigError("data.y_lo/data.y_hi apply to continuous outcomes only; "
                          "a binary outcome lies in [0, 1]")
    schema = CsvSchema(
        treatment=v["schema.treatment"],
        outcome=v["schema.outcome"],
        delta=v["schema.delta"],
        w1=v["schema.w1"],
        w2=v["schema.w2"],
        y_kind=v["data.y_kind"],
        y_bounds=(y_lo, y_hi) if y_lo is not None else None,
    )
    out_dir = _output_dir(v["out"])
    ds = load_csv(v["data.path"], schema)
    if verbose:
        print(f"loaded {ds.n} records ({ds.n_phase2} phase-2) from {v['data.path']}")
    known_pi, known_g = (None if p is None else np.full(ds.n, p)
                         for p in (v["nuisance.known_pi"], v["nuisance.known_g"]))
    ncfg = NuisanceConfig(trunc_pi=v["nuisance.trunc_pi"], trunc_g=v["nuisance.trunc_g"],
                          known_pi=known_pi, known_g=known_g)
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

    out_path = out_dir / "estimates.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "psi_hat", "se", "ci_lo", "ci_hi",
                         "eic_mean_abs", "n_iter", "converged"])
        writer.writerows(rows)
    if verbose:
        print(f"wrote {out_path}")
    return EXIT_OK if all_converged else EXIT_ESTIMATOR_FAILURE


# ---------------------------------------------------------------------------
# simulate mode
# ---------------------------------------------------------------------------


def cmd_simulate(v: dict, estimators: list[StudyEstimator], verbose: bool) -> int:
    seed, n_runs = v["seed"], v["sim.n_runs"]
    last_seed = seed + n_runs - 1
    if seed < 0 or last_seed > _SEED_MAX:  # each run's seed keys a Philox stream
        raise ConfigError(f"seed: the runs would use seeds {seed}..{last_seed}; "
                          f"run seeds must lie in [0, {_SEED_MAX}]")
    try:
        dgp = DgpSpec(dgp_id=v["sim.dgp"], n=v["sim.n"], seed=seed,
                      missing_intercept=v["sim.missing_intercept"], gamma=v["sim.gamma"])
    except ValueError as exc:
        # the dgp id is parsed already; every other DgpSpec message starts
        # with the name of its field, which is the sim.* key without the prefix
        raise ConfigError(f"sim.{exc}") from None
    study = StudySpec(
        dgp=dgp,
        estimators=tuple(estimators),
        n_runs=n_runs,
        base_seed=seed,
        known_pi=bool(v["nuisance.known_pi"]),
        known_g=bool(v["nuisance.known_g"]),
        trunc_pi=v["nuisance.trunc_pi"],
        trunc_g=v["nuisance.trunc_g"],
        reference=v["sim.reference"],
        parallelism=v["parallelism"],
    )
    out_dir = _output_dir(v["out"])
    t0 = time.perf_counter()
    report = run_study(study)
    wall = time.perf_counter() - t0
    out_path = out_dir / "report.csv"
    write_report_csv(report, out_path)
    write_sidecar(report, study, out_dir / "report.meta.json", wall)
    if verbose:
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
    p.add_argument("--mode", help="estimate|simulate; overrides the config's mode")
    p.add_argument("--out", help="output directory (default: config 'out' or cwd)")
    p.add_argument("--seed", help="override the config's seed")
    p.add_argument("--parallelism", help="worker count for simulate mode")
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
        flags = {key: getattr(args, key) for key in _FLAGS if getattr(args, key) is not None}
        v = resolve(cfg, flags, os.environ)
        for key in cfg:
            if key.startswith("estimator.") and key.split(".")[1] not in v["estimators"]:
                raise ConfigError(f"{key}: {key.split('.')[1]} is not in estimators, "
                                  "so the run would ignore it")
        try:
            check_truncation(v["nuisance.trunc_pi"], v["nuisance.trunc_g"])
        except ValueError as exc:
            raise ConfigError(f"nuisance.{exc}") from None
        estimators = [
            StudyEstimator(est_id, **{opt: v[f"estimator.{est_id}.{opt}"]
                                      for opt in OPTIONS_READ[est_id]})
            for est_id in v["estimators"]]
        run = cmd_estimate if v["mode"] == "estimate" else cmd_simulate
        return run(v, estimators, args.verbose)
    except (ConfigError, DataError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (EstimatorError, NuisanceError, GlmError) as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
