"""Check that two source trees give the same results, bit for bit, on a fixed grid.

Runs every roster entry below on every dataset of the grid, once with the
package of this checkout and once with the package of a baseline checkout,
each in its own interpreter and both at once, then compares the `repr` of
every result field (or the error text of a failed run), SHA-256 digests
of each generated dataset and the population values of each dataset spec:

    python tools/identity.py --baseline DIR

DIR is the root of the other checkout (the one holding `src/twophase_ate`),
for example a `git archive` of the parent commit. For each run that differs
the first differing field is printed; the exit status is 1 if anything
differs, else 0.

The grid has four parts, and every dataset of it runs the same roster: all
eight estimators, the linearized mode of the three that read it and
max_outer_iter 0, 1 and 2 for the three loop estimators.

* Simulated: 6 dataset specs (the four DGPs, missing_rate at sampling
  intercept -0.5 and raking_gap at gamma 0) x n in {20, 30, 40, 300, 1000}
  x seeds 1-3 x estimated or known pi: 3,600 runs.
* Synthetic edge cases: cohorts with one w1 column and d2 in {0, 1, 6, 7}
  w2 columns (none, one, and both sides of raking's quadrature limit) at
  n in {40, 300}, and with d2 = 5 at n = 2000, whose ~900 censored rows
  take raking's 243 quadrature nodes in four blocks; each x a binary or
  continuous outcome x seeds 1-2, drawn from a Philox stream keyed by the
  seed. Each runs with estimated and with known pi, and its all-phase-2
  copy (no censored rows) with pi pinned at 1: 2,160 runs.
* Tiny pi bounds: missing_rate n=300 at sampling intercept -2.5, seed 20
  with estimated pi bounded below by 1e-300, and seed 1 with known pi of
  1e-9 times the truth bounded below by 1e-12. 1/pi reaches 1e12 or more,
  so the fluctuation, raking and plug-in solves leave the floats or fall
  back to bisection, which returns a root in some solves and not in
  others: 40 runs.
* The bundled cohort: `repro/example_cohort.csv` of this checkout, read
  by each tree under the schema of `repro/example_estimate.cfg`, with
  estimated pi: 20 runs.

Each dataset of the grid is recorded three times: a digest of its arrays,
a digest of its `write_csv` -> `load_csv` round trip (the file's bytes
and the arrays read back) and a digest of its phase-2 index. Each of the
6 dataset specs at seed 1 also records `reference_psi`, and `census_psi`
and `true_psi` at 5,000 Monte-Carlo draws (one block of the population
draw), 20,000 (three blocks, the last one partial) and 2 * 2^16 + 123
(seventeen).

It uses only `generate`, `census_psi`, `true_psi`, `reference_psi`,
`Dataset`, `CsvSchema`, `write_csv`, `load_csv`, `NuisanceConfig` and
`run_roster`, so both trees need nothing newer.

`--emit SRC CSV` is the worker half: it prints the grid of the package
below SRC as JSON lines, writing the round trips to the file CSV.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATASETS = [("kang_dr", {}), ("missing_rate", {}), ("raking_gap", {}), ("near_positivity", {}),
            ("missing_rate", {"missing_intercept": -0.5}), ("raking_gap", {"gamma": 0.0})]
SIZES = (20, 30, 40, 300, 1000)
SEEDS = (1, 2, 3)
LOOPS = ("ipcw_tmle_target_pi", "ipcw_tmle_rake_pi", "tmle_alt")
# (d2, n) of the synthetic cohorts: d2 = 5 at n = 2000 is the widest
# quadrature, over enough censored rows to take its nodes in several blocks
EDGE_COHORTS = [(d2, n) for d2 in (0, 1, 6, 7) for n in (40, 300)] + [(5, 2000)]
EDGE_SEEDS = (1, 2)
# Monte-Carlo draws of census_psi and true_psi: within one block of
# sim._CENSUS_CHUNK (2^13) rows, across three, the last one partial, and
# across seventeen
N_MC = (5_000, 20_000, 2 * (1 << 16) + 123)
# tiny pi bounds: (seed, known pi as a multiple of the truth, or None for
# estimated pi, and the pi bounds)
TINY_PI = ((20, None, (1e-300, 1.0)), (1, 1e-9, (1e-12, 1.0)))
# the bundled estimate-mode cohort, read as repro/example_estimate.cfg reads it
COHORT = ROOT / "repro" / "example_cohort.csv"
# the records of a dataset and of a dataset spec; every other record is a run
DATASET_PARTS = ("arrays", "csv round trip", "phase2")
VALUE_PARTS = ("reference_psi", "census_psi", "true_psi")


def edge_cohort(d2: int, y_kind: str, n: int, seed: int):
    """A synthetic cohort with one w1 column and d2 w2 columns, its sampling
    probabilities, and its all-phase-2 copy, as the arguments of `Dataset`."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = rng.normal(size=(n, 1 + d2))
    a = (rng.random(n) < 1.0 / (1.0 + np.exp(-0.4 * w[:, 0]))).astype(int)
    lin = -0.2 + 0.8 * a + w @ np.full(1 + d2, 0.4)
    if y_kind == "binary":
        y, bounds = (rng.random(n) < 1.0 / (1.0 + np.exp(-lin))).astype(float), (0.0, 1.0)
    else:
        y = lin + rng.normal(size=n)
        bounds = (float(y.min()) - 1.0, float(y.max()) + 1.0)
    pi = 1.0 / (1.0 + np.exp(-(0.3 + 0.5 * w[:, 0] - 0.4 * a)))
    delta = (rng.random(n) < pi).astype(int)
    common = {"w1": w[:, :1], "a": a, "y": y, "y_kind": y_kind, "y_bounds": bounds}
    w2 = np.where(delta[:, None] == 1, w[:, 1:], np.nan)
    return (dict(common, delta=delta, w2=w2), pi,
            dict(common, delta=np.ones(n, dtype=int), w2=w[:, 1:]))


def emit(csv_path: Path) -> None:
    """Print one JSON line per record of the grid: {"key": label, "part":
    the estimator id of a run, else one of DATASET_PARTS or VALUE_PARTS,
    "fields": {name: repr}} or the same with "error": text in place of
    "fields"."""
    from twophase_ate.data_model import CsvSchema, DataError, Dataset, load_csv, write_csv
    from twophase_ate.estimators import ESTIMATOR_IDS, OPTIONS_READ, EstimatorOptions, run_roster
    from twophase_ate.nuisance import NuisanceConfig
    from twophase_ate.sim import DgpSpec, census_psi, generate, reference_psi, true_psi

    roster = ([(e, EstimatorOptions()) for e in ESTIMATOR_IDS]
              + [(e, EstimatorOptions(mode="linearized"))
                 for e in ESTIMATOR_IDS if "mode" in OPTIONS_READ[e]]
              + [(e, EstimatorOptions(max_outer_iter=k)) for e in LOOPS for k in (0, 1, 2)])

    def line(key: str, part: str, **record) -> None:
        print(json.dumps({"key": key, "part": part, **record}))

    def digest(*arrays) -> dict:
        sha = hashlib.sha256()
        for arr in arrays:
            sha.update(repr((arr.dtype.str, arr.shape)).encode())
            sha.update(arr.tobytes())
        return {"sha256": sha.hexdigest()}

    def unusable(name: str, exc: Exception) -> None:
        for part in DATASET_PARTS:
            line(f"{name} {part}", part, error=f"unusable draw: {exc}")

    def dataset(name: str, ds, *extra, schema=None) -> None:
        """The records of ds, its round trip under schema (by default one
        naming its columns by position); extra arrays join the digest of
        its arrays."""
        line(f"{name} arrays", "arrays",
             fields=digest(ds.w1, ds.a, ds.y, ds.delta, ds.w2, *extra))
        schema = schema or CsvSchema(treatment="a", outcome="y", delta="delta",
                                     w1=tuple(f"w1_{j}" for j in range(ds.d_w1)),
                                     w2=tuple(f"w2_{j}" for j in range(ds.d_w2)),
                                     y_kind=ds.y_kind, y_bounds=ds.y_bounds)
        write_csv(ds, csv_path, schema)
        back = load_csv(csv_path, schema)
        line(f"{name} csv round trip", "csv round trip",
             fields=digest(np.frombuffer(csv_path.read_bytes(), dtype=np.uint8),
                           back.w1, back.a, back.y, back.delta, back.w2,
                           np.array(back.y_bounds)))
        line(f"{name} phase2", "phase2", fields=digest(ds.phase2))

    def run(name: str, ds, configs) -> None:
        """The roster on ds (None for an unusable draw) under each
        (label, NuisanceConfig) of configs."""
        for label, config in configs:
            if ds is None:
                results = [(None, 0.0)] * len(roster)
            else:
                _, results = run_roster(ds, roster, config)
            for (e, opts), (res, _) in zip(roster, results):
                key = (f"{name} pi={label} {e} "
                       f"mode={opts.mode} max_outer_iter={opts.max_outer_iter}")
                if res is None:
                    line(key, e, error="unusable draw")
                elif isinstance(res, Exception):
                    line(key, e, error=str(res))
                else:
                    line(key, e, fields={f.name: repr(getattr(res, f.name))
                                         for f in dataclasses.fields(res)})

    for dgp, params in DATASETS:
        spec = DgpSpec(dgp, n=SIZES[0], seed=1, **params)
        name = " ".join([dgp, *(f"{k}={v}" for k, v in params.items())])
        line(f"{name} reference_psi", "reference_psi",
             fields={"value": repr(reference_psi(spec))})
        for n_mc in N_MC:
            for part, population in (("census_psi", census_psi), ("true_psi", true_psi)):
                line(f"{name} n_mc={n_mc} {part}", part,
                     fields={"value": repr(population(spec, n_mc=n_mc))})

    for dgp, params in DATASETS:
        for n in SIZES:
            for seed in SEEDS:
                name = " ".join([dgp, *(f"{k}={v}" for k, v in params.items()),
                                 f"n={n}", f"seed={seed}"])
                try:
                    ds, truth = generate(DgpSpec(dgp, n=n, seed=seed, **params))
                except DataError as exc:
                    ds = truth = None
                    unusable(name, exc)
                else:
                    dataset(name, ds, truth.pi0, truth.g0)
                known = NuisanceConfig(known_pi=None if truth is None else truth.pi0)
                run(name, ds, [("estimated", NuisanceConfig()), ("known", known)])

    for d2, n in EDGE_COHORTS:
        for y_kind in ("binary", "continuous"):
            for seed in EDGE_SEEDS:
                name = f"synthetic d2={d2} y={y_kind} n={n} seed={seed}"
                cohort, pi, full = edge_cohort(d2, y_kind, n, seed)
                for label, args, configs in (
                        (name, cohort, [("estimated", NuisanceConfig()),
                                        ("known", NuisanceConfig(known_pi=pi))]),
                        (f"{name} all-phase-2", full,
                         [("pinned", NuisanceConfig(known_pi=np.ones(n)))])):
                    try:
                        ds = Dataset(**args)
                    except DataError as exc:
                        ds = None
                        unusable(label, exc)
                    else:
                        dataset(label, ds, pi)
                    run(label, ds, configs)

    for seed, scale, trunc_pi in TINY_PI:
        name = f"missing_rate missing_intercept=-2.5 n=300 seed={seed} trunc_pi={trunc_pi}"
        ds, truth = generate(DgpSpec("missing_rate", n=300, seed=seed, missing_intercept=-2.5))
        dataset(name, ds, truth.pi0, truth.g0)
        if scale is None:
            run(name, ds, [("estimated", NuisanceConfig(trunc_pi=trunc_pi))])
        else:
            run(name, ds, [(f"known x {scale}",
                            NuisanceConfig(known_pi=truth.pi0 * scale, trunc_pi=trunc_pi))])

    schema = CsvSchema(treatment="a", outcome="y", delta="delta", w1=("x1",), w2=("z1", "z2"))
    try:
        ds = load_csv(COHORT, schema)
    except DataError as exc:
        ds = None
        unusable("bundled cohort", exc)
    else:
        dataset("bundled cohort", ds, schema=schema)
    run("bundled cohort", ds, [("estimated", NuisanceConfig())])


def first_difference(ours: dict, theirs: dict) -> str | None:
    """The first differing field of two records, as text, or None."""
    if "error" in ours or "error" in theirs:
        if ours.get("error") == theirs.get("error"):
            return None
        return f"error {theirs.get('error')!r} -> {ours.get('error')!r}"
    for name, value in ours["fields"].items():
        if theirs["fields"].get(name) != value:
            return f"{name} {theirs['fields'].get(name)} -> {value}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--emit":
        sys.path.insert(0, str(Path(argv[1]).resolve()))
        emit(Path(argv[2]))
        return 0
    if len(argv) != 2 or argv[0] != "--baseline":
        print(f"usage: {sys.argv[0]} --baseline DIR", file=sys.stderr)
        return 2
    trees = {"baseline": Path(argv[1]).resolve(), "this tree": ROOT}
    for label, tree in trees.items():
        if not (tree / "src" / "twophase_ate").is_dir():
            print(f"{label}: no src/twophase_ate below {tree}", file=sys.stderr)
            return 2
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        # each worker writes to a file, so neither waits on a full pipe
        outputs = {label: Path(tmp, f"{i}.jsonl") for i, label in enumerate(trees)}
        procs = {}
        for label, tree in trees.items():
            with open(outputs[label], "w") as out:
                procs[label] = subprocess.Popen(
                    [sys.executable, __file__, "--emit", str(tree / "src"),
                     str(outputs[label].with_suffix(".csv"))], stdout=out)
        for proc in procs.values():
            proc.wait()
        for label, proc in procs.items():
            if proc.returncode != 0:
                print(f"{label}: the grid failed (exit {proc.returncode})", file=sys.stderr)
                return 2
            records[label] = [json.loads(s) for s in outputs[label].read_text().splitlines()]
    ours, theirs = records["this tree"], records["baseline"]
    if [r["key"] for r in ours] != [r["key"] for r in theirs]:
        print("the two trees ran different grids", file=sys.stderr)
        return 2

    differing = set()
    for mine, base in zip(ours, theirs):
        diff = first_difference(mine, base)
        if diff is not None:
            print(f"{mine['key']}: {diff}")
            differing.add(mine["part"])
    runs = [r for r in ours if r["part"] not in DATASET_PARTS + VALUE_PARTS]
    if differing:
        print(f"differ: {', '.join(sorted(differing))}")
        return 1
    datasets = sum(r["part"] == "arrays" for r in ours)
    values = sum(r["part"] in VALUE_PARTS for r in ours)
    print(f"identical: {len(runs)} runs, {sum('error' in r for r in runs)} of them errors, "
          f"on {datasets} datasets, and {values} population values")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
