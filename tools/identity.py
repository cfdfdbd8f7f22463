"""Check that two source trees give the same results, bit for bit, on a fixed grid.

Runs every roster entry below on every dataset of the grid, once with the
package of this checkout and once with the package of a baseline checkout,
each in its own interpreter and both at once, then compares the `repr` of
every result field (or the error text of a failed run) and a SHA-256 of
each generated dataset's arrays:

    python tools/identity.py --baseline DIR

DIR is the root of the other checkout (the one holding `src/twophase_ate`),
for example a `git archive` of the parent commit. For each run that differs
the first differing field is printed; the exit status is 1 if anything
differs, else 0.

The grid is 6 dataset specs (the four DGPs, missing_rate at sampling
intercept -0.5 and raking_gap at gamma 0) x n in {20, 30, 40, 300, 1000} x
seeds 1-3 x estimated or known pi, and the roster is all eight estimators,
the linearized mode of the three that read it and max_outer_iter 0, 1 and 2
for the three loop estimators: 3,600 runs. It uses only `generate`,
`NuisanceConfig` and `run_roster`, so both trees need nothing newer.

`--emit SRC` is the worker half: it prints the grid of the package below
SRC as JSON lines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATASETS = [("kang_dr", {}), ("missing_rate", {}), ("raking_gap", {}), ("near_positivity", {}),
            ("missing_rate", {"missing_intercept": -0.5}), ("raking_gap", {"gamma": 0.0})]
SIZES = (20, 30, 40, 300, 1000)
SEEDS = (1, 2, 3)
LOOPS = ("ipcw_tmle_target_pi", "ipcw_tmle_rake_pi", "tmle_alt")


def emit() -> None:
    """Print one JSON line per generated dataset and per run of the grid:
    {"key": label, "estimator": id (None for a dataset), "fields": {name:
    repr}} or the same with "error": text in place of "fields"."""
    from twophase_ate.data_model import DataError
    from twophase_ate.estimators import ESTIMATOR_IDS, OPTIONS_READ, EstimatorOptions, run_roster
    from twophase_ate.nuisance import NuisanceConfig
    from twophase_ate.sim import DgpSpec, generate

    roster = ([(e, EstimatorOptions()) for e in ESTIMATOR_IDS]
              + [(e, EstimatorOptions(mode="linearized"))
                 for e in ESTIMATOR_IDS if "mode" in OPTIONS_READ[e]]
              + [(e, EstimatorOptions(max_outer_iter=k)) for e in LOOPS for k in (0, 1, 2)])

    def line(key: str, estimator: str | None, **record) -> None:
        print(json.dumps({"key": key, "estimator": estimator, **record}))

    for dgp, params in DATASETS:
        for n in SIZES:
            for seed in SEEDS:
                name = " ".join([dgp, *(f"{k}={v}" for k, v in params.items()),
                                 f"n={n}", f"seed={seed}"])
                try:
                    ds, truth = generate(DgpSpec(dgp, n=n, seed=seed, **params))
                except DataError as exc:
                    ds = truth = None
                    line(name, None, error=f"unusable draw: {exc}")
                else:
                    digest = hashlib.sha256()
                    for arr in (ds.w1, ds.a, ds.y, ds.delta, ds.w2, truth.pi0, truth.g0):
                        digest.update(repr((arr.dtype.str, arr.shape)).encode())
                        digest.update(arr.tobytes())
                    line(name, None, fields={"arrays": digest.hexdigest()})
                for known in (False, True):
                    if ds is None:
                        results = [(None, 0.0)] * len(roster)
                    else:
                        config = NuisanceConfig(known_pi=truth.pi0 if known else None)
                        _, results = run_roster(ds, roster, config)
                    for (e, opts), (res, _) in zip(roster, results):
                        key = (f"{name} pi={'known' if known else 'estimated'} {e} "
                               f"mode={opts.mode} max_outer_iter={opts.max_outer_iter}")
                        if res is None:
                            line(key, e, error="unusable draw")
                        elif isinstance(res, Exception):
                            line(key, e, error=str(res))
                        else:
                            line(key, e, fields={f.name: repr(getattr(res, f.name))
                                                 for f in dataclasses.fields(res)})


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
    if len(argv) == 2 and argv[0] == "--emit":
        sys.path.insert(0, str(Path(argv[1]).resolve()))
        emit()
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
                    [sys.executable, __file__, "--emit", str(tree / "src")], stdout=out)
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
            differing.add(mine["estimator"] or "dataset arrays")
    runs = [r for r in ours if r["estimator"] is not None]
    if differing:
        print(f"differ: {', '.join(sorted(differing))}")
        return 1
    print(f"identical: {len(runs)} runs, {sum('error' in r for r in runs)} of them errors, "
          f"on {len(ours) - len(runs)} datasets")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
