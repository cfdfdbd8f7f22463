"""Self-test of the benchmark at a tiny size.

Run from the root of a source checkout:

    python3 bench/selftest.py

It checks that bench/predictions.json names only metrics and workloads
that exist. For each workload it pins a reference at the tiny size, then checks that
an untraced and a traced run print every metric named in BENCHMARK.json
with its unit and pass the correctness gate, and that a run against a
reference with one perturbed value is reported as not correct. Last, it
checks that the benchmark refuses to run without the package source.
Exits 0 when every check holds.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

failures: list[str] = []


def expect(cond: bool, message: str) -> None:
    print(("ok    " if cond else "FAIL  ") + message, flush=True)
    if not cond:
        failures.append(message)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def check_metrics(result: dict, section: str, label: str) -> None:
    printed = result["metrics"]
    for metric in SPEC[section]:
        got = printed.get(metric["name"])
        expect(got is not None and got.get("unit") == metric["unit"]
               and isinstance(got.get("value"), (int, float)),
               f"{label}: {metric['name']} printed with unit {metric['unit']}")
    extra = set(printed) - {m["name"] for m in SPEC[section]}
    expect(not extra, f"{label}: no metric outside BENCHMARK.json {section} ({sorted(extra)})")


def perturb(path: Path) -> None:
    """Scale the first row's point estimate by 1 + 1e-4."""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    header = rows[0]
    col = header.index("psi_mean" if "psi_mean" in header else "psi_hat")
    rows[1][col] = repr(float(rows[1][col]) * (1.0 + 1e-4))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    path.write_text(out.getvalue())


def check_predictions() -> None:
    """Every prediction names per-layer metrics and workloads that exist."""
    layer = {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for pred in json.loads((BENCH_DIR / "predictions.json").read_text())["predictions"]:
        named = [w.split(" ")[0] for w in pred["on"] + pred["flat_on"]]
        expect(set(pred["layer_metrics"]) <= layer and set(named) <= workloads
               and set(pred["moves"]) <= end_to_end,
               f"prediction {pred['name']} names known metrics and workloads")


def main() -> int:
    check_predictions()
    shutil.rmtree(WORK, ignore_errors=True)
    ref_dir = WORK / "reference"
    bad_dir = WORK / "perturbed"
    bad_dir.mkdir(parents=True)
    common = ("--seed", "7", "--seconds", "1", "--tiny")
    for wl in (w["name"] for w in SPEC["workloads"]):
        code, _, log = bench("--workload", wl, "--tiny", "--write-reference",
                             "--reference-dir", str(ref_dir))
        expect(code == 0, f"{wl}: tiny reference written")
        if code != 0:
            print(log)
            continue
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            code, result, log = bench("--workload", wl, *common, "--trace", trace,
                                      "--reference-dir", str(ref_dir))
            label = f"{wl} trace {trace}"
            expect(code == 0 and result is not None, f"{label}: exits 0 with a result")
            if result is None:
                print(log)
                continue
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: correct with no failures")
            check_metrics(result, section, label)

        shutil.copy(ref_dir / f"{wl}.csv", bad_dir / f"{wl}.csv")
        perturb(bad_dir / f"{wl}.csv")
        code, result, log = bench("--workload", wl, *common, "--trace", "1",
                                  "--reference-dir", str(bad_dir))
        expect(code == 0 and result is not None and result["correct"] is False
               and result["failed"] >= 1, f"{wl}: perturbed reference reported as a failure")

    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    name = SPEC["workloads"][0]["name"]
    code, result, _ = bench("--workload", name, "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
    expect(code != 0 and result is None, "without the package source: non-zero exit, no result")

    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(failures)} failed check(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
