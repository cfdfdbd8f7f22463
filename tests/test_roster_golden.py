"""Full-precision regression of every estimator on a grid of simulated datasets.

The CLI goldens print 10 significant digits; this one pins `repr` of every
result field (or the error text of a failed run) for a roster that covers
each estimator, the linearized mode of the three that read it, and the
capped loops of the two iterative IPCW-TMLEs, on every DGP with estimated
and with known pi. A change that moves any estimate in its last bit fails
here. To rewrite the pinned file after a deliberate change of results:

    PYTHONPATH=src python tests/test_roster_golden.py --write

The file was pinned under Python 3.11, numpy 2.4.6 and scipy-openblas
0.3.31 (64-bit integers). Last bits can move with the numpy build or the
BLAS behind it, so under another toolchain a mismatch here may be an
environment change rather than a regression: rerun the grid at the parent
commit with that toolchain before reading it as one.
"""

import sys
from pathlib import Path

from twophase_ate.estimators import (
    ESTIMATOR_IDS,
    OPTIONS_READ,
    EstimatorError,
    EstimatorOptions,
    run_roster,
)
from twophase_ate.nuisance import NuisanceConfig
from twophase_ate.sim import DGP_IDS, DgpSpec, generate

PINNED = Path(__file__).resolve().parent / "golden" / "roster_full_precision.txt"

ROSTER = (
    [(e, EstimatorOptions()) for e in ESTIMATOR_IDS]
    + [(e, EstimatorOptions(mode="linearized")) for e in ESTIMATOR_IDS if "mode" in OPTIONS_READ[e]]
    + [(e, EstimatorOptions(max_outer_iter=k))
       for e in ("ipcw_tmle_target_pi", "ipcw_tmle_rake_pi") for k in (0, 1)]
)
DATASETS = [(dgp, 300, seed, known) for dgp in DGP_IDS for seed in (1, 2) for known in (False, True)]


def roster_lines() -> list[str]:
    """One line per (dataset, roster entry): its label, then the repr of
    (psi, se, ci95, eic_mean_abs, n_outer_iterations, converged, s_n) or
    the error text."""
    lines = []
    for dgp, n, seed, known in DATASETS:
        ds, truth = generate(DgpSpec(dgp, n=n, seed=seed))
        config = NuisanceConfig(known_pi=truth.pi0 if known else None)
        _, results = run_roster(ds, ROSTER, config)
        for (e, opts), (res, _) in zip(ROSTER, results):
            label = (f"{dgp} n={n} seed={seed} pi={'known' if known else 'estimated'} {e} "
                     f"mode={opts.mode} max_outer_iter={opts.max_outer_iter}")
            if isinstance(res, EstimatorError):
                value = f"error {res}"
            else:
                value = repr((res.psi_hat, res.se, res.ci95, res.eic_mean_abs,
                              res.n_outer_iterations, res.converged, res.s_n))
            lines.append(f"{label}: {value}")
    return lines


def test_roster_matches_full_precision_golden():
    pinned = PINNED.read_text(encoding="utf-8").splitlines()
    lines = roster_lines()
    assert len(lines) == len(pinned) == len(DATASETS) * len(ROSTER)
    for got, want in zip(lines, pinned):
        assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    PINNED.write_text("".join(line + "\n" for line in roster_lines()), encoding="utf-8")
