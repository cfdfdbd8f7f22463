"""Shared builders, independent reference estimators and reference CSV
loader and writer for the test suite.

The reference implementations here deliberately re-derive the full-data
estimators from first principles (sharing only the GLM engine) so that the
no-coarsening equivalence tests compare two separately-written paths.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np

from twophase_ate import glm
from twophase_ate.data_model import CsvSchema, DataError, Dataset, default_bounds
from twophase_ate.estimators import _GH_MAX_DIM, _GH_NODES, _GH_WEIGHTS
from twophase_ate.glm import P_MIN, _cho_solve, _factor_spd, expit, fit_fluctuation, fit_glm, logit
from twophase_ate.nuisance import NuisanceConfig, fit_mbar
from twophase_ate.sim import DgpSpec, generate


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run `python *args` in a fresh interpreter that imports the package
    from this source tree, as a user's shell does after an install."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def traced_peak(call) -> int:
    """The traced peak bytes allocated by call() above what was allocated
    before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def make_full_dataset(rng: np.random.Generator, n: int = 200, d2: int = 2) -> Dataset:
    """Random dataset with every record in phase 2 (no coarsening)."""
    w = rng.normal(size=(n, 1 + d2))
    a = (rng.random(n) < expit(0.4 * w[:, 0] - 0.3 * w[:, 1])).astype(int)
    lin = 0.2 + 0.6 * a - 0.5 * w[:, 0] + 0.4 * w[:, 1] - 0.2 * w[:, -1]
    y = (rng.random(n) < expit(lin)).astype(float)
    if a.sum() < 2 or (1 - a).sum() < 2:
        return make_full_dataset(rng, n, d2)
    return Dataset(w1=w[:, :1], a=a, y=y, delta=np.ones(n, dtype=int),
                   w2=w[:, 1:], y_kind="binary")


def zero_covariate_cohort() -> Dataset:
    """missing_rate n=400 seed 3 with the phase-2 covariate z2 set to 0 on
    every phase-2 row: the raking working model's information matrix is
    then singular."""
    ds, _ = generate(DgpSpec("missing_rate", n=400, seed=3))
    w2 = ds.w2.copy()
    w2[ds.phase2, 1] = 0.0
    return Dataset(w1=ds.w1, a=ds.a, y=ds.y, delta=ds.delta, w2=w2, y_kind=ds.y_kind)


def compounding_rake_cohort() -> Dataset:
    """Seven binary records on which ipcw_tmle_rake_pi, with estimated
    nuisances, rakes its own raked pi until pi* leaves the floats: its third
    solve gives pi* of 0 and inf."""
    return Dataset(w1=np.array([[7.0], [7.0], [-9.0], [-14.0], [12.0], [-16.0], [1.0]]),
                   a=np.array([0, 1, 0, 0, 0, 1, 0]), y=np.array([1.0, 1, 0, 0, 1, 0, 1]),
                   delta=np.array([0, 1, 0, 1, 0, 1, 1]), w2=np.empty((7, 0)))


def tiny_known_pi_case() -> tuple[Dataset, NuisanceConfig]:
    """Four binary records, all in phase 2, with y = 1 - a and known pi
    from 6.8e-4 down to 2.4e-13 under a 1e-300 lower bound: eee's closed
    form leaves |P_n D| at 2.1e-6 against s_n = 9.9e-7."""
    ds = Dataset(w1=np.zeros((4, 2)), a=np.array([1, 1, 0, 0]), y=np.array([0.0, 0, 1, 1]),
                 delta=np.ones(4, dtype=int), w2=np.empty((4, 0)))
    return ds, NuisanceConfig(
        trunc_pi=(1e-300, 1.0),
        known_pi=np.array([0.0006766941333451992, 3.7982372913023957e-07,
                           1.4501937638950195e-06, 2.416135127883627e-13]),
        known_g=np.array([0.8943617896206444, 0.6846719904755205,
                          0.8340013634973542, 0.4935694934315722]))


def separated_outcome_cohort() -> Dataset:
    """Seven binary records, four in phase 2, where y = 1 - a on the phase-2
    rows: with estimated nuisances, quasi_tmle's root leaves |P_n D| at
    1.7e-11 against s_n = 4.7e-16."""
    return Dataset(w1=np.array([[5.0], [1110.0], [-1018.0], [-3308.0], [-1689.0], [-3683.0],
                                [223.0]]),
                   a=np.array([0, 1, 1, 1, 1, 1, 0]), y=np.array([1.0, 0, 1, 0, 0, 0, 1]),
                   delta=np.array([1, 0, 0, 1, 0, 1, 1]), w2=np.empty((7, 0)))


def make_twophase_dataset(rng: np.random.Generator, n: int = 300) -> Dataset:
    """Random two-phase dataset with moderate sampling and treatment overlap."""
    w = rng.normal(size=(n, 3))
    a = (rng.random(n) < expit(0.5 * w[:, 0] - 0.3 * w[:, 1])).astype(int)
    y = (rng.random(n) < expit(-0.2 + 0.7 * a + 0.4 * w[:, 0] - 0.5 * w[:, 2])).astype(float)
    pi = expit(0.8 + 0.4 * w[:, 0] + 0.3 * y)
    delta = (rng.random(n) < pi).astype(int)
    w2 = w[:, 1:].copy()
    w2[delta == 0] = np.nan
    p2 = delta == 1
    if a[p2].sum() < 3 or (1 - a[p2]).sum() < 3:
        return make_twophase_dataset(rng, n)
    return Dataset(w1=w[:, :1], a=a, y=y, delta=delta, w2=w2, y_kind="binary")


# ---------------------------------------------------------------------------
# independent full-data references (no coarsening)
# ---------------------------------------------------------------------------


def _fulldata_fits(ds: Dataset, trunc_g=(0.01, 0.99)):
    n = ds.n
    w_all = np.column_stack([ds.w1, ds.w2])
    X = np.column_stack([np.ones(n), ds.a, w_all])
    X1 = X.copy()
    X1[:, 1] = 1.0
    X0 = X.copy()
    X0[:, 1] = 0.0
    qfit = fit_glm(X, ds.y, family="bernoulli")
    Xg = np.column_stack([np.ones(n), w_all])
    gfit = fit_glm(Xg, ds.a.astype(float), family="bernoulli")
    g1 = np.clip(gfit.predict(Xg), trunc_g[0], trunc_g[1])
    return qfit.predict(X), qfit.predict(X1), qfit.predict(X0), g1


def fulldata_onestep(ds: Dataset) -> float:
    q_a, q1, q0, g1 = _fulldata_fits(ds)
    h = ds.a / g1 - (1 - ds.a) / (1 - g1)
    return float(np.mean(h * (ds.y - q_a) + q1 - q0))


def fulldata_tmle(ds: Dataset) -> float:
    q_a, q1, q0, g1 = _fulldata_fits(ds)
    h = ds.a / g1 - (1 - ds.a) / (1 - g1)
    eps = fit_fluctuation_at(1e-12, ds.y, logit(q_a, P_MIN), h).x
    q1s = expit(logit(q1, P_MIN) + eps / g1)
    q0s = expit(logit(q0, P_MIN) - eps / (1 - g1))
    return float(np.mean(q1s - q0s))


def fit_fluctuation_at(tol: float, *args):
    """fit_fluctuation(*args) solved to |score| <= tol in place of glm.FLUCT_TOL."""
    with mock.patch.object(glm, "FLUCT_TOL", tol):
        return fit_fluctuation(*args)


def fulldata_gcomp(ds: Dataset) -> float:
    _, q1, q0, _ = _fulldata_fits(ds)
    return float(np.mean(q1 - q0))


def bisect_oracle(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 300) -> float:
    """Plain interval bisection, written independently of the package solvers."""
    flo, fhi = f(lo), f(hi)
    assert flo * fhi <= 0, "oracle needs a bracketing interval"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= tol or (hi - lo) < 1e-15:
            return mid
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# full-design raking quadrature
# ---------------------------------------------------------------------------


def _census_designs(ds, rows, w2mat):
    X = np.column_stack([np.ones(len(rows)), ds.a[rows].astype(float), ds.w1[rows], w2mat])
    X1, X0 = X.copy(), X.copy()
    X1[:, 1] = 1.0
    X0[:, 1] = 0.0
    return X, X1, X0


def census_information(ctx, wts2: np.ndarray, family: str):
    """The working model fitted on the phase-2 rows, with the information
    matrix and gradient whose solve gives its influence coefficients alpha."""
    ds, p2 = ctx.scaled, ctx.p2
    Xp, Xp1, Xp0 = _census_designs(ds, p2, ds.w2[p2])
    fit = fit_glm(Xp, ctx.y2, w=wts2, family=family)
    q_a2, q12, q02 = (fit.predict(Z) for Z in (Xp, Xp1, Xp0))
    if family == "bernoulli":
        j_a, j1, j0 = q_a2 * (1 - q_a2), q12 * (1 - q12), q02 * (1 - q02)
    else:
        j_a = j1 = j0 = np.ones(len(p2))
    wn = wts2 / wts2.sum()
    info = (Xp * (wn * j_a)[:, None]).T @ Xp
    grad = (j1[:, None] * Xp1 - j0[:, None] * Xp0).T @ wn
    return fit, info, grad


def reference_imputation(ctx) -> SimpleNamespace:
    """The normal linear imputation model of raking: per phase-2 covariate,
    its regression on the phase-1 features predicted on every record
    (`mean`, (n, d2)) and its residual scale (`sd`, (d2,))."""
    ds, p2, design = ctx.scaled, ctx.p2, ctx.design
    dof = max(1, len(p2) - design.x2.shape[1])
    mean = np.column_stack([fit_mbar(design, ds.w2[p2, j]) for j in range(ds.d_w2)])
    resid = ds.w2[p2] - mean[p2]
    sd = np.array([np.sqrt(resid[:, j] @ resid[:, j] / dof) for j in range(ds.d_w2)])
    return SimpleNamespace(mean=mean, sd=sd)


def reference_census_influence(ctx, imputation, wts2: np.ndarray, family: str) -> np.ndarray:
    """The former full-design quadrature of the raking working model, kept
    as the reference that the offset form must match: uncentered influence
    values, with the design [1, a, w1, w2] rebuilt and predicted at every
    Gauss-Hermite node on the censored rows."""
    ds, p2 = ctx.scaled, ctx.p2

    def pieces(rows, X, X1, X0, alpha):
        q_a, q1, q0 = (fit.predict(Z) for Z in (X, X1, X0))
        return (X @ alpha) * (ds.y[rows] - q_a) + (q1 - q0)

    fit, info, grad = census_information(ctx, wts2, family)
    alpha = _cho_solve(_factor_spd(info)[0], grad)

    u = np.empty(ds.n)
    u[p2] = pieces(p2, *_census_designs(ds, p2, ds.w2[p2]), alpha)
    censored = np.flatnonzero(ds.delta == 0)
    if len(censored) and imputation is None:
        u[censored] = pieces(censored, *_census_designs(ds, censored, ds.w2[censored]), alpha)
    elif len(censored):
        d2 = imputation.mean.shape[1]
        base = imputation.mean[censored]
        if d2 > _GH_MAX_DIM:  # mean-only imputation
            draws = [(1.0, base)]
        else:
            draws = [(float(np.prod(_GH_WEIGHTS[list(c)])),
                      base + imputation.sd * _GH_NODES[list(c)])
                     for c in itertools.product(range(len(_GH_NODES)), repeat=d2)]
        acc = np.zeros(len(censored))
        for weight, w2mat in draws:
            acc += weight * pieces(censored, *_census_designs(ds, censored, w2mat), alpha)
        u[censored] = acc
    return u


# ---------------------------------------------------------------------------
# row-by-row CSV reference loader and writer
# ---------------------------------------------------------------------------


def _ref_parse_float(cell: str, row: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"row {row}: cannot parse {col}={cell!r} as a number") from None


def _ref_parse_finite(cell: str, row: int, col: str) -> float:
    v = _ref_parse_float(cell, row, col)
    if not np.isfinite(v):
        raise DataError(f"row {row}: column {col} must be finite, got {cell!r}")
    return v


def _ref_parse_binary(cell: str, row: int, col: str) -> int:
    v = _ref_parse_float(cell, row, col)
    if v not in (0.0, 1.0):
        raise DataError(f"row {row}: column {col} must be 0/1, got {cell!r}")
    return int(v)


def reference_load_csv(path, schema: CsvSchema) -> Dataset:
    """The former row-by-row load_csv, kept as the reference that the
    columnar loader must match: same Dataset, or the same DataError message.
    It reads a header with duplicated names from the last such column,
    which load_csv now rejects. Like load_csv, it skips a leading byte-order
    mark and names the row of a non-finite outcome, w1 or phase-2 w2 cell,
    of a binary outcome cell that is not 0/1 and of a continuous outcome
    cell outside valid declared bounds."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV file") from None
        col_idx = {name: i for i, name in enumerate(header)}
        for name in schema.columns:
            if name not in col_idx:
                raise DataError(f"CSV is missing required column {name!r}")
        w1_rows, w2_rows, a_col, y_col, d_col = [], [], [], [], []
        for rownum, cells in enumerate(reader, start=1):
            if len(cells) != len(header):
                raise DataError(f"row {rownum}: expected {len(header)} cells, got {len(cells)}")

            def cell(name: str) -> str:
                return cells[col_idx[name]].strip()

            delta = _ref_parse_binary(cell(schema.delta), rownum, schema.delta)
            a = _ref_parse_binary(cell(schema.treatment), rownum, schema.treatment)
            y = _ref_parse_finite(cell(schema.outcome), rownum, schema.outcome)
            if schema.y_kind == "binary" and y not in (0.0, 1.0):
                raise DataError(f"row {rownum}: column {schema.outcome} must be 0/1, "
                                f"got {cell(schema.outcome)!r}")
            if schema.y_kind == "continuous" and schema.y_bounds:
                lo, hi = float(schema.y_bounds[0]), float(schema.y_bounds[1])
                if lo < hi and math.isfinite(hi - lo) and not lo <= y <= hi:
                    raise DataError(f"row {rownum}: column {schema.outcome} must be within "
                                    f"[{lo}, {hi}], got {cell(schema.outcome)!r}")
            w1 = []
            for name in schema.w1:
                c = cell(name)
                if c == "":
                    raise DataError(f"row {rownum}: phase-1 column {name} is empty")
                w1.append(_ref_parse_finite(c, rownum, name))
            w2 = []
            for name in schema.w2:
                c = cell(name)
                if delta == 1:
                    if c == "":
                        raise DataError(f"row {rownum}: delta=1 but {name} is missing")
                    w2.append(_ref_parse_finite(c, rownum, name))
                else:
                    if c != "":
                        raise DataError(
                            f"row {rownum}: delta=0 row has a value in phase-2 column {name}"
                        )
                    w2.append(np.nan)
            w1_rows.append(w1)
            w2_rows.append(w2)
            a_col.append(a)
            y_col.append(y)
            d_col.append(delta)
    if not a_col:
        raise DataError("CSV contains a header but no data rows")
    y_arr = np.array(y_col, dtype=float)
    y_bounds = schema.y_bounds
    if schema.y_kind == "continuous" and y_bounds is None:
        y_bounds = default_bounds(y_arr)
    return Dataset(
        w1=np.array(w1_rows, dtype=float).reshape(len(a_col), len(schema.w1)),
        a=np.array(a_col),
        y=y_arr,
        delta=np.array(d_col),
        w2=np.array(w2_rows, dtype=float).reshape(len(a_col), len(schema.w2)),
        y_kind=schema.y_kind,
        y_bounds=y_bounds if y_bounds is not None else (0.0, 1.0),
    )


def reference_write_csv(ds: Dataset, path, schema: CsvSchema) -> None:
    """The former row-by-row write_csv, kept as the reference that the
    columnar writer must match byte for byte."""

    def fmt(x: float) -> str:
        return format(float(x), ".17g")

    if len(schema.w1) != ds.d_w1 or len(schema.w2) != ds.d_w2:
        raise DataError("schema dimensions do not match dataset")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.columns)
        for i in range(ds.n):
            row = [fmt(v) for v in ds.w1[i]]
            if ds.delta[i] == 1:
                row += [fmt(v) for v in ds.w2[i]]
            else:
                row += [""] * ds.d_w2
            row += [str(int(ds.a[i])), fmt(ds.y[i]), str(int(ds.delta[i]))]
            writer.writerow(row)
