"""Shared builders, independent reference estimators and a reference CSV
loader for the test suite.

The reference implementations here deliberately re-derive the full-data
estimators from first principles (sharing only the GLM engine) so that the
no-coarsening equivalence tests compare two separately-written paths.
"""

from __future__ import annotations

import csv

import numpy as np

from twophase_ate.data_model import CsvSchema, DataError, Dataset, default_bounds
from twophase_ate.glm import P_MIN, expit, fit_fluctuation, fit_glm, logit


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
    fl = fit_fluctuation(ds.y, logit(q_a, P_MIN), h, tol=1e-12)
    q1s = expit(logit(q1, P_MIN) + fl.epsilon / g1)
    q0s = expit(logit(q0, P_MIN) - fl.epsilon / (1 - g1))
    return float(np.mean(q1s - q0s))


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
# row-by-row CSV reference loader
# ---------------------------------------------------------------------------


def _ref_parse_float(cell: str, row: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"row {row}: cannot parse {col}={cell!r} as a number") from None


def _ref_parse_binary(cell: str, row: int, col: str) -> int:
    v = _ref_parse_float(cell, row, col)
    if v not in (0.0, 1.0):
        raise DataError(f"row {row}: column {col} must be 0/1, got {cell!r}")
    return int(v)


def reference_load_csv(path, schema: CsvSchema) -> Dataset:
    """The former row-by-row load_csv, kept as the reference that the
    columnar loader must match: same Dataset, or the same DataError message.
    It reads a header with duplicated names from the last such column,
    which load_csv now rejects."""
    with open(path, newline="", encoding="utf-8") as fh:
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
            y = _ref_parse_float(cell(schema.outcome), rownum, schema.outcome)
            w1 = []
            for name in schema.w1:
                c = cell(name)
                if c == "":
                    raise DataError(f"row {rownum}: phase-1 column {name} is empty")
                w1.append(_ref_parse_float(c, rownum, name))
            w2 = []
            for name in schema.w2:
                c = cell(name)
                if delta == 1:
                    if c == "":
                        raise DataError(f"row {rownum}: delta=1 but {name} is missing")
                    w2.append(_ref_parse_float(c, rownum, name))
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
