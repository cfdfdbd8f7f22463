"""Two-phase observed-data structures, validation, and CSV ingestion.

The observed unit is one subject: phase-1 variables (w1, a, y) seen on
everyone, a phase-2 membership flag delta, and phase-2 covariates w2 that
exist only when delta=1. A Dataset is a validated, immutable column store
of such records; estimators and the simulation harness all consume it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import compress
from typing import NoReturn

import numpy as np

__all__ = [
    "DataError",
    "Dataset",
    "CsvSchema",
    "OutcomeScale",
    "default_bounds",
    "scale_outcome",
    "load_csv",
    "write_csv",
]

# Relative margin used when continuous-outcome bounds are derived from data.
BOUNDS_MARGIN = 1e-6


class DataError(ValueError):
    """A dataset or CSV file violates the two-phase data contract."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """Immutable column store of two-phase records.

    w2 rows for delta=0 records hold NaN; they are never read by the
    estimation code, which restricts full-data quantities to phase-2 rows.
    Arrays are write-protected so a Dataset can be shared across workers.
    """

    w1: np.ndarray  # (n, d1) float
    a: np.ndarray  # (n,) int
    y: np.ndarray  # (n,) float
    delta: np.ndarray  # (n,) int
    w2: np.ndarray  # (n, d2) float, NaN where delta == 0
    y_kind: str = "binary"
    y_bounds: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        w1 = np.atleast_2d(np.asarray(self.w1, dtype=float))
        a = np.asarray(self.a, dtype=np.int64).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        delta = np.asarray(self.delta, dtype=np.int64).ravel()
        w2 = np.asarray(self.w2, dtype=float)
        if w2.ndim == 1:
            w2 = w2.reshape(len(a), -1)
        n = len(a)
        if not (w1.shape[0] == n == len(y) == len(delta) == w2.shape[0]):
            raise DataError("column lengths disagree")
        if n == 0:
            raise DataError("dataset is empty")
        if not np.all(np.isin(a, (0, 1))):
            raise DataError("treatment column must be binary 0/1")
        if not np.all(np.isin(delta, (0, 1))):
            raise DataError("phase-2 indicator column must be binary 0/1")
        if delta.sum() == 0:
            raise DataError("no phase-2 records: dataset is unusable")
        if not np.all(np.isfinite(w1)):
            raise DataError("w1 contains non-finite values")
        if not np.all(np.isfinite(y)):
            raise DataError("y contains non-finite values")
        p2 = delta == 1
        if w2.shape[1] and not np.all(np.isfinite(w2[p2])):
            raise DataError("w2 missing on a delta=1 record")
        if w2.shape[1] and not np.all(np.isnan(w2[~p2])):
            raise DataError("w2 present on a delta=0 record")
        if self.y_kind == "binary":
            if not np.all(np.isin(y, (0.0, 1.0))):
                raise DataError("binary outcome column must contain only 0/1")
        elif self.y_kind == "continuous":
            lo, hi = self.y_bounds
            if not lo < hi:
                raise DataError(f"invalid outcome bounds ({lo}, {hi})")
            if y.min() < lo or y.max() > hi:
                raise DataError("outcome outside declared bounds")
        else:
            raise DataError(f"unknown y_kind {self.y_kind!r}")
        object.__setattr__(self, "w1", _frozen(w1))
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "delta", _frozen(delta))
        object.__setattr__(self, "w2", _frozen(w2))
        object.__setattr__(self, "y_bounds", (float(self.y_bounds[0]), float(self.y_bounds[1])))

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def d_w1(self) -> int:
        return self.w1.shape[1]

    @property
    def d_w2(self) -> int:
        return self.w2.shape[1]

    @property
    def phase2(self) -> np.ndarray:
        """Indices of delta=1 records, in dataset order."""
        return np.flatnonzero(self.delta == 1)

    @property
    def n_phase2(self) -> int:
        return int(self.delta.sum())

    def replace_y(self, y: np.ndarray, y_kind: str, y_bounds: tuple[float, float]) -> "Dataset":
        return Dataset(w1=self.w1, a=self.a, y=y, delta=self.delta, w2=self.w2,
                       y_kind=y_kind, y_bounds=y_bounds)


def default_bounds(y: np.ndarray) -> tuple[float, float]:
    """Data-driven bounds for a continuous outcome: range plus a small margin."""
    lo, hi = float(np.min(y)), float(np.max(y))
    span = hi - lo
    if span == 0.0:
        span = max(1.0, abs(lo))
    pad = BOUNDS_MARGIN * span
    return lo - pad, hi + pad


@dataclass(frozen=True)
class OutcomeScale:
    """Affine map between the raw outcome range and [0, 1]."""

    lo: float
    hi: float

    @property
    def span(self) -> float:
        return self.hi - self.lo

    def apply(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.lo) / self.span

    def invert(self, y_scaled: np.ndarray) -> np.ndarray:
        return np.asarray(y_scaled, dtype=float) * self.span + self.lo


IDENTITY_SCALE = OutcomeScale(0.0, 1.0)


def scale_outcome(ds: Dataset) -> tuple[Dataset, OutcomeScale]:
    """Map a continuous outcome onto [0, 1]; binary datasets pass through.

    Returns the transformed dataset and the scale needed to put estimates
    back on the raw outcome scale.
    """
    if ds.y_kind == "binary":
        return ds, IDENTITY_SCALE
    lo, hi = ds.y_bounds
    scale = OutcomeScale(lo, hi)
    y_scaled = scale.apply(ds.y)
    # guard against float dust outside [0, 1]
    y_scaled = np.clip(y_scaled, 0.0, 1.0)
    return ds.replace_y(y_scaled, "continuous", (0.0, 1.0)), scale


# ---------------------------------------------------------------------------
# CSV interface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvSchema:
    """Column-role map for CSV files: names of the treatment, outcome and
    phase-2 indicator columns, plus ordered w1/w2 column groups."""

    treatment: str
    outcome: str
    delta: str
    w1: tuple[str, ...]
    w2: tuple[str, ...] = ()
    y_kind: str = "binary"
    y_bounds: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.w1:
            raise DataError("schema needs at least one w1 column")
        names = [self.treatment, self.outcome, self.delta, *self.w1, *self.w2]
        if len(set(names)) != len(names):
            raise DataError("schema assigns one column to several roles")
        object.__setattr__(self, "w1", tuple(self.w1))
        object.__setattr__(self, "w2", tuple(self.w2))

    @property
    def columns(self) -> tuple[str, ...]:
        """Canonical column order used by write_csv."""
        return (*self.w1, *self.w2, self.treatment, self.outcome, self.delta)


def _parse_float(cell: str, row: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"row {row}: cannot parse {col}={cell!r} as a number") from None


def _parse_binary(cell: str, row: int, col: str) -> int:
    v = _parse_float(cell, row, col)
    if v not in (0.0, 1.0):
        raise DataError(f"row {row}: column {col} must be 0/1, got {cell!r}")
    return int(v)


def _raise_first_row_error(rows: list[list[str]], width: int, col_idx: dict[str, int],
                           schema: CsvSchema) -> NoReturn:
    """Check rows in file order and raise the DataError of the first bad one.

    load_csv checks whole columns at once; it calls this only after one of
    those checks failed, so that the message names the first bad row and,
    within it, the first bad cell in the order delta, treatment, outcome,
    w1, w2. Row numbers are 1-based data rows (header excluded).
    """
    for rownum, cells in enumerate(rows, start=1):
        if len(cells) != width:
            raise DataError(f"row {rownum}: expected {width} cells, got {len(cells)}")
        cell = {name: cells[col_idx[name]].strip() for name in schema.columns}
        delta = _parse_binary(cell[schema.delta], rownum, schema.delta)
        _parse_binary(cell[schema.treatment], rownum, schema.treatment)
        _parse_float(cell[schema.outcome], rownum, schema.outcome)
        for name in schema.w1:
            c = cell[name]
            if c == "":
                raise DataError(f"row {rownum}: phase-1 column {name} is empty")
            _parse_float(c, rownum, name)
        for name in schema.w2:
            c = cell[name]
            if delta == 1:
                if c == "":
                    raise DataError(f"row {rownum}: delta=1 but {name} is missing")
                _parse_float(c, rownum, name)
            elif c != "":
                raise DataError(f"row {rownum}: delta=0 row has a value in phase-2 column {name}")
    raise RuntimeError("CSV column checks rejected rows that the row checks accept")


def _floats(cells) -> np.ndarray:
    """float(cell.strip()) of every cell; ValueError if one is not a number."""
    return np.array(list(map(str.strip, cells)), dtype=float)


def _parse_columns(rows: list[list[str]], width: int, col_idx: dict[str, int],
                   schema: CsvSchema):
    """Parse the schema columns of all rows at once.

    Returns (w1, a, y, delta, w2), or None if any row fails a check that
    _raise_first_row_error makes: a row of the wrong width, a number that
    does not parse, a non-0/1 treatment or delta, an empty w1 cell (which
    does not parse), or a w2 cell blank on a delta=1 row or filled on a
    delta=0 row.
    """
    if set(map(len, rows)) != {width}:
        return None
    columns = list(zip(*rows))
    cols = {name: columns[col_idx[name]] for name in schema.columns}
    try:
        delta = _floats(cols[schema.delta])
        a = _floats(cols[schema.treatment])
        if not (np.isin(delta, (0.0, 1.0)).all() and np.isin(a, (0.0, 1.0)).all()):
            return None
        y = _floats(cols[schema.outcome])
        w1 = np.empty((len(rows), len(schema.w1)))
        for j, name in enumerate(schema.w1):
            w1[:, j] = _floats(cols[name])
        p2 = delta == 1.0
        in_p2, out_p2 = p2.tolist(), (~p2).tolist()
        w2 = np.full((len(rows), len(schema.w2)), np.nan)
        for j, name in enumerate(schema.w2):
            if "".join(map(str.strip, compress(cols[name], out_p2))):
                return None
            w2[p2, j] = _floats(compress(cols[name], in_p2))
    except ValueError:
        return None
    return w1, a.astype(np.int64), y, delta.astype(np.int64), w2


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Read a two-phase dataset from a headed UTF-8 CSV file.

    Cells are trimmed of surrounding whitespace and must then parse with
    Python's float(); a treatment or delta cell must read 0 or 1. Missing
    phase-2 values must be empty cells. A delta=0 row with a filled w2 cell
    is rejected: over-observation signals a schema mistake, not data. Each
    schema column must appear exactly once in the header. A row or cell error
    names the first bad row, counted 1-based over data rows (header
    excluded).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                rows = list(reader)
            except csv.Error as exc:
                raise DataError(f"cannot parse CSV line {reader.line_num}: {exc}") from None
    except OSError as exc:
        raise DataError(f"cannot read CSV file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"CSV file is not valid UTF-8: {exc}") from None
    if not rows:
        raise DataError("empty CSV file")
    header, rows = rows[0], rows[1:]
    col_idx = {name: i for i, name in enumerate(header)}
    for name in schema.columns:
        if name not in col_idx:
            raise DataError(f"CSV is missing required column {name!r}")
    for name in schema.columns:
        if header.count(name) > 1:
            raise DataError(f"CSV header names column {name!r} more than once")
    if not rows:
        raise DataError("CSV contains a header but no data rows")
    parsed = _parse_columns(rows, len(header), col_idx, schema)
    if parsed is None:
        _raise_first_row_error(rows, len(header), col_idx, schema)
    w1, a, y, delta, w2 = parsed
    y_bounds = schema.y_bounds
    if schema.y_kind == "continuous" and y_bounds is None:
        y_bounds = default_bounds(y)
    return Dataset(
        w1=w1, a=a, y=y, delta=delta, w2=w2,
        y_kind=schema.y_kind,
        y_bounds=y_bounds if y_bounds is not None else (0.0, 1.0),
    )


def _fmt(x: float) -> str:
    # 17 significant digits round-trips IEEE doubles exactly
    return format(float(x), ".17g")


def write_csv(ds: Dataset, path, schema: CsvSchema) -> None:
    """Write a dataset using the schema's column order; inverse of load_csv."""
    if len(schema.w1) != ds.d_w1 or len(schema.w2) != ds.d_w2:
        raise DataError("schema dimensions do not match dataset")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.columns)
        for i in range(ds.n):
            row = [_fmt(v) for v in ds.w1[i]]
            if ds.delta[i] == 1:
                row += [_fmt(v) for v in ds.w2[i]]
            else:
                row += [""] * ds.d_w2
            row += [str(int(ds.a[i])), _fmt(ds.y[i]), str(int(ds.delta[i]))]
            writer.writerow(row)
