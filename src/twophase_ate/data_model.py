"""Two-phase observed-data structures, validation, and CSV ingestion.

The observed unit is one subject: phase-1 variables (w1, a, y) seen on
everyone, a phase-2 membership flag delta, and phase-2 covariates w2 that
exist only when delta=1. A Dataset is a validated, immutable column store
of such records; estimators and the simulation harness all consume it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice

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

# rows per block of a full-length pass taken in pieces (a population draw,
# the census predictions, writing a CSV file): a block's few float columns
# fit in a core's L2 cache
_ROW_BLOCK = 1 << 13


class DataError(ValueError):
    """A dataset or CSV file violates the two-phase data contract."""


def _as_integer(name: str, value, lo: int, hi: int | None = None) -> int:
    """value as a Python int, which neither wraps in arithmetic nor fails to
    serialize; raises ValueError naming the field unless value is an integer
    (a Python or numpy integer, not a bool) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < lo or (hi is not None and value > hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return int(value)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.setflags(write=False)
    return out


def _covariates(values, n: int) -> np.ndarray:
    """A covariate block as an (n, d) float array; a 1-D block is read row
    by row, so one of length n is a single column."""
    x = np.asarray(values, dtype=float)
    try:
        return x if x.ndim >= 2 else x.reshape(n, -1)
    except ValueError:
        raise DataError("column lengths disagree") from None


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
        # a and delta are checked as given and cast only once they are 0/1,
        # so a cast cannot truncate 0.5 to 0 or warn on a NaN
        a = np.asarray(self.a).ravel()
        y = np.asarray(self.y, dtype=float).ravel()
        delta = np.asarray(self.delta).ravel()
        n = len(a)
        w1, w2 = _covariates(self.w1, n), _covariates(self.w2, n)
        if not (w1.shape[0] == n == len(y) == len(delta) == w2.shape[0]):
            raise DataError("column lengths disagree")
        if n == 0:
            raise DataError("dataset is empty")
        if not ((a == 0) | (a == 1)).all():
            raise DataError("treatment column must be binary 0/1")
        if not ((delta == 0) | (delta == 1)).all():
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
            if not ((y == 0.0) | (y == 1.0)).all():
                raise DataError("binary outcome column must contain only 0/1")
        elif self.y_kind == "continuous":
            lo, hi = float(self.y_bounds[0]), float(self.y_bounds[1])
            if not _valid_bounds(lo, hi):
                raise DataError(f"invalid outcome bounds ({lo}, {hi}): need finite "
                                "lo < hi with a finite span hi - lo")
            if y.min() < lo or y.max() > hi:
                raise DataError("outcome outside declared bounds")
        else:
            raise DataError(f"unknown y_kind {self.y_kind!r}")
        object.__setattr__(self, "w1", _frozen(w1))
        object.__setattr__(self, "a", _frozen(a.astype(np.int64, copy=False)))
        object.__setattr__(self, "y", _frozen(y))
        object.__setattr__(self, "delta", _frozen(delta.astype(np.int64, copy=False)))
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

    @cached_property
    def phase2(self) -> np.ndarray:
        """Indices of delta=1 records, in dataset order: computed on first
        read, then the same read-only array on every read."""
        return _frozen(np.flatnonzero(self.delta == 1))

    @property
    def n_phase2(self) -> int:
        return int(self.delta.sum())

    def __reduce__(self):
        # a copy or an unpickled Dataset is rebuilt by the constructor,
        # which write-protects its arrays again
        return Dataset, (self.w1, self.a, self.y, self.delta, self.w2, self.y_kind, self.y_bounds)

    def replace_y(self, y: np.ndarray, y_kind: str, y_bounds: tuple[float, float]) -> "Dataset":
        return Dataset(w1=self.w1, a=self.a, y=y, delta=self.delta, w2=self.w2,
                       y_kind=y_kind, y_bounds=y_bounds)


def _valid_bounds(lo: float, hi: float) -> bool:
    # the span rescales the outcome, so it must be finite too
    return lo < hi and math.isfinite(hi - lo)


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


# a value rule: a test of the parsed cells and the word that names it in messages
_FINITE = (np.isfinite, "finite")
_BINARY = (lambda v: (v == 0.0) | (v == 1.0), "0/1")


def _parse_column(cells: list[str], name: str, rules, errors: list, rownums=None,
                  blank: str | None = None) -> np.ndarray:
    """The trimmed cells of one column as floats. The first bad cell, if any,
    adds (its row index, through rownums if given; a message) to errors: the
    blank message if the cell is blank and there is one, else that float()
    cannot parse it, else the first rule that its value fails."""
    if _BINARY in rules and cells.count("0") + cells.count("1") == len(cells):
        # every cell reads exactly 0 or 1, which passes every rule: read the
        # joined text, one character a cell, with no float() per cell
        return (np.frombuffer("".join(cells).encode(), dtype=np.uint8) == ord("1")).astype(float)
    unparsed = np.zeros(len(cells), dtype=bool)
    try:
        # float() skips the whitespace around a number that strip() trims,
        # but for the separators \x1c-\x1f in ASCII text: a cell padded with
        # those is parsed trimmed, below, as every cell is if one fails
        values = np.array(cells, dtype=float)
    except ValueError:  # find the cells that do not parse
        cells = list(map(str.strip, cells))
        values = np.full(len(cells), np.nan)
        for i, cell in enumerate(cells):
            try:
                values[i] = float(cell)
            except ValueError:
                unparsed[i] = True
    ok = ~unparsed
    for test, _ in rules:
        ok &= test(values)
    if ok.all():
        return values
    i = int(np.argmin(ok))
    cell = cells[i].strip()
    if blank is not None and cell == "":
        message = blank
    elif unparsed[i]:
        message = f"cannot parse {name}={cell!r} as a number"
    else:
        word = next(word for test, word in rules if not test(values[i]))
        message = f"column {name} must be {word}, got {cell!r}"
    errors.append((i if rownums is None else int(rownums[i]), message))
    return values


def _parse_columns(cells: list[str], widths: list[int], width: int, first_row: int,
                   col_idx: dict[str, int], schema: CsvSchema):
    """Parse the schema columns of one block of data rows, given as the cells
    of its rows in order and the number of cells of each row, one vectorised
    pass per column, and return (w1, a, y, delta, w2); or raise the DataError
    that load_csv describes, counting rows from first_row. Only the rows
    before the first row of the wrong width are parsed, and of the w2 cells
    only those of delta=1 rows.
    """
    n = len(widths)  # the rows before the first of the wrong width
    if widths.count(width) != n:
        n = next(i for i, w in enumerate(widths) if w != width)
    cols = {name: cells[col_idx[name]:n * width:width] for name in schema.columns}
    errors: list[tuple[int, str]] = []  # (row index, message), in cell order
    delta = _parse_column(cols[schema.delta], schema.delta, (_BINARY,), errors)
    a = _parse_column(cols[schema.treatment], schema.treatment, (_BINARY,), errors)
    y_rules = (_FINITE, _BINARY) if schema.y_kind == "binary" else (_FINITE,)
    if schema.y_kind == "continuous" and schema.y_bounds:
        lo, hi = float(schema.y_bounds[0]), float(schema.y_bounds[1])
        if _valid_bounds(lo, hi):  # else Dataset rejects the bounds themselves
            y_rules += ((lambda v: (lo <= v) & (v <= hi), f"within [{lo}, {hi}]"),)
    y = _parse_column(cols[schema.outcome], schema.outcome, y_rules, errors)
    w1 = np.empty((n, len(schema.w1)))
    for j, name in enumerate(schema.w1):
        w1[:, j] = _parse_column(cols[name], name, (_FINITE,), errors,
                                 blank=f"phase-1 column {name} is empty")
    p2 = delta == 1.0
    in_p2, out_p2 = p2.tolist(), (~p2).tolist()
    p2_rows = np.flatnonzero(p2)
    w2 = np.full((n, len(schema.w2)), np.nan)
    for j, name in enumerate(schema.w2):
        w2[p2, j] = _parse_column(list(compress(cols[name], in_p2)), name, (_FINITE,),
                                  errors, p2_rows, blank=f"delta=1 but {name} is missing")
        # the joined cells hold a non-blank character if and only if one cell does
        if "".join(compress(cols[name], out_p2)).strip():
            i = next(i for i in np.flatnonzero(~p2).tolist() if cols[name][i].strip())
            errors.append((i, f"delta=0 row has a value in phase-2 column {name}"))
    if n < len(widths):
        errors.append((n, f"expected {width} cells, got {widths[n]}"))
    if errors:
        row, message = min(errors, key=lambda error: error[0])  # the first in cell order
        raise DataError(f"row {first_row + row + 1}: {message}")
    return w1, a.astype(np.int64), y, delta.astype(np.int64), w2


def _split_lines(raw: list[str]) -> tuple[list[str], list[int]] | None:
    """(cells, widths) of the lines raw, each ended by CRLF, CR or LF but the
    last, which may have no line end, as csv.reader would read them: the
    cells of the lines in order, split at each comma, and the number of
    cells of each line. None unless every line has the same number of cells,
    more than one, and no line holds a quote character or a NUL or is longer
    than csv.field_size_limit() with its line end."""
    text = "".join(raw)
    if '"' in text or "\0" in text or max(map(len, raw)) > csv.field_size_limit():
        return None
    # with each line end made a NUL cell of its own, one split at each comma
    # gives the cells; if the n - 1 NULs fall after every width-th cell,
    # every line has that width. Deleting every CR takes a CRLF for an LF,
    # and runs a line ended by a lone CR into the next, which leaves too few
    # NULs for this test unless that line is the last.
    tokens = (text.replace("\r", "") if "\r" in text else text).removesuffix("\n")
    tokens = tokens.replace("\n", ",\0,").split(",")
    n = len(raw)
    width = (len(tokens) + 1) // n - 1
    if (width > 1 and len(tokens) == n * (width + 1) - 1
            and tokens[width::width + 1] == ["\0"] * (n - 1)):
        del tokens[width::width + 1]
        return tokens, [width] * n
    return None


def _reader_blocks(lines, lines_before: int):
    """(cells, widths) of the records that csv.reader reads from lines,
    _ROW_BLOCK records at a time; its parse error raises DataError, naming
    the line as the file counts it, lines_before lines having gone before."""
    reader = csv.reader(lines)
    try:
        while rows := list(islice(reader, _ROW_BLOCK)):
            yield list(chain.from_iterable(rows)), list(map(len, rows))
    except csv.Error as exc:
        raise DataError(f"cannot parse CSV line {lines_before + reader.line_num}: {exc}") from None


def _record_blocks(fh):
    """The records of the open CSV file fh, _ROW_BLOCK lines at a time, each
    block as (cells, widths): the cells of its records in order, and the
    number of cells of each record.

    A block that `_split_lines` reads is split at its commas. From the first
    block that it does not (a quote, a NUL, a line longer than the field
    limit, an empty line, a line of another width, a lone CR ending any line
    but the block's last), csv.reader reads the rest of the file.
    """
    lines_before = 0
    # a file opened with newline="" leaves each line its own line end, CRLF,
    # CR or LF, which appears nowhere else in the line
    while raw := list(islice(fh, _ROW_BLOCK)):
        split = _split_lines(raw)
        if split is None:
            yield from _reader_blocks(chain(raw, fh), lines_before)
            return
        yield split
        lines_before += len(raw)


def _read_columns(blocks, schema: CsvSchema):
    """(w1, a, y, delta, w2) of the record blocks of a CSV file, each block
    parsed as it is read, so that the cell text of the whole file is never
    held at once; or the DataError that load_csv describes."""
    cells, widths = next(blocks, ([], []))
    if not widths:
        raise DataError("empty CSV file")
    header = cells[:widths[0]]
    col_idx = {name: i for i, name in enumerate(header)}
    for name in schema.columns:
        if name not in col_idx:
            raise DataError(f"CSV is missing required column {name!r}")
    for name in schema.columns:
        if header.count(name) > 1:
            raise DataError(f"CSV header names column {name!r} more than once")
    parts = [_parse_columns(cells[widths[0]:], widths[1:], len(header), 0, col_idx, schema)]
    n = len(widths) - 1
    for cells, widths in blocks:
        parts.append(_parse_columns(cells, widths, len(header), n, col_idx, schema))
        n += len(widths)
    if not n:
        raise DataError("CSV contains a header but no data rows")
    columns = [list(pieces) for pieces in zip(*parts)]
    parts.clear()
    out = []
    while columns:  # one column at a time, its blocks' pieces dropped once copied
        pieces = columns.pop(0)
        out.append(pieces[0] if len(pieces) == 1 else np.concatenate(pieces))
    return out


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Read a two-phase dataset from a headed UTF-8 CSV file; a leading
    byte-order mark is skipped.

    Cells are trimmed of surrounding whitespace and must then parse with
    Python's float() to a finite number; a treatment, delta or binary
    outcome cell must read 0 or 1, and a continuous outcome cell must lie
    within the schema's bounds, if it declares valid ones. Missing phase-2
    values must be empty cells. A delta=0 row with a filled w2 cell is
    rejected: over-observation signals a schema mistake, not data. Each
    schema column must appear exactly once in the header.

    A row or cell error names the first bad row, counted 1-based over data
    rows (header excluded), and within it the first bad cell in the order
    delta, treatment, outcome, w1, w2. A row of the wrong width is reported
    only if no earlier row has a bad cell.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            blocks = _record_blocks(fh)
            try:
                w1, a, y, delta, w2 = _read_columns(blocks, schema)
            except DataError:
                # a file that cannot be read or tokenized is reported as
                # such, whatever its earlier rows hold
                for _ in blocks:
                    pass
                raise
    except OSError as exc:
        raise DataError(f"cannot read CSV file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"CSV file is not valid UTF-8: {exc}") from None
    y_bounds = schema.y_bounds or (default_bounds(y) if schema.y_kind == "continuous"
                                   else (0.0, 1.0))
    return Dataset(w1=w1, a=a, y=y, delta=delta, w2=w2, y_kind=schema.y_kind,
                   y_bounds=y_bounds)


def _fmt_column(col: np.ndarray) -> list[str]:
    # 17 significant digits round-trips IEEE doubles exactly
    return [format(v, ".17g") for v in col.tolist()]


def write_csv(ds: Dataset, path, schema: CsvSchema) -> None:
    """Write a dataset using the schema's column order; inverse of load_csv.
    Rows are formatted and written one block at a time, so no cell text of
    more than one block is held at once. csv.writer writes the header; a
    data cell is a formatted number or empty, which never needs quoting, so
    a data row is its cells joined with commas and ended with CRLF, as
    csv.writer writes it."""
    if len(schema.w1) != ds.d_w1 or len(schema.w2) != ds.d_w2:
        raise DataError("schema dimensions do not match dataset")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(schema.columns)
        for lo in range(0, ds.n, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            phase2 = ds.delta[rows] == 1
            columns = [_fmt_column(ds.w1[rows, j]) for j in range(ds.d_w1)]
            for j in range(ds.d_w2):  # formatted on delta=1 rows only, empty elsewhere
                cells = np.full(len(phase2), "", dtype=object)
                cells[phase2] = _fmt_column(ds.w2[rows, j][phase2])
                columns.append(cells.tolist())
            # delta, the last cell of a row, carries its line end
            columns += [list(map(str, ds.a[rows].tolist())), _fmt_column(ds.y[rows]),
                        list(map(("0\r\n", "1\r\n").__getitem__, ds.delta[rows].tolist()))]
            fh.writelines(map(",".join, zip(*columns)))
