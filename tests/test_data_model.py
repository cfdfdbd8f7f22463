import csv
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twophase_ate import data_model
from twophase_ate.data_model import (
    CsvSchema,
    DataError,
    Dataset,
    default_bounds,
    load_csv,
    scale_outcome,
    write_csv,
)

from util import make_twophase_dataset, reference_load_csv, reference_write_csv, traced_peak


def toy_dataset():
    return Dataset(
        w1=np.array([[0.1], [0.2], [0.3], [0.4]]),
        a=np.array([0, 1, 0, 1]),
        y=np.array([0.0, 1.0, 1.0, 0.0]),
        delta=np.array([1, 0, 1, 0]),
        w2=np.array([[1.0], [np.nan], [3.0], [np.nan]]),
    )


class TestObservedRecord:
    """Per-record rules, each checked on one offending record placed after a
    valid phase-2 record, so that no dataset-wide rule fires first."""

    @staticmethod
    def with_record(*, a, delta, w2):
        return Dataset(w1=np.zeros((2, 1)), a=[0, a], y=[0.0, 1.0], delta=[1, delta],
                       w2=np.array([[1.0], [w2]]))

    def test_delta0_with_w2_rejected(self):
        with pytest.raises(DataError, match="delta=0"):
            self.with_record(a=1, delta=0, w2=1.0)

    def test_delta1_without_w2_rejected(self):
        with pytest.raises(DataError, match="delta=1"):
            self.with_record(a=1, delta=1, w2=np.nan)

    def test_nonbinary_treatment_rejected(self):
        with pytest.raises(DataError, match="treatment"):
            self.with_record(a=2, delta=0, w2=np.nan)

    @pytest.mark.parametrize("a", [0.5, 0.999, -0.5, np.nan])
    def test_fractional_treatment_rejected(self, a):
        # the column was cast to integers before its check, which stored 0.5 as 0
        with pytest.raises(DataError, match="treatment"):
            self.with_record(a=a, delta=0, w2=np.nan)

    @pytest.mark.parametrize("delta", [0.9, 0.1, np.nan])
    def test_fractional_phase2_indicator_rejected(self, delta):
        # 0.9 was stored as 0, and a NaN raised the cast's RuntimeWarning first
        with pytest.raises(DataError, match="phase-2 indicator"):
            self.with_record(a=1, delta=delta, w2=np.nan)

    def test_float_and_bool_columns_stored_as_integers(self):
        ds = Dataset(w1=np.zeros((2, 1)), a=np.array([False, True]), y=[0.0, 1.0],
                     delta=np.array([1.0, 0.0]), w2=np.array([[1.0], [np.nan]]))
        assert ds.a.dtype == ds.delta.dtype == np.int64
        assert list(ds.a) == [0, 1] and list(ds.delta) == [1, 0]


class TestDatasetValidation:
    def test_valid(self):
        ds = toy_dataset()
        assert ds.n == 4 and ds.n_phase2 == 2
        assert list(ds.phase2) == [0, 2]

    def test_phase2_index_is_built_once_and_read_only(self):
        ds = toy_dataset()
        assert ds.phase2 is ds.phase2
        with pytest.raises(ValueError, match="read-only"):
            ds.phase2[0] = 1

    def test_one_dimensional_covariates_are_one_column(self):
        # a 1-D w1 of length n was read as one row of n columns and rejected
        w1, w2 = np.array([0.1, 0.2, 0.3, 0.4]), np.array([1.0, np.nan, 3.0, np.nan])
        ds = Dataset(w1=w1, a=[0, 1, 0, 1], y=[0.0, 1.0, 1.0, 0.0], delta=[1, 0, 1, 0], w2=w2)
        ref = toy_dataset()
        assert ds.w1.shape == ds.w2.shape == (4, 1)
        np.testing.assert_array_equal(ds.w1, ref.w1)
        np.testing.assert_array_equal(ds.w2, ref.w2)

    @pytest.mark.parametrize("column", ["w1", "w2"])
    def test_one_dimensional_covariate_of_wrong_length_rejected(self, column):
        cols = {"w1": np.zeros((2, 1)), "w2": np.ones((2, 1)), column: np.zeros(3)}
        with pytest.raises(DataError, match="column lengths disagree"):
            Dataset(a=[0, 1], y=[0.0, 1.0], delta=[1, 1], **cols)

    def test_w2_on_censored_row_rejected(self):
        with pytest.raises(DataError, match="delta=0"):
            Dataset(w1=np.zeros((2, 1)), a=[0, 1], y=[0.0, 1.0], delta=[1, 0],
                    w2=np.array([[1.0], [2.0]]))

    def test_missing_w2_on_phase2_row_rejected(self):
        with pytest.raises(DataError):
            Dataset(w1=np.zeros((2, 1)), a=[0, 1], y=[0.0, 1.0], delta=[1, 1],
                    w2=np.array([[1.0], [np.nan]]))

    def test_no_phase2_rejected(self):
        with pytest.raises(DataError, match="phase-2"):
            Dataset(w1=np.zeros((2, 1)), a=[0, 1], y=[0.0, 1.0], delta=[0, 0],
                    w2=np.full((2, 1), np.nan))

    def test_nonbinary_outcome_rejected_for_binary_kind(self):
        with pytest.raises(DataError):
            Dataset(w1=np.zeros((2, 1)), a=[0, 1], y=[0.0, 0.7], delta=[1, 1],
                    w2=np.ones((2, 1)))

    def test_outcome_outside_bounds_rejected(self):
        with pytest.raises(DataError, match="bounds"):
            Dataset(w1=np.zeros((2, 1)), a=[0, 1], y=[0.0, 11.0], delta=[1, 1],
                    w2=np.ones((2, 1)), y_kind="continuous", y_bounds=(0.0, 10.0))

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308), (-np.inf, np.inf), (0.0, np.inf),
                                        (np.nan, 1.0), (np.float64(-1e308), np.float64(1e308))])
    def test_outcome_bounds_must_be_finite_with_a_finite_span(self, bounds):
        # the span rescales the outcome: an infinite one turned psi_hat into -inf
        with pytest.raises(DataError, match="outcome bounds"):
            Dataset(w1=np.zeros((2, 1)), a=[0, 1], y=[0.0, 1.0], delta=[1, 1],
                    w2=np.ones((2, 1)), y_kind="continuous", y_bounds=bounds)

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(DataError, match="^column lengths disagree$"):
            Dataset(w1=np.zeros((2, 1)), a=[0, 1], y=[0.0, 1.0, 1.0], delta=[1, 1],
                    w2=np.ones((2, 1)))

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError, match="^dataset is empty$"):
            Dataset(w1=np.zeros((0, 1)), a=[], y=[], delta=[], w2=np.zeros((0, 1)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_w1_rejected(self, value):
        with pytest.raises(DataError, match="^w1 contains non-finite values$"):
            Dataset(w1=np.array([[0.0], [value]]), a=[0, 1], y=[0.0, 1.0], delta=[1, 1],
                    w2=np.ones((2, 1)))

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_outcome_rejected(self, value):
        with pytest.raises(DataError, match="^y contains non-finite values$"):
            Dataset(w1=np.zeros((2, 1)), a=[0, 1], y=[0.0, value], delta=[1, 1],
                    w2=np.ones((2, 1)), y_kind="continuous", y_bounds=(0.0, 1.0))

    def test_unknown_outcome_kind_rejected(self):
        with pytest.raises(DataError, match="^unknown y_kind 'count'$"):
            Dataset(w1=np.zeros((2, 1)), a=[0, 1], y=[0.0, 1.0], delta=[1, 1],
                    w2=np.ones((2, 1)), y_kind="count")

    def test_arrays_are_write_protected(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            ds.y[0] = 5.0

    def test_pickled_dataset_stays_write_protected(self):
        ds = toy_dataset().replace_y(np.array([0.5, 2.0, 1.5, -1.0]), "continuous", (-2.0, 3.0))
        ds.phase2  # cached before pickling
        back = pickle.loads(pickle.dumps(ds))
        assert (back.y_kind, back.y_bounds) == ("continuous", (-2.0, 3.0))
        for name in ("w1", "a", "y", "delta", "w2", "phase2"):
            arr = getattr(back, name)
            np.testing.assert_array_equal(arr, getattr(ds, name))
            assert arr.dtype == getattr(ds, name).dtype
            assert not arr.flags.writeable, name


class TestScaleOutcome:
    def test_midpoint(self):
        ds = Dataset(w1=np.zeros((3, 1)), a=[0, 1, 0], y=[0.0, 5.0, 10.0],
                     delta=[1, 1, 1], w2=np.ones((3, 1)),
                     y_kind="continuous", y_bounds=(0.0, 10.0))
        scaled, scale = scale_outcome(ds)
        assert scaled.y[1] == pytest.approx(0.5, abs=0)
        assert scaled.y[0] == 0.0 and scaled.y[2] == 1.0

    def test_binary_identity(self):
        ds = toy_dataset()
        scaled, scale = scale_outcome(ds)
        assert scaled is ds
        assert scale.span == 1.0

    def test_inverse_recovers_to_1e12(self):
        rng = np.random.default_rng(0)
        y = rng.normal(3.0, 2.0, size=50)
        lo, hi = default_bounds(y)
        ds = Dataset(w1=np.zeros((50, 1)), a=np.zeros(50, dtype=int) | (np.arange(50) % 2),
                     y=y, delta=np.ones(50, dtype=int), w2=np.ones((50, 1)),
                     y_kind="continuous", y_bounds=(lo, hi))
        scaled, scale = scale_outcome(ds)
        np.testing.assert_allclose(scaled.y * scale.span + scale.lo, y, atol=1e-12)

    @pytest.mark.parametrize("value, span", [(0.0, 1.0), (3.0, 3.0), (-250.0, 250.0)])
    def test_default_bounds_of_a_constant_outcome(self, value, span):
        # a zero range is widened by the margin of a span of max(1, |value|)
        assert default_bounds(np.full(4, value)) == (value - 1e-6 * span, value + 1e-6 * span)

    def test_default_bounds_cover_data(self):
        y = np.array([-1.0, 4.0])
        lo, hi = default_bounds(y)
        assert lo < -1.0 < 4.0 < hi
        assert hi - 4.0 == pytest.approx(5e-6, rel=1e-6)


SCHEMA = CsvSchema(treatment="a", outcome="y", delta="delta",
                   w1=("x1",), w2=("x2",))


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestCsvSchema:
    def test_schema_without_w1_rejected(self):
        with pytest.raises(DataError, match="^schema needs at least one w1 column$"):
            CsvSchema(treatment="a", outcome="y", delta="delta", w1=())

    @pytest.mark.parametrize("roles", [{"outcome": "a"}, {"w2": ("x1",)}, {"w1": ("x1", "x1")}])
    def test_column_with_two_roles_rejected(self, roles):
        fields = {"treatment": "a", "outcome": "y", "delta": "delta", "w1": ("x1",)}
        with pytest.raises(DataError, match="^schema assigns one column to several roles$"):
            CsvSchema(**{**fields, **roles})

    @pytest.mark.parametrize("w1, w2", [(("x1", "x2"), ("z1",)), (("x1",), ()),
                                        (("x1",), ("z1", "z2"))])
    def test_write_with_schema_of_wrong_width_rejected(self, w1, w2, tmp_path):
        schema = CsvSchema(treatment="a", outcome="y", delta="delta", w1=w1, w2=w2)
        with pytest.raises(DataError, match="^schema dimensions do not match dataset$"):
            write_csv(toy_dataset(), tmp_path / "d.csv", schema)
        assert not (tmp_path / "d.csv").exists()


class TestCsv:
    def test_load_hand_file(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, [
            "x1,x2,a,y,delta",
            "0.1,1.5,0,0,1",
            "0.2,,1,1,0",
            "0.3,2.5,1,0,1",
            "0.4,,0,1,0",
        ])
        ds = load_csv(f, SCHEMA)
        assert ds.n == 4 and ds.n_phase2 == 2
        assert ds.w2[0, 0] == 1.5 and np.isnan(ds.w2[1, 0])

    def test_filled_w2_on_delta0_row_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["x1,x2,a,y,delta", "0.1,1.5,0,0,1", "0.2,9.9,1,1,0"])
        with pytest.raises(DataError, match="row 2"):
            load_csv(f, SCHEMA)

    def test_missing_w2_on_delta1_row_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["x1,x2,a,y,delta", "0.1,,0,0,1"])
        with pytest.raises(DataError, match="missing"):
            load_csv(f, SCHEMA)

    def test_nonbinary_delta_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["x1,x2,a,y,delta", "0.1,1.0,0,0,2"])
        with pytest.raises(DataError, match="0/1"):
            load_csv(f, SCHEMA)

    def test_malformed_cell_reports_row(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["x1,x2,a,y,delta", "0.1,1.0,0,0,1", "oops,1.0,0,0,1"])
        with pytest.raises(DataError, match="row 2"):
            load_csv(f, SCHEMA)

    def test_nonbinary_outcome_names_its_row(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["x1,x2,a,y,delta", "0.1,1.0,0,0,1", "0.2,,1,0.5,0"])
        with pytest.raises(DataError, match=r"^row 2: column y must be 0/1, got '0\.5'$"):
            load_csv(f, SCHEMA)

    def test_outcome_outside_declared_bounds_names_its_row(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["x1,a,y,delta", "0.1,0,0.5,1", "0.2,1,7,1"])
        schema = CsvSchema(treatment="a", outcome="y", delta="delta", w1=("x1",),
                           y_kind="continuous", y_bounds=(0, 1))
        with pytest.raises(DataError, match=r"^row 2: column y must be within \[0\.0, 1\.0\], "
                                            r"got '7'$"):
            load_csv(f, schema)

    @pytest.mark.parametrize("bounds", [(1.0, 0.0), (0.5, 0.5), (-1e308, 1e308)])
    def test_invalid_declared_bounds_are_not_a_row_error(self, bounds, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["x1,a,y,delta", "0.1,0,0.5,1", "0.2,1,7,1"])
        schema = CsvSchema(treatment="a", outcome="y", delta="delta", w1=("x1",),
                           y_kind="continuous", y_bounds=bounds)
        with pytest.raises(DataError, match=r"^invalid outcome bounds"):
            load_csv(f, schema)

    def test_missing_column_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_lines(f, ["x1,a,y,delta", "0.1,0,0,1"])
        with pytest.raises(DataError, match="x2"):
            load_csv(f, SCHEMA)

    @pytest.mark.parametrize("late, message", [
        (b"0.5,1.5,0,0,\xff1", "CSV file is not valid UTF-8: 'utf-8' codec can't decode"),
        (b"0.5,1.5,0,0," + b"1" * (csv.field_size_limit() + 1),
         "cannot parse CSV line 5: field larger than field limit"),
    ])
    def test_read_error_comes_before_an_earlier_bad_cell(self, late, message, tmp_path,
                                                         monkeypatch):
        # the whole file is read before any cell is judged: a file that
        # cannot be decoded or tokenized is reported as such, even when its
        # first bad cell lies blocks before the fault
        monkeypatch.setattr(data_model, "_ROW_BLOCK", 2)
        f = tmp_path / "d.csv"
        f.write_bytes(b"x1,x2,a,y,delta\n0.1,1.5,0,0,2\n0.2,,1,1,0\n0.3,2.5,1,0,1\n"
                      + late + b"\n0.4,,0,1,0\n")
        with pytest.raises(DataError, match="^" + message):
            load_csv(f, SCHEMA)

    def test_csv_reader_names_a_line_as_the_file_counts_it(self, tmp_path):
        # an empty line in the second block hands the rest of the file to
        # csv.reader, which fails on a cell longer than the field-size limit
        # in the third; this is not compared with reference_load_csv, which
        # stops at the empty line's row
        f = tmp_path / "d.csv"
        long_row = P1_ROW[:-1] + "n" * (csv.field_size_limit() + 1)
        f.write_text(blocks_text((9000, ""), (2 * (1 << 13) + 5, long_row)))
        with pytest.raises(DataError, match="^cannot parse CSV line 16391: field larger than "
                                            "field limit"):
            load_csv(f, CsvSchema(treatment="a", outcome="y", delta="delta", w1=("x1", "x2"),
                                  w2=("z1", "z2")))

    def test_csv_reader_reads_only_what_splitting_cannot(self, tmp_path, monkeypatch):
        # CRLF and LF line ends, a byte-order mark, no last line end and a
        # lone CR ending the last line are all split; a lone CR ending any
        # other line, an empty line, a row of another width and a quote each
        # hand the rest of the file to csv.reader
        calls = []
        reader = csv.reader
        monkeypatch.setattr(csv, "reader", lambda lines: calls.append(1) or reader(lines))
        f = tmp_path / "d.csv"
        for data in (b"x1,x2,a,y,delta\r\n0.1,1.5,0,0,1\n0.2,,1,1,0",
                     "\ufeffx1,x2,a,y,delta\n0.1,1.5,0,0,1\r\n0.2,,1,1,0\r".encode()):
            f.write_bytes(data)
            assert load_csv(f, SCHEMA).n == 2 and not calls
        f.write_bytes(b"x1,x2,a,y,delta\r0.1,1.5,0,0,1\r\n0.2,,1,1,0\n")
        assert load_csv(f, SCHEMA).n == 2 and calls == [1]
        for data, message in ((b"x1,x2,a,y,delta\n0.1,1.5,0,0,1\n\n0.2,,1,1,0\n",
                               "row 2: expected 5 cells, got 0"),
                              (b"x1,x2,a,y,delta\n0.1,1.5,0,0,1,7\n0.2,,1,1,0\n",
                               "row 1: expected 5 cells, got 6")):
            f.write_bytes(data)
            with pytest.raises(DataError, match=f"^{message}$"):
                load_csv(f, SCHEMA)
        assert calls == [1, 1, 1]
        f.write_bytes(b'x1,x2,a,y,delta\n0.1,1.5,0,0,1\n"0.2",,1,1,0\n')
        assert load_csv(f, SCHEMA).w1[1, 0] == 0.2 and calls == [1, 1, 1, 1]

    def test_peak_traced_memory_per_row(self, tmp_path):
        # the output arrays, 40 bytes a row, and the cell text of about one
        # block of rows at a time: 60.0 traced bytes a row at 200,000 rows
        # of five columns, against 355 when csv.reader's rows of the whole
        # file were held before the first cell was parsed
        ds, schema = big_cohort()
        write_csv(ds, tmp_path / "big.csv", schema)
        peak = traced_peak(lambda: load_csv(tmp_path / "big.csv", schema))
        assert peak / ds.n <= 96

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_random_datasets(self, seed, tmp_path_factory):
        ds = make_twophase_dataset(np.random.default_rng(seed), n=40)
        schema = CsvSchema(treatment="a", outcome="y", delta="d",
                           w1=("u1",), w2=("v1", "v2"))
        path = tmp_path_factory.mktemp("csv") / "rt.csv"
        write_csv(ds, path, schema)
        back = load_csv(path, schema)
        np.testing.assert_array_equal(back.a, ds.a)
        np.testing.assert_array_equal(back.delta, ds.delta)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.w1, ds.w1)
        p2 = ds.phase2
        np.testing.assert_array_equal(back.w2[p2], ds.w2[p2])
        # a second write reproduces the file byte for byte
        path2 = tmp_path_factory.mktemp("csv") / "rt2.csv"
        write_csv(back, path2, schema)
        assert path.read_bytes() == path2.read_bytes()


FUZZ_HEADER = ("x1", "x2", "z1", "z2", "a", "y", "delta", "note")
FUZZ_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1_0", "-0", "+1.5", " 2 ", "\u0661\u0662", "\x1c3\x1c", "\xa04"]),
)
FUZZ_BLANKS = st.sampled_from(["", "", " ", "\t", "\x1c", "\u2003 "])
# blank cells, non-finite and out-of-range numbers, non-0/1 binaries, garbage
FUZZ_MUTANTS = st.one_of(FUZZ_NUMBERS, st.sampled_from([
    "", " ", "0", "1", "2", "0.5", "-0", "1.0", " 1 ",
    "nan", "inf", "-inf", "1e400", "abc", "1 2", "1\x00", '" 1 "', '"1,5"', "0x1", "_1",
]))


@st.composite
def csv_cases(draw):
    """CSV text with valid rows plus a few mutations, and a schema."""
    header = list(draw(st.permutations(FUZZ_HEADER)))
    y_kind = draw(st.sampled_from(["binary", "continuous"]))
    bounds = draw(st.sampled_from([None, (-1e300, 1e300)])) if y_kind == "continuous" else None
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        delta = draw(st.sampled_from("011"))
        cells = {
            "x1": draw(FUZZ_NUMBERS), "x2": draw(FUZZ_NUMBERS),
            "z1": draw(FUZZ_NUMBERS if delta == "1" else FUZZ_BLANKS),
            "z2": draw(FUZZ_NUMBERS if delta == "1" else FUZZ_BLANKS),
            "a": draw(st.sampled_from("01")), "delta": delta, "note": "n",
            "y": draw(st.sampled_from("01") if y_kind == "binary" else FUZZ_NUMBERS),
        }
        rows.append([cells[c] for c in header])
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        kind = draw(st.sampled_from(["cell"] * 6 + ["short", "long"]))
        if not row:
            row.append(draw(FUZZ_MUTANTS))
        elif kind == "cell":
            row[draw(st.integers(0, len(row) - 1))] = draw(FUZZ_MUTANTS)
        elif kind == "short":
            del row[draw(st.integers(0, len(row) - 1)):]
        else:
            row.append(draw(FUZZ_MUTANTS))
    # every line end that a file opened with newline="" keeps, the same on
    # every line or drawn for each, a last line with or without one, and a
    # byte-order mark or none
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", None]))
    lines = [",".join(r) for r in [header, *rows]]
    ends = [eol or draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([ends[-1], ""]))
    text = "".join(line + end for line, end in zip(lines, ends))
    return draw(st.sampled_from(["", "\ufeff"])) + text, y_kind, bounds


FUZZ_TEXT = ",".join(FUZZ_HEADER) + "\n{}\n{}\n"
P2_ROW = "0.1,0.2,0.3,0.4,1,0,1,n"
P1_ROW = "0.1,0.2,,,1,0,0,n"
# rows over three blocks of data_model._ROW_BLOCK (2^13) lines, the last one partial
N_BLOCKS_ROWS = 2 * (1 << 13) + 123


def blocks_text(*edits: tuple[int, str]) -> str:
    """A cohort of N_BLOCKS_ROWS rows, alternately in and out of phase 2; for
    each (row, cells) of edits, the 0-based data row `row` reads `cells`."""
    rows = [P2_ROW if i % 2 else P1_ROW for i in range(N_BLOCKS_ROWS)]
    for row, cells in edits:
        rows[row] = cells
    return "\n".join([",".join(FUZZ_HEADER), *rows]) + "\n"


def long_cell_text() -> str:
    """A note cell exactly as long as csv.field_size_limit(), so its line is
    longer than the limit, and csv.reader reads it."""
    note = "n" * csv.field_size_limit()
    return FUZZ_TEXT.format(P2_ROW, P1_ROW[:-1] + note)


def _load_or_message(loader, path, schema):
    try:
        return loader(path, schema)
    except DataError as exc:
        return str(exc)


class TestCsvMatchesReference:
    """The columnar load_csv against the former row-by-row loader."""

    @settings(max_examples=400, deadline=None)
    @given(case=csv_cases())
    @example(case=("", "binary", None))
    @example(case=(",".join(FUZZ_HEADER) + "\n", "continuous", None))
    # the ordering rules of the first bad row; rows read x1,x2,z1,z2,a,y,delta,note
    @example(case=(FUZZ_TEXT.format("", P2_ROW), "binary", None))  # blank first data row
    @example(case=(FUZZ_TEXT.format("abc" + P2_ROW[3:], "0.1,0.2"), "binary", None))
    @example(case=(FUZZ_TEXT.format("0.1,0.2", "abc" + P2_ROW[3:]), "binary", None))
    @example(case=(FUZZ_TEXT.format(P2_ROW, "0.1,0.2,abc,0.4,1,0,2,n"), "binary", None))
    @example(case=(FUZZ_TEXT.format("0.1,0.2,1.5,,1,0,0,n", "0.1,0.2,0.3,0.4,2,0,1,n"),
                   "binary", None))
    @example(case=(FUZZ_TEXT.format(P2_ROW, "0.1,0.2,0.3,0.4,1,1e301,1,n"), "continuous",
                   (-1e300, 1e300)))  # an outcome outside the declared bounds
    # the edges of the split tokenizer: quotes, which csv.reader reads...
    @example(case=(FUZZ_TEXT.format(P2_ROW, P1_ROW[:-1] + '"n"'), "binary", None))
    @example(case=(FUZZ_TEXT.format(P2_ROW, P1_ROW[:-1] + '"a,b"'), "binary", None))
    @example(case=(FUZZ_TEXT.format('"0.1",0.2,0.3,0.4,1,0,1,n', P1_ROW), "binary", None))
    @example(case=(FUZZ_TEXT.format(P2_ROW, '"0.1,0.2,,,1,0,0,n'), "binary", None))
    # ...line ends, a missing last one, an empty line...
    @example(case=(FUZZ_TEXT.format(P2_ROW, P1_ROW).replace("\n", "\r"), "binary", None))
    @example(case=(FUZZ_TEXT.format(P2_ROW, P1_ROW).replace("\n", "\r\n"), "binary", None))
    @example(case=(FUZZ_TEXT.format(P2_ROW, P1_ROW).rstrip("\n"), "binary", None))
    @example(case=(FUZZ_TEXT.format(P2_ROW, "\n" + P1_ROW), "binary", None))
    @example(case=(FUZZ_TEXT.format(P2_ROW, P1_ROW) + "\r\n", "binary", None))
    # ...a byte-order mark, a NUL and a line longer than the field-size limit...
    @example(case=("\ufeff" + FUZZ_TEXT.format(P2_ROW, P1_ROW), "binary", None))
    @example(case=(FUZZ_TEXT.format(P2_ROW, P1_ROW[:-1] + "n\x00"), "binary", None))
    @example(case=(FUZZ_TEXT.format("0.1\x00" + P2_ROW[3:], P1_ROW), "binary", None))
    @example(case=(long_cell_text(), "binary", None))
    # ...and three blocks of rows: none bad, the first bad cell in the last
    # block, the first row of the wrong width in the second, a quote that
    # hands the rest of the file to csv.reader in the third, and an empty line
    # that hands it over in the second, where csv.reader then meets an
    # unclosed quote in the third
    @example(case=(blocks_text(), "binary", None))
    @example(case=(blocks_text((N_BLOCKS_ROWS - 60, "0.1,0.2,0.3,abc,1,0,1,n")), "binary", None))
    @example(case=(blocks_text((9000, "0.1,0.2,,,1,0,0")), "binary", None))
    @example(case=(blocks_text((2 * (1 << 13) + 5, '"0.1",0.2,0.3,0.4,1,0,1,n')), "binary",
                   None))
    @example(case=(blocks_text((9000, ""), (2 * (1 << 13) + 5, '"' + P1_ROW)), "binary", None))
    def test_same_dataset_or_same_error(self, case, tmp_path_factory):
        assert_same_load(case, tmp_path_factory.getbasetemp() / "fuzz.csv")

    @settings(max_examples=200, deadline=None)
    @given(case=csv_cases(), block=st.integers(1, 3))
    # a block of one empty line, and one of an empty line and a line of one cell
    @example(case=(FUZZ_TEXT.format(P2_ROW, ""), "binary", None), block=1)
    @example(case=(FUZZ_TEXT.format(P2_ROW, "\n0.1"), "binary", None), block=2)
    def test_same_dataset_or_same_error_at_any_row_block(self, case, block, tmp_path_factory):
        # lines are read a block at a time; from the first block that cannot
        # be split at its commas on, csv.reader reads the rest of the file
        with mock.patch.object(data_model, "_ROW_BLOCK", block):
            assert_same_load(case, tmp_path_factory.getbasetemp() / "fuzz.csv")


def assert_same_load(case, path):
    """load_csv and reference_load_csv give the same Dataset, bit for bit,
    or the same DataError message on the text of case."""
    text, y_kind, bounds = case
    schema = CsvSchema(treatment="a", outcome="y", delta="delta", w1=("x1", "x2"),
                       w2=("z1", "z2"), y_kind=y_kind, y_bounds=bounds)
    path.write_bytes(text.encode("utf-8"))
    got = _load_or_message(load_csv, path, schema)
    want = _load_or_message(reference_load_csv, path, schema)
    if isinstance(want, str):
        assert got == want
        return
    assert isinstance(got, Dataset), got
    for name in ("w1", "a", "y", "delta", "w2"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes(), name  # NaN positions and signed zeros too
    assert got.y_kind == want.y_kind and got.y_bounds == want.y_bounds


# signed zeros, subnormals and the float extremes, then any finite double
EDGE_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308,
                     1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
# -1e308..1e308 would give an infinite outcome span, which Dataset rejects
CONTINUOUS_BOUNDS = (-1e300, 1e308)


@st.composite
def writable_datasets(draw):
    """A Dataset with 0-2 phase-2 covariates and at least one delta=0 row."""
    n = draw(st.integers(2, 8))
    d_w1, d_w2 = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    delta = draw(st.permutations([0, 1] + draw(st.lists(st.sampled_from([0, 1]),
                                                        min_size=n - 2, max_size=n - 2))))
    floats = st.lists(EDGE_FLOATS, min_size=n * (d_w1 + d_w2), max_size=n * (d_w1 + d_w2))
    w = np.array(draw(floats)).reshape(n, d_w1 + d_w2)
    w2 = w[:, d_w1:]
    w2[np.array(delta) == 0] = np.nan
    a = draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))
    if draw(st.booleans()):
        y = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
        return Dataset(w1=w[:, :d_w1], a=a, y=y, delta=delta, w2=w2, y_kind="binary")
    y = draw(st.lists(st.one_of(EDGE_FLOATS.filter(lambda v: abs(v) <= 1e300),
                                st.sampled_from([1e308])), min_size=n, max_size=n))
    return Dataset(w1=w[:, :d_w1], a=a, y=y, delta=delta, w2=w2,
                   y_kind="continuous", y_bounds=CONTINUOUS_BOUNDS)


class TestWriteCsvMatchesReference:
    """The columnar write_csv against the former row-by-row writer."""

    @settings(max_examples=200, deadline=None)
    @given(ds=writable_datasets())
    def test_same_bytes(self, ds, tmp_path_factory):
        schema = CsvSchema(treatment="a", outcome="y", delta="d",
                           w1=tuple(f"u{j}" for j in range(ds.d_w1)),
                           w2=tuple(f"v{j}" for j in range(ds.d_w2)))
        base = tmp_path_factory.getbasetemp()
        write_csv(ds, base / "columnar.csv", schema)
        reference_write_csv(ds, base / "rows.csv", schema)
        assert (base / "columnar.csv").read_bytes() == (base / "rows.csv").read_bytes()

    @pytest.mark.parametrize("block", [1, 7, 299, 300])
    def test_same_bytes_at_any_row_block(self, block, tmp_path, monkeypatch):
        # rows are written one block at a time; 300 rows fill one block of
        # 300, and leave a last block of one row at 299
        ds = make_twophase_dataset(np.random.default_rng(block))
        schema = CsvSchema(treatment="a", outcome="y", delta="d",
                           w1=tuple(f"u{j}" for j in range(ds.d_w1)),
                           w2=tuple(f"v{j}" for j in range(ds.d_w2)))
        monkeypatch.setattr(data_model, "_ROW_BLOCK", block)
        write_csv(ds, tmp_path / "blocks.csv", schema)
        reference_write_csv(ds, tmp_path / "rows.csv", schema)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_peak_traced_memory_per_row(self, tmp_path):
        # the cell text of one block of rows at a time: 13.1 traced bytes a
        # row at 200,000 rows of five columns, against 266 when every cell
        # was formatted before the first row was written
        ds, schema = big_cohort()
        peak = traced_peak(lambda: write_csv(ds, tmp_path / "big.csv", schema))
        assert peak / ds.n <= 24


def big_cohort() -> tuple[Dataset, CsvSchema]:
    """200,000 rows of five columns, 60% of them in phase 2."""
    n = 200_000
    rng = np.random.default_rng(1)
    delta = (rng.random(n) < 0.6).astype(int)
    w2 = np.where(delta[:, None] == 1, rng.normal(size=(n, 1)), np.nan)
    ds = Dataset(w1=rng.normal(size=(n, 1)), a=(rng.random(n) < 0.5).astype(int),
                 y=(rng.random(n) < 0.5).astype(float), delta=delta, w2=w2)
    return ds, CsvSchema(treatment="a", outcome="y", delta="d", w1=("u0",), w2=("v0",))
