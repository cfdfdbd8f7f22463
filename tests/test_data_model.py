import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twophase_ate.data_model import (
    CsvSchema,
    DataError,
    Dataset,
    default_bounds,
    load_csv,
    scale_outcome,
    write_csv,
)

from util import make_twophase_dataset, reference_load_csv, reference_write_csv


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

    def test_arrays_are_write_protected(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            ds.y[0] = 5.0


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

    def test_default_bounds_cover_data(self):
        y = np.array([-1.0, 4.0])
        lo, hi = default_bounds(y)
        assert lo < -1.0 < 4.0 < hi
        assert hi - 4.0 == pytest.approx(5e-6, rel=1e-6)


SCHEMA = CsvSchema(treatment="a", outcome="y", delta="delta",
                   w1=("x1",), w2=("x2",))


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


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
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(",".join(r) for r in [header, *rows]) + eol
    return text, y_kind, bounds


FUZZ_TEXT = ",".join(FUZZ_HEADER) + "\n{}\n{}\n"
P2_ROW = "0.1,0.2,0.3,0.4,1,0,1,n"


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
    def test_same_dataset_or_same_error(self, case, tmp_path_factory):
        text, y_kind, bounds = case
        schema = CsvSchema(treatment="a", outcome="y", delta="delta", w1=("x1", "x2"),
                           w2=("z1", "z2"), y_kind=y_kind, y_bounds=bounds)
        path = tmp_path_factory.getbasetemp() / "fuzz.csv"
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
