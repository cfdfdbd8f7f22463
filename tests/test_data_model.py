import numpy as np
import pytest
from hypothesis import given, settings
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

from util import make_twophase_dataset


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


class TestDatasetValidation:
    def test_valid(self):
        ds = toy_dataset()
        assert ds.n == 4 and ds.n_phase2 == 2
        assert list(ds.phase2) == [0, 2]

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
        np.testing.assert_allclose(scale.invert(scaled.y), y, atol=1e-12)

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
