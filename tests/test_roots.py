import math

import numpy as np
import pytest

from twophase_ate.estimators import rake_weights
from twophase_ate.roots import (
    BISECT_MAX_ITER,
    SECANT_MAX_ITER,
    RootResult,
    _last_value,
    bisect,
    bracketed,
    newton,
    secant,
)


def cubic(x):
    return x**3 - 2.0


def dcubic(x):
    return 3.0 * x**2


class TestNewton:
    def test_converges_from_zero(self):
        res = newton(lambda x: math.exp(x) - 2.0, math.exp, -1.0, 1e-12, max_iter=50)
        assert res.converged and res.x == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_slope_stops_before_stepping(self):
        res = newton(cubic, dcubic, cubic(0.0), 1e-12, max_iter=50)
        assert not res.converged and res.n_iter == 0 and res.x == 0.0

    def test_step_outside_bound_stops(self):
        # the first step from 0 lands at 2, outside [-1, 1]
        res = newton(lambda x: 1.0 - 0.5 * x - x**2, lambda x: -0.5 - 2.0 * x, 1.0,
                     1e-12, max_iter=50, bound=1.0)
        assert not res.converged and res.n_iter == 0 and res.x == 0.0


    def test_solved_at_zero_returns_without_reading_f_or_df(self):
        def unread(x):
            raise AssertionError(f"read at {x}")

        res = newton(unread, unread, -1e-13, 1e-12, max_iter=50)
        assert res == RootResult(0.0, -1e-13, 0, True)


class TestLastValue:
    def test_one_evaluation_per_run_of_equal_points(self):
        seen = []
        at = _last_value(lambda x: seen.append(x) or [x])
        assert [at(x) for x in (0.0, 0.0, 1.5, 1.5, 1.5, 0.0)] == [[0.0]] * 2 + [[1.5]] * 3 + [[0.0]]
        assert seen == [0.0, 1.5, 0.0]

    def test_a_zero_of_the_other_sign_is_a_new_point(self):
        seen = []
        at = _last_value(seen.append)
        at(0.0), at(-0.0), at(-0.0)
        assert [math.copysign(1.0, x) for x in seen] == [1.0, -1.0]

    def test_a_new_nan_is_a_new_point(self):
        seen = []
        at = _last_value(seen.append)
        at(float("nan")), at(float("nan"))
        assert len(seen) == 2


class TestBisect:
    def test_first_sign_change_cell(self):
        # roots at -1 and 1; the scan stops at the cell holding -1
        res = bisect(lambda x: x * x - 1.0, np.linspace(-3.0, 3.0, 7) + 0.25, 1e-12)
        assert res.converged and res.x == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("grid", [(0.0, 2.0), (-2.0, 0.0)])
    def test_grid_point_zero_is_returned(self, grid):
        res = bisect(lambda x: x, grid, 1e-12)
        assert res.x == 0.0 and res.f == 0.0 and res.n_iter == 0 and res.converged

    def test_no_sign_change_gives_none(self):
        assert bisect(lambda x: x * x + 1.0, np.linspace(-10.0, 10.0, 81), 1e-12) is None

    def test_cap_without_meeting_tol(self):
        # a jump at 0.3: the sign changes, but |f| never drops below 1
        res = bisect(lambda x: math.copysign(1.0, x - 0.3), (0.0, 1.0), 0.0)
        assert not res.converged and res.n_iter == BISECT_MAX_ITER
        assert res.x == pytest.approx(0.3, abs=1e-12)


class TestSecant:
    def test_converges(self):
        res = secant(lambda x: math.exp(x) - 2.0, 0.0, 1.0, 1e-12)
        assert res.converged and res.x == pytest.approx(math.log(2.0), abs=1e-12)

    def test_root_at_the_first_point_returns_at_once(self):
        res = secant(lambda x: x - 1.0, 1.0, 5.0, 1e-12)
        assert res == RootResult(1.0, 0.0, 0, True)

    def test_zero_denominator_stops_before_stepping(self):
        res = secant(lambda x: 3.0, 0.0, 1.0, 1e-12)
        assert res == RootResult(1.0, 3.0, 0, False)

    def test_cap_without_a_root(self):
        res = secant(lambda x: x * x + 1.0, 0.0, 0.5, 1e-12)
        assert not res.converged and res.n_iter == SECANT_MAX_ITER


class TestBracketed:
    def test_converged_result_is_returned_untouched(self):
        res = RootResult(0.5, 1e-14, 3, True)
        grids = []
        assert bracketed(lambda x: x - 0.5, res, grids.append, 1e-12) is res
        assert grids == []

    def test_n_iter_adds_open_steps_and_halvings(self):
        # Newton on the arctan, whose root is at 0.5, steps from 0 to 3.57
        # and then leaves [-5, 5]
        def f(x):
            return math.atan(10.0 * (0.5 - x))

        res = newton(f, lambda x: -10.0 / (1.0 + (10.0 * (0.5 - x)) ** 2), f(0.0), 1e-12,
                     max_iter=50, bound=5.0)
        assert (res.n_iter, res.converged) == (1, False)
        fallback = bisect(f, (-5.0, 5.0), 1e-12)
        got = bracketed(f, res, lambda x: (-5.0, 5.0), 1e-12)
        assert got == RootResult(fallback.x, fallback.f, res.n_iter + fallback.n_iter, True)
        assert got.x == pytest.approx(0.5, abs=1e-12)

    def test_no_sign_change_gives_none(self):
        res = RootResult(0.0, 1.0, 4, False)
        assert bracketed(lambda x: x * x + 1.0, res, lambda x: (-1.0, 1.0), 1e-12) is None

    def test_grid_receives_the_last_iterate(self):
        seen = []

        def grid(x):
            seen.append(x)
            return (x - 1.0, x + 1.0)

        res = bracketed(lambda x: x - 2.5, RootResult(2.0, -0.5, 7, False), grid, 1e-12)
        # the halvings go to 2 and then to the root at 2.5
        assert seen == [2.0]
        assert res == RootResult(2.5, 0.0, 7 + 2, True)


def test_raking_without_a_sign_change_returns_unconverged():
    # m = (1, 2) on the phase-2 rows against a total of -7: F > 0 for every
    # lambda, so one Newton step ends at lambda = 2 and bisection finds no cell
    res = rake_weights([1.0, 2.0, -10.0], np.ones(3), [1, 1, 0], max_iter=1)
    assert (res.converged, res.lam, res.n_iter) == (False, 2.0, 1)
