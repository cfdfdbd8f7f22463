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


def test_raking_without_a_sign_change_returns_unconverged():
    # m = (1, 2) on the phase-2 rows against a total of -7: F > 0 for every
    # lambda, so one Newton step ends at lambda = 2 and bisection finds no cell
    res = rake_weights([1.0, 2.0, -10.0], np.ones(3), [1, 1, 0], max_iter=1)
    assert (res.converged, res.lam, res.n_iter) == (False, 2.0, 1)
