import math

import numpy as np
import pytest

from twophase_ate.roots import bisect, newton


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
