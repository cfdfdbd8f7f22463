"""Scalar root finding used by the fluctuation, raking, and plug-in solvers.

Every solve runs an open iteration (`newton` or `secant`) and, when that
fails, falls back to `bisect` on a grid the caller chooses (`bracketed`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

__all__ = ["RootResult", "newton", "bisect", "secant", "bracketed"]

BISECT_MAX_ITER = 200
SECANT_MAX_ITER = 100


@dataclass(frozen=True)
class RootResult:
    x: float
    f: float
    n_iter: int
    converged: bool


def _last_value(fn: Callable[[float], object]) -> Callable[[float], object]:
    """fn, evaluated once for a run of calls at the same point.

    `newton` reads df at the point where it last read f, so a solver whose
    f and df are built from one vector at x (a fitted mean, a tilt) gets
    that vector from here and computes it once per point. The point is
    compared as (x, sign of x): a zero of the other sign is a new point, so
    a reused value is always the one fn gives at bit-identical input.
    """
    last: list = [None, None]

    def at(x: float):
        key = (x, math.copysign(1.0, x))
        if key != last[0]:
            last[:] = key, fn(x)
        return last[1]

    return at


def newton(f: Callable[[float], float], df: Callable[[float], float], f0: float,
           tol: float, max_iter: int, bound: float = math.inf) -> RootResult:
    """Newton's method from x = 0, where f0 = f(0) is already known.

    Returns x = 0 at once, without reading df, when |f0| <= tol, and
    otherwise stops converged once |f(x)| <= tol. Stops unconverged after
    max_iter steps, or as soon as the derivative is zero or not finite, or
    a step is not finite or leaves [-bound, bound]; the result then holds
    the last iterate and the number of steps taken to reach it.
    """
    x, fx = 0.0, f0
    if abs(fx) <= tol:
        return RootResult(x, fx, 0, True)
    for it in range(1, max_iter + 1):
        d = df(x)
        if d == 0.0 or not math.isfinite(d):
            return RootResult(x, fx, it - 1, False)
        x_new = x - fx / d
        if not math.isfinite(x_new) or abs(x_new) > bound:
            return RootResult(x, fx, it - 1, False)
        x, fx = x_new, f(x_new)
        if abs(fx) <= tol:
            return RootResult(x, fx, it, True)
    return RootResult(x, fx, max_iter, False)


def bisect(f: Callable[[float], float], grid: Sequence[float], tol: float) -> RootResult | None:
    """Bisection on the first cell of the increasing grid where f changes sign.

    Grid points are scanned from the left; one where f is exactly zero is
    returned as the root. Returns None when f has no zero and no sign change
    on the grid. Stops when |f| <= tol, or unconverged after BISECT_MAX_ITER
    halvings; once the cell is too narrow to halve, the halvings left would
    all give the same point, so they are not run.
    """
    lo, flo = grid[0], f(grid[0])
    for hi in grid[1:]:
        if flo == 0.0:
            return RootResult(lo, 0.0, 0, True)
        fhi = f(hi)
        if flo * fhi < 0:
            break
        lo, flo = hi, fhi
    else:
        return RootResult(lo, 0.0, 0, True) if flo == 0.0 else None
    x, fx = lo, flo
    for it in range(1, BISECT_MAX_ITER + 1):
        x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) <= tol:
            return RootResult(x, fx, it, True)
        if x == lo or x == hi:  # the cell cannot shrink: every halving left would give x again
            break
        if flo * fx <= 0:
            hi = x
        else:
            lo, flo = x, fx
    return RootResult(x, fx, BISECT_MAX_ITER, False)


def secant(f: Callable[[float], float], x0: float, x1: float, tol: float) -> RootResult:
    """The secant method from x0 and x1: f is evaluated at both before any
    test, and x0 is returned with no step when |f(x0)| <= tol. Stops
    converged once |f| <= tol at the newest point, and unconverged when the
    last two values of f are equal or after SECANT_MAX_ITER steps. n_iter
    counts the steps, each one evaluation of f after the first two.
    """
    f0, f1 = f(x0), f(x1)
    if abs(f0) <= tol:
        return RootResult(x0, f0, 0, True)
    for it in range(1, SECANT_MAX_ITER + 1):
        if abs(f1) <= tol:
            return RootResult(x1, f1, it - 1, True)
        denom = f1 - f0
        if denom == 0.0:
            return RootResult(x1, f1, it - 1, False)
        x2 = x1 - f1 * (x1 - x0) / denom
        x0, f0, x1 = x1, f1, x2
        f1 = f(x1)
    return RootResult(x1, f1, SECANT_MAX_ITER, abs(f1) <= tol)


def bracketed(f: Callable[[float], float], res: RootResult,
              grid: Callable[[float], Sequence[float]], tol: float) -> RootResult | None:
    """res, an open iteration's result on f, if it converged; else `bisect`
    on grid(res.x), its n_iter the open steps plus the halvings, or None
    when f has no zero and no sign change on that grid."""
    if res.converged:
        return res
    fallback = bisect(f, grid(res.x), tol)
    return None if fallback is None else replace(fallback, n_iter=res.n_iter + fallback.n_iter)
