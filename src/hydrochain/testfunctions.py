"""Compactly supported space-time test functions with analytic derivatives,
and the one weak-form pairing of recorded fields against them.

Built from the C^2 bump (1-u^2)^3, optionally modulated by a sine mode, so
weak-formulation pairings never need numerical differentiation.

Evaluations are array-valued: t and x broadcast against each other, so
phi.dt(times[:, None], x[None, :]) is a whole (T, X) grid; scalars give a
Python float. Values are exactly zero outside the open support.

SpaceTimeTestFunction.pair is the one quadrature and support check of the
weak residuals, blockstats.weak_residual and macropde.entropy_pair_residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import checked_integer, checked_real


# min(u^2, 1) makes w exactly 0 for |u| >= 1 and w = 1 - u^2 inside; products,
# not **, because numpy's array power is not correctly rounded
def _bump(u):
    w = 1.0 - np.minimum(u * u, 1.0)
    return w * w * w


def _bump_d(u):
    w = 1.0 - np.minimum(u * u, 1.0)
    return -6.0 * u * (w * w)


def _value(v):
    return float(v) if v.ndim == 0 else v


@dataclass(frozen=True)
class SpaceTimeTestFunction:
    """phi(t,x) = bump_t(t) * bump_x(x) * sin-mode, supported in
    (t0,t1) x (x0,x1), twice continuously differentiable."""

    t0: float
    t1: float
    x0: float
    x1: float
    mode: int = 0

    def __post_init__(self):
        for name in ("t0", "t1", "x0", "x1"):
            checked_real(name, getattr(self, name), math.isfinite, "finite")
        checked_integer("mode", self.mode, 0)
        if not (self.t0 < self.t1 and self.x0 < self.x1):
            raise ValueError("empty support")
        if not (0.0 <= self.x0 and self.x1 <= 1.0):
            raise ValueError("spatial support must lie inside [0,1]")

    def _ut(self, t):
        return (2.0 * t - (self.t0 + self.t1)) / (self.t1 - self.t0)

    def _ux(self, x):
        return (2.0 * x - (self.x0 + self.x1)) / (self.x1 - self.x0)

    def _phase(self, x):
        return np.pi * self.mode * ((x - self.x0) / (self.x1 - self.x0))

    def _space(self, x):
        b = _bump(self._ux(x))
        if self.mode == 0:
            return b
        return b * np.sin(self._phase(x))

    def _space_d(self, x):
        u = self._ux(x)
        bd = _bump_d(u) * (2.0 / (self.x1 - self.x0))
        if self.mode == 0:
            return bd
        w = np.pi * self.mode / (self.x1 - self.x0)
        s = self._phase(x)
        return bd * np.sin(s) + _bump(u) * w * np.cos(s)

    def __call__(self, t, x):
        return _value(_bump(self._ut(t)) * self._space(x))

    def dt(self, t, x):
        return _value(_bump_d(self._ut(t)) * (2.0 / (self.t1 - self.t0)) * self._space(x))

    def dx(self, t, x):
        return _value(_bump(self._ut(t)) * self._space_d(x))

    def pair(self, times, x, n, a, b) -> float:
        """int int (a dphi/dt + b dphi/dx) dx dt for a and b of shape (T, X),
        values at T record times on X cells of width 1/n centred at x: the
        sum over the cells / n, then the trapezoid over the times. Times that
        decrease (or NaN), or a support past the times or past the cells
        [x[0] - 1/(2n), x[-1] + 1/(2n)] by more than 1e-12, raise ValueError."""
        rising = np.diff(times) >= 0.0  # False at a drop, and at a NaN
        if not rising.all():
            i = int(np.argmin(rising))
            raise ValueError(f"field times must not decrease: {times[i]} then {times[i + 1]}")
        t_lo, t_hi = times[0], times[-1]
        if self.t0 < t_lo - 1e-12 or self.t1 > t_hi + 1e-12:
            raise ValueError(f"time support ({self.t0}, {self.t1}) exceeds ({t_lo}, {t_hi})")
        x_lo, x_hi = x[0] - 0.5 / n, x[-1] + 0.5 / n
        if self.x0 < x_lo - 1e-12 or self.x1 > x_hi + 1e-12:
            raise ValueError(
                f"space support ({self.x0}, {self.x1}) exceeds ({x_lo:.4f}, {x_hi:.4f})"
            )
        t, x = times[:, None], x[None, :]
        vals = np.sum(a * self.dt(t, x) + b * self.dx(t, x), axis=1) / n
        return float(np.trapezoid(vals, times))


def default_test_functions(t_end: float):
    """Small built-in family used by the weak-residual reports: the bump and
    its first two sine modes on (0.2, 0.8)."""
    return [
        SpaceTimeTestFunction(0.05 * t_end, 0.95 * t_end, 0.2, 0.8, mode=0),
        SpaceTimeTestFunction(0.05 * t_end, 0.95 * t_end, 0.2, 0.8, mode=1),
        SpaceTimeTestFunction(0.10 * t_end, 0.90 * t_end, 0.2, 0.8, mode=2),
    ]
