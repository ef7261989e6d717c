"""Compactly supported space-time test functions with analytic derivatives.

Built from the C^2 bump (1-u^2)^3, optionally modulated by a sine mode, so
weak-formulation pairings never need numerical differentiation.

Evaluations are array-valued: t and x broadcast against each other, so
phi.dt(times[:, None], x[None, :]) is a whole (T, X) grid; scalars give a
Python float. Values are exactly zero outside the open support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    name: str = ""

    def __post_init__(self):
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


def default_test_functions(t_end: float, x_lo: float = 0.2, x_hi: float = 0.8):
    """Small built-in family used by the weak-residual reports."""
    return [
        SpaceTimeTestFunction(0.05 * t_end, 0.95 * t_end, x_lo, x_hi, mode=0, name="bump"),
        SpaceTimeTestFunction(0.05 * t_end, 0.95 * t_end, x_lo, x_hi, mode=1, name="sin1"),
        SpaceTimeTestFunction(0.10 * t_end, 0.90 * t_end, x_lo, x_hi, mode=2, name="sin2"),
    ]
