"""What the chain and the PDE share: the run clock, whose t_end and
record_times count from the start state's t; the run state (ChainState, which
checked_start checks, and BlowUpError); the rules every size, scale and real
setting is checked by (checked_integer, checked_real, checked_positive); the
tension schedules tau_bar(t)."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class BlowUpError(RuntimeError):
    """State left the finite range during integration."""


@dataclass
class ChainState:
    r: np.ndarray
    p: np.ndarray
    t: float


def checked_integer(name: str, value, lo: int) -> None:
    """value must be an int or a numpy integer, not a bool, and at least lo."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


def checked_real(name: str, value, ok, need: str) -> None:
    """value must be a real number, not a bool, for which ok(value) holds;
    else ValueError "<name> must be <need>, got <value>"."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not ok(value):
        raise ValueError(f"{name} must be {need}, got {value!r}")


def checked_positive(name: str, value) -> None:
    """value must be a positive and finite real number."""
    checked_real(name, value, lambda v: math.isfinite(v) and v > 0.0, "positive and finite")


def checked_record_times(times, t_max: float) -> np.ndarray:
    """times as a float array, checked to be 1-D, non-empty, finite, sorted
    and inside [0, t_max] (up to rounding); None gives the default grid of
    200 times from 0 to t_max."""
    times = np.linspace(0.0, t_max, 200) if times is None else np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"record_times must be 1-D, got shape {times.shape}")
    if times.size == 0:
        raise ValueError("record_times must hold at least one time")
    if not np.isfinite(times).all():
        raise ValueError(f"record_times must be finite, got {times[~np.isfinite(times)][0]}")
    if np.any(times < 0.0) or np.any(times > t_max * (1.0 + 1e-9) + 1e-12):
        raise ValueError("record_times must lie inside [0, t_end]")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("record_times must be sorted")
    return times


def run_steps(t_end: float, dt_max: float) -> tuple[int, float]:
    """The fewest steps n of at most dt_max that end on t_end, and their step
    t_end / n. The bound is relative, so a t_end that is k steps of dt_max up
    to rounding keeps k steps, and its step may pass dt_max by that rounding."""
    checked_positive("t_end", t_end)
    if not (dt_max > 0.0 and t_end / dt_max < math.inf):
        raise ValueError(f"t_end={t_end} takes infinitely many steps of at most {dt_max}")
    n = max(1, math.ceil(t_end / dt_max * (1.0 - 1e-12)))
    return n, t_end / n


def record_steps(times: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    """The step each record time snaps to: the nearest, at most n_steps."""
    return np.minimum(np.round(times / dt).astype(int), n_steps)


def checked_start(state, n: int, size: str) -> None:
    """A start state needs r and p of shape (n,), n the size named size, and a
    finite real t (not a bool)."""
    for name, x in (("r", state.r), ("p", state.p)):
        if np.shape(x) != (n,):
            raise ValueError(f"state {name} has shape {np.shape(x)}, need ({n},) for {size}={n}")
    checked_real("state t", state.t, math.isfinite, "finite")


def tensions_at(schedule, times: np.ndarray) -> np.ndarray:
    """The schedule's tensions at the times, from one call, checked finite."""
    tau = np.broadcast_to(np.asarray(schedule(times), dtype=float), times.shape)
    if not np.isfinite(tau).all():
        i = int(np.argmin(np.isfinite(tau)))
        raise ValueError(f"tension schedule gives non-finite tau = {tau[i]} at t = {times[i]:.6g}")
    return tau


def _check_finite(schedule) -> None:
    """A NaN parameter would pass the range checks and reshape the schedule."""
    for name, value in vars(schedule).items():
        checked_real(f"tension schedule parameter {name}", value, math.isfinite, "finite")


@dataclass(frozen=True)
class ConstantSchedule:
    """tau_bar(t) = tau0."""

    tau0: float = 0.0

    def __post_init__(self):
        _check_finite(self)

    def __call__(self, t):
        val = self.tau0 + 0.0 * np.asarray(t, dtype=float)
        return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class RampSchedule:
    """Cubic-eased ramp from tau0 to tau1 over [0, t1], then hold.

    The smoothstep ease keeps the time derivative bounded by
    1.5 |tau1 - tau0| / t1.
    """

    tau0: float = 0.0
    tau1: float = 0.5
    t1: float = 1.0

    def __post_init__(self):
        _check_finite(self)
        checked_positive("t1", self.t1)

    def __call__(self, t):
        u = np.clip(np.asarray(t, dtype=float) / self.t1, 0.0, 1.0)
        val = self.tau0 + (self.tau1 - self.tau0) * u * u * (3.0 - 2.0 * u)
        return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class StepSchedule:
    """Discontinuous jump at t_step (shock preset)."""

    tau0: float = 0.0
    tau1: float = 0.5
    t_step: float = 0.0

    def __post_init__(self):
        _check_finite(self)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        val = np.where(t < self.t_step, float(self.tau0), float(self.tau1))
        return float(val) if val.ndim == 0 else val

