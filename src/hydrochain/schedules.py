"""Boundary tension schedules tau_bar(t) and the record-time check, shared by
the chain and the PDE."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def checked_record_times(times, t_max: float) -> np.ndarray:
    """times as a float array, checked to be finite, sorted and inside
    [0, t_max] (up to rounding)."""
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"record_times must be finite, got {times[~np.isfinite(times)][0]}")
    if np.any(times < 0.0) or np.any(times > t_max * (1.0 + 1e-9) + 1e-12):
        raise ValueError("record_times must lie inside [0, t_end]")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("record_times must be sorted")
    return times


def _check_finite(schedule) -> None:
    """A NaN parameter would pass the range checks and reshape the schedule."""
    for name, value in vars(schedule).items():
        if not math.isfinite(value):
            raise ValueError(f"tension schedule parameter {name} must be finite, got {value}")


@dataclass(frozen=True)
class ConstantSchedule:
    """tau_bar(t) = tau0, checked where it is read, as any schedule's tension."""

    tau0: float = 0.0

    def __call__(self, t):
        return self.tau0 + 0.0 * np.asarray(t) if np.ndim(t) else self.tau0

    def to_dict(self):
        return {"kind": "constant", "tau0": self.tau0}


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
        if self.t1 <= 0.0:
            raise ValueError(f"ramp duration must be positive, got {self.t1}")

    def __call__(self, t):
        u = np.clip(np.asarray(t, dtype=float) / self.t1, 0.0, 1.0)
        val = self.tau0 + (self.tau1 - self.tau0) * u * u * (3.0 - 2.0 * u)
        return float(val) if val.ndim == 0 else val

    def to_dict(self):
        return {"kind": "ramp", "tau0": self.tau0, "tau1": self.tau1, "t1": self.t1}


@dataclass(frozen=True)
class StepSchedule:
    """Discontinuous jump at t_step (shock preset)."""

    tau0: float = 0.0
    tau1: float = 0.5
    t_step: float = 0.0

    def __post_init__(self):
        _check_finite(self)

    def __call__(self, t):
        val = np.where(np.asarray(t, dtype=float) < self.t_step, self.tau0, self.tau1)
        return float(val) if val.ndim == 0 else val

    def to_dict(self):
        return {"kind": "step", "tau0": self.tau0, "tau1": self.tau1, "t_step": self.t_step}

