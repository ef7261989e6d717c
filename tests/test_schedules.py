"""Tension schedule tests: parameter validation, and the run clock the chain
and the PDE share: the record-time check and the horizon rule."""

import math
import re

import numpy as np
import pytest

from hydrochain.macropde import _CFL, MacroConfig
from hydrochain.microchain import _THETA, ChainConfig
from hydrochain.schedules import ConstantSchedule, RampSchedule, StepSchedule
from hydrochain.schedules import checked_record_times, run_steps

SCHEDULES = [RampSchedule, StepSchedule, ConstantSchedule]


@pytest.mark.parametrize("cls", SCHEDULES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1", None])
def test_nonfinite_parameters_rejected(cls, bad):
    # a NaN tension or t_step makes every comparison false, so each would
    # silently reshape the schedule; a bool ran as 1.0. ConstantSchedule
    # checked nothing: True ran the chain and the PDE at tau = 1, and "1"
    # and None leaked a TypeError from the first call
    for name in cls.__dataclass_fields__:
        with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
            cls(**{name: bad})


@pytest.mark.parametrize("cls", SCHEDULES)
def test_scalar_time_gives_a_float(cls):
    # ConstantSchedule(1)(0.0) returned the int 1
    schedule = cls(**{name: 1 for name in cls.__dataclass_fields__})
    # and StepSchedule(1, 1, 1) gave an int64 array on an array time
    assert type(schedule(0.0)) is float and type(schedule(2)) is float
    values = schedule(np.array([0.0, 0.5, 2.0]))
    assert values.dtype == np.float64
    assert values.tolist() == [schedule(t) for t in (0.0, 0.5, 2.0)]


CONFIGS = pytest.mark.parametrize(
    "make",
    [lambda times: ChainConfig(N=32, t_end=0.01, record_times=times),
     lambda times: MacroConfig(M=16, t_end=0.01, record_times=times)],
    ids=["chain", "pde"],
)


@CONFIGS
@pytest.mark.parametrize("times", [0.005, np.full((2, 2), 0.005)], ids=["scalar", "2x2"])
def test_record_times_must_be_one_dimensional(make, times):
    # a (2, 2) array passed both configs and failed inside the runs with
    # numpy's own errors, and a scalar with numpy's np.diff error
    with pytest.raises(ValueError, match=re.escape(f"must be 1-D, got shape {np.shape(times)}")):
        make(times)


@CONFIGS
def test_default_record_grid(make):
    # no record_times: schedules.checked_record_times gives both configs
    # 200 times from 0 to t_end
    times = make(None).record_times
    assert np.array_equal(times, np.linspace(0.0, 0.01, 200))
    assert np.array_equal(checked_record_times(None, 0.01), times)


def chain_steps(t_end):
    cfg = ChainConfig(N=32, t_end=t_end)
    return cfg.n_coarse, cfg.dt, _THETA / (cfg.N * cfg.sigma)


def pde_steps(t_end):
    # M = 100 at delta = 0.25: the diffusive CFL bound 0.4 dx^2 / (2 delta)
    cfg = MacroConfig(M=100, delta1=0.25, delta2=0.25, t_end=t_end)
    return cfg.n_steps, cfg.dt, _CFL * cfg.dx**2 / 0.5


@pytest.mark.parametrize("steps", [chain_steps, pde_steps], ids=["chain", "pde"])
def test_one_horizon_rule(steps):
    # the fewest steps of at most the layer's bound that end on t_end: the
    # chain rounded t_end to whole steps of its bound, and the PDE's absolute
    # 1e-12 tolerance gave 52 of these 300 horizons k + 1 steps
    dt_max = steps(1.0)[2]
    for t_end in (0.3 * dt_max, 7.5 * dt_max, 0.01, 0.37):
        n, dt, _ = steps(t_end)
        assert n * dt == pytest.approx(t_end, rel=1e-15)
        assert dt <= dt_max and (n - 1) * dt_max < t_end
    for k in range(100_000, 100_300):
        n, dt, _ = steps(k * dt_max)
        assert n == k and dt <= dt_max * (1.0 + 1e-12)


def test_run_steps_checks_its_inputs():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_end must be positive and finite"):
            run_steps(bad, 0.1)
    for bad in (0.0, math.nan, 5e-324):
        with pytest.raises(ValueError, match="steps of at most"):
            run_steps(1.0, bad)
    assert run_steps(1e-3, math.inf) == (1, 1e-3)
    # 2 delta overflows, so the diffusive bound is 0: this used to raise
    # ZeroDivisionError
    with pytest.raises(ValueError, match="steps of at most 0.0"):
        MacroConfig(delta1=1e308)
