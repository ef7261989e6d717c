"""Tension schedule tests: parameter validation, and the record-time check
the chain and the PDE share."""

import math
import re

import numpy as np
import pytest

from hydrochain.macropde import MacroConfig
from hydrochain.microchain import ChainConfig
from hydrochain.schedules import RampSchedule, StepSchedule


@pytest.mark.parametrize("cls", [RampSchedule, StepSchedule])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_parameters_rejected(cls, bad):
    # a NaN t1 passes the t1 <= 0 check, and a NaN t_step makes every
    # comparison false, so each would silently reshape the schedule
    for name in cls.__dataclass_fields__:
        with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
            cls(**{name: bad})


@pytest.mark.parametrize(
    "make",
    [lambda times: ChainConfig(N=32, t_end=0.01, record_times=times),
     lambda times: MacroConfig(M=16, t_end=0.01, record_times=times)],
    ids=["chain", "pde"],
)
@pytest.mark.parametrize("times", [0.005, np.full((2, 2), 0.005)], ids=["scalar", "2x2"])
def test_record_times_must_be_one_dimensional(make, times):
    # a (2, 2) array passed both configs and failed inside the runs with
    # numpy's own errors, and a scalar with numpy's np.diff error
    with pytest.raises(ValueError, match=re.escape(f"must be 1-D, got shape {np.shape(times)}")):
        make(times)
