"""Tension schedule tests: parameter validation."""

import math

import pytest

from hydrochain.schedules import RampSchedule, StepSchedule


@pytest.mark.parametrize("cls", [RampSchedule, StepSchedule])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_parameters_rejected(cls, bad):
    # a NaN t1 passes the t1 <= 0 check, and a NaN t_step makes every
    # comparison false, so each would silently reshape the schedule
    for name in cls.__dataclass_fields__:
        with pytest.raises(ValueError, match=f"parameter {name} must be finite"):
            cls(**{name: bad})
