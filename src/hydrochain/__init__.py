"""hydrochain: anharmonic chain under boundary tension, its viscous p-system
limit, and the statistics connecting them."""

__version__ = "0.1.0"

from .thermo import GibbsSample, PotentialParams, ThermoError, ThermoModel

__all__ = [
    "GibbsSample",
    "PotentialParams",
    "ThermoError",
    "ThermoModel",
    "__version__",
]
