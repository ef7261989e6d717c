"""hydrochain: anharmonic chain under boundary tension, its viscous p-system
limit, and the statistics connecting them."""

__version__ = "0.1.0"

from .thermo import PotentialParams, ThermoError, ThermoModel

__all__ = [
    "PotentialParams",
    "ThermoError",
    "ThermoModel",
    "__version__",
]
