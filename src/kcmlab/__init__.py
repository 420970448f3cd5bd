"""Bootstrap percolation and kinetically constrained models on Z^2."""

__version__ = "0.1.0"

from .geometry import (
    Region,
    BoundaryCondition,
    ALL_HEALTHY,
    ALL_INFECTED,
    BoundaryExterior,
    boundaries,
)
from .families import UpdateFamily, FamilyError, parse_family, builtin_family
from .directions import stable_directions, StableDirectionReport

__all__ = [
    "Region",
    "BoundaryCondition",
    "ALL_HEALTHY",
    "ALL_INFECTED",
    "BoundaryExterior",
    "boundaries",
    "UpdateFamily",
    "FamilyError",
    "parse_family",
    "builtin_family",
    "stable_directions",
    "StableDirectionReport",
]
