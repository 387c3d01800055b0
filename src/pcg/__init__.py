"""Periodic colorings of the infinite square grid.

Core objects: `Lattice` (period lattice in Hermite normal form),
`PeriodicColoring` (coloring constant on lattice cosets), quotient
matrices and the equitable check in `perfect`, twin detection and
merging in `twins`, diagonal structure in `diagonals`, symmetry orbits
in `orbits`, exhaustive search in `search`, and the report that runs
every analysis on one coloring in `report`.
"""

from .coloring import Lattice, PcgParseError, PeriodicColoring, parse
from .perfect import NotPerfectError, check, quotient
from .twins import merge, twin_pairs

__all__ = [
    "Lattice",
    "NotPerfectError",
    "PcgParseError",
    "PeriodicColoring",
    "check",
    "merge",
    "parse",
    "quotient",
    "twin_pairs",
]
