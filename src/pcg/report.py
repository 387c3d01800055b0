"""One report per coloring: every analysis of the package, in one place.

`classify` runs the perfectness check; every other field is computed on
its first read and kept. On a perfect coloring these are the quotient-
level analyses (bipartiteness, twins, coverings), the coloring-level
ones (special diagonals, the orbit decision) and so the covering
dichotomy; maximal periods and canonical form come either way.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .coloring import Lattice, PeriodicColoring, canonical, maximal_periods
from .diagonals import DiagonalClass, find_special_diagonals
from .orbits import orbit_report
from .perfect import Violation, check, is_bipartite
from .twins import covering_target, twin_pairs


class ClassificationReport:
    """Everything the library can say about one coloring, in one place."""

    def __init__(self, F: PeriodicColoring):
        S = check(F)
        self._coloring = F
        self.perfect = not isinstance(S, Violation)
        self.violation = None if self.perfect else S
        self.quotient = S if self.perfect else None
        self.tokens = F.tokens

    @cached_property
    def bipartite(self) -> Optional[bool]:
        return is_bipartite(self._coloring) if self.perfect else None

    @cached_property
    def twin_pairs(self) -> tuple[tuple[int, int], ...]:
        return twin_pairs(self.quotient) if self.perfect else ()

    @cached_property
    def covering(self) -> Optional[bool]:
        return covering_target(self.quotient) is not None if self.perfect else None

    @cached_property
    def special_diagonals(self) -> tuple[DiagonalClass, ...]:
        return find_special_diagonals(self._coloring) if self.perfect else ()

    @cached_property
    def orbit(self) -> Optional[bool]:
        return orbit_report(self._coloring).is_orbit if self.perfect else None

    @cached_property
    def maximal(self) -> Lattice:
        return maximal_periods(self._coloring)

    @cached_property
    def canonical(self) -> str:
        return canonical(self._coloring)

    @property
    def dichotomy(self) -> Optional[bool]:
        """Does a covering have twin colors or is it orbit? True when not a
        covering, None when not perfect."""
        if not self.perfect:
            return None
        return not self.covering or self.orbit or bool(self.twin_pairs)

    def to_json_dict(self) -> dict:
        toks = self.tokens
        v = self.violation
        return {
            "perfect": self.perfect,
            "violation": None
            if v is None
            else {
                "node": list(v.node),
                "color": toks[v.color - 1],
                "expected": list(v.expected),
                "observed": [toks[c - 1] for c in v.observed],
            },
            "quotient": [list(r) for r in self.quotient] if self.quotient else None,
            "bipartite": self.bipartite,
            "twins": [[toks[a - 1], toks[b - 1]] for a, b in self.twin_pairs],
            "covering": self.covering,
            "diagonals": [d.to_json_dict(toks) for d in self.special_diagonals],
            "orbit": self.orbit,
            "maximal_periods": [list(b) for b in self.maximal.basis],
            "canonical": self.canonical,
        }


def classify(F: PeriodicColoring) -> ClassificationReport:
    """The report of one coloring; only its perfectness check runs here."""
    return ClassificationReport(F)
