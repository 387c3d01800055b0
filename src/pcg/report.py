"""One report per coloring: every analysis of the package, in one place.

`classify` runs the perfectness check and, on a perfect coloring, the
quotient-level analyses (bipartiteness, twins, coverings) and the
coloring-level ones (special diagonals, the orbit decision), and so the
covering dichotomy; maximal periods and canonical form come either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coloring import Lattice, PeriodicColoring, canonical, maximal_periods
from .diagonals import DiagonalClass, find_special_diagonals
from .orbits import is_orbit
from .perfect import QuotientMatrix, Violation, check, is_bipartite
from .twins import covering_target, twin_pairs


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the library can say about one coloring, in one place."""

    perfect: bool
    violation: Optional[Violation]
    quotient: Optional[QuotientMatrix]
    bipartite: Optional[bool]
    twin_pairs: tuple[tuple[int, int], ...]
    covering: Optional[bool]
    special_diagonals: tuple[DiagonalClass, ...]
    orbit: Optional[bool]
    maximal: Lattice
    canonical: str
    tokens: tuple[str, ...]

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
                "expected": list(v.expected) if v.expected is not None else None,
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
    """Run the whole pipeline on one coloring."""
    S = check(F)
    perfect = not isinstance(S, Violation)
    return ClassificationReport(
        perfect=perfect,
        violation=None if perfect else S,
        quotient=S if perfect else None,
        bipartite=is_bipartite(F) if perfect else None,
        twin_pairs=twin_pairs(S) if perfect else (),
        covering=covering_target(S) is not None if perfect else None,
        special_diagonals=find_special_diagonals(F) if perfect else (),
        orbit=is_orbit(F) if perfect else None,
        maximal=maximal_periods(F),
        canonical=canonical(F),
        tokens=F.tokens,
    )
