"""Twin colors, covering quotients, and the covering dichotomy.

Colors a, b are twins when S[a][j] = S[b][j] for every j outside
{a, b}; merging twins preserves perfectness. A covering is a perfect
coloring whose quotient is a symmetric {0,1}-matrix with zero
diagonal, i.e. the adjacency matrix of a simple target graph. For
coverings, either some pair of colors is twin or the coloring is an
orbit coloring; `dichotomy_audit` checks that alternative on a
concrete coloring.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .coloring import PeriodicColoring
from .grid import Vec2
from .orbits import is_orbit
from .perfect import QuotientMatrix, _asymmetric_support, quotient

# Offsets at which a covering without equal rows never repeats a color:
# distance 1 and 2 along rows/columns/diagonals.
NEAR_OFFSETS: tuple[Vec2, ...] = (
    (0, 1), (0, -1), (1, 0), (-1, 0),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
    (0, 2), (0, -2), (2, 0), (-2, 0),
    (2, 2), (2, -2), (-2, 2), (-2, -2),
)


class TwinMergeError(ValueError):
    def __init__(self, F: PeriodicColoring, a: int, b: int, column: int):
        self.column = column
        t = F.tokens
        super().__init__(
            f"colors {t[a - 1]} and {t[b - 1]} are not twins: "
            f"rows differ in column {t[column - 1]}"
        )


def _twin_mismatch(S: QuotientMatrix, a: int, b: int) -> Optional[int]:
    """The first column outside {a, b} where rows a and b of S differ, or None."""
    ra, rb = S[a - 1], S[b - 1]
    for j in range(1, len(S) + 1):
        if ra[j - 1] != rb[j - 1] and j != a and j != b:
            return j
    return None


def twin_pairs(S: QuotientMatrix) -> tuple[tuple[int, int], ...]:
    """All pairs {a,b} with S[a][j] = S[b][j] for every j outside {a,b}."""
    pairs = combinations(range(1, len(S) + 1), 2)
    return tuple((a, b) for a, b in pairs if _twin_mismatch(S, a, b) is None)


def equal_rows(S: QuotientMatrix) -> tuple[tuple[int, int], ...]:
    n = len(S)
    return tuple(
        (a, b)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if S[a - 1] == S[b - 1]
    )


def merge(F: PeriodicColoring, a: int, b: int) -> PeriodicColoring:
    """Recolor b-nodes to a and renumber; valid only for twin colors."""
    S = quotient(F)
    n = F.n
    if not (1 <= a <= n and 1 <= b <= n) or a == b:
        raise ValueError(f"need two distinct colors in 1..{n}")
    lo, hi = min(a, b), max(a, b)
    j = _twin_mismatch(S, a, b)
    if j is not None:
        raise TwinMergeError(F, a, b, j)

    def renum(c: int) -> int:
        if c == hi:
            c = lo
        return c - 1 if c > hi else c

    rows = tuple(tuple(renum(c) for c in row) for row in F.rows)
    tokens = tuple(t for i, t in enumerate(F.tokens, start=1) if i != hi)
    return PeriodicColoring(F.lattice, rows, tokens)


def covering_failure(S: QuotientMatrix) -> Optional[str]:
    """Why S is not a covering quotient, or None if it is one."""
    n = len(S)
    for i in range(n):
        if S[i][i]:
            return f"diagonal entry at color {i + 1}"
        for j in range(n):
            if S[i][j] > 1:
                return f"entry {S[i][j]} > 1 at ({i + 1},{j + 1})"
    # every entry is 0 or 1 here, so symmetric support is a symmetric S
    at = _asymmetric_support(S)
    if at is not None:
        return f"support is not symmetric at ({at[0]},{at[1]})"
    return None


def covering_target(S: QuotientMatrix) -> Optional[QuotientMatrix]:
    """S itself when it is the adjacency matrix of a target graph, else None."""
    if covering_failure(S) is not None:
        return None
    return S


class NearDistinctnessPreconditionError(ValueError):
    """The coloring is not a covering without equal rows."""


def near_distinctness(
    F: PeriodicColoring,
) -> tuple[bool, Optional[tuple[Vec2, Vec2]]]:
    """Whether no node shares its color with any node at a NEAR_OFFSETS shift.

    Only meaningful for coverings without equal rows, where it always
    holds; the precondition is enforced. Returns (True, None) or
    (False, (node, offset)) with the first counterexample.
    """
    S = quotient(F)
    if covering_target(S) is None:
        raise NearDistinctnessPreconditionError("quotient is not a covering")
    if equal_rows(S):
        raise NearDistinctnessPreconditionError("quotient has equal rows")
    for v, c in F.cells():
        for dx, dy in NEAR_OFFSETS:
            if F.color_at((v[0] + dx, v[1] + dy)) == c:
                return False, (v, (dx, dy))
    return True, None


@dataclass(frozen=True)
class DichotomyReport:
    is_covering: bool
    twin_pairs: tuple[tuple[int, int], ...]
    is_orbit: bool
    dichotomy_holds: bool

    def to_json_dict(self) -> dict:
        return {
            "covering": self.is_covering,
            "twins": [list(p) for p in self.twin_pairs],
            "orbit": self.is_orbit,
            "dichotomy": self.dichotomy_holds,
        }


def dichotomy_audit(F: PeriodicColoring) -> DichotomyReport:
    """For coverings: either twins exist or the coloring is orbit.

    Other perfect colorings satisfy the dichotomy vacuously; the report
    still carries their twin pairs and orbit-ness.
    """
    S = quotient(F)
    covering = covering_target(S) is not None
    twins = twin_pairs(S)
    orbit = is_orbit(F)
    return DichotomyReport(
        is_covering=covering,
        twin_pairs=twins,
        is_orbit=orbit,
        dichotomy_holds=(not covering) or orbit or bool(twins),
    )
