"""Twin colors and covering quotients.

Colors a, b are twins when S[a][j] = S[b][j] for every j outside
{a, b}; merging twins preserves perfectness. A covering is a perfect
coloring whose quotient is a symmetric {0,1}-matrix with zero
diagonal, i.e. the adjacency matrix of a simple target graph. For
coverings, either some pair of colors is twin or the coloring is an
orbit coloring; `report.ClassificationReport.dichotomy` checks that
alternative on a concrete coloring.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .coloring import PeriodicColoring
from .grid import Vec2
from .perfect import QuotientMatrix, quotient

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


def covering_target(S: QuotientMatrix) -> Optional[QuotientMatrix]:
    """S itself when it is the adjacency matrix of a target graph, else None:
    a zero diagonal and symmetric entries of 0 or 1."""
    n = range(len(S))
    if all(not S[i][i] and all(S[i][j] == S[j][i] <= 1 for j in n) for i in n):
        return S
    return None


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
