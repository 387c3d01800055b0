"""The perfect-coloring predicate and the invariants of its quotient matrix.

A coloring F is perfect when every node of color i has the same number
S[i][j] of neighbors of color j, for all i, j. S is the quotient
matrix; its rows sum to 4. `check` decides the property, and the rest
of the module computes quantities that are forced once S is known:
walk counts, the stationary vector, and the parity refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Union

from .coloring import Lattice, PeriodicColoring, Rows, _block
from .grid import Vec2, parity

if TYPE_CHECKING:
    from fractions import Fraction

QuotientMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Violation:
    """One node whose neighborhood contradicts the expected profile."""

    node: Vec2
    color: int
    expected: tuple[int, ...]  # row of S
    observed: tuple[int, int, int, int]  # sorted colors of the 4 neighbors


def describe(F: PeriodicColoring, v: Violation) -> str:
    """The violation v of F, its colors named by F's tokens."""
    seen = " ".join(F.tokens[c - 1] for c in v.observed)
    return f"node {v.node} of color {F.tokens[v.color - 1]} sees [{seen}]"


class NotPerfectError(ValueError):
    def __init__(self, F: PeriodicColoring, violation: Violation):
        self.violation = violation
        super().__init__(f"not a perfect coloring: {describe(F, violation)}")


class DetailedBalanceError(ValueError):
    """S admits no positive stationary vector (so S is not a grid quotient)."""


def _counts(colors: tuple[int, ...], n: int) -> tuple[int, ...]:
    row = [0] * n
    for c in colors:
        row[c - 1] += 1
    return tuple(row)


def _stars(cells: Rows) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    """Row-major (x, y, color, neighbor colors) of the block's interior cells."""
    for y, (up, row, down) in enumerate(zip(cells, cells[1:], cells[2:]), 1):
        cols = zip(row, row[1:], row[2:], down[1:], up[1:])
        for x, (west, c, east, south, north) in enumerate(cols, 1):
            yield x, y, c, (east, west, south, north)


def check(F: PeriodicColoring) -> Union[QuotientMatrix, Violation]:
    """The quotient matrix of F, or the first violation in row-major order."""
    lat = F.lattice
    # the domain with a one-cell rim, so block cell (x, y) is node (x-1, y-1)
    seen: dict[int, tuple[int, ...]] = {}
    for x, y, c, nbrs in _stars(_block(F.rows, lat, -1, -1, lat.w + 2, lat.h + 2)):
        p = tuple(sorted(nbrs))
        ref = seen.setdefault(c, p)
        if p != ref:
            v = (x - 1, y - 1)
            return Violation(node=v, color=c, expected=_counts(ref, F.n), observed=p)
    return tuple(_counts(seen[i], F.n) for i in range(1, F.n + 1))


def quotient(F: PeriodicColoring) -> QuotientMatrix:
    """Like `check` but raises NotPerfectError instead of returning a Violation."""
    out = check(F)
    if isinstance(out, Violation):
        raise NotPerfectError(F, out)
    return out


def dk(S: QuotientMatrix, b: int, b2: int, k: int) -> int:
    """(S^k)[b][b2]: walks of length k from any b-node to b2-nodes."""
    if k < 0:
        raise ValueError("k must be >= 0")
    n = len(S)
    if not (1 <= b <= n and 1 <= b2 <= n):
        raise ValueError(f"colors must be between 1 and {n}")
    cols = tuple(zip(*S))
    row = tuple(int(i == b - 1) for i in range(n))  # row b of S^0
    for _ in range(k):
        row = tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
    return row[b2 - 1]


def _asymmetric_support(S: QuotientMatrix) -> Optional[tuple[int, int]]:
    """The first 1-based (i, j) where just one of S[i][j], S[j][i] is positive."""
    n = len(S)
    for i in range(n):
        for j in range(n):
            if (S[i][j] > 0) != (S[j][i] > 0):
                return i + 1, j + 1
    return None


def stationary(S: QuotientMatrix) -> tuple[Fraction, ...]:
    """The positive rationals P with S[i][j] P[i] = S[j][i] P[j], sum 1.

    Ratios propagate over a spanning tree of the color graph; every
    remaining edge is then checked, so an S that did not come from a
    perfect coloring of the grid is rejected rather than mis-solved.
    """
    from fractions import Fraction

    n = len(S)
    at = _asymmetric_support(S)
    if at is not None:
        raise DetailedBalanceError(f"support is not symmetric at ({at[0]},{at[1]})")
    weight: dict[int, Fraction] = {0: Fraction(1)}
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if S[i][j] == 0:
                continue
            w = weight[i] * Fraction(S[i][j], S[j][i])
            if j not in weight:
                weight[j] = w
                queue.append(j)
            elif weight[j] != w:
                raise DetailedBalanceError(
                    f"inconsistent balance on edge ({i + 1},{j + 1})"
                )
    if len(weight) != n:
        missing = min(set(range(n)) - set(weight))
        raise DetailedBalanceError(f"color graph is disconnected at {missing + 1}")
    total = sum(weight.values())
    return tuple(weight[i] / total for i in range(n))


def _mixed_colors(rows: Rows) -> set[int]:
    """The colors whose cells in `rows`, a block from node (0, 0), lie on
    both parity classes."""
    even, odd = set(), set()
    for y, row in enumerate(rows):
        even.update(row[y & 1 :: 2])
        odd.update(row[1 - (y & 1) :: 2])
    return even & odd


def is_bipartite(F: PeriodicColoring) -> bool:
    """True when each color lives entirely on one parity class."""
    lat = F.lattice
    # an odd-sum period drags every color class across both parities
    return not ((lat.w & 1) or ((lat.s + lat.h) & 1) or _mixed_colors(F.rows))


def _even_sublattice(lat: Lattice) -> Lattice:
    """The index-1-or-2 sublattice of even-coordinate-sum vectors."""
    (x1, y1), (x2, y2) = b1, b2 = lat.basis
    # every even vector i*b1 + j*b2 is an integer combination of these
    vecs = (b1, b2, (x1 + x2, y1 + y2), (2 * x1, 2 * y1), (2 * x2, 2 * y2))
    return Lattice.from_vectors(*(v for v in vecs if not parity(v)))


def refine_bipartite(F: PeriodicColoring) -> PeriodicColoring:
    """Split every mixed-parity color into an even and an odd subcolor.

    Already-bipartite colorings come back unchanged. Otherwise the
    lattice may double, since odd-sum periods cannot survive the split.
    """
    if is_bipartite(F):
        return F
    lat = _even_sublattice(F.lattice)
    # a sublattice of F's lattice, so F on it is one block of F
    base = _block(F.rows, F.lattice, 0, 0, lat.w, lat.h)
    mixed = _mixed_colors(base)
    ids: dict[tuple[int, int], int] = {}
    tokens: list[str] = []
    rows = []
    for y, cells in enumerate(base):
        row = []
        for x, c in enumerate(cells):
            key = (c, parity((x, y)) if c in mixed else 0)
            if key not in ids:
                ids[key] = len(ids) + 1
                t = F.tokens[c - 1]
                tokens.append(t + ("_o" if key[1] else "_e") if c in mixed else t)
            row.append(ids[key])
        rows.append(tuple(row))
    if len(set(tokens)) != len(tokens):  # token clash, e.g. "1_e" already taken
        tokens = [str(i) for i in range(1, len(tokens) + 1)]
    return PeriodicColoring(lat, tuple(rows), tuple(tokens))
