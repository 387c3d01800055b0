"""Diagonal structure of periodic colorings and diagonal shifts.

A right diagonal is a set of nodes with constant x - y, a left
diagonal one with constant x + y. Lattice translations move a
diagonal's index by the corresponding linear form, so the diagonals of
a periodic coloring fall into finitely many residue classes; each
class carries one periodic color sequence up to rotation. Diagonals
using one or two colors are special: shifting a whole residue class of
them along itself can preserve perfectness, which is how several
families of perfect colorings are produced from one another.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .coloring import PeriodicColoring, maximal_periods
from .grid import DIAGONAL_STEP, Orientation, Vec2, diagonal_index


@dataclass(frozen=True)
class DiagonalClass:
    """A residue class of diagonals sharing one color sequence.

    `colors` is the sequence read along the representative diagonal
    starting at (index, 0); other diagonals of the class carry
    rotations of it.
    """

    orientation: Orientation
    residue: int
    modulus: int
    colors: tuple[int, ...]

    @property
    def kind(self) -> str:
        return kind_of(self.colors)

    def to_json_dict(self, tokens: tuple[str, ...]) -> dict:
        return {
            "orientation": self.orientation.value,
            "residue": self.residue,
            "modulus": self.modulus,
            "kind": self.kind,
            "colors": [tokens[c - 1] for c in self.colors],
        }


def kind_of(colors: tuple[int, ...]) -> str:
    """one-color, binary-alternating, binary (two colors), or other."""
    distinct = len(set(colors))
    if distinct == 1:
        return "one-color"
    if distinct == 2:
        return "binary-alternating" if len(colors) == 2 else "binary"
    return "other"


def _minimal_period(seq: tuple[int, ...]) -> tuple[int, ...]:
    n = len(seq)
    for p in range(1, n + 1):
        if n % p == 0 and seq == seq[p:] + seq[:p]:
            return seq[:p]
    return seq


def _lattice_step(F: PeriodicColoring, o: Orientation) -> int:
    """Smallest p > 0 with p * (diagonal step) in F's declared lattice."""
    g = DIAGONAL_STEP[o]
    lat = F.lattice
    p = lat.h  # the y-part of p*g must be a multiple of h
    while not lat.contains((p * g[0], p * g[1])):
        p += lat.h
    return p


def diagonal_sequence(F: PeriodicColoring, o: Orientation, idx: int) -> tuple[int, ...]:
    """Colors along the diagonal from node (idx, 0), cut to their minimal period."""
    g = DIAGONAL_STEP[o]
    period = _lattice_step(F, o)
    seq = tuple(F.color_at((idx + i * g[0], i * g[1])) for i in range(period))
    return _minimal_period(seq)


def residue_modulus(F: PeriodicColoring, o: Orientation) -> int:
    """Modulus of diagonal residue classes under the maximal periods.

    A translation by lattice vector (a, b) shifts right-diagonal
    indices by a - b and left-diagonal indices by a + b, so classes
    are residues mod the gcd of those over a lattice basis.
    """
    b1, b2 = maximal_periods(F).basis
    return gcd(abs(diagonal_index(o, b1)), abs(diagonal_index(o, b2)))


def diagonal_classes(F: PeriodicColoring) -> tuple[DiagonalClass, ...]:
    """One entry per residue class of each orientation, right then left."""
    out = []
    for o in (Orientation.RIGHT, Orientation.LEFT):
        m = residue_modulus(F, o)
        for r in range(m):
            out.append(DiagonalClass(o, r, m, diagonal_sequence(F, o, r)))
    return tuple(out)


def find_special_diagonals(F: PeriodicColoring) -> tuple[DiagonalClass, ...]:
    """The one-color and binary residue classes of both orientations."""
    return tuple(c for c in diagonal_classes(F) if c.kind != "other")


class ShiftCompatibilityError(ValueError):
    def __init__(self, o: Orientation, m: int, vector: Vec2):
        self.vector = vector
        super().__init__(
            f"cannot shift {o.value} diagonals mod {m}: period {vector} "
            f"moves the diagonal index by {diagonal_index(o, vector)}"
        )


def shift_residue_class(
    F: PeriodicColoring, o: Orientation, r: int, m: int, t: int
) -> PeriodicColoring:
    """Slide every diagonal with index = r (mod m) by t steps along itself.

    Requires every maximal period of F to preserve the residue class,
    which keeps the result periodic with F's own lattice. Perfectness
    is NOT guaranteed; run `check` on the result.
    """
    if m < 1:
        raise ValueError("modulus must be >= 1")
    for b in maximal_periods(F).basis:
        if diagonal_index(o, b) % m:
            raise ShiftCompatibilityError(o, m, b)
    g = DIAGONAL_STEP[o]
    lat = F.lattice

    def color(v: Vec2) -> int:
        if (diagonal_index(o, v) - r) % m == 0:
            return F.color_at((v[0] - t * g[0], v[1] - t * g[1]))
        return F.color_at(v)

    rows = tuple(
        tuple(color((x, y)) for x in range(lat.w)) for y in range(lat.h)
    )
    return PeriodicColoring(lat, rows, F.tokens)
