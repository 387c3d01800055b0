"""Geometry of the square grid: nodes, neighbors, diagonals, symmetries.

Nodes are integer pairs ``(x, y)``. Edges join nodes at L1 distance 1,
so every node has four neighbors. The symmetry group of the grid is the
semidirect product of translations with the point group of the square;
`GridAutomorphism` represents one element as ``v -> point @ v + shift``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

Vec2 = tuple[int, int]
Mat2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY: Mat2 = ((1, 0), (0, 1))


def neighbors(v: Vec2) -> tuple[Vec2, Vec2, Vec2, Vec2]:
    x, y = v
    return ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))


def parity(v: Vec2) -> int:
    """0 on the even sublattice, 1 on the odd one. Adjacent nodes differ."""
    return (v[0] + v[1]) & 1


class Orientation(enum.Enum):
    """The two diagonal directions.

    A right diagonal is a set of nodes with constant ``x - y`` (it runs
    toward the lower right when y points down); a left diagonal has
    constant ``x + y``.
    """

    RIGHT = "right"
    LEFT = "left"


DIAGONAL_STEP: dict[Orientation, Vec2] = {
    Orientation.RIGHT: (1, 1),
    Orientation.LEFT: (1, -1),
}


def diagonal_index(orientation: Orientation, v: Vec2) -> int:
    x, y = v
    return x - y if orientation is Orientation.RIGHT else x + y


def mat_apply(m: Mat2, v: Vec2) -> Vec2:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def d4_elements() -> tuple[Mat2, ...]:
    """The eight point symmetries of the grid: rotations, then reflections."""
    r = ((0, -1), (1, 0))
    flip = ((1, 0), (0, -1))
    rotations = [IDENTITY]
    for _ in range(3):
        rotations.append(mat_mul(r, rotations[-1]))
    return tuple(rotations) + tuple(mat_mul(g, flip) for g in rotations)


@dataclass(frozen=True)
class GridAutomorphism:
    """A grid symmetry ``v -> point @ v + shift``.

    `point` is one of the eight D4 matrices, the signed permutations.
    """

    point: Mat2
    shift: Vec2

    def apply(self, v: Vec2) -> Vec2:
        px, py = mat_apply(self.point, v)
        return (px + self.shift[0], py + self.shift[1])
