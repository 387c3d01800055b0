"""Orbit colorings: are the color classes the orbits of a symmetry group?

The relevant group for a periodic coloring F is its full stabilizer:
all grid automorphisms g.v + t with F(g.v + t) = F(v) everywhere.
Because conjugating a translation by a stabilizer element must land in
the translation stabilizer again, the point part g has to preserve the
maximal period lattice; that makes the stabilizer finite modulo
periods and the orbit computation exact. If ANY group of color-
preserving automorphisms has the color classes as orbits, the full
stabilizer does too, so checking the full stabilizer decides the
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coloring import Lattice, PeriodicColoring, maximal_periods
from .coloring import _images_onto, translations
from .grid import GridAutomorphism, Vec2


@dataclass(frozen=True)
class StabilizerGroup:
    """Color-preserving automorphisms of F, modulo the period lattice."""

    lattice: Lattice
    elements: tuple[GridAutomorphism, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def stabilizer(F: PeriodicColoring) -> StabilizerGroup:
    """All (point, shift mod periods) fixing F: a group by construction.

    On the maximal lattice L only the zero domain shift is a period, so
    each g with gL = L keeps at most one shift, and the order is at most 8.
    """
    lat = maximal_periods(F)
    images = list(_images_onto(F, lat))
    base = images[0][1]  # the identity's: F on the maximal lattice
    elements = []
    for g, image in images:
        for t in translations(image, base, lat):
            elements.append(GridAutomorphism(g, t))
    elements.sort(key=lambda a: (a.point, a.shift))
    return StabilizerGroup(lat, tuple(elements))


def orbits(group: StabilizerGroup) -> tuple[tuple[Vec2, ...], ...]:
    """Orbits of `group`, a stabilizer, on the cells of its lattice's torus.

    Each orbit is sorted row-major and orbits are listed by their least
    cell; every orbit is monochromatic, so they always refine colors. The
    group is closed, so a cell's images are its orbit.
    """
    lat = group.lattice
    seen: set[Vec2] = set()
    out = []
    for v in lat.domain():
        if v not in seen:
            orb = {lat.reduce(a.apply(v)) for a in group.elements}
            seen |= orb
            out.append(tuple(sorted(orb, key=lambda u: (u[1], u[0]))))
    return tuple(out)


@dataclass(frozen=True)
class OrbitReport:
    is_orbit: bool
    num_orbits: int
    stabilizer_order: int
    counterexample_pair: Optional[tuple[Vec2, Vec2]]

    def to_json_dict(self) -> dict:
        pair = self.counterexample_pair
        return {
            "orbit": self.is_orbit,
            "num_orbits": self.num_orbits,
            "stabilizer_order": self.stabilizer_order,
            "counterexample_pair": [list(v) for v in pair] if pair else None,
        }


def orbit_report(F: PeriodicColoring) -> OrbitReport:
    """Orbit decision plus the first same-color pair no symmetry joins."""
    group = stabilizer(F)
    parts = orbits(group)
    # the pair is the least cells of the first two orbits of the least split color
    heads: dict[int, list[Vec2]] = {}
    for orb in parts:
        heads.setdefault(F.color_at(orb[0]), []).append(orb[0])
    split = [vs for _, vs in sorted(heads.items()) if len(vs) > 1]
    pair = (split[0][0], split[0][1]) if split else None
    return OrbitReport(
        is_orbit=pair is None,
        num_orbits=len(parts),
        stabilizer_order=group.order,
        counterexample_pair=pair,
    )
