"""Stabilizer groups, their orbits, and the orbit-coloring decision."""

import random

from hypothesis import given, settings

import pcg.orbits
from pcg import fixtures
from pcg.coloring import Lattice, maximal_periods
from pcg.grid import GridAutomorphism, IDENTITY, d4_elements
from pcg.orbits import (
    orbit_report,
    orbits,
    stabilizer,
)

from oracle import brute_orbit_report, brute_orbits, brute_rebase, brute_stabilizer
from oracle import brute_transform, compose, inverse
from test_coloring import colorings

FROZEN_ORDERS = {
    "h": 1,
    "II-base": 8,
    "L1-a": 1,
    "8-150-1": 1,
    "8-150-2": 2,
    "e": 4,
    "c": 2,
}


def test_stabilizer_orders_frozen():
    for fid, order in FROZEN_ORDERS.items():
        assert stabilizer(fixtures.get(fid)).order == order, fid


def test_stabilizer_matches_full_scan(corpus, small_sweep):
    # at most one shift per point map on the maximal lattice
    for F in [*corpus.values(), *small_sweep]:
        group = stabilizer(F)
        assert group == brute_stabilizer(F)
        assert group.order <= 8


def test_stabilizer_is_closed_under_product_and_inverse(corpus, small_sweep):
    # every point map and shift fixing F is a group by construction, so
    # `stabilizer` does not check this itself; `orbits` relies on it
    for F in [*corpus.values(), *small_sweep]:
        group = stabilizer(F)
        lat = group.lattice
        keys = {(e.point, e.shift) for e in group.elements}
        for a in group.elements:
            inv = inverse(a)
            assert (inv.point, lat.reduce(inv.shift)) in keys, (F, a)
            for b in group.elements:
                ab = compose(a, b)
                assert (ab.point, lat.reduce(ab.shift)) in keys, (F, a, b)


def test_stabilizer_lives_on_the_maximal_lattice():
    for fid in ("h", "II-base", "b"):
        F = fixtures.get(fid)
        g = stabilizer(F)
        assert g.lattice == maximal_periods(F)


def test_stabilizer_contains_identity_and_preserves_colors():
    F = fixtures.get("e")
    g = stabilizer(F)
    assert GridAutomorphism(IDENTITY, (0, 0)) in g.elements
    base = brute_rebase(F, g.lattice)
    for aut in g.elements:
        assert all(
            base.color_at(aut.apply(v)) == c for v, c in base.cells()
        )


def test_stabilizer_of_constant_is_all_of_d4():
    # every point map and the single trivial shift fix the one color
    g = stabilizer(fixtures.constant())
    assert g.lattice == Lattice(1, 0, 1)
    assert g.order == 8


def test_checkerboard_stabilizer_is_the_point_group():
    # point maps preserve coordinate parity, so only the zero shift
    # survives and the order is exactly 8
    g = stabilizer(fixtures.checkerboard())
    assert g.lattice == Lattice(2, 1, 1)
    assert g.order == 8


def test_orbits_partition_the_torus_and_refine_colors():
    for fid in ("h", "II-base", "8-150-2", "e"):
        F = fixtures.get(fid)
        group = stabilizer(F)
        parts, lat = orbits(group), group.lattice
        seen = [v for orb in parts for v in orb]
        assert sorted(seen) == sorted(lat.domain())
        base = brute_rebase(F, lat)
        for orb in parts:
            assert len({base.color_at(v) for v in orb}) == 1


def test_orbits_and_report_match_union_find(corpus, small_sweep):
    # every corpus coloring under every point map with a random shift
    rng = random.Random(9)
    moved = []
    for F in corpus.values():
        for g in d4_elements():
            t = rng.randint(-6, 6), rng.randint(-6, 6)
            moved.append(brute_transform(F, GridAutomorphism(g, t)))
    for F in [*corpus.values(), *moved, *small_sweep]:
        assert orbits(stabilizer(F)) == brute_orbits(F)
        assert orbit_report(F) == brute_orbit_report(F)


def test_orbit_flags_on_corpus():
    for fid in fixtures.fixture_ids():
        rep = orbit_report(fixtures.get(fid))
        assert rep.is_orbit == fixtures.info(fid).orbit, fid


def test_orbit_counts():
    for fid, count in (("8-150-1", 16), ("8-150-2", 8), ("L1-a", 16)):
        assert len(orbits(stabilizer(fixtures.get(fid)))) == count, fid


def test_orbit_report_on_non_orbit_coloring():
    rep = orbit_report(fixtures.get("8-150-1"))
    assert not rep.is_orbit
    assert rep.num_orbits == 16
    assert rep.stabilizer_order == 1
    a, b = rep.counterexample_pair
    F = fixtures.get("8-150-1")
    assert F.color_at(a) == F.color_at(b)
    d = rep.to_json_dict()
    assert d["orbit"] is False
    assert d["counterexample_pair"] == [list(a), list(b)]


def test_orbit_report_on_orbit_coloring():
    rep = orbit_report(fixtures.get("8-150-2"))
    assert rep.is_orbit
    assert rep.counterexample_pair is None
    assert rep.num_orbits == 8


def test_orbit_report_builds_the_stabilizer_once(monkeypatch):
    # nothing memoises the stabilizer, so the report must reuse its one group
    built = []
    monkeypatch.setattr(
        pcg.orbits, "stabilizer", lambda F: built.append(F) or stabilizer(F)
    )
    F = fixtures.get("8-150-2")
    assert orbit_report(F).stabilizer_order == 2
    assert built == [F]


@given(colorings())
@settings(max_examples=25, deadline=None)
def test_stabilizer_order_divides_and_orbits_refine(F):
    g = stabilizer(F)
    parts = orbits(g)
    assert sum(len(p) for p in parts) == g.lattice.index
    # the stabilizer acts on the torus; orbit sizes divide the order
    assert all(g.order % len(p) == 0 for p in parts)
