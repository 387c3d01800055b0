"""The bundled corpus: every fixture is perfect and matches its records."""

import pytest

from pcg import fixtures
from pcg.coloring import Lattice, maximal_periods, parse
from pcg.orbits import orbit_report
from pcg.perfect import Violation, check, quotient
from pcg.twins import covering_target, twin_pairs

from oracle import lattice_contains


def test_fixture_ids_are_stable():
    ids = fixtures.fixture_ids()
    assert len(ids) == 20
    assert len(set(ids)) == 20
    for fid in ("b", "c", "d", "e", "f", "g", "h", "i", "II-base", "L1-a"):
        assert fid in ids


def test_info_rejects_unknown_id():
    with pytest.raises(KeyError):
        fixtures.info("nope")
    with pytest.raises(KeyError):
        fixtures.get("nope")


def test_fixture_is_perfect(fixture_id, corpus):
    assert not isinstance(check(corpus[fixture_id]), Violation)


def test_fixture_quotient_matches_record(fixture_id, corpus):
    assert quotient(corpus[fixture_id]) == fixtures.info(fixture_id).quotient


def test_fixture_flags_match_records(fixture_id, corpus):
    F = corpus[fixture_id]
    fx = fixtures.info(fixture_id)
    S = quotient(F)
    assert (covering_target(S) is not None) == fx.covering
    assert twin_pairs(S) == fx.twins
    assert orbit_report(F).is_orbit == fx.orbit


def test_fixture_colors_property(fixture_id):
    fx = fixtures.info(fixture_id)
    assert fx.colors == len(fx.quotient)
    assert parse(fx.text).n == fx.colors


def test_fixture_text_parses_to_the_returned_coloring(fixture_id, corpus):
    assert parse(fixtures.info(fixture_id).text) == corpus[fixture_id]


def test_quotient_row_orientation_is_row_to_neighbors():
    # row i counts the neighbors each i-node sees, so row sums are the
    # grid degree; the transpose convention would fail on (b)
    S = fixtures.info("b").quotient
    assert all(sum(row) == 4 for row in S)
    cols = list(zip(*S))
    assert any(sum(col) != 4 for col in cols)


def test_known_maximal_periods():
    assert maximal_periods(fixtures.get("L1-a")) == Lattice(4, 0, 4)
    assert maximal_periods(fixtures.get("L1-b")) == Lattice(4, 0, 8)
    assert maximal_periods(fixtures.get("8-150-1")) == Lattice(4, 0, 4)
    assert maximal_periods(fixtures.get("8-150-2")) == Lattice(4, 0, 4)
    assert maximal_periods(fixtures.get("i")) == Lattice(4, 0, 4)
    assert maximal_periods(fixtures.get("V-a")) == Lattice(8, 4, 4)


def test_eight_color_pair_shares_one_quotient():
    assert fixtures.info("8-150-1").quotient == fixtures.info("8-150-2").quotient
    assert fixtures.info("8-150-1").orbit is False
    assert fixtures.info("8-150-2").orbit is True


def test_three_color_pair_shares_one_quotient():
    assert fixtures.info("3-17-2").quotient == fixtures.info("3-17-3").quotient


def test_checkerboard_generator():
    F = fixtures.checkerboard()
    assert F.n == 2
    assert check(F) == ((0, 4), (4, 0))


def test_constant_generator():
    F = fixtures.constant()
    assert F.n == 1
    assert check(F) == ((4,),)


def test_stripes_generator():
    assert check(fixtures.stripes(1)) == ((4,),)
    assert check(fixtures.stripes(2)) == ((2, 2), (2, 2))
    assert check(fixtures.stripes(3)) == ((2, 1, 1), (1, 2, 1), (1, 1, 2))
    S = quotient(fixtures.stripes(5))
    assert all(S[i][i] == 2 for i in range(5))
    with pytest.raises(ValueError):
        fixtures.stripes(0)


def test_sheared_stripes_family():
    for alpha in (5, 7, 8, 9, 10):
        F = fixtures.sheared_stripes(alpha)
        assert F.n == alpha
        assert not isinstance(check(F), Violation)
        lat = maximal_periods(F)
        assert lattice_contains(lat, (3, 1))
        assert lattice_contains(lat, (alpha, 0))
        assert orbit_report(F).is_orbit


def test_sheared_stripes_rejects_bad_alpha():
    for alpha in (1, 2, 3, 4, 6):
        with pytest.raises(ValueError):
            fixtures.sheared_stripes(alpha)
