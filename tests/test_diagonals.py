"""Diagonal structure: detection of special diagonals and diagonal shifts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcg import fixtures
from pcg.diagonals import (
    ShiftCompatibilityError,
    diagonal_classes,
    diagonal_sequence,
    find_special_diagonals,
    kind_of,
    residue_modulus,
    shift_residue_class,
)
from pcg.grid import DIAGONAL_STEP, Orientation, diagonal_index
from pcg.perfect import Violation, check, quotient
from pcg.search import matrices_conjugate

from oracle import brute_translate
from test_coloring import colorings

# which special classes each fixture has, as sorted kind lists
SPECIALS = {
    "b": [],
    "c": [],
    "d": [],
    "e": [],
    "f": [],
    "g": [],
    "h": ["binary-alternating"] * 8,
    "i": ["binary", "binary", "binary-alternating", "binary-alternating"],
    "II-base": ["binary-alternating"] * 4 + ["one-color"] * 4,
    "V-a": ["binary-alternating"] * 4,
    "V-b": [],
    "VIb-iii": ["binary", "binary"],
    "VIb-iv": [],
    "VIb-v": [],
    "L1-a": [],
    "L1-b": [],
    "3-17-2": [],
    "3-17-3": [],
    "8-150-1": [],
    "8-150-2": [],
}


def test_kind_of():
    assert kind_of((3,)) == "one-color"
    assert kind_of((1, 2)) == "binary-alternating"
    assert kind_of((1, 1, 2, 2)) == "binary"
    assert kind_of((5, 5, 6)) == "binary"
    assert kind_of((1, 2, 3)) == "other"


def test_diagonal_sequence_checkerboard_is_constant():
    F = fixtures.checkerboard()
    for o in Orientation:
        for idx in range(-2, 3):
            colors = diagonal_sequence(F, o, idx)
            assert kind_of(colors) == "one-color"
            assert len(colors) == 1


def test_diagonal_sequence_case_base():
    F = fixtures.get("II-base")
    colors = diagonal_sequence(F, Orientation.RIGHT, 1)
    assert colors == (1, 3)
    assert kind_of(colors) == "binary-alternating"
    assert diagonal_sequence(F, Orientation.RIGHT, 0) == (4,)


def test_diagonal_sequence_invariant_under_lattice_shifts():
    F = fixtures.get("c")
    for o in Orientation:
        m = residue_modulus(F, o)
        for idx in range(m):
            assert diagonal_sequence(F, o, idx) == diagonal_sequence(F, o, idx + 3 * m)


def test_residue_modulus_from_maximal_periods():
    F = fixtures.get("h")  # maximal lattice (4,0),(2,2)
    assert residue_modulus(F, Orientation.RIGHT) == 4
    assert residue_modulus(F, Orientation.LEFT) == 4
    G = fixtures.checkerboard()  # (2,0),(1,1): index shifts are gcd(2,0)=2
    assert residue_modulus(G, Orientation.RIGHT) == 2
    assert residue_modulus(G, Orientation.LEFT) == 2


def test_diagonal_classes_cover_both_orientations():
    F = fixtures.get("h")
    cls = diagonal_classes(F)
    assert len(cls) == 8
    per = {(c.orientation, c.residue) for c in cls}
    assert len(per) == 8
    assert all(c.modulus == 4 for c in cls)


def test_special_diagonals_inventory():
    for fid, kinds in SPECIALS.items():
        got = sorted(d.kind for d in find_special_diagonals(fixtures.get(fid)))
        assert got == kinds, fid


def test_fixture_h_has_binary_diagonals():
    special = find_special_diagonals(fixtures.get("h"))
    assert special
    assert {d.colors for d in special} == {
        (1, 2), (6, 8), (3, 4), (5, 7), (1, 4), (6, 7), (3, 2), (5, 8),
    }


def test_json_dict_uses_tokens():
    F = fixtures.get("h")
    d = find_special_diagonals(F)[0].to_json_dict(F.tokens)
    assert d == {
        "orientation": "right",
        "residue": 0,
        "modulus": 4,
        "kind": "binary-alternating",
        "colors": ["1", "2"],
    }


# shifts of whole residue classes


def _shift(F, dc, t):
    return shift_residue_class(F, dc.orientation, dc.residue, dc.modulus, t)


def test_shift_by_class_period_is_identity():
    for fid in ("h", "II-base", "i", "VIb-iii"):
        F = fixtures.get(fid)
        for dc in find_special_diagonals(F):
            assert _shift(F, dc, len(dc.colors)) == F
            assert _shift(F, dc, 0) == F


def test_shift_composes_additively():
    F = fixtures.get("h")
    dc = find_special_diagonals(F)[0]
    for t1, t2 in [(1, 1), (1, 2), (2, 3)]:
        assert _shift(_shift(F, dc, t1), dc, t2) == _shift(F, dc, t1 + t2)


def test_shift_rejects_incompatible_modulus():
    F = fixtures.get("II-base")
    with pytest.raises(ShiftCompatibilityError) as exc:
        shift_residue_class(F, Orientation.RIGHT, 0, 8, 1)
    assert exc.value.vector == (4, 0)
    with pytest.raises(ValueError):
        shift_residue_class(F, Orientation.RIGHT, 0, 0, 1)


def test_shift_moves_only_the_chosen_class():
    F = fixtures.get("h")
    dc = find_special_diagonals(F)[0]
    G = _shift(F, dc, 1)
    g = DIAGONAL_STEP[dc.orientation]
    for v in F.lattice.domain():
        if (diagonal_index(dc.orientation, v) - dc.residue) % dc.modulus == 0:
            assert G.color_at(v) == F.color_at((v[0] - g[0], v[1] - g[1]))
        else:
            assert G.color_at(v) == F.color_at(v)


def test_alternating_and_one_color_classes_shift_perfectly():
    """Sliding a one-color or alternating class one step keeps perfectness."""
    for fid in ("h", "II-base", "V-a"):
        F = fixtures.get(fid)
        S = quotient(F)
        for dc in find_special_diagonals(F):
            if dc.kind == "binary":
                continue
            G = _shift(F, dc, 1)
            T = check(G)
            assert not isinstance(T, Violation), (fid, dc)
            assert matrices_conjugate(S, T)


def test_longer_binary_classes_shift_only_by_their_half_period():
    """The aabb classes tolerate the color-swapping shift t=2 and no other."""
    F = fixtures.get("i")
    S = quotient(F)
    saw = 0
    for dc in find_special_diagonals(F):
        if dc.kind != "binary":
            continue
        saw += 1
        assert len(dc.colors) == 4
        for t in (1, 3):
            assert isinstance(check(_shift(F, dc, t)), Violation)
        T = check(_shift(F, dc, 2))
        assert not isinstance(T, Violation)
        assert matrices_conjugate(S, T)
    assert saw == 2


def test_period_three_binary_classes_admit_no_shift():
    F = fixtures.get("VIb-iii")
    saw = 0
    for dc in find_special_diagonals(F):
        assert dc.kind == "binary"
        assert len(dc.colors) == 3
        saw += 1
        for t in (1, 2):
            assert isinstance(check(_shift(F, dc, t)), Violation)
    assert saw == 2


@given(colorings(), st.sampled_from(list(Orientation)), st.integers(-3, 3))
@settings(max_examples=60)
def test_shift_whole_orientation_is_a_translation(F, o, t):
    # residue class 0 mod 1 is every diagonal: shifting all of them by t
    # is translation by t * step, so perfectness is untouched
    G = shift_residue_class(F, o, 0, 1, t)
    g = DIAGONAL_STEP[o]
    assert G == brute_translate(F, (t * g[0], t * g[1]))
