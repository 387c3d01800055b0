"""Grid geometry: neighbors, parity, diagonals, the symmetry group."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pcg.grid import (
    DIAGONAL_STEP,
    IDENTITY,
    GridAutomorphism,
    Orientation,
    d4_elements,
    diagonal_index,
    mat_apply,
    mat_mul,
    neighbors,
    parity,
)

from oracle import compose, inverse

coords = st.integers(min_value=-50, max_value=50)
vecs = st.tuples(coords, coords)
d4 = st.sampled_from(d4_elements())
auts = st.builds(GridAutomorphism, d4, vecs)


def test_neighbors_are_the_four_unit_steps():
    assert set(neighbors((0, 0))) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(neighbors((3, -2))) == {(4, -2), (2, -2), (3, -1), (3, -3)}


@given(vecs)
def test_neighbors_at_distance_one(v):
    ns = neighbors(v)
    assert len(set(ns)) == 4
    assert all(abs(u[0] - v[0]) + abs(u[1] - v[1]) == 1 for u in ns)


@given(vecs)
def test_parity_flips_across_every_edge(v):
    assert all(parity(u) != parity(v) for u in neighbors(v))


@given(vecs)
def test_diagonal_index_conventions(v):
    x, y = v
    assert diagonal_index(Orientation.RIGHT, v) == x - y
    assert diagonal_index(Orientation.LEFT, v) == x + y


@given(vecs, st.sampled_from(list(Orientation)))
def test_diagonal_step_preserves_index(v, o):
    g = DIAGONAL_STEP[o]
    assert diagonal_index(o, (v[0] + g[0], v[1] + g[1])) == diagonal_index(o, v)


def test_d4_is_the_dihedral_group_of_order_8():
    els = d4_elements()
    assert len(set(els)) == 8
    assert IDENTITY in els
    # signed permutations: each inverse is the transpose, which _image uses
    for a in els:
        assert mat_mul(a, tuple(zip(*a))) == IDENTITY
        for b in els:
            assert mat_mul(a, b) in els


@given(d4, st.sampled_from(list(Orientation)))
def test_point_maps_permute_diagonal_families(g, o):
    """Each point symmetry sends diagonals to diagonals.

    Rotation by a quarter turn and the axis reflections swap the two
    orientations; the identity, the half turn, and the diagonal
    reflections keep them. In all cases the index transforms linearly
    with slope +-1.
    """
    probe = [(0, 0), (1, 0), (0, 1), (2, -3), (-4, 5), (7, 7)]
    matches = []
    for o2 in Orientation:
        for sign in (1, -1):
            if all(
                diagonal_index(o2, mat_apply(g, v)) == sign * diagonal_index(o, v)
                for v in probe
            ):
                matches.append((o2, sign))
    assert len(matches) == 1


@given(auts, vecs)
def test_automorphism_inverse_roundtrip(a, v):
    assert inverse(a).apply(a.apply(v)) == v
    assert a.apply(inverse(a).apply(v)) == v


@given(auts, auts, vecs)
def test_automorphism_compose_acts_correctly(a, b, v):
    assert compose(a, b).apply(v) == a.apply(b.apply(v))


@given(auts, auts, auts)
@settings(max_examples=30)
def test_automorphism_compose_associative(a, b, c):
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@given(vecs, vecs)
def test_translation_factory(s, v):
    t = GridAutomorphism(IDENTITY, s)
    assert t.apply(v) == (v[0] + s[0], v[1] + s[1])

