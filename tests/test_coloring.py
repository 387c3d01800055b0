"""Lattices, the PCG text format, and coloring normal forms."""

import copy
import dataclasses
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcg.coloring
from pcg import fixtures
from pcg.coloring import (
    CACHE_SIZE,
    _block,
    _d4_images,
    _image,
    _least_translation,
    Lattice,
    PcgParseError,
    PeriodicColoring,
    canonical,
    equivalent,
    maximal_periods,
    parse,
    render,
    translations,
)
from pcg.grid import GridAutomorphism, d4_elements
from pcg.orbits import stabilizer
from pcg.perfect import check
from pcg.report import classify

from conftest import _lattices_up_to_index
from oracle import (
    brute_canonical,
    brute_block,
    brute_check,
    brute_least_translation,
    brute_maximal_periods,
    brute_rebase,
    brute_stabilizer,
    brute_transform,
    brute_translate,
    first_occurrence,
    lattice_contains,
    relabel,
)


def small_lattices():
    return st.builds(
        lambda w, s, h: Lattice(w, s % w, h),
        st.integers(1, 3),
        st.integers(0, 2),
        st.integers(1, 3),
    )


@st.composite
def colorings(draw):
    lat = draw(small_lattices())
    cells = draw(
        st.lists(
            st.integers(1, 4), min_size=lat.index, max_size=lat.index
        )
    )
    # squash the palette down to 1..k so the constructor accepts it
    relabel = {}
    for c in cells:
        relabel.setdefault(c, len(relabel) + 1)
    it = iter(cells)
    rows = tuple(
        tuple(relabel[next(it)] for _ in range(lat.w)) for _ in range(lat.h)
    )
    return PeriodicColoring(lat, rows)


@st.composite
def blocks(draw, max_side=5, colors=(1, 3)):
    """A row-major cell block on a sheared lattice, every color 1..k used."""
    lo, hi = colors
    w = draw(st.integers(-(-lo // max_side), max_side))
    h = draw(st.integers(-(-lo // w), max_side))
    lat = Lattice(w, draw(st.integers(0, w - 1)), h)
    k = draw(st.integers(lo, min(hi, lat.index)))
    size = lat.index - k
    rest = draw(st.lists(st.integers(1, k), min_size=size, max_size=size))
    return draw(st.permutations(list(range(1, k + 1)) + rest)), lat


@st.composite
def tiled_blocks(draw):
    """A block repeated over a sublattice of its own lattice, so many
    translations tie, some of them down to the last row."""
    flat, tile = draw(blocks(max_side=3))
    (w, _), (s, h) = tile.basis
    i, j = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    k = draw(st.integers(0, 2))
    big = Lattice.from_vectors((i * w, 0), (j * s + k * w, j * h))
    G = brute_rebase(PeriodicColoring(tile, _rows(flat, tile)), big)
    return [c for row in G.rows for c in row], big


@st.composite
def long_runs(draw):
    """A few-color block of long runs on a lattice up to 12 wide, w = 1
    included, so leading runs tie, fill whole rows and reach the cap w."""
    w = draw(st.integers(1, 12))
    h = draw(st.integers(1, min(12, 48 // w)))
    lat = Lattice(w, draw(st.integers(0, w - 1)), h)
    cells: list[int] = []
    while len(cells) < lat.index:
        cells += [draw(st.integers(1, 3))] * draw(st.integers(1, 2 * w))
    # squash the palette down to 1..k, every color used
    ids: dict[int, int] = {}
    return [ids.setdefault(c, len(ids) + 1) for c in cells[: lat.index]], lat


def _rows(flat, lat):
    return tuple(tuple(flat[i : i + lat.w]) for i in range(0, lat.index, lat.w))


TEN_COLORS = "# pcg v1\nperiods (4,0) (0,3)\n10 3 6 3\n9 1 2 7\n5 8 9 4\n"

vecs = st.tuples(st.integers(-9, 9), st.integers(-9, 9))


# lattice normal form


def test_lattice_rejects_bad_normal_form():
    for w, s, h in [(0, 0, 1), (1, 0, 0), (2, 2, 1), (2, -1, 1)]:
        with pytest.raises(ValueError):
            Lattice(w, s, h)


def test_from_vectors_examples():
    assert Lattice.from_vectors((2, 0), (1, 1)) == Lattice(2, 1, 1)
    assert Lattice.from_vectors((4, 0), (0, 4)) == Lattice(4, 0, 4)
    assert Lattice.from_vectors((2, 2), (2, -2)) == Lattice(4, 2, 2)
    assert Lattice.from_vectors((8, 0), (4, 4)) == Lattice(8, 4, 4)
    # redundant generators collapse to the same lattice
    assert Lattice.from_vectors((2, 0), (1, 1), (3, 1)) == Lattice(2, 1, 1)


def test_from_vectors_rejects_rank_deficient():
    with pytest.raises(ValueError):
        Lattice.from_vectors((2, 0), (3, 0))
    with pytest.raises(ValueError):
        Lattice.from_vectors((0, 0), (0, 0))


@given(small_lattices(), vecs)
def test_reduce_lands_in_domain_and_same_coset(lat, v):
    r = lat.reduce(v)
    assert 0 <= r[0] < lat.w and 0 <= r[1] < lat.h
    assert lattice_contains(lat, (v[0] - r[0], v[1] - r[1]))


@given(small_lattices())
def test_domain_size_is_index(lat):
    dom = list(lat.domain())
    assert len(dom) == lat.index
    assert len(set(lat.reduce(v) for v in dom)) == lat.index


@given(small_lattices(), vecs, vecs)
def test_contains_is_a_subgroup(lat, a, b):
    for bv in lat.basis:
        assert lattice_contains(lat, bv)
    if lattice_contains(lat, a) and lattice_contains(lat, b):
        assert lattice_contains(lat, (a[0] + b[0], a[1] + b[1]))
        assert lattice_contains(lat, (-a[0], -a[1]))


# text format


def test_parse_render_roundtrip_on_corpus():
    for fid in fixtures.fixture_ids():
        F = fixtures.get(fid)
        G = parse(render(F))
        assert render(G) == render(F)  # the same token per cell
        assert G == F


def test_parse_numbers_colors_in_token_order():
    F = parse("# pcg v1\nperiods (3,0) (0,1)\nb a b\n")
    assert F.rows == ((2, 1, 2),)
    assert F.tokens == ("a", "b")
    # the ids do not depend on where a token first appears
    G = parse("# pcg v1\nperiods (3,0) (0,1)\na b b\n")
    assert G.tokens == F.tokens and G == brute_translate(F, (-1, 0))


def test_parse_accepts_comments_and_blank_lines():
    text = "# pcg v1\n\n# a comment\nperiods (2,0) (0,1)\n# another\nx y\n\n"
    F = parse(text)
    assert F.rows == ((1, 2),)


def test_parse_normalizes_periods():
    F = parse("# pcg v1\nperiods (2,2) (2,-2)\n1 6 3 5\n7 2 8 4\n")
    assert F.lattice == Lattice(4, 2, 2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "periods (2,0) (0,1)\n1 2\n",
        "# pcg v2\nperiods (2,0) (0,1)\n1 2\n",
        "# pcg v1\n1 2\n",
        "# pcg v1\nperiods (2,0)\n1 2\n",
        "# pcg v1\nperiods (2,0) (4,0)\n1 2\n",
        "# pcg v1\nperiods (2,0) (0,1)\n1\n",
        "# pcg v1\nperiods (2,0) (0,1)\n1 2\n3 4\n",
        "# pcg v1\nperiods (2,0) (0,1)\n1 2!\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(PcgParseError):
        parse(text)


@given(colorings(), st.data())
def test_render_roundtrip(F, data):
    assert parse(render(F)) == F
    assert parse(render(PeriodicColoring(F.lattice, F.rows))).rows == F.rows
    token = st.from_regex(r"[A-Za-z0-9_]{1,4}", fullmatch=True)
    tokens = data.draw(st.lists(token, min_size=F.n, max_size=F.n, unique=True))
    G = PeriodicColoring(F.lattice, F.rows, tuple(tokens))
    assert render(parse(render(G))) == render(G)  # the same token per cell


@st.composite
def garbled_renderings(draw):
    """The text of a random coloring with a few characters replaced, so
    that the fuzz also reaches the checks after the first lines."""
    text = render(draw(colorings()))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 3)))
    noise = st.characters() | st.sampled_from("0123456789-,() \n#")
    return text[:i] + draw(st.text(noise, max_size=4)) + text[j:]


@given(st.one_of(st.text(), garbled_renderings()))
@example("# pcg v1\nperiods (1" + "0" * 5000 + ",0) (0,1)\n1\n")
@example("# pcg v1\nperiods (" + "9" * 4000 + ",1) (0," + "9" * 4000 + ")\n1\n")
@settings(max_examples=300)
def test_parse_raises_only_parse_errors(text):
    try:
        F = parse(text)
    except PcgParseError:
        return
    assert parse(render(F)) == F


# relabeling


@given(colorings())
def test_relabel_first_occurrence_is_stable(F):
    G = first_occurrence(F)
    assert first_occurrence(G) == G
    seen = []
    for _, c in G.cells():
        if c not in seen:
            seen.append(c)
    assert seen == list(range(1, G.n + 1))


def test_parse_orders_numerals_by_value():
    F = parse("# pcg v1\nperiods (3,0) (0,1)\n10 2 b\n")
    assert F.tokens == ("2", "10", "b")
    assert F.rows == ((2, 1, 3),)
    # leading zeros do not change the value; equal values order as text
    G = parse("# pcg v1\nperiods (4,0) (0,1)\n1 007 01 10\n")
    assert G.tokens == ("01", "1", "007", "10")
    # a numeral longer than int() converts still orders by value
    big = "1" * 5000
    H = parse(f"# pcg v1\nperiods (3,0) (0,1)\n{big} 9{big} 2\n")
    assert H.tokens == ("2", big, "9" + big)


# maximal periods and canonical forms


def test_maximal_periods_frozen_cases():
    assert maximal_periods(fixtures.checkerboard()) == Lattice(2, 1, 1)
    assert maximal_periods(fixtures.get("II-base")) == Lattice(4, 2, 2)
    assert maximal_periods(fixtures.get("h")) == Lattice(4, 2, 2)
    assert maximal_periods(fixtures.get("b")) == Lattice(8, 4, 4)


def test_maximal_periods_of_constant_is_unit():
    assert maximal_periods(fixtures.constant()) == Lattice(1, 0, 1)


@given(colorings())
@settings(max_examples=60)
def test_maximal_periods_contains_declared_lattice(F):
    lat = maximal_periods(F)
    for b in F.lattice.basis:
        assert lattice_contains(lat, b)
    # every basis vector of the maximal lattice really is a period
    for bx, by in lat.basis:
        assert all(
            F.color_at((x + bx, y + by)) == c for (x, y), c in F.cells()
        )


@pytest.mark.parametrize(
    "block",
    [blocks(), tiled_blocks(), blocks(max_side=6, colors=(10, 14)), long_runs()],
    ids=["sheared", "tiled", "ten_colors", "long_runs"],
)
@given(data=st.data())
@settings(max_examples=150)
def test_translation_kernels_match_full_scans(block, data):
    flat, lat = data.draw(block)
    F = PeriodicColoring(lat, _rows(flat, lat))
    # first, since every later kernel reads through _block: a fault here is
    # reported before the shrinker works through the others' failures. The
    # translation kernels read two periods from row -h, across a period row.
    side = st.integers(1, 2 * max(lat.w, lat.h) + 3)
    drawn = data.draw(vecs), data.draw(side), data.draw(side)
    for origin, width, height in ((0, -lat.h), 2 * lat.w, 2 * lat.h), drawn:
        assert _block(F.rows, lat, *origin, width, height) == brute_block(
            F, origin, width, height
        )
    n = max(flat)
    # the padded ids that canonical passes
    symbols = tuple(str(i).ljust(len(str(n))) for i in range(1, n + 1))
    assert _least_translation(F.rows, lat, symbols) == brute_least_translation(
        flat, lat, symbols
    )
    # F is fresh, so every example runs the kernel
    assert maximal_periods(F) == brute_maximal_periods(F)
    # list rows, like the ranges the search hands to _block, must match tuple rows
    lists = [list(row) for row in F.rows]
    periods = [t for t in lat.domain() if brute_translate(F, t) == F]
    assert list(translations(lists, F.rows, lat)) == periods
    # every D4 image of F on its declared lattice and on its maximal one,
    # the lattice `_images_onto` reads, against its cell-by-cell version
    for L in (lat, maximal_periods(F)):
        for g in d4_elements():
            T = brute_transform(brute_rebase(F, L), GridAutomorphism(g, (0, 0)))
            assert _image(F.rows, lat, L.transform(g), g) == T.rows
    assert check(F) == brute_check(F)
    group = stabilizer(F)
    assert group == brute_stabilizer(F) and group.order <= 8


def test_canonical_frozen_examples():
    assert canonical(fixtures.checkerboard()) == (
        "# pcg v1\nperiods (2,0) (1,1)\n1 2\n"
    )
    assert canonical(fixtures.get("h")) == (
        "# pcg v1\nperiods (4,0) (2,2)\n1 2 3 4\n5 6 7 8\n"
    )
    # ten colors: ids order as text ("1 " < "10" < "2 "), not as integers
    assert canonical(parse(TEN_COLORS)) == (
        "# pcg v1\nperiods (3,0) (0,4)\n1  2  3\n4  5  6\n1  7  8\n9  10 5\n"
    )
    # periods lines order as text, "(10,0) (0,3)" before "(3,0) (0,10)",
    # and the diagonal flip of S lies on the (3,0) (0,10) lattice
    S = (
        "# pcg v1\nperiods (10,0) (0,3)\n1 1 2 1 1 2 3 3 2 3\n"
        "2 1 3 1 3 3 1 1 3 1\n3 1 3 3 1 3 1 1 2 1\n"
    )
    flip = brute_transform(parse(S), GridAutomorphism(((0, 1), (1, 0)), (0, 0)))
    assert flip.lattice == Lattice(3, 0, 10)
    assert canonical(flip) == S


@given(
    st.one_of(
        blocks(), tiled_blocks(), blocks(max_side=6, colors=(10, 14)), long_runs()
    )
)
@example(([1] * 6, Lattice(3, 1, 2)))
@settings(max_examples=200)
def test_canonical_matches_full_scan(block):
    flat, lat = block
    F = PeriodicColoring(lat, _rows(flat, lat))
    assert canonical(F) == brute_canonical(F)


@given(colorings())
@example(parse(TEN_COLORS))
@settings(max_examples=60)
def test_canonical_matches_definition(F):
    base = brute_rebase(F, maximal_periods(F))
    renderings = []
    for g in d4_elements():
        T = brute_transform(base, GridAutomorphism(g, (0, 0)))
        for t in T.lattice.domain():
            G = first_occurrence(brute_translate(T, t))
            # default tokens are the color ids "1".."n"
            renderings.append(render(PeriodicColoring(G.lattice, G.rows)))
    assert canonical(F) == min(renderings)


@given(colorings(), vecs)
@settings(max_examples=60)
def test_canonical_invariant_under_translation(F, t):
    assert canonical(brute_translate(F, t)) == canonical(F)


@given(colorings(), st.sampled_from(d4_elements()))
@settings(max_examples=60)
def test_canonical_invariant_under_point_maps(F, g):
    G = brute_transform(F, GridAutomorphism(g, (0, 0)))
    assert canonical(G) == canonical(F)


@given(colorings(), st.randoms())
@settings(max_examples=60)
def test_canonical_invariant_under_relabeling(F, rng):
    ids = list(range(1, F.n + 1))
    shuffled = ids[:]
    rng.shuffle(shuffled)
    assert canonical(relabel(F, dict(zip(ids, shuffled)))) == canonical(F)


def test_canonical_parses_to_an_equivalent_coloring():
    for fid in ("c", "h", "II-base", "3-17-2"):
        F = fixtures.get(fid)
        assert equivalent(parse(canonical(F)), F)


def test_equivalent_separates_different_colorings():
    assert not equivalent(fixtures.get("8-150-1"), fixtures.get("8-150-2"))
    assert not equivalent(fixtures.get("3-17-2"), fixtures.get("3-17-3"))
    assert equivalent(fixtures.stripes(2), fixtures.checkerboard()) is False


@pytest.mark.parametrize("fn", [_d4_images], ids=lambda fn: fn.__name__)
def test_analysis_caches_are_bounded(fn):
    # an unbounded cache would keep every lattice of a long sweep alive
    assert fn.cache_info().maxsize == CACHE_SIZE


def _random_torus():
    rng = random.Random(30)
    cells = [rng.randint(1, 3) for _ in range(900)]
    cells[:3] = 1, 2, 3
    return PeriodicColoring(Lattice(30, 0, 30), _rows(cells, Lattice(30, 0, 30)))


def _rescaled_fixture():
    F = fixtures.get("8-150-2")
    (w, _), (s, h) = F.lattice.basis
    return brute_rebase(F, Lattice(3 * w, 3 * s, 3 * h))


@pytest.mark.parametrize(
    "make", [_random_torus, _rescaled_fixture], ids=["torus", "rescaled"]
)
def test_maximal_lattice_lives_and_dies_with_the_coloring(make, monkeypatch):
    F = make()
    rows = F.rows  # held here, not F, so the count keeps F alive no longer
    kernel = []

    def counted(src, dst, lattice):
        if src is rows and dst is rows:
            kernel.append(lattice)
        return translations(src, dst, lattice)

    monkeypatch.setattr(pcg.coloring, "translations", counted)
    report = classify(F)
    doc = report.to_json_dict()
    # every analysis reads one maximal lattice, computed once
    assert kernel == [F.lattice]
    assert doc["maximal_periods"] == [list(b) for b in maximal_periods(F).basis]
    # and nothing outside the coloring keeps the coloring alive
    alive = weakref.ref(F)
    del F, report
    gc.collect()
    assert alive() is None


def test_slotted_lattice_keeps_its_value_semantics():
    lattices = _lattices_up_to_index(12)
    for L in lattices:
        copies = pickle.loads(pickle.dumps(L)), copy.deepcopy(L), dataclasses.replace(L)
        assert all(type(M) is Lattice and M == L for M in copies)
    # eq, hash and order are those of the (w, s, h) tuple
    for L in lattices:
        t = (L.w, L.s, L.h)
        assert hash(L) == hash(t)
        for M in lattices:
            u = (M.w, M.s, M.h)
            assert (L == M, L < M, L <= M) == (t == u, t < u, t <= u)
    with pytest.raises(dataclasses.FrozenInstanceError):
        lattices[0].w = 2


def test_a_coloring_with_its_maximal_lattice_pickles_back_equal():
    F = fixtures.get("II-base")
    assert maximal_periods(F) == Lattice(4, 2, 2)
    G = pickle.loads(pickle.dumps(F))
    assert G == F and hash(G) == hash(F)
    assert maximal_periods(G) == Lattice(4, 2, 2)
