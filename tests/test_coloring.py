"""Lattices, the PCG text format, and coloring normal forms."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcg import fixtures
from pcg.coloring import (
    CACHE_SIZE,
    _least_images,
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

from oracle import (
    brute_canonical,
    brute_check,
    brute_least_translation,
    brute_maximal_periods,
    brute_rebase,
    brute_stabilizer,
    brute_transform,
    brute_translate,
    brute_window,
    first_occurrence,
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
    G = PeriodicColoring(tile, _rows(flat, tile)).rebase(big)
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
auts = st.builds(GridAutomorphism, st.sampled_from(d4_elements()), vecs)


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
    assert lat.contains((v[0] - r[0], v[1] - r[1]))


@given(small_lattices())
def test_domain_size_is_index(lat):
    dom = list(lat.domain())
    assert len(dom) == lat.index
    assert len(set(lat.reduce(v) for v in dom)) == lat.index


@given(small_lattices(), vecs, vecs)
def test_contains_is_a_subgroup(lat, a, b):
    for bv in lat.basis:
        assert lat.contains(bv)
    if lat.contains(a) and lat.contains(b):
        assert lat.contains((a[0] + b[0], a[1] + b[1]))
        assert lat.contains((-a[0], -a[1]))


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
    assert G.tokens == F.tokens and G == F.translate((-1, 0))


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


# coloring transforms


@given(colorings(), vecs)
def test_translate_moves_colors(F, t):
    G = F.translate(t)
    assert G.color_at((t[0], t[1])) == F.color_at((0, 0))
    assert G.translate((-t[0], -t[1])) == F


@given(colorings(), auts, vecs)
def test_transform_moves_colors(F, a, v):
    assert F.transform(a).color_at(a.apply(v)) == F.color_at(v)


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


def test_relabel_rejects_non_bijections():
    F = parse("# pcg v1\nperiods (2,0) (0,1)\n1 2\n")
    with pytest.raises(ValueError):
        F.relabel({1: 1, 2: 3})
    with pytest.raises(ValueError):
        F.relabel({1: 1})


def test_rebase_requires_periods():
    F = fixtures.checkerboard()
    with pytest.raises(ValueError):
        F.rebase(Lattice(3, 0, 1))
    G = F.rebase(Lattice(2, 0, 2))
    assert G.lattice.index == 4
    assert all(G.color_at(v) == F.color_at(v) for v in G.lattice.domain())


def test_window_contents_and_mask():
    F = fixtures.checkerboard()
    W = F.window((0, 0), 3, 2)
    assert W.get((0, 0)) == F.color_at((0, 0))
    assert W.get((2, 1)) == F.color_at((2, 1))
    assert W.get((3, 0)) is None
    assert len(list(W.nodes())) == 6
    for width, height in [(0, 2), (2, 0), (-1, 3), (3, -2)]:
        with pytest.raises(ValueError, match="at least 1x1"):
            F.window((1, -1), width, height)


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
        assert lat.contains(b)
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
    n = max(flat)
    width = len(str(n))
    # the padded ids that canonical passes
    symbols = tuple(str(i).ljust(width) for i in range(1, n + 1))
    assert _least_translation(flat, lat, symbols) == brute_least_translation(
        flat, lat, symbols
    )
    F = PeriodicColoring(lat, _rows(flat, lat))
    # past the cache, so every example runs the kernel
    assert maximal_periods.__wrapped__(F) == brute_maximal_periods(F)
    # list rows, as _least_translation hands them to _block, must match tuple rows
    lists = [list(row) for row in F.rows]
    periods = [t for t in lat.domain() if brute_translate(F, t) == F]
    assert list(translations(lists, F.rows, lat)) == periods
    # every shifted or rotated read of F against its cell-by-cell version
    aut, t, origin = data.draw(auts), data.draw(vecs), data.draw(vecs)
    assert F.transform(aut) == brute_transform(F, aut)
    assert F.translate(t) == brute_translate(F, t)
    side = st.integers(1, 2 * max(lat.w, lat.h) + 3)
    width, height = data.draw(side), data.draw(side)
    assert F.window(origin, width, height) == brute_window(F, origin, width, height)
    assert check(F) == brute_check(F)
    (w, _), (s, h) = lat.basis
    i, j, k = (data.draw(st.integers(lo, 3)) for lo in (1, 1, 0))
    tiles = Lattice.from_vectors((i * w, 0), (j * s + k * w, j * h))
    for L in (maximal_periods(F), tiles, data.draw(small_lattices())):
        assert _outcome(F.rebase, L) == _outcome(brute_rebase, F, L)
    group = stabilizer(F)
    assert group == brute_stabilizer(F) and group.order <= 8


def _outcome(fn, *args):
    """The value of fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


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
    flip = parse(S).transform(GridAutomorphism(((0, 1), (1, 0)), (0, 0)))
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
    base = F.rebase(maximal_periods(F))
    renderings = []
    for g in d4_elements():
        T = base.transform(GridAutomorphism(g, (0, 0)))
        for t in T.lattice.domain():
            G = first_occurrence(T.translate(t))
            # default tokens are the color ids "1".."n"
            renderings.append(render(PeriodicColoring(G.lattice, G.rows)))
    assert canonical(F) == min(renderings)


@given(colorings(), vecs)
@settings(max_examples=60)
def test_canonical_invariant_under_translation(F, t):
    assert canonical(F.translate(t)) == canonical(F)


@given(colorings(), st.sampled_from(d4_elements()))
@settings(max_examples=60)
def test_canonical_invariant_under_point_maps(F, g):
    assert canonical(F.transform(GridAutomorphism(g, (0, 0)))) == canonical(F)


@given(colorings(), st.randoms())
@settings(max_examples=60)
def test_canonical_invariant_under_relabeling(F, rng):
    ids = list(range(1, F.n + 1))
    shuffled = ids[:]
    rng.shuffle(shuffled)
    assert canonical(F.relabel(dict(zip(ids, shuffled)))) == canonical(F)


def test_canonical_parses_to_an_equivalent_coloring():
    for fid in ("c", "h", "II-base", "3-17-2"):
        F = fixtures.get(fid)
        assert equivalent(parse(canonical(F)), F)


def test_equivalent_separates_different_colorings():
    assert not equivalent(fixtures.get("8-150-1"), fixtures.get("8-150-2"))
    assert not equivalent(fixtures.get("3-17-2"), fixtures.get("3-17-3"))
    assert equivalent(fixtures.stripes(2), fixtures.checkerboard()) is False


@pytest.mark.parametrize(
    "fn",
    [_least_images, maximal_periods],
    ids=lambda fn: fn.__name__,
)
def test_analysis_caches_are_bounded(fn):
    # an unbounded cache would keep every coloring of a long sweep alive
    assert fn.cache_info().maxsize == CACHE_SIZE
