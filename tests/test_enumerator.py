"""Exhaustive torus enumeration against the brute-force oracle."""

import hashlib
import itertools
import multiprocessing
import os
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcg import fixtures, search
from pcg.coloring import CACHE_SIZE, Lattice, PeriodicColoring, canonical, parse
from pcg.grid import d4_elements, neighbors
from pcg.perfect import Violation, check, quotient
from pcg.report import classify
from pcg.search import (
    SearchSpec,
    _Engine,
    _d4_representative,
    _enumerate,
    _first_occurrence,
    enumerate_colorings,
    matrices_conjugate,
)

from conftest import _lattices_up_to_index
from oracle import brute_greedy_order, brute_oracle, brute_perfect_colorings
from oracle import brute_translate, relabel
from oracle import first_occurrence, translation_key


def spec(w, s, h, colors, **kw):
    return SearchSpec(Lattice(w, s, h), colors, **kw)


def test_spec_validation():
    with pytest.raises(ValueError):
        spec(2, 0, 2, 0)
    with pytest.raises(ValueError):
        spec(2, 0, 2, 5)  # more colors than cells
    with pytest.raises(ValueError):
        SearchSpec(Lattice(2, 0, 2), 2, quotient=((0, 4), (4, 0), (0, 0)))
    with pytest.raises(ValueError):
        SearchSpec(Lattice(3, 0, 3), 2, quotient=((0, 1, 3),) * 3)
    with pytest.raises(ValueError):
        SearchSpec(Lattice(2, 0, 2), 2, quotient=((0, 4), (5, -1)))  # negative
    with pytest.raises(ValueError):
        SearchSpec(Lattice(2, 0, 2), 2, quotient=((0, 3), (3, 0)))  # rows sum to 3
    with pytest.raises(ValueError):
        SearchSpec(Lattice(2, 0, 2), 2, quotient=(), surjective=False)  # empty
    with pytest.raises(ValueError):
        SearchSpec(Lattice(2, 0, 2), 3, quotient=((0, 4), (4, 0)))  # 2 of 3 colors
    with pytest.raises(ValueError, match="at most 900 cells"):
        spec(31, 0, 30, 1)  # the search recurses once per cell
    SearchSpec(Lattice(30, 0, 30), 1)
    # a lax search may use fewer colors than it allows
    SearchSpec(Lattice(2, 0, 2), 3, quotient=((0, 4), (4, 0)), surjective=False)


def test_frozen_counts_small_tori():
    assert len(enumerate_colorings(spec(2, 0, 2, 3, surjective=False))) == 4
    assert len(enumerate_colorings(spec(3, 0, 3, 3, surjective=False))) == 6
    assert len(enumerate_colorings(spec(4, 0, 2, 4, surjective=False))) == 14


def test_single_stripe_pair_on_tiny_torus():
    got = enumerate_colorings(spec(2, 0, 1, 2))
    assert len(got) == 1
    assert check(got[0]) == ((2, 2), (2, 2))


def test_results_are_perfect_canonical_and_sorted():
    got = enumerate_colorings(spec(4, 0, 2, 4, surjective=False))
    strings = [canonical(F) for F in got]
    assert strings == sorted(strings)
    for F in got:
        assert not isinstance(check(F), Violation)
        # each result is already in canonical form
        assert parse(canonical(F)) == F


def test_matches_brute_oracle():
    cases = [
        spec(2, 0, 2, 3, surjective=False),
        spec(2, 0, 2, 4, surjective=False),
        spec(3, 0, 3, 3, surjective=False),
        spec(4, 0, 2, 4, surjective=False),
        spec(3, 1, 2, 3, surjective=False),
        spec(2, 0, 2, 2, surjective=True),
        spec(3, 0, 3, 3, surjective=True),
        # lattices whose search order is not row-major
        spec(4, 1, 2, 4, surjective=False),
        spec(7, 3, 1, 4, surjective=False),
        # cells that are their own neighbors, where the diagonal rule prunes
        spec(1, 0, 7, 4, surjective=False),
        spec(2, 1, 4, 3, surjective=False),
    ]
    for sp in cases:
        eng = _Engine(sp)
        eng.run()
        brute = list(brute_perfect_colorings(sp))
        assert eng.canonicals() == {canonical(F) for F in brute}, sp
        # Canonical forms cannot see a prune that drops a translation
        # class while a D4 image of it on the same torus survives.
        lat = sp.lattice
        kept = {translation_key(_flat(rows), lat) for rows in eng.reps}
        assert kept == {translation_key(_flat(F.rows), lat) for F in brute}, sp


def test_brute_oracle_guard():
    with pytest.raises(ValueError):
        brute_oracle(spec(4, 0, 4, 3))
    with pytest.raises(ValueError):
        brute_oracle(spec(3, 0, 3, 5, surjective=False))


def test_d4_images_enumerate_the_same_colorings():
    for lat in _lattices_up_to_index(10):
        colors = min(3, lat.index)
        want = _enumerate(SearchSpec(lat, colors, surjective=False), jobs=1)
        for g in d4_elements():
            image = SearchSpec(lat.transform(g), colors, surjective=False)
            assert _enumerate(image, jobs=1) == want, (lat, g)


def test_cell_order_is_a_permutation():
    for lat in _lattices_up_to_index(12):
        order = _Engine(SearchSpec(lat, 1)).order
        assert sorted(order) == list(range(lat.index)), lat


def test_engine_tables_match_full_scans():
    """The frontier-only cell order equals the scan over every uncolored
    cell, and the translate table read from one block equals a reading
    of every shifted cell through Lattice.reduce."""
    for lat in _lattices_up_to_index(24):
        cells = list(lat.domain())
        pos = {v: i for i, v in enumerate(cells)}
        nbr = [tuple(pos[lat.reduce(u)] for u in neighbors(v)) for v in cells]
        eng = _Engine(SearchSpec(lat, 1))
        assert eng.order == brute_greedy_order(nbr), lat
        ids = range(lat.index)
        want = [
            tuple(pos[lat.reduce((x + tx, y + ty))] for x, y in cells)
            for tx, ty in cells[1:]
        ]
        assert [shift(ids) for shift in eng.shifts] == want, lat


@pytest.mark.parametrize("lat", [Lattice(4, 1, 2), Lattice(7, 3, 1)])
def test_cell_order_leaves_row_major_when_it_pays(lat):
    assert _Engine(SearchSpec(lat, 1)).order != list(range(lat.index))


def test_surjective_flag_semantics():
    lax = enumerate_colorings(spec(3, 0, 3, 3, surjective=False))
    strict = enumerate_colorings(spec(3, 0, 3, 3, surjective=True))
    assert {canonical(F) for F in strict} <= {canonical(F) for F in lax}
    assert all(F.n == 3 for F in strict)
    assert any(F.n < 3 for F in lax)


def test_quotient_constraint_filters():
    sp = spec(2, 0, 2, 2, surjective=False)
    everything = enumerate_colorings(sp)
    S = ((0, 4), (4, 0))
    constrained = enumerate_colorings(
        SearchSpec(Lattice(2, 0, 2), 2, quotient=S, surjective=False)
    )
    expect = {
        canonical(F)
        for F in everything
        if F.n == 2 and matrices_conjugate(quotient(F), S)
    }
    assert {canonical(F) for F in constrained} == expect
    assert len(constrained) == 1


def test_parallel_jobs_agree(no_kept_pool):
    sp = spec(4, 0, 2, 4, surjective=False)
    assert _enumerate(sp, jobs=1) == _enumerate(sp, jobs=2)


def test_parallel_jobs_agree_off_row_major(no_kept_pool):
    # the split numbers subtrees in the search order, which is not row-major here
    sp = spec(8, 2, 2, 4, surjective=False)
    assert _Engine(sp).order != list(range(16))
    assert _enumerate(sp, jobs=1) == _enumerate(sp, jobs=2)


@pytest.fixture
def no_kept_pool():
    """No kept --jobs pool before or after the test, so a test that
    patches multiprocessing.Pool sees the pools it asserts on, and no
    test leaves its workers to the next."""
    search._stop_pools()
    yield
    search._stop_pools()


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs this process may run on, as the search counts them."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)

    return set_cpus


@pytest.fixture
def inline_pool(no_kept_pool, monkeypatch):
    """Pools that run their tasks in this process; the size of each."""
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)
            self.terminated = False

        def starmap(self, fn, args, chunksize):
            return list(itertools.starmap(fn, args))

        def terminate(self):
            self.terminated = True

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    return sizes


def test_jobs_capped_at_cpu_count(inline_pool, cpus):
    cpus(3)
    sp = spec(4, 0, 2, 4, surjective=False)
    assert _enumerate(sp, jobs=64) == _enumerate(sp, jobs=1)
    assert inline_pool == [3]


def test_jobs_capped_at_cpu_count_without_affinity(inline_pool, monkeypatch):
    # platforms without sched_getaffinity fall back to os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sp = spec(4, 0, 2, 4, surjective=False)
    assert _enumerate(sp, jobs=64) == _enumerate(sp, jobs=1)
    assert inline_pool == [3]


def test_jobs_on_an_empty_tree_find_nothing(inline_pool, cpus):
    """A 3x2 torus has no perfect coloring with 5 colors: every part of
    the split comes back empty."""
    cpus(2)
    assert _enumerate(SearchSpec(Lattice(3, 0, 2), 5), jobs=2) == ()
    assert inline_pool == [2]


def test_searches_with_one_jobs_share_one_pool(inline_pool, cpus):
    cpus(2)
    a, b = spec(4, 0, 2, 4, surjective=False), spec(3, 0, 3, 3, surjective=False)
    assert _enumerate(a, jobs=2) == _enumerate(a, jobs=1)
    assert _enumerate(b, jobs=2) == _enumerate(b, jobs=1)
    assert inline_pool == [2]
    assert not search._pools[2].terminated


def test_another_jobs_replaces_the_pool(inline_pool, cpus):
    cpus(3)
    sp = spec(4, 0, 2, 4, surjective=False)
    want = _enumerate(sp, jobs=1)
    assert _enumerate(sp, jobs=2) == want
    first = search._pools[2]
    assert _enumerate(sp, jobs=3) == want
    # 8 is capped at the 3 CPUs, so it keeps the pool of 3
    assert _enumerate(sp, jobs=8) == want
    assert inline_pool == [2, 3]
    assert first.terminated and list(search._pools) == [3]
    assert not search._pools[3].terminated


def test_a_failed_search_keeps_no_pool(no_kept_pool, cpus, monkeypatch):
    """A task that raises reaches the caller and terminates the pool, so
    no later search waits behind the failed one's tasks."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers see the patched engine only when forked")
    cpus(2)

    def fail(self, depth=0):
        raise RuntimeError("task failed")

    # patched before the pool forks, so the workers run it
    monkeypatch.setattr(_Engine, "run", fail)
    sp = spec(4, 0, 2, 4, surjective=False)
    with pytest.raises(RuntimeError, match="task failed"):
        _enumerate(sp, jobs=2)
    assert search._pools == {}
    monkeypatch.undo()
    cpus(2)
    assert _enumerate(sp, jobs=2) == _enumerate(sp, jobs=1)


def test_a_split_at_the_cell_count_runs_in_process(no_kept_pool, cpus, monkeypatch):
    """With one color the split depth is the cell count, where every
    part would build an engine and walk the whole one-leaf tree."""

    def no_pool(processes):
        raise AssertionError("a split at the cell count must not start processes")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    cpus(2)
    assert search._split_depth(900, 1, 8) == 900
    got = _enumerate(spec(30, 0, 30, 1), jobs=2)
    assert len(got) == 1 and check(got[0]) == ((4,),)


@pytest.mark.parametrize("parts", [2, 5])
def test_split_with_one_color_keeps_the_coloring(parts):
    """With one color there is one color string per depth, so the split
    depth stops at the cell count, and the one coloring falls to one part."""
    sp = spec(3, 1, 4, 1)
    assert _Engine(sp, 0, parts).split == 12
    found = [search._search(sp, part, parts) for part in range(parts)]
    assert sorted(map(len, found)) == [0] * (parts - 1) + [1]


def test_spawned_workers_unpickle_the_spec(no_kept_pool, cpus, monkeypatch):
    """The pool path is the one that pickles the spec, and so its slotted
    Lattice; spawn, macOS's default start method, unpickles it in a fresh
    interpreter."""
    sp = spec(4, 0, 4, 3)
    assert pickle.loads(pickle.dumps(sp)) == sp
    serial = _enumerate(sp, jobs=1)
    spawn = multiprocessing.get_context("spawn").Pool
    pools = []
    monkeypatch.setattr(
        multiprocessing, "Pool", lambda *a, **kw: pools.append(a) or spawn(*a, **kw)
    )
    cpus(2)
    assert _enumerate(sp, jobs=2) == serial
    assert len(pools) == 1 and len(serial) == 11


def nodes(sp):
    eng = _Engine(sp)  # built directly, so the memo cannot serve it
    eng.run()
    return eng.nodes


def test_search_visits_the_pinned_tree():
    """Colors tried per search, forced ones included. The counts pin the
    tree the prunes cut: a cheaper node must visit the same one, and a
    weaker prune, which the output cannot show, changes them. Every spec
    is a D4 representative, the only kind `enumerate_colorings` searches.
    The rule that color 1 has the largest diagonal quotient entry lowered
    every count, and so did the row-0 lex-leader rule, which cuts a
    branch once row 0 is colored if a shift (tx, 0) that keeps the
    origin's color gives row 0 a smaller first-occurrence key; the
    read-only pre-check runs after a node is counted, so it changes
    none."""
    pinned = {
        spec(4, 0, 8, 4): 35_099,
        spec(4, 0, 6, 5): 48_001,
        spec(6, 0, 6, 4): 101_928,
        spec(4, 0, 4, 4): 14_715,
        spec(5, 2, 2, 4): 1_669,
    }
    for sp, count in pinned.items():
        assert _d4_representative(sp) == sp
        assert nodes(sp) == count, sp
    lattices = _lattices_up_to_index(16)  # the small_sweep lattices
    assert len(lattices) == 220
    lax = {
        _d4_representative(SearchSpec(lat, min(5, lat.index), surjective=False))
        for lat in lattices
    }
    assert len(lax) == 87
    assert sum(map(nodes, lax)) == 419_845


def test_small_sweep_output_is_pinned(small_sweep):
    """A prune that loses a coloring of index <= 16 changes this digest."""
    assert len(small_sweep) == 2_333
    digest = hashlib.sha256("".join(map(canonical, small_sweep)).encode())
    assert digest.hexdigest() == (
        "fc8878ccb9ef20d09e16c85ac12981d478e7d9532105a6818b5f3bf5e450b271"
    )


@pytest.mark.parametrize(
    "shape, count, digest",
    [
        ((4, 8, 4), 32, "cc05ff6e0bc2397c74765041be39b2eff1f70e95bbb08937221cf7625d486dd3"),
        ((4, 6, 5), 5, "24f7128bec493990a17016a71256c4b307ac7c2258051ee516c28b68232a9a27"),
        ((6, 6, 4), 22, "864e4f10ad944970a9b7fe96a850a50b78c02d5f93693a86148cca5fb0c88676"),
    ],
    ids=["4x8/4", "4x6/5", "6x6/4"],
)
def test_torus_output_is_pinned(shape, count, digest):
    """The benchmark's torus shapes: a prune or a leaf dedup that loses
    or duplicates a coloring changes the count or the digest."""
    w, h, colors = shape
    got = _enumerate(spec(w, 0, h, colors), jobs=1)
    assert len(got) == count
    assert hashlib.sha256("".join(map(canonical, got)).encode()).hexdigest() == digest


def test_first_occurrence_key_with_many_colors():
    colors = [12, 3, 12, 7, 1, 3, 9, 10, 11, 2, 4, 5, 6, 8, 1, 12]
    F = PeriodicColoring(Lattice(len(colors), 0, 1), (tuple(colors),))
    want = [c - 1 for c in first_occurrence(F).rows[0]]
    key = _first_occurrence("".join(map(chr, colors)))
    assert [ord(c) for c in key] == want
    assert max(want) == 11
    # the key sees only which cells share a color
    renamed = [13 - c for c in colors]
    assert _first_occurrence("".join(map(chr, renamed))) == key
    merged = [3 if c == 1 else c for c in colors]
    assert _first_occurrence("".join(map(chr, merged))) != key


def _flat(rows):
    return tuple(itertools.chain.from_iterable(rows))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_leaf_dedup_keeps_one_coloring_per_translation_class(data):
    """Against the least-translation key of tests/oracle.py: the engine
    keeps one leaf of each class. Split into parts, each run on a fresh
    engine as a --jobs task is, the parts keep the serial leaves between
    them, each in one part; and the leaf rule rejects every renamed
    translate of a kept leaf but the leaf itself."""
    lat = data.draw(st.sampled_from(_lattices_up_to_index(12)), label="lattice")
    sp = SearchSpec(
        lat,
        data.draw(st.integers(1, min(4, lat.index)), label="colors"),
        surjective=data.draw(st.booleans(), label="surjective"),
    )
    leaves = []

    class Logged(_Engine):
        def _leaf(self):
            if not sp.surjective or self.num_used == sp.max_colors:
                leaves.append(tuple(self.color))
            super()._leaf()

    eng = Logged(sp)
    eng.run()
    classes = sorted({translation_key(leaf, lat) for leaf in leaves})
    # a class kept twice would appear twice on the left
    assert sorted(translation_key(_flat(rows), lat) for rows in eng.reps) == classes

    parts = data.draw(st.integers(1, 6), label="parts")
    split = []
    for part in range(parts):
        worker = _Engine(sp, part, parts)
        worker.run()
        split.append(worker.reps)
    assert sorted(itertools.chain(*split)) == sorted(eng.reps)
    for a, b in itertools.combinations(split, 2):
        assert not set(a) & set(b)

    if eng.reps:
        F = PeriodicColoring(lat, data.draw(st.sampled_from(eng.reps), label="rep"))
        key = _first_occurrence("".join(map(chr, _flat(F.rows))))
        perm = data.draw(st.permutations(range(1, F.n + 1)), label="renaming")
        for t in lat.domain():
            G = relabel(brute_translate(F, t), dict(zip(range(1, F.n + 1), perm)))
            text = "".join(map(chr, _flat(G.rows)))
            diagonal = [row[c] for c, row in enumerate(quotient(G))]
            assert eng._leads(text, diagonal) == (_first_occurrence(text) == key), t


@pytest.fixture
def engines(monkeypatch):
    """An empty memo, and the spec of every _Engine built from now on."""
    built = []

    class CountingEngine(_Engine):
        def __init__(self, spec, part=0, parts=1):
            built.append(spec)
            super().__init__(spec, part, parts)

    monkeypatch.setattr(search, "_memo", {})
    monkeypatch.setattr(search, "_Engine", CountingEngine)
    return built


def test_d4_images_are_served_from_the_memo(engines):
    lat = Lattice(6, 4, 1)
    images = {lat.transform(g) for g in d4_elements()}
    # the first call is not on the representative, so a memo keyed by
    # the raw lattice would search again
    assert min(images) != lat and len(images) > 2
    want = enumerate_colorings(SearchSpec(lat, 4, surjective=False))
    assert len(engines) == 1
    for image in images:
        assert enumerate_colorings(SearchSpec(image, 4, surjective=False)) == want
    assert len(engines) == 1
    assert want == _enumerate(SearchSpec(lat, 4, surjective=False), jobs=1)


def test_searches_run_only_on_d4_representatives(engines):
    # off the representative the tree can grow; see _enumerate
    # widest first, so the first lattice met of a class is seldom its least
    for lat in reversed(_lattices_up_to_index(10)):
        enumerate_colorings(SearchSpec(lat, min(3, lat.index), surjective=False))
    assert engines and all(sp == _d4_representative(sp) for sp in engines)


def test_jobs_is_not_part_of_the_memo_key(engines, no_kept_pool, monkeypatch):
    def no_pool(processes):
        raise AssertionError("a memo hit must not start processes")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    sp = spec(4, 0, 2, 4, surjective=False)
    want = enumerate_colorings(sp)
    assert enumerate_colorings(sp, jobs=2) == want
    assert enumerate_colorings(sp, jobs=1) == want
    assert len(engines) == 1


def test_memo_keeps_specs_apart(engines):
    base = spec(2, 0, 2, 2, surjective=False)
    variants = [
        # the filtered answer first: it must not be served for `base`
        replace(base, quotient=((0, 4), (4, 0))),
        base,
        replace(base, max_colors=3),
        replace(base, surjective=True),
    ]
    got = [enumerate_colorings(sp) for sp in variants]
    assert len(engines) == len(variants)
    assert got == [_enumerate(sp, jobs=1) for sp in variants]
    # the four answers differ, so an entry served for the wrong spec shows
    assert len({len(answer) for answer in got}) == len(variants)


def test_memo_is_bounded_and_drops_the_oldest(engines, monkeypatch):
    assert search.CACHE_SIZE == CACHE_SIZE  # the bound the analyses share
    monkeypatch.setattr(search, "CACHE_SIZE", 3)
    specs = [spec(1, 0, h, 1) for h in range(1, 7)]  # each its own representative
    for i, sp in enumerate(specs):
        enumerate_colorings(sp)
        assert list(search._memo) == specs[max(0, i - 2) : i + 1]


def test_enumeration_finds_the_checkerboard():
    got = enumerate_colorings(spec(2, 1, 1, 2, surjective=True))
    assert [canonical(F) for F in got] == [canonical(fixtures.checkerboard())]


def test_matrices_conjugate_basics():
    A = ((0, 4), (4, 0))
    assert matrices_conjugate(A, A)
    assert matrices_conjugate(((1, 3), (2, 2)), ((2, 2), (3, 1)))
    assert not matrices_conjugate(A, ((2, 2), (2, 2)))
    assert not matrices_conjugate(A, ((0, 4, 0), (4, 0, 0), (0, 0, 4)))


@given(st.data())
@settings(max_examples=40)
def test_matrices_conjugate_under_random_permutation(data):
    fid = data.draw(st.sampled_from(("II-base", "e", "3-17-2", "h")))
    S = quotient(fixtures.get(fid))
    n = len(S)
    perm = data.draw(st.permutations(range(n)))
    P = tuple(tuple(S[perm[i]][perm[j]] for j in range(n)) for i in range(n))
    assert matrices_conjugate(S, P)
    assert matrices_conjugate(P, S)


def test_classify_perfect_coloring():
    rep = classify(fixtures.get("h"))
    assert rep.perfect and rep.violation is None
    assert rep.covering is True
    assert rep.orbit is True
    assert rep.bipartite is True
    assert len(rep.twin_pairs) == 12
    assert len(rep.special_diagonals) == 8
    assert rep.maximal == Lattice(4, 2, 2)
    d = rep.to_json_dict()
    assert d["perfect"] is True
    assert d["twins"][0] == ["1", "2"]
    assert d["maximal_periods"] == [[4, 0], [2, 2]]


def test_classify_broken_coloring():
    F = parse("# pcg v1\nperiods (2,0) (0,2)\n1 1\n1 2\n")
    rep = classify(F)
    assert not rep.perfect
    assert rep.violation is not None
    assert rep.quotient is None and rep.orbit is None and rep.dichotomy is None
    d = rep.to_json_dict()
    assert d["perfect"] is False
    assert d["violation"]["node"] == [1, 0]
    assert d["violation"]["color"] == "1"
