"""Slow references that keep the fast paths honest: a pruning-free
enumerator for the tree search, the search's cell order scanning every
uncolored cell at each step, a least-translation key for its leaf
dedup and for the translation classes it keeps, the first-occurrence
relabel that defines the canonical form and the search's
`_first_occurrence` key, full-scan versions of the
translation kernels in pcg.coloring, a canonical form that scans every
D4 image in full, cell-by-cell versions of every shifted or rotated
read of a coloring (the block kernel, the D4 image kernel, the
perfectness check from each cell's sorted neighbor colors, and the
stabilizer), a union-find over the stabilizer's moves for the orbits and
the orbit report, and the only movers of a coloring outside the
kernels: translate, transform, rebase and relabel, with the inverse and
product of grid automorphisms that tests need."""

import itertools
from typing import Iterator, Optional, Sequence, TypeVar, Union

from pcg.coloring import Lattice, PeriodicColoring, _text, canonical
from pcg.coloring import parse
from pcg.grid import IDENTITY, GridAutomorphism, Vec2, d4_elements, mat_apply, mat_mul
from pcg.grid import neighbors
from pcg.orbits import OrbitReport, StabilizerGroup, stabilizer
from pcg.perfect import QuotientMatrix, Violation, _counts, check
from pcg.search import SearchSpec, matrices_conjugate

_Sym = TypeVar("_Sym")


def brute_oracle(spec: SearchSpec) -> tuple[PeriodicColoring, ...]:
    """The same answer as enumerate_colorings, computed the slow way."""
    out = {canonical(F) for F in brute_perfect_colorings(spec)}
    return tuple(parse(s) for s in sorted(out))


def brute_perfect_colorings(spec: SearchSpec) -> Iterator[PeriodicColoring]:
    """Every perfect coloring of the torus that `spec` accepts, in every
    naming of its colors as 1..k: each assignment of colors to the cells
    goes through the real perfectness check."""
    cells = spec.lattice.index
    if cells > 12 or spec.max_colors > 4:
        raise ValueError("oracle guard: at most 12 cells and 4 colors")
    lat = spec.lattice
    for assignment in itertools.product(
        range(1, spec.max_colors + 1), repeat=cells
    ):
        used = set(assignment)
        if max(used) != len(used):  # colors must be 1..k for a valid coloring
            continue
        if spec.surjective and len(used) != spec.max_colors:
            continue
        rows = tuple(
            tuple(assignment[y * lat.w + x] for x in range(lat.w))
            for y in range(lat.h)
        )
        F = PeriodicColoring(lat, rows)
        S = check(F)
        if isinstance(S, Violation):
            continue
        if spec.quotient is not None and not matrices_conjugate(S, spec.quotient):
            continue
        yield F


def brute_greedy_order(nbr: list[tuple[int, ...]]) -> list[int]:
    """The same answer as search._greedy_order, taking each step's min over
    every uncolored cell rather than over the frontier."""
    placed = [False] * len(nbr)

    def key(c: int) -> tuple[int, int, int]:
        others = [u for u in nbr[c] if u != c]
        closes = sum(
            placed[u] and all(placed[v] or v == c for v in nbr[u])
            for u in set(others)
        )
        return (-sum(placed[u] for u in others), -closes, c)

    order: list[int] = []
    while len(order) < len(nbr):
        c = min((c for c in range(len(nbr)) if not placed[c]), key=key)
        placed[c] = True
        order.append(c)
    return order


def translation_key(flat: Sequence[int], lattice: Lattice) -> tuple[int, ...]:
    """One key per class of a row-major cell block under torus translations
    and color renaming: its least first-occurrence relabeling over every
    translation, as the search leaf computed it before keying translates."""
    return brute_least_translation(flat, lattice, range(max(flat)))


def brute_least_translation(
    flat: Sequence[int], lattice: Lattice, symbols: Sequence[_Sym]
) -> tuple[_Sym, ...]:
    """The same answer as _least_translation, with every candidate built in full."""
    w, s, h = lattice.w, lattice.s, lattice.h
    # doubled rows turn every cyclic shift of a row into one slice
    rows = [flat[i : i + w] * 2 for i in range(0, h * w, w)]
    unset: list[Optional[_Sym]] = [None] * (len(symbols) + 1)
    best: Optional[tuple[_Sym, ...]] = None
    for ty in range(h):
        for tx in range(w):
            # node (x, y) of the moved block shows node (x - tx, y - ty)
            perm = unset[:]
            fresh = iter(symbols)
            out = []
            for y in range(h):
                k, r = divmod(y - ty, h)
                cut = -(tx + k * s) % w
                for c in rows[r][cut : cut + w]:
                    p = perm[c]
                    if p is None:
                        perm[c] = p = next(fresh)
                    out.append(p)
            cand = tuple(out)
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def first_occurrence(F: PeriodicColoring) -> PeriodicColoring:
    """F with its colors renumbered in row-major order of first occurrence."""
    perm: dict[int, int] = {}
    for _, c in F.cells():
        if c not in perm:
            perm[c] = len(perm) + 1
    return relabel(F, perm)


def brute_canonical(F: PeriodicColoring) -> str:
    """The same answer as canonical(F), scanning all eight D4 images in full."""
    base = brute_rebase(F, brute_maximal_periods(F))
    width = len(str(base.n))
    symbols = tuple(str(i).ljust(width) for i in range(1, base.n + 1))
    texts = []
    for g in d4_elements():
        T = brute_transform(base, GridAutomorphism(g, (0, 0)))
        flat = [c for row in T.rows for c in row]
        least = brute_least_translation(flat, T.lattice, symbols)
        texts.append(_text(T.lattice, least))
    return min(texts)


def brute_maximal_periods(F: PeriodicColoring) -> Lattice:
    """The same answer as maximal_periods, testing every cell with color_at."""
    cells = tuple(F.cells())
    vecs = list(F.lattice.basis)
    for tx, ty in F.lattice.domain():
        if (tx, ty) == (0, 0):
            continue
        if all(F.color_at((x + tx, y + ty)) == c for (x, y), c in cells):
            vecs.append((tx, ty))
    return Lattice.from_vectors(*vecs)


def brute_translate(F: PeriodicColoring, t: Vec2) -> PeriodicColoring:
    """The coloring v -> F(v - t) (the picture moved by +t), read cell by
    cell with color_at."""
    tx, ty = t
    rows = tuple(
        tuple(F.color_at((x - tx, y - ty)) for x in range(F.lattice.w))
        for y in range(F.lattice.h)
    )
    return PeriodicColoring(F.lattice, rows, F.tokens)


def brute_transform(F: PeriodicColoring, aut: GridAutomorphism) -> PeriodicColoring:
    """The coloring v -> F(aut^-1(v)), mapping every node back by aut^-1;
    the lattice follows the point part."""
    lat = F.lattice.transform(aut.point)
    inv = inverse(aut)
    rows = tuple(
        tuple(F.color_at(inv.apply((x, y))) for x in range(lat.w))
        for y in range(lat.h)
    )
    return PeriodicColoring(lat, rows, F.tokens)


def brute_rebase(F: PeriodicColoring, lat: Lattice) -> PeriodicColoring:
    """F re-expressed on `lat`, whose basis vectors must be periods of F,
    testing every cell with color_at."""
    cells = tuple(F.cells())
    for bx, by in lat.basis:
        for (x, y), c in cells:
            if F.color_at((x + bx, y + by)) != c:
                raise ValueError(f"({bx},{by}) is not a period of the coloring")
    rows = tuple(
        tuple(F.color_at((x, y)) for x in range(lat.w)) for y in range(lat.h)
    )
    return PeriodicColoring(lat, rows, F.tokens)


def brute_block(
    F: PeriodicColoring, origin: Vec2, width: int, height: int
) -> tuple[tuple[int, ...], ...]:
    """The same answer as _block(F.rows, F.lattice, *origin, width, height),
    read cell by cell with color_at."""
    ox, oy = origin
    return tuple(
        tuple(F.color_at((ox + c, oy + r)) for c in range(width))
        for r in range(height)
    )


def profile(F: PeriodicColoring, v: Vec2) -> tuple[int, int, int, int]:
    """Colors of the 4 neighbors of v, sorted, with multiplicity."""
    a, b, c, d = (F.color_at(u) for u in neighbors(v))
    return tuple(sorted((a, b, c, d)))


def brute_check(F: PeriodicColoring) -> Union[QuotientMatrix, Violation]:
    """The same answer as check(F), with one `profile` per cell."""
    seen: dict[int, tuple[int, int, int, int]] = {}
    for v, c in F.cells():
        p = profile(F, v)
        ref = seen.setdefault(c, p)
        if p != ref:
            return Violation(node=v, color=c, expected=_counts(ref, F.n), observed=p)
    return tuple(_counts(seen[i], F.n) for i in range(1, F.n + 1))


def relabel(F: PeriodicColoring, perm: dict[int, int]) -> PeriodicColoring:
    """F with color c renamed perm[c]; tokens travel with their colors."""
    rows = tuple(tuple(perm[c] for c in row) for row in F.rows)
    tokens = [""] * F.n
    for old, new in perm.items():
        tokens[new - 1] = F.tokens[old - 1]
    return PeriodicColoring(F.lattice, rows, tuple(tokens))


def inverse(a: GridAutomorphism) -> GridAutomorphism:
    """The grid automorphism that undoes a, its point part found among
    the D4 matrices by search."""
    g = next(g for g in d4_elements() if mat_mul(g, a.point) == IDENTITY)
    sx, sy = mat_apply(g, a.shift)
    return GridAutomorphism(g, (-sx, -sy))


def compose(a: GridAutomorphism, b: GridAutomorphism) -> GridAutomorphism:
    """The grid automorphism v -> a(b(v))."""
    sx, sy = mat_apply(a.point, b.shift)
    return GridAutomorphism(
        mat_mul(a.point, b.point), (sx + a.shift[0], sy + a.shift[1])
    )


def brute_stabilizer(F: PeriodicColoring) -> StabilizerGroup:
    """The same group as stabilizer(F), testing every (g, t) on every cell."""
    lat = brute_maximal_periods(F)
    base = brute_rebase(F, lat)
    cells = tuple(base.cells())
    elements = []
    for g in d4_elements():
        if lat.transform(g) != lat:
            continue
        for t in lat.domain():
            aut = GridAutomorphism(g, t)
            if all(base.color_at(aut.apply(v)) == c for v, c in cells):
                elements.append(aut)
    elements.sort(key=lambda a: (a.point, a.shift))
    return StabilizerGroup(lat, tuple(elements))


def brute_orbits(F: PeriodicColoring) -> tuple[tuple[Vec2, ...], ...]:
    """The same answer as orbits(stabilizer(F)), joining v and aut(v) in a
    union-find."""
    return _union_find_orbits(stabilizer(F))


def _union_find_orbits(group: StabilizerGroup) -> tuple[tuple[Vec2, ...], ...]:
    lat = group.lattice
    parent: dict[Vec2, Vec2] = {v: v for v in lat.domain()}

    def find(v: Vec2) -> Vec2:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for aut in group.elements:
        for v in lat.domain():
            a, b = find(v), find(lat.reduce(aut.apply(v)))
            if a != b:
                parent[a] = b
    buckets: dict[Vec2, list[Vec2]] = {}
    for v in lat.domain():
        buckets.setdefault(find(v), []).append(v)
    groups = [tuple(sorted(vs, key=lambda v: (v[1], v[0]))) for vs in buckets.values()]
    groups.sort(key=lambda orb: (orb[0][1], orb[0][0]))
    return tuple(groups)


def brute_orbit_report(F: PeriodicColoring) -> OrbitReport:
    """The same report as orbit_report(F), scanning each color's cells in
    row-major order for the first one outside the first cell's orbit."""
    group = stabilizer(F)
    parts = _union_find_orbits(group)
    base = brute_rebase(F, group.lattice)
    owner: dict[Vec2, int] = {}
    for i, orb in enumerate(parts):
        for v in orb:
            owner[v] = i
    pair = None
    by_color: dict[int, list[Vec2]] = {}
    for v, c in base.cells():
        by_color.setdefault(c, []).append(v)
    for c in range(1, base.n + 1):
        vs = by_color[c]
        first = vs[0]
        for v in vs[1:]:
            if owner[v] != owner[first]:
                pair = (first, v)
                break
        if pair:
            break
    return OrbitReport(
        is_orbit=pair is None,
        num_orbits=len(parts),
        stabilizer_order=group.order,
        counterexample_pair=pair,
    )
