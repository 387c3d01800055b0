"""Exhaustive search for perfect colorings on a fixed torus.

`enumerate_colorings` walks the cells of the fundamental domain in a
fixed order assigning colors, maintaining for every color the
entrywise maximum of the partial neighbor profiles seen so far.  A
color's row becomes established the first time one of its nodes has
all four neighbors assigned; after that every node of the color must
match the row exactly.  Before establishment the partial maxima must
stay dominated by SOME row summing to 4, which gives the prune
``sum of maxima <= 4``.  Symmetry is broken by forcing the first cell
to color 1 and introducing new colors in increasing order; full
deduplication happens afterwards through canonical forms, so point
symmetries need no special treatment during search.

Rows are established sooner, and so prune sooner, when each cell's
neighbors are colored soon after it. The cell order is therefore picked
per lattice from nine candidates: the row-major order of each of the
eight D4 images of the torus, read back onto its cells (identity
first), and one greedy order that keeps completing neighborhoods. The
winner has the least open-slot sum, the number of neighbor edges from
colored to uncolored cells summed over every depth; ties go to the
earlier candidate. Colorings are still stored row-major, so the order
changes only how fast the search runs, never what it returns.

The eight point maps of the grid (the group D4) carry the perfect
colorings of one torus onto those of its images, and canonical forms do
not see them, so a lattice and its images share one answer.
`enumerate_colorings` searches only the least lattice of each D4 class
and keeps a bounded memo of the answers, keyed by the spec on that
lattice; `_enumerate` is the search itself, uncached.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, replace
from typing import Optional

from .coloring import (
    CACHE_SIZE,
    Lattice,
    PeriodicColoring,
    canonical,
    least_translation,
    parse,
)
from .grid import d4_elements, mat_apply, mat_inv, neighbors
from .perfect import QuotientMatrix


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: a torus, a color budget, optional quotient."""

    lattice: Lattice
    max_colors: int
    quotient: Optional[QuotientMatrix] = None
    surjective: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.max_colors <= self.lattice.index:
            raise ValueError("max_colors must be between 1 and the cell count")
        if self.quotient is not None:
            q = tuple(tuple(row) for row in self.quotient)
            if any(len(row) != len(q) for row in q):
                raise ValueError("quotient must be square")
            if len(q) > self.max_colors:
                raise ValueError("quotient size exceeds max_colors")
            if any(x < 0 for row in q for x in row) or any(sum(row) != 4 for row in q):
                raise ValueError("quotient entries must be >= 0 with rows summing to 4")
            object.__setattr__(self, "quotient", q)


def matrices_conjugate(A: QuotientMatrix, B: QuotientMatrix) -> bool:
    """Is B = P A P^-1 for a simultaneous row/column permutation P?"""
    n = len(A)
    if n != len(B):
        return False

    def sig(M: QuotientMatrix, i: int) -> tuple:
        return (M[i][i], tuple(sorted(M[i])), tuple(sorted(row[i] for row in M)))

    sa = [sig(A, i) for i in range(n)]
    sb = [sig(B, j) for j in range(n)]
    if sorted(sa) != sorted(sb):
        return False
    cand = [[j for j in range(n) if sb[j] == sa[i]] for i in range(n)]
    perm = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        for j in cand[i]:
            if used[j]:
                continue
            if any(
                A[i][k] != B[j][perm[k]] or A[k][i] != B[perm[k]][j] for k in range(i)
            ):
                continue
            perm[i], used[j] = j, True
            if place(i + 1):
                return True
            perm[i], used[j] = -1, False
        return False

    return place(0)


def _open_slots(order: list[int], nbr: list[tuple[int, ...]]) -> int:
    """Neighbor edges from placed to unplaced cells, summed over prefixes.

    Edges count with multiplicity; a cell that is its own neighbor
    (when the lattice holds (1,0) or (0,1)) opens no slot.
    """
    placed = [False] * len(order)
    open_now = total = 0
    for i in order:
        placed[i] = True
        for u in nbr[i]:
            if u != i:
                open_now += -1 if placed[u] else 1
        total += open_now
    return total


def _greedy_order(nbr: list[tuple[int, ...]]) -> list[int]:
    """From cell 0, keep coloring the cell with the most colored neighbors.

    Ties go to the cell that completes the most colored cells'
    neighborhoods, then to the lowest index.
    """
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


def _cell_order(lat: Lattice, nbr: list[tuple[int, ...]]) -> list[int]:
    """The search's cell order for `lat`; see the module docstring."""

    def index(v: tuple[int, int]) -> int:
        x, y = lat.reduce(v)
        return y * lat.w + x

    candidates = []
    for g in d4_elements():
        inv = mat_inv(g)
        image = lat.transform(g)
        candidates.append([index(mat_apply(inv, v)) for v in image.domain()])
    candidates.append(_greedy_order(nbr))
    return min(candidates, key=lambda order: _open_slots(order, nbr))


class _Engine:
    """Backtracking state for one torus; undo-logged, reusable."""

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        lat = spec.lattice
        self.cells = list(lat.domain())
        self.N = len(self.cells)
        pos = {v: i for i, v in enumerate(self.cells)}
        self.nbr = [
            tuple(pos[lat.reduce(u)] for u in neighbors(v)) for v in self.cells
        ]
        # cells in the order the search colors them; `color` stays row-major
        self.order = _cell_order(lat, self.nbr)
        m = spec.max_colors
        self.color = [0] * self.N
        self.partial = [[0] * m for _ in range(self.N)]
        self.assigned_nbrs = [0] * self.N
        self.estab: list[Optional[tuple[int, ...]]] = [None] * (m + 1)
        self.lmax = [[0] * m for _ in range(m + 1)]
        self.lsum = [0] * (m + 1)
        self.num_used = 0
        self.log: list[tuple] = []
        # Leaves deduplicated by a translation-only key first; the full
        # canonical form runs once per representative afterwards.
        self.seen: set[tuple[int, ...]] = set()
        self.reps: list[tuple[tuple[int, ...], ...]] = []

    # -- undo machinery ------------------------------------------------

    def mark(self) -> int:
        return len(self.log)

    def undo_to(self, mark: int) -> None:
        while len(self.log) > mark:
            entry = self.log.pop()
            kind = entry[0]
            if kind == "p":
                _, u, d = entry
                self.partial[u][d] -= 1
                self.assigned_nbrs[u] -= 1
            elif kind == "m":
                _, c, d, old = entry
                self.lsum[c] += old - self.lmax[c][d]
                self.lmax[c][d] = old
            elif kind == "e":
                self.estab[entry[1]] = None
            elif kind == "c":
                self.color[entry[1]] = 0
            else:  # "k"
                self.num_used -= 1

    # -- constraint propagation ---------------------------------------

    def _touch(self, u: int) -> bool:
        """Re-check cell u after one of its edges got a color."""
        c = self.color[u]
        if c == 0:
            return True
        row = self.estab[c]
        p = self.partial[u]
        if row is not None:
            if self.assigned_nbrs[u] == 4:
                return tuple(p) == row
            return all(a <= b for a, b in zip(p, row))
        changed = False
        for d, v in enumerate(p):
            if v > self.lmax[c][d]:
                self.log.append(("m", c, d, self.lmax[c][d]))
                self.lsum[c] += v - self.lmax[c][d]
                self.lmax[c][d] = v
                changed = True
        if changed and self.lsum[c] > 4:
            return False
        if self.assigned_nbrs[u] == 4:
            row = tuple(p)
            if any(a > b for a, b in zip(self.lmax[c], row)):
                return False
            self.estab[c] = row
            self.log.append(("e", c))
        return True

    def assign(self, i: int, x: int) -> bool:
        """Try coloring cell i with x; on False the caller must undo."""
        if x == self.num_used + 1:
            self.num_used += 1
            self.log.append(("k",))
        self.color[i] = x
        self.log.append(("c", i))
        for u in self.nbr[i]:
            self.partial[u][x - 1] += 1
            self.assigned_nbrs[u] += 1
            self.log.append(("p", u, x - 1))
            if not self._touch(u):
                return False
        return self._touch(i)

    # -- search --------------------------------------------------------

    def run(
        self,
        forced: tuple[int, ...] = (),
        stop: Optional[int] = None,
        prefixes: Optional[list[tuple[int, ...]]] = None,
    ) -> None:
        self._search(0, forced, stop, prefixes)

    def _search(
        self,
        depth: int,
        forced: tuple[int, ...],
        stop: Optional[int],
        prefixes: Optional[list[tuple[int, ...]]],
    ) -> None:
        if stop is not None and depth == stop:
            assert prefixes is not None
            prefixes.append(tuple(self.color[i] for i in self.order[:depth]))
            return
        if depth == self.N:
            self._leaf()
            return
        spec = self.spec
        if spec.surjective and self.num_used + (self.N - depth) < spec.max_colors:
            return
        if depth < len(forced):
            candidates = (forced[depth],)
        elif depth == 0:
            candidates = (1,)
        else:
            candidates = range(1, min(self.num_used + 1, spec.max_colors) + 1)
        for x in candidates:
            m = self.mark()
            if self.assign(self.order[depth], x):
                self._search(depth + 1, forced, stop, prefixes)
            self.undo_to(m)

    def _leaf(self) -> None:
        spec = self.spec
        k = self.num_used
        if spec.surjective and k != spec.max_colors:
            return
        if spec.quotient is not None:
            S = tuple(tuple(self.estab[c][:k]) for c in range(1, k + 1))
            if not matrices_conjugate(S, spec.quotient):
                return
        key = least_translation(self.color, spec.lattice, range(k))
        if key in self.seen:
            return
        self.seen.add(key)
        lat = spec.lattice
        self.reps.append(
            tuple(
                tuple(self.color[y * lat.w + x] for x in range(lat.w))
                for y in range(lat.h)
            )
        )

    def canonicals(self) -> set[str]:
        lat = self.spec.lattice
        return {canonical(PeriodicColoring(lat, rows)) for rows in self.reps}


def _finish(strings: set[str]) -> tuple[PeriodicColoring, ...]:
    return tuple(parse(s) for s in sorted(strings))


def _run_prefix(args: tuple) -> list[str]:
    w, s, h, max_colors, quotient, surjective, prefix = args
    spec = SearchSpec(Lattice(w=w, s=s, h=h), max_colors, quotient, surjective)
    eng = _Engine(spec)
    eng.run(forced=prefix)
    return sorted(eng.canonicals())


# Answers by D4-representative spec, oldest first; see enumerate_colorings.
_memo: dict[SearchSpec, tuple[PeriodicColoring, ...]] = {}


def _d4_representative(spec: SearchSpec) -> SearchSpec:
    """`spec` on the least lattice of its orbit under the point group D4."""
    lattice = min(spec.lattice.transform(g) for g in d4_elements())
    return replace(spec, lattice=lattice)


def enumerate_colorings(
    spec: SearchSpec, jobs: int = 1
) -> tuple[PeriodicColoring, ...]:
    """All perfect colorings of the torus, in canonical form, sorted.

    With surjective=True exactly max_colors colors must be used,
    otherwise up to max_colors. A quotient constraint accepts a
    coloring when its matrix equals the given one up to a simultaneous
    permutation of the colors. jobs > 1 splits the search tree across
    processes, never more than os.cpu_count(); it changes only the
    speed, never the result.

    Results are memoised per D4 class of the lattice (see the module
    docstring): the search runs on the class's least lattice, and the
    `coloring.CACHE_SIZE` answers computed last are kept, keyed by the
    spec on that lattice. jobs is not part of the key.
    """
    key = _d4_representative(spec)
    found = _memo.get(key)
    if found is None:
        found = _memo[key] = _enumerate(key, jobs)
        if len(_memo) > CACHE_SIZE:
            del _memo[next(iter(_memo))]
    return found


def _enumerate(spec: SearchSpec, jobs: int) -> tuple[PeriodicColoring, ...]:
    """enumerate_colorings on exactly `spec`, uncached."""
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        eng = _Engine(spec)
        eng.run()
        return _finish(eng.canonicals())
    depth = 1
    prefixes: list[tuple[int, ...]] = []
    eng = _Engine(spec)
    while True:
        prefixes = []
        eng.run(stop=depth, prefixes=prefixes)
        if not prefixes:
            return ()
        if len(prefixes) >= 4 * jobs or depth >= spec.lattice.index:
            break
        depth += 1
    lat = spec.lattice
    args = [
        (lat.w, lat.s, lat.h, spec.max_colors, spec.quotient, spec.surjective, p)
        for p in prefixes
    ]
    with multiprocessing.Pool(jobs) as pool:
        chunks = pool.map(_run_prefix, args)
    merged: set[str] = set()
    for chunk in chunks:
        merged.update(chunk)
    return _finish(merged)
