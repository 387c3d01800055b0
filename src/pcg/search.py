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

Translations are broken by one order on a coloring's translates: the
origin color's diagonal quotient entry S(c,c), largest first, then the
first-occurrence key of the row-major colors; neither sees color names.
The search keeps the least translate of each class, testing the order at
three depths. At every step, the diagonal rule prunes once some color's
lower bound on S(c,c) (its established row, else its partial maximum in
column c) passes color 1's upper bound on S(1,1) (its established row,
else 4 minus its other partial maxima); both bounds only tighten with
depth. Once row 0 is colored, the row-0 rule cuts the branch if a shift
(tx, 0) with the origin's color at tx gives row 0 a smaller key: every
lattice holds (w, 0), so the shift maps row 0 onto itself and keeps
S(1,1), and a translate's key starts with its row 0's. At a leaf,
`_leads` tests every translate. The least translate passes both prunes,
so each class keeps one leaf, whatever the engine searched before
(equal keys mean one partition, which the search reaches once).

Each node is one placement step. A read-only pre-check first tests the
new color at each colored neighbor in the one column that changes,
against the established row or else the row-sum bound. It is exact, so
once the step writes (the color goes into every neighbor's profile and
the maxima rise) only the new cell's full check and the diagonal rule
can reject. Undo replays the step for colors and profiles; only raised
maxima and established rows go on an int trail. The tables the step
reads are laid out by depth in the cell order.

Rows are established sooner, and so prune sooner, when each cell's
neighbors are colored soon after it, so the engine colors cells in a
greedy order that keeps completing neighborhoods, on the D4
representative that `enumerate_colorings` picks. Colorings are still
stored row-major, so the order changes only how fast the search runs,
never what it returns.

The eight point maps of the grid (the group D4) carry the perfect
colorings of one torus onto those of its images, and canonical forms do
not see them, so a lattice and its images share one answer.
`enumerate_colorings` searches only the least lattice of each D4 class
and keeps a bounded memo of the answers, keyed by the spec on that
lattice; `_enumerate` is the search itself, uncached.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from operator import gt, itemgetter, le
from typing import Optional

from .coloring import CACHE_SIZE, Lattice, PeriodicColoring, _block, canonical, parse
from .coloring import _d4_images
from .grid import neighbors
from .perfect import QuotientMatrix


# `run` recurses once per cell; this keeps it under the default limit of 1000
MAX_CELLS = 900


@dataclass(frozen=True)
class SearchSpec:
    """What to enumerate: a torus, a color budget, optional quotient."""

    lattice: Lattice
    max_colors: int
    quotient: Optional[QuotientMatrix] = None
    surjective: bool = True

    def __post_init__(self) -> None:
        if self.lattice.index > MAX_CELLS:
            n = self.lattice.index
            raise ValueError(f"the search takes at most {MAX_CELLS} cells, not {n}")
        if not 1 <= self.max_colors <= self.lattice.index:
            raise ValueError("max_colors must be between 1 and the cell count")
        if self.quotient is not None:
            q = tuple(tuple(row) for row in self.quotient)
            if not q or any(len(row) != len(q) for row in q):
                raise ValueError("quotient must be square and not empty")
            if len(q) > self.max_colors:
                raise ValueError("quotient size exceeds max_colors")
            if self.surjective and len(q) != self.max_colors:
                raise ValueError("a surjective search needs max_colors quotient colors")
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


def _first_occurrence(text: str) -> str:
    """`text` with its k-th distinct character, counting from 0 in order
    of first occurrence, written as chr(k)."""
    firsts = dict.fromkeys(map(ord, text))
    return text.translate(dict(zip(firsts, range(len(firsts)))))


def _greedy_order(nbr: list[tuple[int, ...]]) -> list[int]:
    """From cell 0, keep coloring the cell with the most colored neighbors.

    Ties go to the cell that completes the most colored cells'
    neighborhoods, then to the lowest index. Only the frontier, the
    uncolored neighbors of colored cells, can win: the torus is
    connected, so the frontier is empty only once every cell is colored.
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
    frontier = {0}
    while frontier:
        c = min(frontier, key=key)
        frontier.remove(c)
        placed[c] = True
        order.append(c)
        frontier.update(u for u in nbr[c] if not placed[u])
    return order


class _Engine:
    """Backtracking state for one torus; trail-undone, reusable, and no run
    depends on an earlier one. `nodes` counts the colors tried at a cell,
    forced ones included."""

    def __init__(self, spec: SearchSpec):
        self.spec = spec
        lat = spec.lattice
        cells = list(lat.domain())
        self.N = len(cells)
        pos = {v: i for i, v in enumerate(cells)}
        nbr = [tuple(pos[lat.reduce(u)] for u in neighbors(v)) for v in cells]
        # cells in the order the search colors them; `color` stays row-major
        self.order = _greedy_order(nbr)
        at = {c: depth for depth, c in enumerate(self.order)}
        # cell u is complete, all its neighbors colored, from depth done[u] on
        done = [max(at[u] for u in (i, *nb)) for i, nb in enumerate(nbr)]
        self.m = m = spec.max_colors
        self.color = [0] * self.N
        # partial[u*m + d]: neighbors of u colored d+1. Tables by depth t
        # and d, for i = order[t] colored d+1: slots[t*m + d] are the
        # entries it raises; near[t*m + d] holds (u, entry, times u
        # neighbors i, u complete at t) for each distinct colored neighbor
        # u other than i, which gets the full check; closes[t] says whether
        # i is complete at t.
        self.partial = [0] * (self.N * m)
        self.slots = [
            tuple(u * m + d for u in nbr[i]) for i in self.order for d in range(m)
        ]
        self.near = [
            tuple(
                (u, u * m + d, nbr[i].count(u), done[u] == t)
                for u in dict.fromkeys(nbr[i])
                if at[u] < t
            )
            for t, i in enumerate(self.order)
            for d in range(m)
        ]
        self.closes = [done[i] == t for t, i in enumerate(self.order)]
        self.w = lat.w
        self.row0 = max(at[x] for x in range(lat.w))  # row 0 is colored here
        self.estab: list[Optional[tuple[int, ...]]] = [None] * (m + 1)
        self.lmax = [0] * ((m + 1) * m)  # lmax[c*m + d]
        self.lsum = [0] * (m + 1)
        self.num_used = 0
        self.trail: list[int] = []
        self.nodes = 0
        # shifts[i] reads the row-major colors from cell i + 1 as origin;
        # ids[y][x] is the id of the domain cell that node (x, y) shows
        w, h = lat.w, lat.h
        domain = [range(y * w, y * w + w) for y in range(h)]
        ids = _block(domain, lat, 0, 0, 2 * w, 2 * h)
        self.shifts = [
            itemgetter(*(i for row in ids[ty : ty + h] for i in row[tx : tx + w]))
            for tx, ty in cells[1:]
        ]
        self.reps: list[tuple[tuple[int, ...], ...]] = []

    def _diagonal_holds(self, x: int, top: int) -> bool:
        """Can color 1 still have the largest diagonal entry S(c,c)? A
        lower bound on S(c,c) must not pass an upper bound on S(1,1).

        Called after a step that placed color x and grew the trail, with
        color 1's bound as it was before the step. The step can lower
        that bound only by raising one of color 1's off-diagonal maxima,
        and raise a lower bound only for x, through lmax[x*m + x-1];
        establishing a row moves neither, as the row equals the maxima.
        So only x needs a look unless color 1's bound fell.
        """
        m, lmax, estab = self.m, self.lmax, self.estab
        row = estab[1]
        bound = row[0] if row else 4 - self.lsum[1] + lmax[m]
        if bound == top:
            if x == 1:
                return True
            row = estab[x]
            return (row[x - 1] if row else lmax[x * m + x - 1]) <= bound
        return all(
            (estab[c][c - 1] if estab[c] else lmax[c * m + c - 1]) <= bound
            for c in range(2, self.num_used + 1)
        )

    def _row0_leads(self) -> bool:
        """Does no shift (tx, 0) that keeps the origin's color give row 0
        a smaller first-occurrence key? See the module docstring."""
        r = "".join(map(chr, self.color[: self.w]))
        key = _first_occurrence(r)
        return all(
            _first_occurrence(r[tx:] + r[:tx]) >= key
            for tx in range(1, self.w) if r[tx] == r[0]
        )

    def run(
        self,
        forced: tuple[int, ...] = (),
        stop: Optional[int] = None,
        prefixes: Optional[list[tuple[int, ...]]] = None,
        depth: int = 0,
    ) -> None:
        """Search below `depth`, trying only forced[depth] while forced
        lasts; with `stop`, append each branch's colors of order[:stop]
        to `prefixes` instead of going deeper.

        Coloring cell i with x moves a colored neighbor's profile in
        column x-1 only, and every colored cell stays within its color's
        established row or `lmax`, so that column is all a neighbor needs
        checked; cell i gets the full check. A complete cell u of a color
        c with no row establishes it: u's profile sums to 4, and lies
        within `lmax[c]`, whose sum is at most 4, so it equals `lmax[c]`
        and fits every cell of color c.
        """
        if depth == stop:
            assert prefixes is not None
            prefixes.append(tuple(self.color[i] for i in self.order[:depth]))
            return
        spec = self.spec
        if spec.surjective and self.num_used + (self.N - depth) < spec.max_colors:
            return
        if depth == self.N:
            self._leaf()
            return
        if depth < len(forced):
            candidates = (forced[depth],)
        else:
            candidates = range(1, min(self.num_used + 1, spec.max_colors) + 1)
        self.nodes += len(candidates)
        i, m = self.order[depth], self.m
        color, partial, lmax, lsum = self.color, self.partial, self.lmax, self.lsum
        used, trail, estab = self.num_used, self.trail, self.estab
        slots, near_at = self.slots, self.near
        first = estab[1]  # color 1's upper bound on S(1,1), for the diagonal rule
        top = first[0] if first else 4 - lsum[1] + lmax[m]
        for x in candidates:
            d, t = x - 1, depth * m + x - 1
            near = near_at[t]
            # Reads only: x must fit each neighbor's row, established or
            # bounded by its sum; the step raises no entry further.
            for u, k, times, _ in near:
                c = color[u]
                row = estab[c]
                if row is None:
                    if partial[k] + times - lmax[c * m + d] > 4 - lsum[c]:
                        break
                elif partial[k] + times > row[d]:
                    break
            else:
                mark = len(trail)
                color[i] = x
                self.num_used = x if x > used else used
                for k in slots[t]:
                    partial[k] += 1
                for u, k, _, complete in near:
                    c = color[u]
                    if estab[c] is not None:
                        continue
                    j = c * m + d
                    if partial[k] > lmax[j]:
                        trail.append((j << 3) + lmax[j])
                        lsum[c] += partial[k] - lmax[j]
                        lmax[j] = partial[k]
                    if complete:
                        estab[c] = tuple(partial[k - d : k - d + m])
                        trail.append(-c)
                p = partial[i * m : i * m + m]
                row = estab[x]
                if row is not None:
                    fits = all(map(le, p, row))
                else:
                    j = x * m
                    if any(map(gt, p, lmax[j : j + m])):
                        for e, v in enumerate(p, j):
                            if v > lmax[e]:
                                trail.append((e << 3) + lmax[e])
                                lsum[x] += v - lmax[e]
                                lmax[e] = v
                    fits = lsum[x] <= 4
                    if fits and self.closes[depth]:
                        estab[x] = tuple(p)
                        trail.append(-x)
                # the diagonal rule can only newly fail if the trail grew
                if (
                    fits
                    and (len(trail) == mark or self._diagonal_holds(x, top))
                    and (depth != self.row0 or self._row0_leads())
                ):
                    self.run(forced, stop, prefixes, depth + 1)
                # Undo: the color, the partials and num_used are replayed;
                # the trail holds lmax raises as (j << 3) + old and rows as -c.
                color[i] = 0
                for k in slots[t]:
                    partial[k] -= 1
                self.num_used = used
                while len(trail) > mark:
                    e = trail.pop()
                    if e < 0:
                        estab[-e] = None
                    else:
                        lsum[(e >> 3) // m] -= lmax[e >> 3] - (e & 7)
                        lmax[e >> 3] = e & 7

    def _leaf(self) -> None:
        k, q = self.num_used, self.spec.quotient
        S = [self.estab[c][:k] for c in range(1, k + 1)]  # every used color has one
        if q is not None and not matrices_conjugate(S, q):
            return
        text = "".join(map(chr, self.color))
        if self._leads(text, [row[c] for c, row in enumerate(S)]):
            w, rows = self.w, range(0, self.N, self.w)
            self.reps.append(tuple(tuple(self.color[y : y + w]) for y in rows))

    def _leads(self, text: str, diagonal: list[int]) -> bool:
        """Is `text`, with S(c,c) = diagonal[c-1], first among its translates?"""
        top = diagonal[ord(text[0]) - 1]
        key = _first_occurrence(text)
        for c, shift in zip(text[1:], self.shifts):
            d = diagonal[ord(c) - 1]
            if d > top or d == top and _first_occurrence("".join(shift(text))) < key:
                return False
        return True

    def canonicals(self) -> set[str]:
        lat = self.spec.lattice
        return {canonical(PeriodicColoring(lat, rows)) for rows in self.reps}


def _finish(strings: set[str]) -> tuple[PeriodicColoring, ...]:
    return tuple(parse(s) for s in sorted(strings))


# This worker process's engine; see `_start_worker`.
_worker_engine: Optional[_Engine] = None


def _start_worker(spec: SearchSpec) -> None:
    """Pool initializer: each worker builds one engine for all its prefixes."""
    global _worker_engine
    _worker_engine = _Engine(spec)


def _run_prefix(prefix: tuple[int, ...]) -> set[str]:
    """Canonical forms of the colorings under `prefix`; they do not depend
    on the prefixes this worker's engine ran before."""
    eng = _worker_engine
    assert eng is not None
    eng.reps.clear()
    eng.run(forced=prefix)
    return eng.canonicals()


# Answers by D4-representative spec, oldest first; see enumerate_colorings.
_memo: dict[SearchSpec, tuple[PeriodicColoring, ...]] = {}


def _d4_representative(spec: SearchSpec) -> SearchSpec:
    """`spec` on the least lattice of its orbit under the point group D4."""
    lattice = min(_d4_images(spec.lattice))
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
    """enumerate_colorings on exactly `spec`, uncached.

    It may be called off the D4 representative and gives the same answer
    there, but the search may be slower: 8x4 with 4 colors visits
    613,153 nodes, its representative 4x8 only 35,099.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    eng = _Engine(spec)
    if jobs <= 1:
        eng.run()
        return _finish(eng.canonicals())
    depth = 1
    while True:
        prefixes: list[tuple[int, ...]] = []
        eng.run(stop=depth, prefixes=prefixes)
        if not prefixes:
            return ()
        if len(prefixes) >= 4 * jobs or depth >= spec.lattice.index:
            break
        depth += 1
    import multiprocessing  # only the pool path pays for it

    with multiprocessing.Pool(jobs, _start_worker, (spec,)) as pool:
        chunks = pool.map(_run_prefix, prefixes, chunksize=1)
    return _finish(set().union(*chunks))
