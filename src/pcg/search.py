"""Exhaustive search for perfect colorings on a fixed torus.

`enumerate_colorings` walks the cells of the fundamental domain in a
fixed order assigning colors, maintaining for every color the
entrywise maximum of the partial neighbor profiles seen so far.  Every
node of a color ends with the color's row, which sums to 4, so the
partial maxima must stay dominated by SOME row summing to 4, which
gives the prune ``sum of maxima <= 4``.  A color whose maxima sum to 4
is full: no entry can rise, so the maxima are its row, and every node
of the color must fit it.  Symmetry is broken by forcing the first cell
to color 1 and introducing new colors in increasing order; full
deduplication happens afterwards through canonical forms, so point
symmetries need no special treatment during search.

Translations are broken by one order on a coloring's translates: the
origin color's diagonal quotient entry S(c,c), largest first, then the
first-occurrence key of the row-major colors; neither sees color names.
The search keeps the least translate of each class, testing the order at
three depths. At every step, the diagonal rule prunes once some color's
lower bound on S(c,c) (its partial maximum in column c) passes color
1's upper bound on S(1,1) (4 minus its other partial maxima); both
bounds only tighten with depth, and are the row entries once the color
is full. Once row 0 is colored, the row-0 rule cuts the branch if a shift
(tx, 0) with the origin's color at tx gives row 0 a smaller key: every
lattice holds (w, 0), so the shift maps row 0 onto itself and keeps
S(1,1), and a translate's key starts with its row 0's. The 180 degree
turn also maps every lattice onto itself, and row 0 onto itself
reversed with the origin fixed, so the rule tries every rotation of the
reversed row 0 that starts with the origin's color too. At a leaf,
`_leads` tests every translate. The least translate passes the diagonal
rule, so each class keeps at most one leaf, whatever the engine searched
before (equal keys mean one partition, which the search reaches once).
Of a class and its turn, the least member in this order passes the
row-0 rule, since each rotation it meets is the row 0 of a member with
the origin's color, and leads its own class, so one of the two is kept;
canonical forms merge them if both are.

A surjective search also cuts a branch that still lacks a color once
every used color is full, its partial maxima summing to 4. The cell
order takes each cell from the frontier, so every later cell has a
colored neighbor, whose full color has 0 in the missing color's column:
no later cell can bring in a new color.

Each node is one placement step. A read-only pre-check first tests the
new color at each colored neighbor in the one column that changes,
against the row-sum bound, which is the row once the color is full. It
is exact, so once the step writes (the color goes into every neighbor's
profile and the maxima rise) only the new cell's full check and the
diagonal rule can reject. Undo replays the step for colors and
profiles; only raised maxima go on an int trail. The tables the step
reads are laid out by depth in the cell order.

Rows fill sooner, and so prune sooner, when each cell's neighbors are
colored soon after it, so the engine colors cells in a greedy order that
keeps completing neighborhoods, on the D4 representative that
`enumerate_colorings` picks. Colorings are still stored row-major, so
the order changes only how fast the search runs, never what it returns.

With `jobs` > 1, `_enumerate` splits the tree into 4 * jobs parts. Part
p numbers the subtrees it enters at one split depth, in search order,
and searches those numbered p modulo the part count. Above the split all
parts walk one tree in one order, and undo restores the state after each
subtree, so each subtree falls to one part; the cuts and the leaf rule
keep no state, so the parts keep the serial run's leaves. A serial run
is one part of one, and so is a search whose split depth reaches the
cell count, where every part would walk the whole tree.

The parts run in `jobs` processes, `jobs` capped at the CPUs this
process may run on: the caller and `jobs - 1` children forked from it
after it builds one engine, so every process inherits that engine. Each
reads part numbers off one pipe until it is empty, runs each part on the
engine, whose undo restores its state after every run, and keeps the
leaves of all its parts. The children send their canonical forms back
with `marshal` and leave through `os._exit`; `_enumerate` reaps them
before it returns or raises, so no process outlives a search. Where
there is no `os.fork` (Windows), `jobs` is 1.

The eight point maps of the grid (the group D4) carry the perfect
colorings of one torus onto those of its images, and canonical forms do
not see them, so a lattice and its images share one answer.
`enumerate_colorings` searches only the least lattice of each D4 class
and keeps a bounded memo of the answers, keyed by the spec on that
lattice; `_enumerate` is the search itself, uncached.
"""

from __future__ import annotations

import marshal
import os
from dataclasses import dataclass, replace
from operator import gt, itemgetter
from typing import BinaryIO, Optional

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


def _split_depth(cells: int, colors: int, parts: int) -> int:
    """The least depth with 4 * parts color strings that bring in colors
    1..colors in order (by[k] of them use k colors), at most `cells`."""
    depth, by = 1, [0, 1] + [0] * (colors - 1)
    while depth < cells and sum(by) < 4 * parts:
        depth += 1
        for k in range(colors, 0, -1):
            by[k] = k * by[k] + by[k - 1]
    return depth


class _Engine:
    """Backtracking state for part `part` of `parts` of one torus's tree;
    trail-undone. An engine runs once per part: set `part`, reset `seen`
    and run again, and `reps` collects the leaves over the parts one
    process runs. `nodes` counts the colors tried at a cell."""

    def __init__(self, spec: SearchSpec, part: int = 0, parts: int = 1):
        self.spec = spec
        lat = spec.lattice
        cells = list(lat.domain())
        self.N = len(cells)
        self.m = m = spec.max_colors
        self.part, self.parts, self.seen = part, parts, 0
        self.split = _split_depth(self.N, m, parts)
        pos = {v: i for i, v in enumerate(cells)}
        nbr = [tuple(pos[lat.reduce(u)] for u in neighbors(v)) for v in cells]
        # cells in the order the search colors them; `color` stays row-major
        self.order = _greedy_order(nbr)
        at = {c: depth for depth, c in enumerate(self.order)}
        self.color = [0] * self.N
        # partial[u*m + d]: neighbors of u colored d+1. Tables by depth t
        # and d, for i = order[t] colored d+1: slots[t*m + d] are the
        # entries it raises; near[t*m + d] holds (u, entry, times u
        # neighbors i) for each distinct colored neighbor u other than i,
        # which gets the full check.
        self.partial = [0] * (self.N * m)
        self.slots = [
            tuple(u * m + d for u in nbr[i]) for i in self.order for d in range(m)
        ]
        self.near = [
            tuple(
                (u, u * m + d, nbr[i].count(u))
                for u in dict.fromkeys(nbr[i])
                if at[u] < t
            )
            for t, i in enumerate(self.order)
            for d in range(m)
        ]
        self.w = lat.w
        self.row0 = max(at[x] for x in range(lat.w))  # row 0 is colored here
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
        and raise a lower bound only for x, through lmax[x*m + x-1].
        So only x needs a look unless color 1's bound fell. A full color
        keeps its maxima, which are its row, so for it the bounds are
        the row entries; a step that grows no trail moves no bound.
        """
        m, lmax = self.m, self.lmax
        bound = 4 - self.lsum[1] + lmax[m]
        if bound == top:
            return x == 1 or lmax[x * m + x - 1] <= bound
        return all(lmax[c * m + c - 1] <= bound for c in range(2, self.num_used + 1))

    def _row0_leads(self) -> bool:
        """Does no rotation of row 0, or of row 0 reversed, that starts
        with the origin's color have a smaller first-occurrence key? See
        the module docstring."""
        r = "".join(map(chr, self.color[: self.w]))
        key = _first_occurrence(r)
        return all(
            _first_occurrence(s[tx:] + s[:tx]) >= key
            for s in (r, r[::-1])
            for tx in range(self.w)
            if s[tx] == r[0]
        )

    def run(self, depth: int = 0) -> None:
        """Search below `depth`, entering only this part's split subtrees.

        Coloring cell i with x moves a colored neighbor's profile in
        column x-1 only, and every colored cell's profile stays within
        its color's `lmax`, whose sum `lsum` stays at most 4, so that
        column is all a neighbor needs checked; cell i gets the full
        check. Once `lsum[c]` is 4 no entry of `lmax[c]` can rise, so the
        sum test is the row test `partial + times <= lmax`, and cell i's
        "raise, then `lsum <= 4`" is `p <= lmax`: a complete cell's
        profile sums to 4 within maxima summing to at most 4, so the
        maxima are the row every cell of the color must fit.
        """
        if depth == self.split:
            self.seen += 1
            if self.seen % self.parts != self.part:
                return
        spec = self.spec
        if spec.surjective and self.num_used + (self.N - depth) < spec.max_colors:
            return
        if depth == self.N:
            self._leaf()
            return
        candidates = range(1, min(self.num_used + 1, spec.max_colors) + 1)
        self.nodes += len(candidates)
        i, m = self.order[depth], self.m
        color, partial, lmax, lsum = self.color, self.partial, self.lmax, self.lsum
        used, trail = self.num_used, self.trail
        slots, near_at = self.slots, self.near
        top = 4 - lsum[1] + lmax[m]  # color 1's upper bound on S(1,1)
        for x in candidates:
            d, t = x - 1, depth * m + x - 1
            near = near_at[t]
            # Reads only: a neighbor's entry in column d may pass its
            # color's maximum by at most what the row sum leaves free,
            # nothing once the color is full.
            for u, k, times in near:
                c = color[u]
                if partial[k] + times - lmax[c * m + d] > 4 - lsum[c]:
                    break
            else:
                mark = len(trail)
                color[i] = x
                self.num_used = x if x > used else used
                for k in slots[t]:
                    partial[k] += 1
                for u, k, _ in near:
                    c = color[u]
                    j = c * m + d
                    if partial[k] > lmax[j]:
                        trail.append((j << 3) + lmax[j])
                        lsum[c] += partial[k] - lmax[j]
                        lmax[j] = partial[k]
                p = partial[i * m : i * m + m]
                j = x * m
                if any(map(gt, p, lmax[j : j + m])):
                    for e, v in enumerate(p, j):
                        if v > lmax[e]:
                            trail.append((e << 3) + lmax[e])
                            lsum[x] += v - lmax[e]
                            lmax[e] = v
                fits = lsum[x] <= 4
                # the diagonal rule and the surjectivity cut can only newly
                # fail if the trail grew
                if (
                    fits
                    and (
                        len(trail) == mark
                        or self._diagonal_holds(x, top)
                        # every used color full (the other lsum entries are 0)
                        and not (spec.surjective and self.num_used < m
                                 and sum(lsum) == 4 * self.num_used)
                    )
                    and (depth != self.row0 or self._row0_leads())
                ):
                    self.run(depth + 1)
                # Undo: the color, the partials and num_used are replayed;
                # the trail holds lmax raises as (j << 3) + old.
                color[i] = 0
                for k in slots[t]:
                    partial[k] -= 1
                self.num_used = used
                while len(trail) > mark:
                    e = trail.pop()
                    lsum[(e >> 3) // m] -= lmax[e >> 3] - (e & 7)
                    lmax[e >> 3] = e & 7

    def _leaf(self) -> None:
        k, m, q = self.num_used, self.m, self.spec.quotient
        # every color is full, so its maxima are its row
        S = [tuple(self.lmax[c * m : c * m + k]) for c in range(1, k + 1)]
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


def _search(spec: SearchSpec, part: int = 0, parts: int = 1) -> set[str]:
    """Canonical forms of the colorings in part `part` of `parts` of the
    tree; see the module docstring."""
    eng = _Engine(spec, part, parts)
    eng.run()
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
    processes forked for this search, never more than the CPUs this
    process may run on; it changes only the speed, never the result
    (see the module docstring).

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
    327,453 nodes, its representative 4x8 only 24,393.
    """
    jobs = min(jobs, _cpus()) if hasattr(os, "fork") else 1
    parts = 4 * jobs
    cells = spec.lattice.index
    # a split at the cell count gives every part the whole tree to walk
    if jobs <= 1 or _split_depth(cells, spec.max_colors, parts) == cells:
        return _finish(_search(spec))
    eng = _Engine(spec, 0, parts)
    queue = _part_queue(parts)
    children: list[tuple[int, BinaryIO]] = []  # pid, read end of its result pipe
    try:
        for _ in range(jobs - 1):
            children.append(_fork(eng, queue))
        found = _run_parts(eng, queue)
        for _, pipe in children:
            out = pipe.read()  # a child writes once, then exits
            ok, got = marshal.loads(out) if out else (False, "exited without a result")
            if not ok:
                raise RuntimeError(f"a --jobs worker failed: {got}")
            found |= got
    finally:
        os.close(queue)
        # a child not yet reaped keeps its pid, so the kill reaches no other
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL; importing signal would take 1 ms
            os.waitpid(pid, 0)
    return _finish(found)


def _part_queue(parts: int) -> int:
    """The read end of a pipe that holds 0..parts-1, 2 bytes each."""
    r, w = os.pipe()
    os.write(w, b"".join(p.to_bytes(2, "little") for p in range(parts)))
    os.close(w)
    return r


def _run_parts(eng: _Engine, queue: int) -> set[str]:
    """Run `eng` on each part whose number this process reads off
    `queue`, until it is empty; the canonical forms of the leaves. Every
    read takes 2 bytes, so each takes one whole number."""
    while record := os.read(queue, 2):
        eng.part, eng.seen = int.from_bytes(record, "little"), 0
        eng.run()
    return eng.canonicals()


def _fork(eng: _Engine, queue: int) -> tuple[int, BinaryIO]:
    """Fork a child that runs `_run_parts` and writes (True, its result)
    or (False, error text) with marshal to a pipe; the child's pid and
    the pipe's read end. The child leaves only through os._exit, so it
    never returns into the caller's code nor flushes its buffers."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    try:
        try:
            out = (True, _run_parts(eng, queue))
        except BaseException as e:
            out = (False, f"{type(e).__name__}: {e}")
        with open(w, "wb") as f:
            f.write(marshal.dumps(out))
    finally:
        os._exit(0)


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
