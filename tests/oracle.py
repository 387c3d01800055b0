"""Slow references that keep the fast paths honest: a pruning-free
enumerator for the tree search, and full-scan versions of the
translation kernels in pcg.coloring."""

import itertools
from typing import Optional, Sequence, TypeVar

from pcg.coloring import Lattice, PeriodicColoring, canonical, parse
from pcg.perfect import Violation, check
from pcg.search import SearchSpec, matrices_conjugate

_Sym = TypeVar("_Sym")


def brute_oracle(spec: SearchSpec) -> tuple[PeriodicColoring, ...]:
    """The same answer as enumerate_colorings, computed the slow way.

    Every assignment of colors to the cells goes through the real
    perfectness check.
    """
    cells = spec.lattice.index
    if cells > 12 or spec.max_colors > 4:
        raise ValueError("oracle guard: at most 12 cells and 4 colors")
    lat = spec.lattice
    out: set[str] = set()
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
        out.add(canonical(F))
    return tuple(parse(s) for s in sorted(out))


def brute_least_translation(
    flat: Sequence[int], lattice: Lattice, symbols: Sequence[_Sym]
) -> tuple[_Sym, ...]:
    """The same answer as least_translation, with every candidate built in full."""
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
