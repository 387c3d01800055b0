"""A slow, pruning-free enumerator that keeps the tree search honest."""

import itertools

from pcg.coloring import PeriodicColoring, canonical, parse
from pcg.perfect import Violation, check
from pcg.search import SearchSpec, matrices_conjugate


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
