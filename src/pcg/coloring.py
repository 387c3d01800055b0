"""Periodic colorings of the square grid and their normal forms.

A coloring is stored as a period lattice in Hermite normal form
``[[w,0],[s,h]]`` together with the colors of its w x h fundamental
domain. Colors are integers 1..n; the token each color wore in its
source text is kept alongside so files round-trip, and `parse` numbers
the colors in sorted token order.

The text format (PCG v1):

    # pcg v1
    periods (p1x,p1y) (p2x,p2y)
    <h rows of w whitespace-separated tokens, [A-Za-z0-9_]+>

Row r, column c of the cell block is node (c, r): x grows rightward,
y grows downward, the first row is y=0. Lines starting with ``#``
after the first are comments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .grid import GridAutomorphism, Mat2, Vec2, d4_elements, mat_apply

Rows = Sequence[Sequence[int]]

# Entries kept by each of the three memos, which serve the repeats that
# callers make: `maximal_periods` (a classification asks for one coloring's
# periods from several analyses), `_least_images` (the colorings of a sweep
# share few lattices) and the search's per-D4-class answers (a sweep meets
# each class under several of its lattices). Bounded, so a long sweep does
# not keep every coloring it has seen alive.
CACHE_SIZE = 1024

TOKEN_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_HEADER = "# pcg v1"
_PERIODS_RE = re.compile(
    r"periods\s+\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s+\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)\s*\Z",
    re.ASCII,  # digits as render writes them, not any Unicode digit
)


class PcgParseError(ValueError):
    """Raised when PCG text is malformed."""


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True, order=True)
class Lattice:
    """A rank-2 sublattice of Z^2 in Hermite normal form.

    Basis vectors are (w, 0) and (s, h) with w > 0, h > 0, 0 <= s < w.
    The index in Z^2 is w*h and the fundamental domain is the block
    {(x, y) : 0 <= x < w, 0 <= y < h}.
    """

    w: int
    s: int
    h: int

    def __post_init__(self) -> None:
        if self.w < 1 or self.h < 1 or not 0 <= self.s < self.w:
            raise ValueError(f"not a normal form: w={self.w} s={self.s} h={self.h}")

    @classmethod
    def from_vectors(cls, *vectors: Vec2) -> Lattice:
        """The lattice generated by the given vectors (must span rank 2)."""
        # Carrier (cx, g): a member of the lattice whose y-part is the
        # running gcd of all y-parts seen so far.
        cx, g = 0, 0
        for x, y in vectors:
            g2, u, v = _ext_gcd(g, y)
            cx, g = u * cx + v * x, g2
        if g == 0:
            raise ValueError("degenerate lattice: rank < 2")
        w = 0
        for x, y in vectors:
            k = y // g  # exact: g divides every y
            w = _ext_gcd(w, x - k * cx)[0]
        if w == 0:
            raise ValueError("degenerate lattice: rank < 2")
        return cls(w=w, s=cx % w, h=g)

    @property
    def index(self) -> int:
        return self.w * self.h

    @property
    def basis(self) -> tuple[Vec2, Vec2]:
        return ((self.w, 0), (self.s, self.h))

    def contains(self, v: Vec2) -> bool:
        x, y = v
        if y % self.h:
            return False
        return (x - (y // self.h) * self.s) % self.w == 0

    def reduce(self, v: Vec2) -> Vec2:
        """The fundamental-domain representative of v's coset."""
        x, y = v
        k = y // self.h
        return ((x - k * self.s) % self.w, y - k * self.h)

    def domain(self) -> Iterator[Vec2]:
        for y in range(self.h):
            for x in range(self.w):
                yield (x, y)

    def transform(self, m: Mat2) -> Lattice:
        b1, b2 = self.basis
        return Lattice.from_vectors(mat_apply(m, b1), mat_apply(m, b2))


@dataclass(frozen=True)
class PeriodicColoring:
    """A coloring of Z^2 fixed by every translation in `lattice`.

    `rows[y][x]` is the color of node (x, y) of the fundamental domain;
    colors are exactly 1..n with every color used. `tokens[i-1]` is the
    spelling of color i in text form (defaults to "1".."n").
    """

    lattice: Lattice
    rows: tuple[tuple[int, ...], ...]
    tokens: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        lat = self.lattice
        if len(self.rows) != lat.h or any(len(r) != lat.w for r in self.rows):
            raise ValueError("cell block does not match the lattice dimensions")
        used = set()
        for row in self.rows:
            used.update(row)
        n = max(used)
        if min(used) < 1 or len(used) != n:
            raise ValueError("colors must be exactly 1..n, all used")
        tokens = self.tokens or tuple(str(i) for i in range(1, n + 1))
        if len(tokens) != n or len(set(tokens)) != n:
            raise ValueError(f"need {n} distinct tokens, got {tokens!r}")
        if not all(TOKEN_RE.match(t) for t in tokens):
            raise ValueError("tokens must match [A-Za-z0-9_]+")
        object.__setattr__(self, "tokens", tokens)

    @property
    def n(self) -> int:
        return len(self.tokens)

    def color_at(self, v: Vec2) -> int:
        x, y = v
        lat = self.lattice
        k = y // lat.h
        return self.rows[y - k * lat.h][(x - k * lat.s) % lat.w]

    def cells(self) -> Iterator[tuple[Vec2, int]]:
        """Fundamental-domain nodes with their colors, row-major."""
        for y, row in enumerate(self.rows):
            for x, c in enumerate(row):
                yield (x, y), c

    def translate(self, t: Vec2) -> PeriodicColoring:
        """The coloring v -> F(v - t) (the picture moved by +t)."""
        lat = self.lattice
        rows = _block(self.rows, lat, -t[0], -t[1], lat.w, lat.h)
        return PeriodicColoring(lat, rows, self.tokens)

    def transform(self, aut: GridAutomorphism) -> PeriodicColoring:
        """The coloring v -> F(aut^-1(v)); the lattice follows the point part."""
        lat = self.lattice.transform(aut.point)
        rows = _image(self.rows, self.lattice, lat, aut)
        return PeriodicColoring(lat, rows, self.tokens)

    def relabel(self, perm: dict[int, int]) -> PeriodicColoring:
        """Apply a color permutation; tokens travel with their colors."""
        n = self.n
        if sorted(perm) != list(range(1, n + 1)) or sorted(perm.values()) != list(
            range(1, n + 1)
        ):
            raise ValueError("perm must be a bijection on 1..n")
        rows = tuple(tuple(perm[c] for c in row) for row in self.rows)
        tokens = [""] * n
        for old, new in perm.items():
            tokens[new - 1] = self.tokens[old - 1]
        return PeriodicColoring(self.lattice, rows, tuple(tokens))

    def rebase(self, lat: Lattice) -> PeriodicColoring:
        """Re-express on another lattice whose basis vectors are periods."""
        own = self.lattice
        for bx, by in lat.basis:
            if _block(self.rows, own, bx, by, own.w, own.h) != self.rows:
                raise ValueError(f"({bx},{by}) is not a period of the coloring")
        rows = _block(self.rows, own, 0, 0, lat.w, lat.h)
        return PeriodicColoring(lat, rows, self.tokens)

    def window(self, origin: Vec2, width: int, height: int) -> WindowColoring:
        cells = _block(self.rows, self.lattice, *origin, width, height)
        return WindowColoring(origin, width, height, cells)


@dataclass(frozen=True)
class WindowColoring:
    """A finite rectangle of colors; None marks an unknown cell.

    Used for experiments that break periodicity, where only nodes whose
    whole neighborhood is known can be verified.
    """

    origin: Vec2
    width: int
    height: int
    cells: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError("window must be at least 1x1")
        if len(self.cells) != self.height or any(
            len(r) != self.width for r in self.cells
        ):
            raise ValueError("cell block does not match the window dimensions")
        if any(
            c is not None and not (isinstance(c, int) and c >= 1)
            for row in self.cells
            for c in row
        ):
            raise ValueError("window cells must be colors >= 1 or None")

    def get(self, v: Vec2) -> Optional[int]:
        """Color at v, or None outside the window or on a masked cell."""
        c = v[0] - self.origin[0]
        r = v[1] - self.origin[1]
        if 0 <= c < self.width and 0 <= r < self.height:
            return self.cells[r][c]
        return None

    def nodes(self) -> Iterator[Vec2]:
        for r in range(self.height):
            for c in range(self.width):
                yield (self.origin[0] + c, self.origin[1] + r)


def parse(text: str) -> PeriodicColoring:
    """Read PCG text; colors become 1..n in sorted token order.

    Numerals come first, by value ("2" before "10"), then words in string
    order. Every caller gets this numbering, so a quotient matrix read
    from a file has the same rows however the file lays out its cells.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != _HEADER:
        raise PcgParseError(f"line 1 must be exactly {_HEADER!r}")
    content = [
        (no, ln)
        for no, ln in enumerate(lines[1:], start=2)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not content:
        raise PcgParseError("missing periods line")
    no, ln = content[0]
    m = _PERIODS_RE.match(ln.strip())
    if not m:
        raise PcgParseError(f"line {no}: expected 'periods (a,b) (c,d)'")
    try:
        p1 = (int(m.group(1)), int(m.group(2)))
        p2 = (int(m.group(3)), int(m.group(4)))
    except ValueError:  # more digits than int() converts
        raise PcgParseError(f"line {no}: period entry has too many digits") from None
    try:
        lat = Lattice.from_vectors(p1, p2)
    except ValueError:
        raise PcgParseError(
            f"line {no}: periods {p1} {p2} have zero determinant"
        ) from None
    # every cell takes a token, so this also keeps w and h printable
    if lat.index > len(text):
        raise PcgParseError(f"line {no}: periods span more cells than the text holds")
    row_lines = content[1:]
    if len(row_lines) != lat.h:
        raise PcgParseError(
            f"expected {lat.h} rows for these periods, found {len(row_lines)}"
        )
    cells = []
    for no, ln in row_lines:
        toks = ln.split()
        if len(toks) != lat.w:
            raise PcgParseError(f"line {no}: expected {lat.w} tokens, found {len(toks)}")
        for t in toks:
            if not TOKEN_RE.match(t):
                raise PcgParseError(f"line {no}: bad token {t!r}")
        cells.append(toks)
    tokens = tuple(sorted({t for row in cells for t in row}, key=_token_key))
    ids = {t: i for i, t in enumerate(tokens, 1)}
    rows = tuple(tuple(ids[t] for t in row) for row in cells)
    return PeriodicColoring(lat, rows, tokens)


def _token_key(t: str) -> tuple:
    """Numerals first, by value, then words; no int(), which refuses a
    numeral of more than a few thousand digits."""
    if t.isdigit():
        digits = t.lstrip("0")
        return (0, len(digits), digits, t)
    return (1, t)


def render(F: PeriodicColoring) -> str:
    """PCG text for F, its tokens padded to one width."""
    toks = F.tokens
    width = max(len(t) for t in toks)
    return _text(F.lattice, [toks[c - 1].ljust(width) for row in F.rows for c in row])


def _periods_line(lat: Lattice) -> str:
    return f"periods ({lat.w},0) ({lat.s},{lat.h})"


def _text(lat: Lattice, cells: Sequence[str]) -> str:
    """PCG text for a row-major block of equal-width tokens on `lat`."""
    w = lat.w
    lines = [_HEADER, _periods_line(lat)]
    lines += (" ".join(cells[i : i + w]).rstrip() for i in range(0, len(cells), w))
    return "\n".join(lines) + "\n"


def _block(
    rows: Rows, lattice: Lattice, x0: int, y0: int, width: int, height: int
) -> tuple[tuple[int, ...], ...]:
    """Colors of the nodes (x0 + c, y0 + r), 0 <= c < width, 0 <= r < height.

    `rows` is the fundamental domain of `lattice`. Node (x, y) shows domain
    node ((x - k*s) mod w, y - k*h) with k = y // h, one shear s for each
    basis vector (s, h) crossed, so each row returned is one slice of a
    repeated domain row. Rows come back as tuples, also from list rows.
    """
    w, s, h = lattice.w, lattice.s, lattice.h
    # copies enough for a slice of `width` starting anywhere in the first
    long = [tuple(row) * ((width - 2) // w + 2) for row in rows]
    cuts = ((y % h, (x0 - y // h * s) % w) for y in range(y0, y0 + height))
    return tuple(long[r][cut : cut + width] for r, cut in cuts)


def _image(
    rows: Rows, lattice: Lattice, image_lattice: Lattice, aut: GridAutomorphism
) -> tuple[tuple[int, ...], ...]:
    """The fundamental domain of v -> F(aut^-1(v)) on `image_lattice`.

    `rows` is the fundamental domain of F on `lattice`, and `image_lattice`
    is ``lattice.transform(aut.point)``.
    """
    inv = aut.inverse()
    # the image block shows the box between the images of its corners,
    # transposed if the point part swaps the axes, reversed where it flips
    w, h = image_lattice.w, image_lattice.h
    corners = inv.apply((0, 0)), inv.apply((w - 1, h - 1))
    (x0, x1), (y0, y1) = (sorted(p) for p in zip(*corners))
    block = _block(rows, lattice, x0, y0, x1 - x0 + 1, y1 - y0 + 1)
    (a, b), (c, d) = inv.point
    if a == 0:
        block = tuple(zip(*block))
    return tuple(row[:: a + c] for row in block[:: b + d])


def translations(src: Rows, dst: Rows, lattice: Lattice) -> Iterator[Vec2]:
    """The domain shifts t with src(v - t) = dst(v) everywhere, row-major.

    `src` and `dst` are fundamental domains of `lattice`, `dst` in tuple
    rows. A shift is dropped at the first row of the moved `src` that
    differs from the same row of `dst`.
    """
    w, h = lattice.w, lattice.h
    # row h - ty + y, columns w - tx onward, is row y of src moved by (tx, ty)
    around = _block(src, lattice, 0, -h, 2 * w, 2 * h)
    for ty in range(h):
        for tx in range(w):
            for y, row in enumerate(dst):
                if around[h - ty + y][w - tx : 2 * w - tx] != row:
                    break
            else:
                yield (tx, ty)


@lru_cache(maxsize=CACHE_SIZE)
def maximal_periods(F: PeriodicColoring) -> Lattice:
    """The lattice of ALL translations fixing F; contains F.lattice.

    Every period is congruent mod F.lattice to a fundamental-domain
    vector, so testing the domain representatives finds them all.
    """
    lat = F.lattice
    return Lattice.from_vectors(*lat.basis, *translations(F.rows, F.rows, lat))


def _least_translation(
    flat: Sequence[int], lattice: Lattice, symbols: Sequence[str]
) -> tuple[str, ...]:
    """Least first-occurrence relabeling of a cell block over torus translations.

    `flat` holds the colors 1..n (n <= len(symbols)) of the fundamental
    domain of `lattice`, row-major. Each translation of the torus is read
    row-major with its k-th new color (counting from 0) written as
    ``symbols[k]``; the least of the resulting tuples is returned.
    `symbols` are the padded ids of `canonical`, so symbols[0] < symbols[1].

    A candidate's first row starts with ``symbols[0]`` over the run of its
    first color, then ``symbols[1]``, so only the candidates whose leading
    run is the longest (capped at w) can be least; the others are skipped
    before any cell is relabeled. Candidates are built a row at a time. A
    candidate is dropped at the first row that is greater than the same
    row of the least one so far; once a row is smaller, the candidate is
    the new least and is finished without further comparisons. Every
    candidate has the same length, so this is the lexicographic minimum
    over the full tuples.
    """
    w, h = lattice.w, lattice.h
    rows = [flat[i : i + w] for i in range(0, h * w, w)]
    around = _block(rows, lattice, 0, -h, 2 * w, 2 * h)
    # the first row of candidate (tx, ty) is around[h - ty] from column w - tx;
    # one backward pass gives the run of equal colors from every column
    starts: list[tuple[int, int]] = []
    longest = 0
    for ty in range(h):
        row = around[h - ty]
        runs = [1] * (2 * w)
        for x in range(2 * w - 2, 0, -1):
            if row[x] == row[x + 1]:
                runs[x] = min(runs[x + 1] + 1, w)
        for tx in range(w):
            run = runs[w - tx]
            if run > longest:
                longest, starts = run, []
            if run == longest:
                starts.append((tx, ty))
    unset: list[Optional[str]] = [None] * (len(symbols) + 1)
    best: Optional[list[tuple[str, ...]]] = None
    for tx, ty in starts:
        perm = unset[:]
        fresh = iter(symbols)
        cand: list[tuple[str, ...]] = []
        smaller = best is None
        for y in range(h):
            out = []
            for c in around[h - ty + y][w - tx : 2 * w - tx]:
                p = perm[c]
                if p is None:
                    perm[c] = p = next(fresh)
                out.append(p)
            row = tuple(out)
            if not smaller:
                least = best[y]
                if row > least:
                    break
                smaller = row < least
            cand.append(row)
        else:
            if smaller:
                best = cand
    assert best is not None
    return tuple(c for row in best for c in row)


def canonical(F: PeriodicColoring) -> str:
    """Least PCG rendering of F over point transforms, translations,
    and first-occurrence relabeling, on the maximal period lattice.

    Two colorings are related by a grid automorphism plus a color
    permutation exactly when their canonical strings are equal.
    ``test_canonical_matches_definition`` in tests/test_coloring.py
    checks this against the definition: the least rendering, color ids as
    tokens, of the first-occurrence relabeled translates of base's D4 images.

    No periods line is a proper prefix of another, so images on different
    lattices are ordered by that line alone: only the images whose periods
    text is least are read and scanned, and among them the least
    `_least_translation` tuple wins.
    """
    lat = maximal_periods(F)
    base = F.rebase(lat)
    least, auts = _least_images(lat)
    width = len(str(base.n))
    # Padded ids order like the rendered text ("1 " < "10" < "2 "); ints
    # would not once there are ten colors.
    symbols = tuple(str(i).ljust(width) for i in range(1, base.n + 1))
    keys = []
    for aut in auts:
        rows = _image(base.rows, lat, least, aut)
        flat = [c for row in rows for c in row]
        keys.append(_least_translation(flat, least, symbols))
    return _text(least, min(keys))


@lru_cache(maxsize=CACHE_SIZE)
def _least_images(lat: Lattice) -> tuple[Lattice, tuple[GridAutomorphism, ...]]:
    """The D4 image of `lat` with the least periods line, and the point
    maps that carry `lat` onto it."""
    images = [(g, lat.transform(g)) for g in d4_elements()]
    least = min((L for _, L in images), key=_periods_line)
    return least, tuple(GridAutomorphism(g, (0, 0)) for g, L in images if L == least)


def equivalent(F: PeriodicColoring, G: PeriodicColoring) -> bool:
    return canonical(F) == canonical(G)
