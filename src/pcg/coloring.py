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
from functools import cached_property, lru_cache
from typing import Iterator, Optional, Sequence

from .grid import Mat2, Vec2, d4_elements, mat_apply

Rows = Sequence[Sequence[int]]

# Entries kept by each of the two memos, which serve the repeats that
# callers make: `_d4_images` (the colorings of a sweep share few lattices)
# and the search's per-D4-class answers (a sweep meets each class under
# several of its lattices). Bounded, so a long sweep does not keep all it
# has seen alive. A coloring's maximal lattice is no memo: the coloring
# keeps it, and it goes when the coloring does.
CACHE_SIZE = 1024
_D4 = d4_elements()  # the point maps, in the order of every `_d4_images` table

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


@dataclass(frozen=True, order=True, slots=True)
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

    @cached_property
    def _maximal(self) -> Lattice:
        """`maximal_periods`, computed on first read and kept in the instance."""
        lat = self.lattice
        return Lattice.from_vectors(*lat.basis, *translations(self.rows, self.rows, lat))

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
    rows: Rows, lattice: Lattice, image_lattice: Lattice, g: Mat2
) -> tuple[tuple[int, ...], ...]:
    """The fundamental domain of v -> F(g^-1 v) on `image_lattice`.

    `rows` is F on `lattice`, any of its period lattices, `image_lattice`
    is any period lattice of the image, and `g` is a point map of `_D4`.
    """
    # g is a signed permutation, so g^-1 is its transpose ((a, c), (b, d))
    (a, b), (c, d) = g
    # the image block shows the box between g^-1 of its corners,
    # transposed if g swaps the axes, reversed where it flips
    w, h = image_lattice.w, image_lattice.h
    ex, ey = a * (w - 1) + c * (h - 1), b * (w - 1) + d * (h - 1)
    block = _block(rows, lattice, min(ex, 0), min(ey, 0), abs(ex) + 1, abs(ey) + 1)
    if a == 0:
        block = tuple(zip(*block))
    return tuple(row[:: a + b] for row in block[:: c + d])


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


def maximal_periods(F: PeriodicColoring) -> Lattice:
    """The lattice of ALL translations fixing F; contains F.lattice.

    Every period is congruent mod F.lattice to a fundamental-domain
    vector, so testing the domain representatives finds them all. F
    computes it on the first call and keeps it.
    """
    return F._maximal


def _least_translation(
    rows: Rows, lattice: Lattice, symbols: Sequence[str]
) -> tuple[str, ...]:
    """Least first-occurrence relabeling of a cell block over torus translations.

    `rows` holds the colors 1..n (n <= len(symbols)) of the fundamental
    domain of `lattice`. Each translation of the torus is read
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
    least = min(_d4_images(maximal_periods(F)), key=_periods_line)
    width = len(str(F.n))
    # Padded ids order like the rendered text ("1 " < "10" < "2 "); ints
    # would not once there are ten colors.
    symbols = tuple(str(i).ljust(width) for i in range(1, F.n + 1))
    images = _images_onto(F, least)
    return _text(least, min(_least_translation(r, least, symbols) for _, r in images))


@lru_cache(maxsize=CACHE_SIZE)
def _d4_images(lat: Lattice) -> tuple[Lattice, ...]:
    """The image of `lat` under each point map of `_D4`, in that order."""
    return tuple(lat.transform(g) for g in _D4)


def _images_onto(
    F: PeriodicColoring, target: Lattice
) -> Iterator[tuple[Mat2, tuple[tuple[int, ...], ...]]]:
    """Each point map that carries F's maximal lattice onto `target`, in
    `_D4` order, with the fundamental domain of F's image there."""
    for g, image in zip(_D4, _d4_images(maximal_periods(F))):
        if image == target:
            yield g, _image(F.rows, F.lattice, target, g)


def equivalent(F: PeriodicColoring, G: PeriodicColoring) -> bool:
    return canonical(F) == canonical(G)
