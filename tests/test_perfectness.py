"""The perfectness test, quotient matrices, and their spectral helpers."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from pcg import fixtures
from pcg.coloring import Lattice, parse
from pcg.grid import parity
from pcg.perfect import (
    DetailedBalanceError,
    _even_sublattice,
    NotPerfectError,
    Violation,
    check,
    dk,
    is_bipartite,
    quotient,
    refine_bipartite,
    stationary,
)

from oracle import profile
from test_coloring import colorings


def all_colorings():
    return {fid: fixtures.get(fid) for fid in fixtures.fixture_ids()}


def test_check_generators():
    assert check(fixtures.constant()) == ((4,),)
    assert check(fixtures.checkerboard()) == ((0, 4), (4, 0))
    assert check(fixtures.stripes(2)) == ((2, 2), (2, 2))
    assert check(fixtures.stripes(3)) == ((2, 1, 1), (1, 2, 1), (1, 1, 2))


def test_check_reports_first_violation():
    F = parse("# pcg v1\nperiods (2,0) (0,2)\n1 1\n1 2\n")
    out = check(F)
    assert isinstance(out, Violation)
    assert out.node == (1, 0)
    assert out.color == 1
    assert out.expected == (4, 0)
    assert out.observed == (1, 1, 2, 2)


def test_quotient_raises_on_violation():
    F = parse("# pcg v1\nperiods (2,0) (0,2)\n1 1\n1 2\n")
    with pytest.raises(NotPerfectError) as exc:
        quotient(F)
    assert exc.value.violation.node == (1, 0)
    assert isinstance(check(F), Violation)


def test_profile_is_sorted_neighbor_colors():
    F = fixtures.get("II-base")
    assert profile(F, (1, 0)) == (4, 4, 4, 4)
    assert profile(F, (1, 1)) == (1, 1, 2, 3)


@given(colorings())
@settings(max_examples=80)
def test_rows_of_a_quotient_sum_to_degree(F):
    S = check(F)
    if isinstance(S, Violation):
        return
    assert all(sum(row) == 4 for row in S)


def test_corpus_quotient_rows_sum_to_degree():
    for F in all_colorings().values():
        assert all(sum(row) == 4 for row in quotient(F))


def test_stationary_known_value():
    S = quotient(fixtures.get("II-base"))
    assert stationary(S) == (
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 8),
        Fraction(1, 2),
    )


def test_stationary_equals_density_on_corpus():
    # the color frequencies solve detailed balance, entrywise
    for F in all_colorings().values():
        S = quotient(F)
        P = stationary(S)
        counts = Counter(c for row in F.rows for c in row)
        assert P == tuple(Fraction(counts[i], F.lattice.index) for i in range(1, F.n + 1))
        assert sum(P) == 1
        n = len(S)
        for i in range(n):
            for j in range(n):
                assert S[i][j] * P[i] == S[j][i] * P[j]


def test_stationary_rejects_asymmetric_support():
    with pytest.raises(DetailedBalanceError):
        stationary(((2, 2), (0, 4)))


def test_stationary_rejects_inconsistent_cycle():
    # edges 1-2 and 1-3 force P2 = P3, edge 2-3 then demands 2 P2 = P3
    S = ((0, 2, 2), (1, 1, 2), (1, 1, 2))
    with pytest.raises(DetailedBalanceError):
        stationary(S)


def test_stationary_rejects_disconnected():
    with pytest.raises(DetailedBalanceError):
        stationary(((4, 0), (0, 4)))


def test_dk_known_values():
    S = quotient(fixtures.get("II-base"))
    assert dk(S, 1, 1, 0) == 1
    assert dk(S, 1, 2, 0) == 0
    assert dk(S, 1, 4, 1) == 4
    assert dk(S, 1, 1, 2) == 8
    assert dk(S, 1, 4, 3) == 64
    assert dk(S, 4, 4, 4) == 256
    with pytest.raises(ValueError):
        dk(S, 1, 1, -1)
    n = len(S)
    for b, b2 in ((0, 1), (1, 0), (n + 1, 1), (1, n + 1)):
        with pytest.raises(ValueError):
            dk(S, b, b2, 1)


def test_dk_counts_grid_walks():
    # (S^k)[b][b2] must equal the number of length-k walks by brute force
    F = fixtures.get("c")
    S = quotient(F)

    def walks(v, b2, k):
        if k == 0:
            return 1 if F.color_at(v) == b2 else 0
        from pcg.grid import neighbors

        return sum(walks(u, b2, k - 1) for u in neighbors(v))

    for b in (1, 3, 5):
        v = next(u for u, c in F.cells() if c == b)
        for b2 in (1, 2, 4):
            for k in range(4):
                assert dk(S, b, b2, k) == walks(v, b2, k)


def test_bipartite_detection():
    assert is_bipartite(fixtures.checkerboard())
    assert not is_bipartite(fixtures.constant())
    assert is_bipartite(fixtures.get("II-base"))
    assert is_bipartite(fixtures.get("h"))
    assert not is_bipartite(fixtures.get("3-17-2"))
    assert not is_bipartite(fixtures.stripes(3))


def test_refine_bipartite_fixes_mixed_colors():
    F = fixtures.get("3-17-2")
    R = refine_bipartite(F)
    assert is_bipartite(R)
    assert not isinstance(check(R), Violation)
    assert refine_bipartite(R) == R


def test_even_sublattice_against_small_even_combinations():
    # i*b1 + j*b2 with |i|, |j| <= 2 already holds a basis of the even vectors
    for index in range(1, 65):
        for w in (d for d in range(1, index + 1) if index % d == 0):
            for s in range(w):
                L = Lattice(w, s, index // w)
                (x1, y1), (x2, y2) = L.basis
                combos = [
                    (i * x1 + j * x2, i * y1 + j * y2)
                    for i in range(-2, 3)
                    for j in range(-2, 3)
                ]
                E = _even_sublattice(L)
                assert E == Lattice.from_vectors(*(v for v in combos if not parity(v)))
                odd = any(parity(b) for b in L.basis)
                assert E.index == (2 * L.index if odd else L.index), L


def test_refine_bipartite_may_double_the_lattice():
    F = fixtures.constant()
    R = refine_bipartite(F)
    assert R.n == 2
    assert R.lattice.index == 2
    assert check(R) == ((0, 4), (4, 0))


@given(colorings())
@settings(max_examples=60)
def test_refine_bipartite_always_bipartite_and_refines(F):
    R = refine_bipartite(F)
    assert is_bipartite(R)
    # same partition of the grid or finer: cells of one new color all
    # wore one old color
    back = {}
    for v in R.lattice.domain():
        back.setdefault(R.color_at(v), set()).add(F.color_at(v))
    assert all(len(s) == 1 for s in back.values())
