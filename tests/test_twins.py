"""Twin detection, twin merging, coverings, and the covering dichotomy."""

import itertools

import pytest
from hypothesis import given, settings

from pcg import fixtures
from pcg.coloring import parse
from pcg.perfect import DetailedBalanceError, Violation, check, quotient, stationary
from pcg.report import classify
from pcg.twins import (
    NEAR_OFFSETS,
    NearDistinctnessPreconditionError,
    TwinMergeError,
    covering_target,
    equal_rows,
    merge,
    near_distinctness,
    twin_pairs,
)

from test_coloring import colorings


def test_twin_pairs_of_case_base():
    S = quotient(fixtures.get("II-base"))
    assert twin_pairs(S) == ((1, 2), (1, 3), (2, 3))
    assert equal_rows(S) == ((1, 2), (1, 3), (2, 3))


def test_twins_need_not_have_equal_rows():
    # twin colors that touch each other: rows differ inside {1,2} only
    S = quotient(fixtures.get("3-17-2"))
    assert twin_pairs(S) == ((1, 2),)
    assert equal_rows(S) == ()


def test_equal_rows_implies_twins():
    for fid in fixtures.fixture_ids():
        S = quotient(fixtures.get(fid))
        tw = set(twin_pairs(S))
        assert all(p in tw for p in equal_rows(S))


def test_corpus_twin_metadata():
    for fid in fixtures.fixture_ids():
        fx = fixtures.info(fid)
        assert twin_pairs(quotient(fixtures.get(fid))) == fx.twins, fid


def test_merge_case_base():
    F = fixtures.get("II-base")
    M = merge(F, 1, 2)
    assert M.n == 3
    assert M.tokens == ("1", "3", "4")
    assert check(M) == ((0, 0, 4), (0, 0, 4), (3, 1, 0))


def test_merge_is_symmetric_in_the_pair():
    F = fixtures.get("II-base")
    assert merge(F, 1, 2) == merge(F, 2, 1)


def test_merge_rejects_non_twins():
    F = fixtures.get("II-base")
    with pytest.raises(TwinMergeError) as exc:
        merge(F, 1, 4)
    assert exc.value.column == 2
    with pytest.raises(ValueError):
        merge(F, 1, 1)
    with pytest.raises(ValueError):
        merge(F, 0, 5)


def test_merge_succeeds_exactly_on_twin_pairs():
    # twin_pairs and merge's TwinMergeError read one predicate
    for fid in fixtures.fixture_ids():
        F = fixtures.get(fid)
        S = quotient(F)
        twins = set(twin_pairs(S))
        for a in range(1, F.n + 1):
            for b in range(1, F.n + 1):
                if a == b:
                    continue
                pair = (min(a, b), max(a, b))
                try:
                    merge(F, a, b)
                except TwinMergeError as e:
                    assert pair not in twins, (fid, a, b)
                    differ = [
                        j
                        for j in range(1, F.n + 1)
                        if j not in (a, b) and S[a - 1][j - 1] != S[b - 1][j - 1]
                    ]
                    assert e.column == differ[0], (fid, a, b)
                else:
                    assert pair in twins, (fid, a, b)


def test_merging_twins_preserves_perfectness_corpus_wide():
    for fid in fixtures.fixture_ids():
        F = fixtures.get(fid)
        for a, b in fixtures.info(fid).twins:
            M = merge(F, a, b)
            assert not isinstance(check(M), Violation), (fid, a, b)
            assert M.n == F.n - 1


def test_covering_failure_cases():
    assert covering_target(((0, 1), (1, 0))) == ((0, 1), (1, 0))
    assert covering_target(((2, 2), (2, 2))) is None  # diagonal entry
    assert covering_target(((0, 4), (4, 0))) is None  # entry > 1
    assert covering_target(((0, 1, 0), (0, 0, 1), (1, 0, 0))) is None  # asymmetric


def test_stationary_and_covering_failure_name_one_asymmetric_entry():
    # every 0/1 matrix up to 3x3 with a zero diagonal and asymmetric support
    checked = 0
    for n in (1, 2, 3):
        off = [(i, j) for i in range(n) for j in range(n) if i != j]
        for bits in itertools.product((0, 1), repeat=len(off)):
            S = [[0] * n for _ in range(n)]
            for (i, j), bit in zip(off, bits):
                S[i][j] = bit
            S = tuple(map(tuple, S))
            first = next(((i, j) for i, j in off if S[i][j] != S[j][i]), None)
            if first is None:
                continue
            want = f"support is not symmetric at ({first[0] + 1},{first[1] + 1})"
            with pytest.raises(DetailedBalanceError) as exc:
                stationary(S)
            assert str(exc.value) == want, S
            assert covering_target(S) is None, S
            checked += 1
    assert checked == 2 + 56  # of the 4 matrices with n = 2 and the 64 with n = 3


def test_covering_target_of_fixture_h():
    S = quotient(fixtures.get("h"))
    T = covering_target(S)
    assert T is not None
    assert len(T) == 8
    assert all(sum(row) == 4 for row in T)
    assert covering_target(quotient(fixtures.get("b"))) is None


def test_corpus_covering_metadata():
    for fid in fixtures.fixture_ids():
        S = quotient(fixtures.get(fid))
        assert (covering_target(S) is not None) == fixtures.info(fid).covering, fid


def test_near_distinctness_on_labeled_coverings():
    assert near_distinctness(fixtures.get("L1-a")) == (True, None)
    assert near_distinctness(fixtures.get("L1-b")) == (True, None)


def test_near_distinctness_preconditions():
    # not a covering
    with pytest.raises(NearDistinctnessPreconditionError):
        near_distinctness(fixtures.get("II-base"))
    # covering, but with equal rows
    with pytest.raises(NearDistinctnessPreconditionError):
        near_distinctness(fixtures.get("h"))


def test_near_offsets_is_the_sixteen_shift_set():
    assert len(set(NEAR_OFFSETS)) == 16
    for dx, dy in NEAR_OFFSETS:
        assert (dx, dy) != (0, 0)
        assert {abs(dx), abs(dy)} in ({0, 1}, {1}, {0, 2}, {2})


def test_dichotomy_audit_on_twinless_covering():
    rep = classify(fixtures.get("L1-a"))
    assert rep.covering
    assert rep.twin_pairs == ()
    assert rep.orbit
    assert rep.dichotomy


def test_dichotomy_audit_on_twin_covering():
    rep = classify(fixtures.get("h"))
    assert rep.covering
    assert rep.twin_pairs
    assert rep.dichotomy


def test_dichotomy_holds_by_twins_alone():
    """A 6-color covering of index 12 that is not orbit: only its twin
    pairs carry the dichotomy, which fails once they are taken away."""
    F = parse("# pcg v1\nperiods (6,0) (2,2)\n1 2 3 1 2 4\n3 5 6 4 5 6\n")
    rep = classify(F)
    assert rep.covering is True and rep.orbit is False
    assert rep.twin_pairs == ((1, 5), (2, 6), (3, 4))
    assert rep.dichotomy is True
    rep.twin_pairs = ()
    assert rep.dichotomy is False


def test_dichotomy_audit_vacuous_for_non_coverings():
    rep = classify(fixtures.get("3-17-2"))
    assert rep.covering is False
    assert rep.orbit is False
    assert rep.dichotomy is True


@given(colorings())
@settings(max_examples=60)
def test_merge_any_twin_pair_of_random_perfect_colorings(F):
    S = check(F)
    if isinstance(S, Violation):
        return
    for a, b in twin_pairs(S):
        M = merge(F, a, b)
        assert not isinstance(check(M), Violation)
