"""Acceptance gate: thirteen criteria, one printed pass/fail line each.

Every test prints its verdict through capsys.disabled() so the lines
show up even under -q, then asserts. Criteria quantifying over "every
enumerated covering" draw from the session-scoped small_sweep pool.
"""

import itertools
from collections import Counter
from fractions import Fraction

from pcg import fixtures
from pcg.coloring import Lattice, maximal_periods
from pcg.diagonals import diagonal_classes, find_special_diagonals, shift_residue_class
from pcg.grid import neighbors
from pcg.orbits import orbit_report
from pcg.perfect import Violation, check, dk, refine_bipartite, stationary
from pcg.report import classify
from pcg.search import SearchSpec, _enumerate, matrices_conjugate
from pcg.twins import covering_target, equal_rows, merge, near_distinctness, twin_pairs

from oracle import brute_oracle, lattice_contains

ALL_IDS = fixtures.fixture_ids()


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def test_a01_base_case_quotient_exact(capsys):
    S = check(fixtures.get("II-base"))
    want = ((0, 0, 0, 4), (0, 0, 0, 4), (0, 0, 0, 4), (2, 1, 1, 0))
    _report(capsys, "A1", S == want, "4-color base case has the exact quotient matrix")


def test_a02_corpus_quotients_match_records(capsys):
    bad = []
    for fid in ALL_IDS:
        S = check(fixtures.get(fid))
        if isinstance(S, Violation) or S != fixtures.info(fid).quotient:
            bad.append(fid)
    _report(
        capsys,
        "A2",
        not bad,
        f"all {len(ALL_IDS)} corpus colorings perfect with recorded quotients"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_a03_maximal_periods_of_the_l1_pair(capsys):
    a = maximal_periods(fixtures.get("L1-a"))
    b = maximal_periods(fixtures.get("L1-b"))
    ok = a == Lattice(4, 0, 4) and b == Lattice(4, 0, 8)
    _report(capsys, "A3", ok, f"maximal periods are (4,0),(0,4) and (4,0),(0,8); got {a}, {b}")


def test_a04_orbit_split_pair_with_equal_quotients(capsys):
    F1 = fixtures.get("8-150-1")
    F2 = fixtures.get("8-150-2")
    S1, S2 = check(F1), check(F2)
    ok = (
        not orbit_report(F1).is_orbit
        and orbit_report(F2).is_orbit
        and S1 == S2
        and all(x in (0, 1) for row in S1 for x in row)
    )
    _report(capsys, "A4", ok, "8-color pair shares a {0,1} quotient; only the second is orbit")


def test_a05_three_color_pair_no_twins_after_refinement(capsys):
    F2 = fixtures.get("3-17-2")
    F3 = fixtures.get("3-17-3")
    S2, S3 = check(F2), check(F3)
    ok = S2 == S3 and equal_rows(S2) == ()
    for F in (F2, F3):
        R = refine_bipartite(F)
        SR = check(R)
        ok = ok and not isinstance(SR, Violation) and twin_pairs(SR) == ()
        ok = ok and not orbit_report(F).is_orbit
    _report(
        capsys,
        "A5",
        ok,
        "3-color pair: same matrix, no equal rows, twin-free refinements, neither orbit",
    )


def test_a06_dichotomy_for_all_coverings(capsys, small_sweep):
    bad = []
    pool = [(fid, fixtures.get(fid)) for fid in ALL_IDS]
    pool += [(f"sweep[{i}]", F) for i, F in enumerate(small_sweep)]
    n_cov = 0
    for name, F in pool:
        rep = classify(F)
        if rep.covering:
            n_cov += 1
            if not rep.dichotomy:
                bad.append(name)
    _report(
        capsys,
        "A6",
        n_cov > 0 and not bad,
        f"twins-or-orbit dichotomy holds for all {n_cov} coverings"
        + (f"; counterexamples: {bad}" if bad else ""),
    )


def test_a07_stationary_equals_densities_with_detailed_balance(capsys):
    bad = []
    for fid in ALL_IDS:
        F = fixtures.get(fid)
        S = check(F)
        pi = stationary(S)
        counts = Counter(c for row in F.rows for c in row)
        densities = tuple(Fraction(counts[i], F.lattice.index) for i in range(1, F.n + 1))
        if pi != densities or sum(pi) != Fraction(1):
            bad.append(fid)
            continue
        n = len(S)
        for i in range(n):
            for j in range(n):
                if S[i][j] * pi[i] != S[j][i] * pi[j]:
                    bad.append(fid)
                    break
            else:
                continue
            break
    _report(
        capsys,
        "A7",
        not bad,
        "stationary vector equals color densities with entrywise detailed balance"
        + (f"; failures: {bad}" if bad else ""),
    )


def _walk_color_counts(F, v, k):
    """Brute number of k-step grid walks from v ending on each color."""
    front = {v: 1}
    for _ in range(k):
        nxt = {}
        for u, ways in front.items():
            for w in neighbors(u):
                nxt[w] = nxt.get(w, 0) + ways
        front = nxt
    out = [0] * (F.n + 1)
    for u, ways in front.items():
        out[F.color_at(u)] += ways
    return out


def _walk_sequence_counts(F, v, longest):
    """Brute number of grid walks from v of each length 1..longest, by the
    color sequence they step on."""
    tally = {}
    front = [(v, ())]
    for _ in range(longest):
        front = [(w, seq + (F.color_at(w),)) for u, seq in front for w in neighbors(u)]
        for _, seq in front:
            tally[seq] = tally.get(seq, 0) + 1
    return tally


def test_a08_path_counts_and_walk_powers(capsys):
    bad = []
    for fid in ALL_IDS:
        F = fixtures.get(fid)
        S = check(F)
        n = F.n
        powers = {}  # dk(S, b, b2, k) by (b, b2, k), the same from every b-node
        for v in F.lattice.domain():
            b = F.color_at(v)
            tally = _walk_sequence_counts(F, v, 3)
            for length in (1, 2, 3):
                for seq in itertools.product(range(1, n + 1), repeat=length):
                    prod = 1
                    prev = b
                    for c in seq:
                        prod *= S[prev - 1][c - 1]
                        prev = c
                    if tally.get(seq, 0) != prod:
                        bad.append((fid, v, seq))
            for k in range(5):
                counts = _walk_color_counts(F, v, k)
                for b2 in range(1, n + 1):
                    if (b, b2, k) not in powers:
                        powers[b, b2, k] = dk(S, b, b2, k)
                    if counts[b2] != powers[b, b2, k]:
                        bad.append((fid, v, k, b2))
    _report(
        capsys,
        "A8",
        not bad,
        "brute path counts match entry products (len<=3) and walk counts match"
        " matrix powers (k<=4) from every base node" + (f"; bad: {bad[:3]}" if bad else ""),
    )


def test_a09_merging_twins(capsys):
    M = merge(fixtures.get("II-base"), 1, 2)
    ok = check(M) == ((0, 0, 4), (0, 0, 4), (3, 1, 0))
    bad = []
    for fid in ALL_IDS:
        F = fixtures.get(fid)
        for a, b in twin_pairs(check(F)):
            if isinstance(check(merge(F, a, b)), Violation):
                bad.append((fid, a, b))
    ok = ok and not bad
    _report(
        capsys,
        "A9",
        ok,
        "base-case merge gives the 3-color matrix; every corpus twin merge re-verifies"
        + (f"; bad: {bad}" if bad else ""),
    )


def test_a10_sheared_stripe_family(capsys):
    bad = []
    for alpha in (5, 7, 8, 9, 10):
        F = fixtures.sheared_stripes(alpha)
        S = check(F)
        L = maximal_periods(F)
        if (
            isinstance(S, Violation)
            or F.n != alpha
            or not lattice_contains(L, (3, 1))
            or not lattice_contains(L, (alpha, 0))
            or not orbit_report(F).is_orbit
        ):
            bad.append(alpha)
    rejected = False
    try:
        fixtures.sheared_stripes(6)
    except ValueError:
        rejected = True
    _report(
        capsys,
        "A10",
        not bad and rejected,
        "sheared stripes for 5,7,8,9,10 are perfect orbit colorings with periods"
        " (3,1) and (a,0); 6 is rejected" + (f"; bad: {bad}" if bad else ""),
    )


def test_a11_enumeration_matches_brute_oracle(capsys):
    cases = [
        (Lattice(2, 0, 2), 3),
        (Lattice(3, 0, 3), 3),
        (Lattice(4, 0, 2), 4),
    ]
    bad = []
    for lat, colors in cases:
        spec = SearchSpec(lattice=lat, max_colors=colors, surjective=False)
        fast = _enumerate(spec, jobs=1)
        slow = brute_oracle(spec)
        if fast != slow:
            bad.append((lat, colors))
    _report(
        capsys,
        "A11",
        not bad,
        "tree search equals brute oracle on the three reference tori"
        + (f"; bad: {bad}" if bad else ""),
    )


def test_a12_special_diagonals_shift_to_conjugate_colorings(capsys):
    has_special = len(find_special_diagonals(fixtures.get("h"))) >= 1
    bad = []
    n_shifted = 0
    for fid in ALL_IDS:
        F = fixtures.get(fid)
        S = check(F)
        for c in diagonal_classes(F):
            if c.kind not in ("one-color", "binary-alternating"):
                continue
            n_shifted += 1
            G = shift_residue_class(F, c.orientation, c.residue, c.modulus, 1)
            SG = check(G)
            if isinstance(SG, Violation) or not matrices_conjugate(S, SG):
                bad.append((fid, c.orientation.value, c.residue))
    _report(
        capsys,
        "A12",
        has_special and n_shifted > 0 and not bad,
        f"(h) has special diagonals; all {n_shifted} constant/alternating classes"
        " shift by 1 into conjugate perfect colorings" + (f"; bad: {bad}" if bad else ""),
    )


def test_a13_near_distinctness_of_sharp_coverings(capsys, small_sweep):
    bad = []
    pool = [(fid, fixtures.get(fid)) for fid in ALL_IDS]
    pool += [(f"sweep[{i}]", F) for i, F in enumerate(small_sweep)]
    n_checked = 0
    for name, F in pool:
        S = check(F)
        if covering_target(S) is None or equal_rows(S) != ():
            continue
        n_checked += 1
        ok, witness = near_distinctness(F)
        if not ok:
            bad.append((name, witness))
    _report(
        capsys,
        "A13",
        n_checked > 0 and not bad,
        f"near nodes get distinct colors in all {n_checked} equal-row-free coverings"
        + (f"; bad: {bad}" if bad else ""),
    )
