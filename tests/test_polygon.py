"""Diagonals, crossing, the diagonal quivers and angulation enumeration."""

import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverkit import (
    Quiver,
    SizeCapError,
    TranslationQuiver,
    a_path_matrix,
    crossing,
    cyclic_gap,
    diagonals,
    enumerate_angulations,
    enumerate_cluster_variables,
    gamma,
    is_m_diagonal,
    m_diagonals,
    normalize_pair,
    row_of,
    validate_translation_quiver,
)
from quiverkit.config import ANGULATION_WORK_CAP
from quiverkit.polygon import DiagonalQuiver, _angulation_count

# Catalan numbers from the convolution recurrence, independent of any
# enumeration below.
CATALAN = [1, 1]
for _k in range(2, 9):
    CATALAN.append(sum(CATALAN[i] * CATALAN[_k - 1 - i] for i in range(_k)))


def splits_into_legal_pieces(d, n, m):
    """Arc-size oracle: both boundary pieces have sizes m*j+2 and m*(n-j)+2."""
    N = n * m + 2
    i, j = normalize_pair(d, N)
    arc = (j - i) % N
    if arc < 2 or N - arc < 2:
        return False
    return (arc - 1) % m == 0 and 1 <= (arc - 1) // m <= n - 1


def grown_angulations(n, m):
    """Grow-and-test reference: every non-crossing set of m-diagonals.

    Sets grow in increasing index order, so each one is reached once, and
    a set that no later diagonal extends is kept if no diagonal at all
    extends it.  Slow (about 2 s at an 11-gon) but independent of the
    cell recursion.
    """
    diags = m_diagonals(n, m)
    k = len(diags)
    compat = [[not crossing(diags[a], diags[b]) for b in range(k)] for a in range(k)]
    results = []

    def is_maximal(chosen):
        return not any(
            c not in chosen and all(compat[c][x] for x in chosen) for c in range(k)
        )

    def grow(chosen, start):
        extended = False
        for c in range(start, k):
            if all(compat[c][x] for x in chosen):
                chosen.append(c)
                grow(chosen, c + 1)
                chosen.pop()
                extended = True
        if not extended and is_maximal(chosen):
            results.append(tuple(diags[x] for x in chosen))

    grow([], 0)
    return sorted(results)


def polygon_pairs(max_ngon):
    """Every (n, m) with n >= 2, m >= 1 and n*m + 2 <= max_ngon."""
    return [
        (n, m)
        for m in range(1, max_ngon - 2)
        for n in range(2, max_ngon)
        if n * m + 2 <= max_ngon
    ]


def clockwise_arc(a, b, N):
    """Vertices strictly between a and b, walking clockwise."""
    pts = []
    x = a % N + 1
    while x != b:
        pts.append(x)
        x = x % N + 1
    return pts


class TestDiagonals:
    def test_octagon_two_divisible_examples(self):
        assert is_m_diagonal((1, 4), 3, 2)
        assert not is_m_diagonal((1, 3), 3, 2)
        assert not is_m_diagonal((1, 2), 3, 2)  # a side of the octagon
        assert sorted(m_diagonals(3, 2)) == [
            (1, 4), (1, 6), (2, 5), (2, 7), (3, 6), (3, 8), (4, 7), (5, 8),
        ]

    def test_every_diagonal_is_1_divisible(self):
        for n in range(2, 8):
            N = n + 2
            assert all(is_m_diagonal(d, n, 1) for d in diagonals(N))
        with pytest.raises(ValueError, match="at least 3 vertices"):
            diagonals(2)

    @given(n=st.integers(2, 6), m=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_m_divisibility_matches_arc_size_oracle(self, n, m):
        N = n * m + 2
        for d in diagonals(N):
            assert is_m_diagonal(d, n, m) == splits_into_legal_pieces(d, n, m)

    def test_diagonal_counts(self):
        # (n-1)(nm+2)/2 vertices, brute-counted over all pairs.
        for n in range(2, 13):
            for m in range(1, 13):
                if n * m > 12:
                    continue
                N = n * m + 2
                brute = sum(
                    1 for d in diagonals(N) if splits_into_legal_pieces(d, n, m)
                )
                assert brute == len(m_diagonals(n, m)) == (n - 1) * N // 2

    def test_closed_form_matches_the_predicate(self):
        for n, m in [(1, m) for m in range(1, 39)] + polygon_pairs(40):
            N = n * m + 2
            assert m_diagonals(n, m) == [d for d in diagonals(N) if is_m_diagonal(d, n, m)]
        with pytest.raises(ValueError):
            m_diagonals(3, 0)

    def test_normalize_pair_folds_modulo(self):
        assert normalize_pair((8, 4), 8) == (4, 8)
        assert normalize_pair((0, 5), 8) == (5, 8)
        assert normalize_pair((9, -2), 8) == (1, 6)

    def test_rows_in_the_octagon(self):
        assert row_of((1, 3), 8) == 1
        assert row_of((1, 7), 8) == 1  # min gap of {6, 2} is 2
        assert row_of((1, 5), 8) == 3
        with pytest.raises(ValueError):
            row_of((1, 2), 8)


class TestCrossing:
    def test_examples(self):
        assert crossing((1, 4), (2, 5))
        assert not crossing((1, 3), (1, 4))
        assert not crossing((1, 4), (5, 8))

    @given(
        N=st.integers(5, 12),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_arc_walk_oracle(self, N, data):
        ds = diagonals(N)
        d1 = data.draw(st.sampled_from(ds))
        d2 = data.draw(st.sampled_from(ds))
        a, b = d1
        c, d = d2
        if len({a, b, c, d}) < 4:
            expected = False
        else:
            arc = clockwise_arc(a, b, N)
            expected = (c in arc) != (d in arc)
        assert crossing(d1, d2) == expected
        assert crossing(d2, d1) == crossing(d1, d2)


class TestGamma:
    def test_hexagon_first_slice_and_translation(self):
        tq = gamma(4, 1)
        assert len(tq.vertices) == 9
        assert tq.quiver.arrow_count((1, 3), (1, 4)) == 1
        assert tq.quiver.arrow_count((1, 4), (1, 5)) == 1
        assert tq.quiver.arrow_count((1, 5), (2, 5)) == 1
        assert tq.tau_of((2, 4)) == (1, 3)
        assert tq.tau_of((2, 6)) == (1, 5)

    def test_octagon_vertex_set(self):
        assert gamma(3, 2).vertices == frozenset(
            [(1, 4), (3, 6), (5, 8), (2, 7), (1, 6), (3, 8), (2, 5), (4, 7)]
        )

    def test_wraparound_arrows_present(self):
        tq = gamma(4, 1)
        assert tq.quiver.arrow_count((4, 6), (1, 4)) == 1
        assert tq.quiver.arrow_count((3, 6), (1, 3)) == 1

    def test_size_formula_for_simple_diagonals(self):
        for n in range(2, 11):
            N = n + 2
            assert len(gamma(n, 1).vertices) == N * (N - 3) // 2

    def test_all_small_instances_are_stable_translation_quivers(self):
        for n in range(2, 13):
            for m in range(1, 13):
                if n * m > 12:
                    continue
                res = validate_translation_quiver(gamma(n, m))
                assert res.ok and res.stable, (n, m)

    def test_translation_is_a_quiver_automorphism(self):
        for n, m in ((4, 1), (3, 2), (2, 3), (4, 3)):
            tq = gamma(n, m)
            arrows = set(tq.arrows)
            mapped = {(tq.tau_of(s), tq.tau_of(t)) for s, t in arrows}
            assert mapped == arrows

    def test_closed_form_matches_folding_every_candidate(self):
        # The construction by folding labels: both ordered representatives
        # of each m-diagonal, both candidate images, kept if a vertex.
        for n, m in polygon_pairs(40):
            N = n * m + 2
            verts = {d for d in diagonals(N) if is_m_diagonal(d, n, m)}
            arrows = {
                (d, normalize_pair(c, N))
                for d in verts
                for i, j in (d, d[::-1])
                for c in ((i, j + m), (i + m, j))
                if normalize_pair(c, N) in verts
            }
            tau = {d: normalize_pair((d[0] - m, d[1] - m), N) for d in verts}
            ref = TranslationQuiver(Quiver(verts, arrows), tau)
            tq = gamma(n, m)
            assert tq == ref and list(tq.tau.items()) == list(ref.tau.items()), (n, m)
            assert tq.sorted_vertices() == ref.sorted_vertices(), (n, m)

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            gamma(1, 1)
        with pytest.raises(ValueError):
            gamma(3, 0)

    def test_diagonal_quiver_has_no_public_constructor(self):
        # The public constructor would leave N, step and the vertices unset.
        tq = gamma(3, 2)
        with pytest.raises(TypeError, match=r"gamma\(\)"):
            DiagonalQuiver(tq.quiver, dict(tq.tau))
        # Names the lazy slots do not cover stay an AttributeError.
        assert getattr(gamma(4, 1), "nope", None) is None

    def test_multiplicity_at_most_one(self):
        for n, m in ((6, 1), (3, 2), (2, 5)):
            tq = gamma(n, m)
            assert len(set(tq.arrows)) == len(tq.arrows)


class TestAngulations:
    def test_square_has_two_triangulations(self):
        assert enumerate_angulations(2, 1) == [((1, 3),), ((2, 4),)]

    def test_triangulation_counts_match_catalan(self):
        for n in range(2, 8):
            found = enumerate_angulations(n, 1)
            assert len(found) == CATALAN[n]

    def test_octagon_quadrangulations(self):
        found = enumerate_angulations(3, 2)
        assert len(found) == 12
        assert all(len(coll) == 2 for coll in found)

    def test_brute_force_oracle_octagon(self):
        ds = m_diagonals(3, 2)
        maximal = []
        for size in range(len(ds) + 1):
            for sub in itertools.combinations(ds, size):
                if any(crossing(a, b) for a, b in itertools.combinations(sub, 2)):
                    continue
                if any(
                    d not in sub and all(not crossing(d, s) for s in sub)
                    for d in ds
                ):
                    continue
                maximal.append(tuple(sorted(sub)))
        assert sorted(maximal) == enumerate_angulations(3, 2)

    def test_rank_property(self):
        for n, m in ((2, 1), (3, 1), (4, 1), (5, 1), (3, 2), (2, 3), (2, 4)):
            for coll in enumerate_angulations(n, m):
                assert len(coll) == n - 1

    def test_results_are_maximal_and_non_crossing(self):
        ds = m_diagonals(4, 1)
        for coll in enumerate_angulations(4, 1):
            assert not any(
                crossing(a, b) for a, b in itertools.combinations(coll, 2)
            )
            for extra in ds:
                if extra not in coll:
                    assert any(crossing(extra, d) for d in coll)

    def test_counts_match_fuss_catalan_formula(self):
        # 1/n * binom((m+1)n, n-1), an independent closed form.
        for n, m in polygon_pairs(13):
            expected = comb((m + 1) * n, n - 1) // n
            assert len(enumerate_angulations(n, m)) == expected, (n, m)

    @pytest.mark.parametrize("n,m", polygon_pairs(10))
    def test_matches_grow_and_test_reference(self, n, m):
        assert enumerate_angulations(n, m) == grown_angulations(n, m)

    @pytest.mark.parametrize("n,m", polygon_pairs(12))
    def test_angulations_are_sorted_as_built(self, n, m):
        # No angulation is sorted after it is built, so a diagonal placed out
        # of order shows here, and in the list against the reference.
        found = enumerate_angulations(n, m)
        assert all(coll == tuple(sorted(coll)) for coll in found)
        assert found == grown_angulations(n, m)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_triangulations_are_the_clusters_of_type_a(self, n):
        # Triangulations of the (n+2)-gon are the clusters of A_{n-1}; the
        # mutation closure counts them independently of any polygon code.
        closure = enumerate_cluster_variables(a_path_matrix(n - 1))
        assert len(enumerate_angulations(n, 1)) == closure.seed_count

    def test_polygon_cap(self):
        # The 17-gon is over the work bound: 9694845 triangulations, times n + m = 16.
        with pytest.raises(SizeCapError, match=r"has 9694845 3-angulations and n \+ m = 16$"):
            enumerate_angulations(15, 1)
        # The largest product among the inputs of the former 16-gon cap: 208012 * 13.
        assert _angulation_count(12, 1) * 13 == 2704156 <= ANGULATION_WORK_CAP

    def test_work_bound_accepts_every_formerly_accepted_input(self):
        # Every (n, m) that the 16-gon cap and the 250000-count cap accepted.
        pairs = [
            (n, m) for n, m in polygon_pairs(16) if comb((m + 1) * n, n - 1) // n <= 250000
        ]
        assert len(pairs) == 25
        for n, m in pairs:
            assert _angulation_count(n, m) == comb((m + 1) * n, n - 1) // n

    def test_work_bound_is_exact(self):
        # The lower bound max(2^(n-1), m+1) refuses no input that the exact
        # count accepts, and every refusal is over the cap.
        for n in range(2, 40):
            for m in [*range(1, 60), *range(120, 130), *range(1725, 1735), 10**6]:
                work = comb((m + 1) * n, n - 1) // n * (n + m)
                if work <= ANGULATION_WORK_CAP:
                    assert _angulation_count(n, m) * (n + m) == work
                else:
                    with pytest.raises(SizeCapError):
                        _angulation_count(n, m)

    def test_gap_helper(self):
        assert cyclic_gap((1, 7), 8) == 2
        assert cyclic_gap((1, 5), 8) == 4
