"""Star-pattern calculus: products, series, actions, generic ranks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regalg.core import (
    DimensionMismatchError,
    NotClosedError,
    RegularSubalgebra,
    full_cartan,
    full_nil_set,
    h_pq_vector,
    h_vector,
    parse_descriptor,
)
from regalg import linalg, starcalc
from regalg.starcalc import (
    action_dim_seq,
    bool_mul,
    derived_series_dims,
    generic_max_rank,
    min_rank,
)
from regalg.invariants import signature

import bruteforce
from bruteforce import adjoint_image_pattern, col_action, indices, pattern, positions, row_action
from search_counts import min_rank_nodes
from wide_spans import WIDE_SPAN_G12, WIDE_SPAN_G18


def patterns(n):
    return st.builds(
        lambda s: pattern(n, s),
        st.sets(st.sampled_from(sorted(full_nil_set(n))), max_size=n * (n - 1) // 2),
    )


def full_upper(n):
    return tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(1, n + 1))


def zeros(n):
    return (0,) * n


def full(n):
    return (1 << n) - 1


class TestNilRows:
    def test_nil_rows_example(self):
        algebra = RegularSubalgebra(4, {(1, 3), (1, 4), (3, 4)}, ())
        assert positions(algebra.nil_rows) == [(1, 3), (1, 4), (3, 4)]

    def test_nil_rows_empty_and_full(self):
        assert not any(RegularSubalgebra(3).nil_rows)
        assert RegularSubalgebra(3, full_nil_set(3), ()).nil_rows == full_upper(3)

    def test_pattern_range_check(self):
        with pytest.raises(ValueError):
            pattern(3, [(1, 4)])


class TestBoolMul:
    def test_full_upper_squared(self):
        square = bool_mul(full_upper(4), full_upper(4))
        assert positions(square) == [(1, 3), (1, 4), (2, 4)]

    def test_zero_annihilates(self):
        x = pattern(3, [(1, 2), (2, 3)])
        assert not any(bool_mul(x, zeros(3)))
        assert not any(bool_mul(zeros(3), x))

    def test_single_path(self):
        x = pattern(3, [(1, 2)])
        y = pattern(3, [(2, 3)])
        assert positions(bool_mul(x, y)) == [(1, 3)]
        assert not any(bool_mul(y, x))

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            bool_mul(zeros(3), zeros(4))

    @settings(max_examples=60, deadline=None)
    @given(patterns(4), patterns(4), patterns(4))
    def test_associative(self, x, y, z):
        assert bool_mul(bool_mul(x, y), z) == bool_mul(x, bool_mul(y, z))

    @settings(max_examples=60, deadline=None)
    @given(patterns(4), patterns(4))
    def test_monotone(self, x, y):
        grown = tuple(r | 1 for r in x)  # add stars in column 1
        small = set(positions(bool_mul(x, y)))
        big = set(positions(bool_mul(grown, y)))
        assert small <= big


class TestActions:
    def test_col_action_missing_last_offdiagonal(self):
        algebra = RegularSubalgebra(4, full_nil_set(4) - {(3, 4)}, ())
        out = col_action(algebra.nil_rows, full(4))
        assert indices(out) == [1, 2]

    def test_col_action_zero_vector(self):
        assert col_action(full_upper(4), 0) == 0

    def test_col_action_full_upper(self):
        out = col_action(full_upper(4), full(4))
        assert indices(out) == [1, 2, 3]

    def test_row_action_full_upper(self):
        out = row_action(full(4), full_upper(4))
        assert indices(out) == [2, 3, 4]

    def test_row_action_zero(self):
        assert row_action(0, full_upper(4)) == 0

    def test_row_action_single_star(self):
        out = row_action(full(3), pattern(3, [(1, 3)]))
        assert indices(out) == [3]

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            col_action(zeros(3), full(4))

    @settings(max_examples=60, deadline=None)
    @given(patterns(5))
    def test_full_support_identities(self, x):
        nonempty_rows = [i for i in range(1, 6) if x[i - 1]]
        assert indices(col_action(x, full(5))) == nonempty_rows
        nonempty_cols = sorted({j for _, j in positions(x)})
        assert indices(row_action(full(5), x)) == nonempty_cols


class TestDerivedSeries:
    def test_abelian_single_star(self):
        assert derived_series_dims(RegularSubalgebra(3, {(1, 3)}, ()).nil_rows) == [1, 0]

    def test_full_nilpotent(self):
        assert derived_series_dims(RegularSubalgebra(4, full_nil_set(4), ()).nil_rows) == [6, 3, 0]

    def test_not_closed_error(self):
        with pytest.raises(NotClosedError) as info:
            signature(RegularSubalgebra(3, {(1, 2), (2, 3)}, ()))
        assert info.value.defects == [(1, 3)]


class TestActionDimSeq:
    def test_full_nilpotent_column(self):
        algebra = RegularSubalgebra(4, full_nil_set(4), ())
        assert action_dim_seq(algebra.nil_cols) == [3, 2, 1, 0]

    def test_abelian(self):
        algebra = RegularSubalgebra(4, {(2, 3)}, ())
        assert action_dim_seq(algebra.nil_cols) == [1, 0]
        assert action_dim_seq(algebra.nil_rows) == [1, 0]

    def test_missing_last_offdiagonal_column(self):
        algebra = RegularSubalgebra(4, full_nil_set(4) - {(3, 4)}, ())
        assert action_dim_seq(algebra.nil_cols) == [2, 1, 0]

    def test_matches_exact_power_supports(self):
        for nil in bruteforce.closed_nil_sets(4):
            algebra = RegularSubalgebra(4, nil)
            for side, pattern in (("column", algebra.nil_cols), ("row", algebra.nil_rows)):
                assert action_dim_seq(pattern) == bruteforce.span_power_action_dims(
                    algebra, side
                ), (algebra.descriptor(), side)


class TestAdjointImagePattern:
    def test_h13_on_full(self):
        algebra = RegularSubalgebra(4, full_nil_set(4), ())
        image = adjoint_image_pattern(h_pq_vector(4, 1, 3), algebra)
        assert positions(image) == [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
        assert col_action(image, full(4)).bit_count() == 3

    def test_zero_vector(self):
        algebra = RegularSubalgebra(4, full_nil_set(4), ())
        assert not any(adjoint_image_pattern((0, 0, 0, 0), algebra))

    def test_h1_on_full_n3(self):
        algebra = RegularSubalgebra(3, full_nil_set(3), ())
        image = adjoint_image_pattern(h_vector(3, 1), algebra)
        assert positions(image) == [(1, 2), (1, 3), (2, 3)]

    def test_subset_of_nil_rows(self):
        algebra = RegularSubalgebra(5, full_nil_set(5) - {(1, 2), (2, 5)}, ())
        for vec in (h_vector(5, 2), h_pq_vector(5, 1, 4), (2, -1, 0, 0, -1)):
            image = adjoint_image_pattern(vec, algebra)
            assert set(positions(image)) <= algebra.nil_set

    def test_rejects_non_traceless(self):
        with pytest.raises(ValueError):
            adjoint_image_pattern((1, 0, 0), RegularSubalgebra(3))


class TestGenericMaxRank:
    def test_shared_column(self):
        assert generic_max_rank(pattern(3, [(1, 3), (2, 3)])) == 1

    def test_zero_pattern(self):
        assert generic_max_rank(zeros(4)) == 0

    def test_adjoint_case_separation(self):
        # near-full nil part missing the last superdiagonal unit: generators
        # e_2-e_4 and e_2-e_5 produce adjoint images of different max rank
        algebra = RegularSubalgebra(6, full_nil_set(6) - {(5, 6)}, ())
        low = adjoint_image_pattern(h_pq_vector(6, 2, 5), algebra)
        high = adjoint_image_pattern(h_pq_vector(6, 2, 4), algebra)
        assert generic_max_rank(high) == 4
        assert generic_max_rank(low) == 3

    def test_full_solvable_rank(self):
        algebra = RegularSubalgebra(4, full_nil_set(4), full_cartan(4))
        assert signature(algebra).max_rank == 4

    def test_permutation_invariance(self):
        from itertools import permutations

        stars = pattern(5, [(1, 2), (1, 5), (2, 4), (3, 4), (4, 5)])
        base = generic_max_rank(stars)
        for sigma in permutations(range(1, 6)):
            moved = pattern(5, [(sigma[i - 1], sigma[j - 1]) for i, j in positions(stars)])
            assert generic_max_rank(moved) == base


# The Cartan-only algebras of perfbench's invariants-large workload (seed 1,
# pass 0), each with a relabeled copy, and their minimum ranks as the search
# down to one row found them before the two-row count.
BENCHMARK_SPANS = [
    ("n=13; nil=; cartan=diag(2,-1,1,0,1,2,0,0,3,-3,0,-1,-4),diag(1,1,2,0,2,2,2,-2,-1,0,2,0,-9),"
     "diag(0,1,1,0,-2,2,-2,-1,-3,-3,-2,-1,10)", 8),
    ("n=13; nil=; cartan=diag(1,-4,0,2,-3,1,-1,0,3,-1,2,0,0),diag(2,-9,0,2,0,2,0,-2,-1,1,1,2,2),"
     "diag(1,10,0,2,-3,-2,-1,-1,-3,1,0,-2,-2)", 8),
    ("n=15; nil=; cartan=diag(1,1,3,1,-3,1,-2,-3,1,-3,-1,-1,-3,2,6),"
     "diag(-1,3,-3,2,-1,-3,2,0,2,-1,2,-2,-1,2,-1),diag(2,0,1,3,1,1,-3,1,1,0,-1,-1,-1,-3,-1)", 11),
    ("n=15; nil=; cartan=diag(-1,6,-1,-3,-3,1,-3,1,-3,3,1,2,-2,1,1),"
     "diag(-2,-1,2,0,-1,-3,-1,2,-1,-3,2,2,2,3,-1),diag(-1,-1,-1,1,0,1,-1,1,1,1,3,-3,-3,0,2)", 11),
    ("n=17; nil=; cartan=diag(3,-1,-2,2,1,-2,1,-3,-3,0,-3,3,1,-1,0,1,3),"
     "diag(1,2,1,-1,-2,-2,-1,3,-3,0,2,2,1,-2,-3,0,2),diag(2,0,-2,0,-1,1,1,-1,-2,2,0,-2,2,2,0,-3,1),"
     "diag(1,1,2,2,0,0,1,2,0,2,-1,-3,-1,1,1,0,-8)", 12),
    ("n=17; nil=; cartan=diag(3,-3,-1,1,1,3,2,-2,0,1,0,-1,-3,3,-3,-2,1),"
     "diag(2,2,-2,-2,0,2,-1,1,-3,-1,0,2,-3,1,3,-2,1),diag(1,0,2,-1,-3,-2,0,-2,0,1,2,0,-2,2,-1,1,2),"
     "diag(-8,-1,1,0,0,-3,2,2,1,1,2,1,0,1,2,0,-1)", 12),
    ("n=19; nil=; cartan=diag(1,-1,2,1,3,-2,-1,-2,3,-2,-3,-2,-3,0,0,1,-1,3,3),"
     "diag(-1,1,0,-3,-1,0,3,2,2,0,-3,2,1,-3,-3,-3,3,-3,6),"
     "diag(-1,2,-2,1,3,-2,-1,0,2,0,-3,-1,-2,3,-3,2,2,1,-1),"
     "diag(0,-3,2,-1,1,2,2,-2,0,1,0,0,-1,2,0,3,-2,0,-4)", 13),
    ("n=19; nil=; cartan=diag(1,-2,-1,1,0,-3,-1,3,-1,3,-2,0,2,-2,-3,-2,3,3,1),"
     "diag(-3,0,3,-1,-3,-3,3,-1,1,-3,2,-3,0,2,1,0,2,6,-3),"
     "diag(1,0,-1,-1,-3,-3,2,3,2,1,0,3,-2,-1,-2,-2,2,-1,2),"
     "diag(-1,1,2,0,0,0,-2,1,-3,0,-2,2,2,0,-1,2,0,-4,3)", 13),
]

# e_1 - e_2 and 11 random [-3, 3] generators: the hyperplane search alone
# takes about 0.7 s on this span (Python 3.11, one core of a Xeon VM)
ROOT_AND_RANDOM_N20 = (
    "n=20; nil=; cartan=H1,diag(2,2,3,3,-2,-1,2,2,3,-3,3,-1,1,-2,-3,0,0,-3,-3,-3),"
    "diag(-2,-1,0,1,0,0,-2,-2,-1,2,2,-1,-1,0,-3,2,1,3,3,-1),"
    "diag(0,-1,2,-1,0,3,0,3,-3,-3,1,0,-2,-3,2,2,1,-3,3,-1),"
    "diag(-1,-1,1,-2,-3,-2,0,1,0,-2,0,0,2,1,3,2,-1,1,1,0),"
    "diag(1,-1,0,3,0,-3,-1,1,-2,2,3,-2,1,1,-1,3,-1,-2,-3,1),"
    "diag(-1,3,0,-2,-1,1,3,2,-2,1,-3,-2,1,3,1,1,-3,-3,3,-2),"
    "diag(3,3,-3,0,2,1,1,2,2,-1,-2,-2,-1,-2,-3,-3,1,2,1,-1),"
    "diag(-2,-2,2,-3,2,0,0,3,-3,-3,1,3,-2,0,1,1,3,0,-3,2),"
    "diag(0,-2,3,-2,-2,1,3,-1,-2,-2,3,-1,3,-3,-2,1,-1,3,0,1),"
    "diag(-3,3,2,1,1,3,-3,2,-3,3,-1,2,-3,0,0,-3,-1,1,-3,2),"
    "diag(2,-3,2,-3,1,3,2,2,-3,1,-2,0,-2,-1,-1,1,-3,2,1,1)"
)


class TestMinRank:
    def test_nil_member_gives_one(self):
        assert min_rank(RegularSubalgebra(4, {(1, 4)}, full_cartan(4))) == 1

    def test_single_h(self):
        assert min_rank(RegularSubalgebra(4, frozenset(), (h_vector(4, 2),))) == 2

    def test_pair_span(self):
        algebra = RegularSubalgebra(4, frozenset(), (h_vector(4, 1), h_vector(4, 3)))
        assert min_rank(algebra) == 2

    @pytest.mark.parametrize("algebra", [
        RegularSubalgebra(4, frozenset(), (h_vector(4, 1), h_vector(4, 3))),
        RegularSubalgebra(20, frozenset(), tuple(h_vector(20, k) for k in range(1, 20))),
        parse_descriptor(ROOT_AND_RANDOM_N20),
    ], ids=["H1,H3-n4", "H1..H19-n20", "H1+11-random-n20"])
    def test_root_generator_answered_without_search(self, monkeypatch, algebra):
        # a root vector's n - 2 zeros are the most a nonzero traceless
        # vector has, so best starts at n - 2 and neither a root-class test
        # nor an elimination runs
        def fail(*args):
            raise AssertionError("min_rank searched")

        monkeypatch.setattr(starcalc, "root_classes", fail)
        monkeypatch.setattr(linalg, "_eliminate", fail)
        assert min_rank(algebra) == 2

    @pytest.mark.parametrize("span, nodes", [(WIDE_SPAN_G18, 969), (WIDE_SPAN_G12, 92_378)],
                             ids=["g18", "g12"])
    def test_wide_span_search_nodes(self, span, nodes):
        # the search's exact work at the descriptor bound: a change to how
        # a node computes must not change which nodes it visits
        descriptor, expected = span
        assert min_rank_nodes(parse_descriptor(descriptor)) == (expected, nodes)

    def test_wide_vector_upper_bound(self):
        assert min_rank(RegularSubalgebra(4, frozenset(), ((1, 1, -1, -1),))) == 4

    def test_zero_algebra_rejected(self):
        with pytest.raises(ValueError):
            min_rank(RegularSubalgebra(3))

    @pytest.mark.parametrize("text, expected", BENCHMARK_SPANS,
                             ids=[f"n{text[2:4]}-{k % 2}" for k, (text, _) in enumerate(BENCHMARK_SPANS)])
    def test_benchmark_spans(self, text, expected):
        assert min_rank(parse_descriptor(text)) == expected
