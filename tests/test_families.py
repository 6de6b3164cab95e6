"""Family enumerators, exhaustive oracles, and count audits."""

from itertools import combinations

import pytest

from regalg.core import RegularSubalgebra, full_nil_set, is_closed
from regalg.families import (
    dim2_formula_count,
    drc_case,
    drc_commutator_codim,
    drc_reference_codim,
    drc_removed_positions,
    drc_valid_indices,
    enum_all_dim2_oracle,
    enum_codim1,
    enum_codim2,
    enum_dim2,
    enum_drc,
    make_drc,
)

import bruteforce


class TestCodim1:
    def test_smallest_case(self):
        members = enum_codim1(2)
        assert [lab.text() for lab, _ in members] == ["L_1", "L_{1,2}"]

    def test_n5_dims(self):
        members = enum_codim1(5)
        assert len(members) == 8
        assert all(alg.dim == 13 for _, alg in members)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            enum_codim1(1)


class TestCodim2:
    def test_n4_breakdown(self):
        got = {}
        for label, _ in enum_codim2(4):
            got[label.kind] = got.get(label.kind, 0) + 1
        assert got == {"P": 3, "M": 9, "N": 3, "NR": 2, "NC": 2}

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            enum_codim2(2)


class TestDim2:
    def test_family_counts(self):
        members = enum_dim2(5)
        by_kind = {}
        for label, algebra in members:
            assert is_closed(algebra) and algebra.dim == 2
            by_kind[label.kind] = by_kind.get(label.kind, 0) + 1
        assert by_kind["B3"] == 4
        assert by_kind["A2"] == 10 == dim2_formula_count("A2", 5)

    def test_n4_a1_count(self):
        count = sum(1 for lab, _ in enum_dim2(4) if lab.kind == "A1")
        assert count == 3

    def test_oracle_set_equality(self):
        for n in range(3, 9):
            enum_set = {(a.nil_set, a.cartan_gens) for _, a in enum_dim2(n)}
            oracle_set = {(a.nil_set, a.cartan_gens) for a in enum_all_dim2_oracle(n)}
            assert enum_set == oracle_set

    def test_oracle_n3_members(self):
        oracle = enum_all_dim2_oracle(3)
        nil_only = {tuple(sorted(a.nil_set)) for a in oracle if not a.cartan_gens}
        assert nil_only == {((1, 2), (1, 3)), ((1, 3), (2, 3))}
        mixed = sum(1 for a in oracle if a.nil_set and a.cartan_gens)
        assert mixed == 6
        h_only = [a for a in oracle if not a.nil_set]
        assert len(h_only) == 1 and len(oracle) == 9

    def test_oracle_n2(self):
        oracle = enum_all_dim2_oracle(2)
        assert len(oracle) == 1
        assert oracle[0].nil_set == {(1, 2)} and oracle[0].cartan_gens == ((1, -1),)


class TestNilpotentOracle:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_the_closure_scan(self, n):
        # the definition: every subset of the nil positions that is_closed accepts
        positions = sorted(full_nil_set(n))
        scan = {
            frozenset(subset)
            for size in range(len(positions) + 1)
            for subset in combinations(positions, size)
            if is_closed(RegularSubalgebra(n, subset))
        }
        got = bruteforce.closed_nil_sets(n)
        assert len(got) == len(scan) and set(got) == scan

    def test_n3_patterns(self):
        got = {tuple(sorted(nil)) for nil in bruteforce.closed_nil_sets(3)}
        assert got == {
            (),
            ((1, 2),),
            ((1, 3),),
            ((2, 3),),
            ((1, 2), (1, 3)),
            ((1, 3), (2, 3)),
            ((1, 2), (1, 3), (2, 3)),
        }

    def test_n2(self):
        assert len(bruteforce.closed_nil_sets(2)) == 2

    def test_codim1_patterns_are_offdiagonal_removals(self):
        for n in (4, 5):
            full_count = n * (n - 1) // 2
            got = {nil for nil in bruteforce.closed_nil_sets(n) if len(nil) == full_count - 1}
            assert got == {full_nil_set(n) - {(i, i + 1)} for i in range(1, n)}


class TestMakeDrc:
    def test_row_segment(self):
        algebra = make_drc(5, "R", 1, 3)
        assert full_nil_set(5) - algebra.nil_set == {(1, 2), (1, 3), (1, 4)}

    def test_column_segment(self):
        algebra = make_drc(5, "C", 1, 3)
        assert full_nil_set(5) - algebra.nil_set == {(1, 4), (2, 4), (3, 4)}

    def test_k1_collapse(self):
        for kind in ("D", "R", "C"):
            assert drc_removed_positions(5, kind, 2, 1) == {(2, 3)}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            make_drc(5, "D", 3, 3)
        with pytest.raises(ValueError):
            make_drc(5, "Q", 1, 1)

    def test_all_closed(self):
        for n in (5, 6, 7):
            for k in (1, 2, 3):
                for _, algebra in enum_drc(n, k):
                    assert is_closed(algebra)


class TestDrcCommutator:
    def test_interior_diagonal_k1(self):
        # interior case at k=1: published value 2k matches the computation
        assert drc_case(6, 2, 1) == 1
        assert drc_commutator_codim(6, "D", 2, 1) == 2 == drc_reference_codim(6, "D", 2, 1)

    def test_interior_row(self):
        for k in (1, 2, 3):
            n = k + 5
            assert drc_case(n, 2, k) == 1
            assert drc_commutator_codim(n, "R", 2, k) == k + 1

    def test_example_column_case(self):
        value = drc_commutator_codim(6, "C", 2, 2)
        assert value == drc_reference_codim(6, "C", 2, 2) == 3

    def test_matches_span_bracket_oracle(self):
        for n in (5, 6):
            for k in (1, 2, 3):
                for kind in ("D", "R", "C"):
                    for index in drc_valid_indices(n, k):
                        algebra = make_drc(n, kind, index, k)
                        script_e = n * (n - 1) // 2 - (n - 1)
                        want = script_e - bruteforce.brute_commutator_dim(algebra)
                        assert drc_commutator_codim(n, kind, index, k) == want

    def test_case_classification(self):
        assert drc_case(7, 3, 2) == 1
        assert drc_case(6, 3, 2) == 2
        assert drc_case(6, 4, 2) == 3
        assert drc_case(6, 1, 2) == 4
        assert drc_case(5, 1, 3) == 5
        assert drc_case(4, 1, 3) == 6
