"""Permutation action, witness search, verdicts, and class partitions."""

from itertools import combinations

import pytest

from regalg.core import (
    DimensionMismatchError,
    NotClosedError,
    RegularSubalgebra,
    full_nil_set,
    h_vector,
)
from regalg.conjugacy import (
    NO_WITNESS,
    RecipeError,
    classify_family,
    compose_perm,
    decide,
    identity_perm,
    invert_perm,
    recipe_witness,
    perm_conjugate,
    perm_from_partial,
    permute_subalgebra,
    same_algebra,
    transposition,
)
from regalg.families import FamilyLabel, enum_codim1, enum_codim2, make_drc
from regalg.invariants import signature


def nil_algebra(n, removed):
    return RegularSubalgebra(n, full_nil_set(n) - set(removed), ())


class TestPermHelpers:
    def test_compose_applies_right_first(self):
        tau12, tau23 = transposition(3, 1, 2), transposition(3, 2, 3)
        assert compose_perm(tau12, tau23) == (2, 3, 1)
        assert compose_perm(tau23, tau12) == (3, 1, 2)

    def test_invert(self):
        sigma = (2, 3, 1)
        assert compose_perm(invert_perm(sigma), sigma) == identity_perm(3)

    def test_partial_fill(self):
        assert perm_from_partial(5, {1: 3, 2: 4}) == (3, 4, 1, 2, 5)

    def test_partial_rejects_collision(self):
        with pytest.raises(ValueError):
            perm_from_partial(4, {1: 2, 3: 2})


class TestPermuteSubalgebra:
    def test_column_pair_to_unit_pair(self):
        nc1 = nil_algebra(4, [(1, 3), (2, 3)])
        image = permute_subalgebra(nc1, transposition(4, 2, 3))
        assert image == nil_algebra(4, [(1, 2), (2, 3)])

    def test_identity(self):
        algebra = nil_algebra(4, [(1, 2)])
        assert permute_subalgebra(algebra, identity_perm(4)) == algebra

    def test_unit_pair_to_row_pair(self):
        n12 = nil_algebra(4, [(1, 2), (2, 3)])
        image = permute_subalgebra(n12, transposition(4, 1, 2))
        assert image == nil_algebra(4, [(1, 2), (1, 3)])

    def test_none_when_leaving_upper_triangle(self):
        algebra = RegularSubalgebra(3, full_nil_set(3), ())
        assert permute_subalgebra(algebra, transposition(3, 1, 2)) is None

    def test_cartan_entries_relabelled(self):
        algebra = RegularSubalgebra(4, frozenset(), (h_vector(4, 2),))
        image = permute_subalgebra(algebra, transposition(4, 2, 4))
        assert image.cartan_gens == ((0, 0, -1, 1),)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permute_subalgebra(RegularSubalgebra(3), (1, 1, 2))


class TestPermConjugate:
    def test_finds_first_witness(self):
        nc1 = nil_algebra(4, [(1, 3), (2, 3)])
        n12 = nil_algebra(4, [(1, 2), (2, 3)])
        assert perm_conjugate(nc1, n12) == (1, 3, 2, 4)

    def test_self_gives_identity(self):
        algebra = nil_algebra(4, [(1, 2), (2, 3)])
        assert perm_conjugate(algebra, algebra) == identity_perm(4)

    def test_absent_for_separated_unit_pairs(self):
        a = nil_algebra(5, [(1, 2), (3, 4)])
        b = nil_algebra(5, [(2, 3), (4, 5)])
        assert perm_conjugate(a, b) is None

    def test_spans_compared_not_generator_lists(self):
        a = RegularSubalgebra(3, {(1, 3)}, (h_vector(3, 1), h_vector(3, 2)))
        b = RegularSubalgebra(3, {(1, 3)}, ((1, 0, -1), (0, 1, -1)))
        assert perm_conjugate(a, b) == identity_perm(3)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            perm_conjugate(RegularSubalgebra(3), RegularSubalgebra(4))

    def test_signatures_compared_above_search_guard(self):
        a = RegularSubalgebra(9, {(1, 2)})
        assert perm_conjugate(a, RegularSubalgebra(9, {(1, 2), (1, 3), (2, 3)})) is None
        with pytest.raises(ValueError, match="guarded"):
            perm_conjugate(a, RegularSubalgebra(9, {(2, 3)}))

    def test_requires_closed(self):
        with pytest.raises(NotClosedError):
            perm_conjugate(
                RegularSubalgebra(3, {(1, 2), (2, 3)}, ()), RegularSubalgebra(3)
            )


class TestDecide:
    def test_forced_zero_diagonal_changes_max_rank(self):
        members = {lab.text(): alg for lab, alg in enum_codim1(4)}
        verdict = decide(members["L_1"], members["L_2"])
        assert verdict.kind == "distinct" and verdict.separator == "maxRank"

    def test_interior_generator_drops_need_cartan_records(self):
        members = {lab.text(): alg for lab, alg in enum_codim1(5)}
        verdict = decide(members["L_2"], members["L_3"])
        assert verdict.kind == "distinct" and verdict.separator == "cartanSignature"

    def test_row_vs_column_removal_conjugate(self):
        r2 = make_drc(5, "R", 2, 2)
        c2 = make_drc(5, "C", 2, 2)
        verdict = decide(r2, c2)
        assert verdict.is_conjugate
        image = permute_subalgebra(r2, verdict.witness)
        assert image is not None and same_algebra(image, c2)

    def test_unit_pair_separation_by_column_action(self):
        members = {lab.text(): alg for lab, alg in enum_codim2(5)}
        verdict = decide(members["N_{1,2}"].nil_part(), members["N_{3,4}"].nil_part())
        assert verdict.kind == "distinct" and verdict.separator == "colActionSeq"

    def test_relabeled_diagonal_span_conjugate(self):
        # b is a relabeled by (2,6,1,5,4,3); both spans have min rank 3,
        # which a coefficient search over a coordinate-dependent basis
        # misreads as 4 for a
        a = RegularSubalgebra(6, frozenset(), (
            (-5, 3, -3, -3, 2, 6), (1, 0, -1, -1, -1, 2), (5, -1, 1, 5, -2, -8)))
        b = RegularSubalgebra(6, frozenset(), (
            (-3, -5, 6, 2, -3, 3), (-1, 1, 2, -1, -1, 0), (1, 5, -8, -2, 5, -1)))
        verdict = decide(a, b)
        assert verdict.is_conjugate and verdict.witness == (2, 6, 1, 5, 4, 3)
        image = permute_subalgebra(a, verdict.witness)
        assert image is not None and same_algebra(image, b)

    def test_witness_free_pair_is_distinct(self):
        # M_{2,1} and M_{2,2} at n=3: equal signatures and no permutation
        # witness, which proves them non-conjugate
        members = {lab.text(): alg for lab, alg in enum_codim2(3)}
        a, b = members["M_{2,1}"], members["M_{2,2}"]
        assert signature(a) == signature(b)
        verdict = decide(a, b)
        assert verdict.kind == "distinct" and verdict.separator == NO_WITNESS

    def test_self_conjugate(self):
        algebra = nil_algebra(4, [(1, 2)])
        verdict = decide(algebra, algebra)
        assert verdict.is_conjugate and verdict.witness == identity_perm(4)

    def test_witnesses_are_reverified(self):
        # every conjugate verdict over a family maps a exactly onto b
        members = [alg for _, alg in enum_codim2(4)]
        for a, b in combinations(members, 2):
            verdict = decide(a, b)
            if verdict.is_conjugate:
                image = permute_subalgebra(a, verdict.witness)
                assert image is not None and same_algebra(image, b)
            else:
                assert verdict.kind == "distinct"
                assert (verdict.separator == NO_WITNESS) == (signature(a) == signature(b))


class TestClassifyFamily:
    def test_codim1_singletons(self):
        part = classify_family([alg for _, alg in enum_codim1(4)])
        assert len(part.classes) == 6
        assert all(len(cls) == 1 for cls in part.classes)

    def test_codim2_nilpotent_partition(self):
        members = [
            (lab, alg) for lab, alg in enum_codim2(5) if lab.kind in ("N", "NR", "NC")
        ]
        labels = [lab for lab, _ in members]
        part = classify_family([alg.nil_part() for _, alg in members])
        classes = sorted(
            sorted(labels[i].text() for i in cls)
            for cls in part.classes
            if len(cls) > 1
        )
        assert classes == [
            ["N_C_1", "N_R_1", "N_{1,2}"],
            ["N_C_2", "N_R_2", "N_{2,3}"],
            ["N_C_3", "N_R_3", "N_{3,4}"],
        ]
        singles = [labels[cls[0]].text() for cls in part.classes if len(cls) == 1]
        assert sorted(singles) == ["N_{1,3}", "N_{1,4}", "N_{2,4}"]

    def test_witness_edges_verified(self):
        members = [alg for _, alg in enum_codim2(4)]
        part = classify_family(members)
        for a, b, sigma in part.witness_edges:
            image = permute_subalgebra(part.members[a], sigma)
            assert image is not None and same_algebra(image, part.members[b])

    def test_cross_pairs_covered(self):
        # one separator per pair of classes, each pair exactly once
        for members in (enum_codim1(4), enum_codim2(3)):
            part = classify_family([alg for _, alg in members])
            pairs = [(c, d) for c, d, _ in part.separators]
            assert pairs == list(combinations(range(len(part.classes)), 2))

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatchError):
            classify_family([RegularSubalgebra(3), RegularSubalgebra(4)])

    def test_json_shape(self):
        part = classify_family([alg for _, alg in enum_codim1(3)])
        payload = part.to_json()
        assert set(payload) == {"classes", "witnesses", "separators", "unresolved"}
        assert all(isinstance(cls, list) for cls in payload["classes"])
        flat = [d for cls in payload["classes"] for d in cls]
        assert len(flat) == 4 and flat == sorted(set(flat))


class TestRecipeWitness:
    def test_b3_pair(self):
        a = FamilyLabel("B3", (1, 2, 1), 5)
        b = FamilyLabel("B3", (3, 4, 3), 5)
        assert recipe_witness(a, b) == (3, 4, 1, 2, 5)

    def test_same_member_identity(self):
        a = FamilyLabel("A2", (1, 2, 3), 5)
        assert recipe_witness(a, a) == identity_perm(5)

    def test_c1_overlapping_indices(self):
        a = FamilyLabel("C1", (1, 3), 7)
        b = FamilyLabel("C1", (3, 5), 7)
        sigma = recipe_witness(a, b)
        algebra = RegularSubalgebra(7, frozenset(), (h_vector(7, 1), h_vector(7, 3)))
        target = RegularSubalgebra(7, frozenset(), (h_vector(7, 3), h_vector(7, 5)))
        image = permute_subalgebra(algebra, sigma)
        assert image is not None and same_algebra(image, target)

    def test_nil_triple_moves(self):
        n = 5
        for i in (1, 2, 3):
            trio = {
                "N": make_drc(n, "D", i, 2),
                "NR": make_drc(n, "R", i, 2),
                "NC": make_drc(n, "C", i, 2),
            }
            lab = {
                "N": FamilyLabel("N", (i, i + 1), n),
                "NR": FamilyLabel("NR", (i,), n),
                "NC": FamilyLabel("NC", (i,), n),
            }
            for ka, kb in combinations(trio, 2):
                for x, y in ((ka, kb), (kb, ka)):
                    sigma = recipe_witness(lab[x], lab[y])
                    image = permute_subalgebra(trio[x], sigma)
                    assert image is not None and same_algebra(image, trio[y]), (i, x, y)

    def test_segment_cycle(self):
        sigma = recipe_witness(FamilyLabel("C", (1,), 5, k=3), FamilyLabel("R", (1,), 5, k=3))
        image = permute_subalgebra(make_drc(5, "C", 1, 3), sigma)
        assert image is not None and same_algebra(image, make_drc(5, "R", 1, 3))

    def test_uncovered_pair(self):
        with pytest.raises(RecipeError):
            recipe_witness(FamilyLabel("A1", (1, 2, 3, 4), 5), FamilyLabel("B1", (1, 2, 4), 5))
        with pytest.raises(RecipeError):
            recipe_witness(FamilyLabel("D", (1,), 5, k=2), FamilyLabel("R", (1,), 5, k=2))
