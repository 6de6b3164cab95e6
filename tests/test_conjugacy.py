"""Permutation action, witness search, verdicts, and class partitions."""

from itertools import combinations, pairwise

import pytest

from regalg import conjugacy, core, invariants
from regalg.core import (
    DimensionMismatchError,
    NotClosedError,
    RegularSubalgebra,
    full_nil_set,
    h_vector,
    parse_descriptor,
)
from regalg.conjugacy import (
    NO_WITNESS,
    classify_family,
    decide,
    maps_onto,
    permute_subalgebra,
)
from regalg.families import (
    DIM2_KINDS,
    FamilyLabel,
    RecipeError,
    enum_codim1,
    enum_codim2,
    enum_dim2,
    enum_drc,
    make_drc,
    perm_from_partial,
    recipe_witness,
)
from regalg.invariants import FIELD_ORDER, signature

import bruteforce
from wide_spans import WIDE_SPAN_G12


def nil_algebra(n, removed):
    return RegularSubalgebra(n, full_nil_set(n) - set(removed), ())


class TestPermHelpers:
    def test_partial_fill(self):
        assert perm_from_partial(5, {1: 3, 2: 4}) == (3, 4, 1, 2, 5)

    def test_partial_rejects_collision(self):
        with pytest.raises(ValueError):
            perm_from_partial(4, {1: 2, 3: 2})


class TestPermuteSubalgebra:
    def test_column_pair_to_unit_pair(self):
        nc1 = nil_algebra(4, [(1, 3), (2, 3)])
        image = permute_subalgebra(nc1, perm_from_partial(4, {2: 3, 3: 2}))
        assert image == nil_algebra(4, [(1, 2), (2, 3)])

    def test_identity(self):
        algebra = nil_algebra(4, [(1, 2)])
        assert permute_subalgebra(algebra, (1, 2, 3, 4)) == algebra

    def test_unit_pair_to_row_pair(self):
        n12 = nil_algebra(4, [(1, 2), (2, 3)])
        image = permute_subalgebra(n12, perm_from_partial(4, {1: 2, 2: 1}))
        assert image == nil_algebra(4, [(1, 2), (1, 3)])

    def test_none_when_leaving_upper_triangle(self):
        algebra = RegularSubalgebra(3, full_nil_set(3), ())
        assert permute_subalgebra(algebra, perm_from_partial(3, {1: 2, 2: 1})) is None

    def test_cartan_entries_relabelled(self):
        algebra = RegularSubalgebra(4, frozenset(), (h_vector(4, 2),))
        image = permute_subalgebra(algebra, perm_from_partial(4, {2: 4, 4: 2}))
        assert image.cartan_gens == ((0, 0, -1, 1),)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            permute_subalgebra(RegularSubalgebra(3), (1, 1, 2))

    def test_maps_onto_rejects_what_permute_subalgebra_rejects(self):
        # the same message, also when the other operand has another n
        for b in (RegularSubalgebra(3), RegularSubalgebra(4)):
            with pytest.raises(ValueError, match=r"is not a permutation of 1\.\.3"):
                maps_onto(RegularSubalgebra(3), (1, 1, 2), b)


class TestPermConjugate:
    """The witness decide reports: the lexicographically first permutation
    carrying a onto b, or None."""

    def test_finds_first_witness(self):
        nc1 = nil_algebra(4, [(1, 3), (2, 3)])
        n12 = nil_algebra(4, [(1, 2), (2, 3)])
        assert decide(nc1, n12).witness == (1, 3, 2, 4)

    def test_self_gives_identity(self):
        algebra = nil_algebra(4, [(1, 2), (2, 3)])
        assert decide(algebra, algebra).witness == (1, 2, 3, 4)

    def test_absent_for_separated_unit_pairs(self):
        a = nil_algebra(5, [(1, 2), (3, 4)])
        b = nil_algebra(5, [(2, 3), (4, 5)])
        assert decide(a, b).witness is None

    def test_spans_compared_not_generator_lists(self):
        a = RegularSubalgebra(3, {(1, 3)}, (h_vector(3, 1), h_vector(3, 2)))
        b = RegularSubalgebra(3, {(1, 3)}, ((1, 0, -1), (0, 1, -1)))
        assert decide(a, b).witness == (1, 2, 3)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            decide(RegularSubalgebra(3), RegularSubalgebra(4))

    def test_signatures_compared_above_search_guard(self):
        a = RegularSubalgebra(9, {(1, 2)})
        verdict = decide(a, RegularSubalgebra(9, {(1, 2), (1, 3), (2, 3)}))
        assert verdict.witness is None and verdict.separator == "dim"
        # equal signatures, but the colour multisets differ: the search ends
        # at its setup, which refutes every witness, so nothing is guarded
        for n in (9, 20):
            verdict = decide(parse_descriptor(f"n={n}; nil=(1,4),(1,5),(2,5),(3,5)"),
                             parse_descriptor(f"n={n}; nil=(1,4),(1,5),(2,4),(3,5)"))
            assert verdict.witness is None and verdict.separator == "noPermutationWitness"
        # the first descent runs at every n and reaches this witness
        assert decide(a, RegularSubalgebra(9, {(2, 3)})).witness == (2, 3, 1, 4, 5, 6, 7, 8, 9)
        # this descent dead-ends at 2 and the fields agree: only the
        # resumed search is guarded
        with pytest.raises(ValueError, match="guarded at n <= 8, got n=9"):
            decide(parse_descriptor("n=9; nil=(1,2),(3,5),(4,5)"),
                   parse_descriptor("n=9; nil=(1,5),(2,3),(4,5)"))

    def test_requires_closed(self):
        with pytest.raises(NotClosedError):
            decide(RegularSubalgebra(3, {(1, 2), (2, 3)}, ()), RegularSubalgebra(3))


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
        assert image == c2

    def test_unit_pair_separation_by_column_action(self):
        members = {lab.text(): alg for lab, alg in enum_codim2(5)}
        a = RegularSubalgebra(5, members["N_{1,2}"].nil_set)
        b = RegularSubalgebra(5, members["N_{3,4}"].nil_set)
        verdict = decide(a, b)
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
        assert image == b

    def test_witness_free_pair_is_distinct(self):
        # M_{2,1} and M_{2,2} at n=3: equal signatures and no permutation
        # witness, which proves them non-conjugate
        members = {lab.text(): alg for lab, alg in enum_codim2(3)}
        a, b = members["M_{2,1}"], members["M_{2,2}"]
        assert signature(a) == signature(b)
        verdict = decide(a, b)
        assert verdict.kind == "distinct" and verdict.separator == NO_WITNESS

    def test_closure_checked_once_per_signature(self, monkeypatch):
        calls = []

        def counting(algebra, is_closed=core.is_closed):
            calls.append(algebra)
            return is_closed(algebra)

        monkeypatch.setattr(core, "is_closed", counting)
        a, b = nil_algebra(4, [(1, 3), (2, 3)]), nil_algebra(4, [(1, 2), (2, 3)])
        signature.cache_clear()
        signature(a)
        assert calls == [a]
        signature.cache_clear()
        calls.clear()
        assert decide(a, b).is_conjugate
        assert calls == [a, b]

    def test_self_conjugate(self):
        algebra = nil_algebra(4, [(1, 2)])
        verdict = decide(algebra, algebra)
        assert verdict.is_conjugate and verdict.witness == (1, 2, 3, 4)

    def test_witnesses_are_reverified(self):
        # every conjugate verdict over a family maps a exactly onto b
        members = [alg for _, alg in enum_codim2(4)]
        for a, b in combinations(members, 2):
            verdict = decide(a, b)
            if verdict.is_conjugate:
                image = permute_subalgebra(a, verdict.witness)
                assert image == b
            else:
                assert verdict.kind == "distinct"
                assert (verdict.separator == NO_WITNESS) == (signature(a) == signature(b))


class TestDecideStopsAtTheSeparator:
    """decide computes no signature field after the one that separates,
    and none at all before both operands are known to be closed."""

    @pytest.fixture
    def no_late_fields(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a field after the separator was computed")

        monkeypatch.setattr(invariants, "min_rank", fail)
        monkeypatch.setattr(invariants, "cartan_record", fail)

    def test_derived_dims_separator(self, no_late_fields):
        members = {lab.text(): alg for lab, alg in enum_codim2(5)}
        a = RegularSubalgebra(5, members["N_{1,2}"].nil_set)
        b = RegularSubalgebra(5, members["N_{2,3}"].nil_set)
        assert decide(a, b).separator == "derivedDims"

    def test_max_rank_separator(self, no_late_fields):
        members = {lab.text(): alg for lab, alg in enum_codim1(4)}
        assert decide(members["L_1"], members["L_2"]).separator == "maxRank"

    def test_wide_span_at_n20(self, no_late_fields):
        # both spans have 12 generators; the second is zero at coordinate
        # 20, so the support patterns differ in size, and min_rank, whose
        # search is slowest on spans like the first, is never run
        a = parse_descriptor(WIDE_SPAN_G12[0])
        b = RegularSubalgebra(20, (), [h_vector(20, k) for k in range(1, 13)])
        verdict = decide(a, b)
        assert verdict.kind == "distinct" and verdict.separator == "maxRank"

    def test_signature_memo_untouched(self):
        members = {lab.text(): alg for lab, alg in enum_codim1(5)}
        before = signature.cache_info()
        assert decide(members["L_2"], members["L_3"]).separator == "cartanSignature"
        assert decide(members["L_2"], members["L_2"]).is_conjugate
        assert signature.cache_info() == before

    def test_closure_of_both_operands_checked_before_any_field(self, monkeypatch):
        def fail(algebra):
            raise AssertionError("a field was computed before the closure checks")

        def no_search(x, y):
            raise AssertionError("the witness search ran before the closure checks")

        monkeypatch.setattr(invariants, "_FIELD_KERNELS", {attr: fail for attr, _ in FIELD_ORDER})
        monkeypatch.setattr(conjugacy, "_witness_search", no_search)
        a = RegularSubalgebra(3, {(1, 3)})
        b = RegularSubalgebra(3, {(1, 2), (2, 3)})
        with pytest.raises(NotClosedError) as info:
            decide(a, b)
        assert info.value.descriptor == b.descriptor()
        # with neither closed, the first operand is named
        with pytest.raises(NotClosedError) as info:
            decide(b, RegularSubalgebra(3, {(1, 2), (2, 3)}, [h_vector(3, 1)]))
        assert info.value.descriptor == b.descriptor()


class TestDecideAnswersFromTheFirstDescent:
    """decide runs the witness search's first descent before any signature
    field, and resumes that search only when the fields agree."""

    @pytest.fixture
    def steps(self, monkeypatch):
        # every value the witness search yields to decide
        search, seen = conjugacy._witness_search, []

        def recording(a, b):
            for step in search(a, b):
                seen.append(step)
                yield step

        monkeypatch.setattr(conjugacy, "_witness_search", recording)
        return seen

    def test_descent_leaf_needs_no_field(self, monkeypatch, steps):
        def fail(algebra):
            raise AssertionError("a field was computed for a pair the descent answers")

        monkeypatch.setattr(invariants, "_FIELD_KERNELS", {attr: fail for attr, _ in FIELD_ORDER})
        for text, sigma in [("n=5; nil=(1,2),(1,3),(2,3),(4,5); cartan=H1,H4", (1, 3, 4, 2, 5)),
                            ("n=6; nil=(1,4),(1,6),(2,4),(2,6),(3,5),(3,6),(4,6); cartan=H2,H[3,5]",
                             (1, 2, 4, 3, 6, 5))]:
            a = parse_descriptor(text)
            b = permute_subalgebra(a, sigma)
            steps.clear()
            verdict = decide(a, b)
            assert verdict.is_conjugate
            assert verdict.witness == bruteforce.witness_scan_exhaustive(a, b) == steps[0]
            assert steps == [verdict.witness]

    def test_descent_leaf_above_the_search_guard(self, monkeypatch, steps):
        def fail(algebra):
            raise AssertionError("a field was computed for a pair the descent answers")

        monkeypatch.setattr(invariants, "_FIELD_KERNELS", {attr: fail for attr, _ in FIELD_ORDER})
        verdict = decide(parse_descriptor("n=20; nil=(1,2)"), parse_descriptor("n=20; nil=(2,3)"))
        assert verdict.witness == (2, 3, 1, *range(4, 21))
        assert steps == [verdict.witness]

    def test_dead_end_resumes_the_same_search(self, steps):
        # the descent sends 1 -> 1 and finds no target for 2, so the
        # witness comes from the search resumed there
        a = parse_descriptor("n=5; nil=(1,2),(3,5),(4,5)")
        b = parse_descriptor("n=5; nil=(1,5),(2,3),(4,5)")
        verdict = decide(a, b)
        assert verdict.witness == (2, 3, 1, 4, 5) == bruteforce.witness_scan_exhaustive(a, b)
        assert steps == [None, (2, 3, 1, 4, 5)]

    def test_dead_end_then_field_separator(self, steps):
        # the spans of L_2 and L_3 admit no descent past the Cartan check;
        # the fields separate them, and the search is not resumed
        members = {lab.text(): alg for lab, alg in enum_codim1(5)}
        verdict = decide(members["L_2"], members["L_3"])
        assert verdict.kind == "distinct" and verdict.separator == "cartanSignature"
        assert steps == [None]


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
        part = classify_family([RegularSubalgebra(5, alg.nil_set) for _, alg in members])
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
        # each edge links consecutive class members in index order and
        # carries the lexicographically first witness, the one decide prints
        families = [family(n) for n in (4, 5, 6) for family in (enum_codim1, enum_codim2, enum_dim2)]
        families += [enum_drc(n, k) for n in (4, 5, 6) for k in range(1, n)]
        for members in families:
            part = classify_family([alg for _, alg in members])
            consecutive = {pair for cls in part.classes for pair in pairwise(sorted(cls))}
            assert {(i, j) for i, j, _ in part.witness_edges} == consecutive
            for i, j, sigma in part.witness_edges:
                a, b = part.members[i], part.members[j]
                assert permute_subalgebra(a, sigma) == b
                assert sigma == bruteforce.witness_scan_exhaustive(a, b) == decide(a, b).witness

    def test_scan_result_is_reverified(self, monkeypatch):
        # a search result that is no witness raises in decide, from the
        # first descent and from the search resumed after it, and in
        # classify, from the descent and from the whole search after it
        a, b = nil_algebra(4, [(1, 3), (2, 3)]), nil_algebra(4, [(1, 2), (2, 3)])
        assert not maps_onto(a, (4, 3, 2, 1), b)
        assert signature(a) == signature(b)  # so decide resumes the search
        for steps in ([(4, 3, 2, 1)], [None, (4, 3, 2, 1)]):
            monkeypatch.setattr(conjugacy, "_witness_search", lambda x, y: iter(steps))
            with pytest.raises(AssertionError, match="re-verification"):
                decide(a, b)
            with pytest.raises(AssertionError, match="re-verification"):
                classify_family([a, b])

    def test_one_signature_per_class(self, monkeypatch):
        # every member of the six classify-n7 families that joins a class
        # is placed by the first descent, so only the founders compute a
        # signature (the fields-first pass computed 437); each class and
        # member start one search, which a dead end pauses (restarting it
        # after the signature started 397)
        search, starts = conjugacy._witness_search, []
        monkeypatch.setattr(conjugacy, "_witness_search", lambda a, b: starts.append(1) or search(a, b))
        families = [enum_codim1(7), enum_codim2(7), enum_dim2(7), *(enum_drc(7, k) for k in (1, 2, 3))]
        signature.cache_clear()
        classes = sum(len(classify_family([alg for _, alg in members]).classes) for members in families)
        assert (classes, signature.cache_info().misses, len(starts)) == (106, 106, 394)

    def test_closure_checked_past_a_class_of_the_same_colours(self):
        # the last member has the colours of the class before it, so its
        # first descent runs from that class and dead-ends, and its
        # signature's closure check names it
        members = [RegularSubalgebra(5, {(1, 2), (1, 3), (2, 3), (4, 5)}),
                   RegularSubalgebra(5, {(1, 2), (3, 4), (3, 5), (4, 5)}),
                   RegularSubalgebra(5, {(1, 2), (1, 3), (2, 5), (4, 5)})]
        assert len({tuple(sorted(m.colours)) for m in members}) == 1
        with pytest.raises(NotClosedError) as info:
            classify_family(members)
        assert info.value.descriptor == members[2].descriptor()
        assert len(classify_family(members[:2]).classes) == 1

    def test_cross_pairs_covered(self):
        # one separator per pair of classes, each pair exactly once
        for members in (enum_codim1(4), enum_codim2(3)):
            part = classify_family([alg for _, alg in members])
            pairs = [(c, d) for c, d, _ in part.separators()]
            assert pairs == list(combinations(range(len(part.classes)), 2))

    def test_mixed_n_rejected(self):
        with pytest.raises(DimensionMismatchError):
            classify_family([RegularSubalgebra(3), RegularSubalgebra(4)])

    def test_no_members(self):
        part = classify_family(())
        assert (part.classes, part.witness_edges, list(part.separators())) == ((), (), [])

    @pytest.mark.parametrize("n", range(3, 8))
    def test_report_order(self, n):
        families = [enum_codim1(n), enum_codim2(n), enum_dim2(n),
                    *(enum_drc(n, k) for k in range(1, n))]
        for members in families:
            part = classify_family([alg for _, alg in members])
            assert part.descriptors == tuple(m.descriptor() for m in part.members)
            # equal descriptors are one algebra, so first descriptors differ
            first = [part.descriptors[cls[0]] for cls in part.classes]
            assert all(x < y for x, y in zip(first, first[1:]))
            assert all(
                [part.descriptors[i] for i in cls] == sorted(part.descriptors[i] for i in cls)
                for cls in part.classes
            )
        # at k = 1, D_i, R_i and C_i remove the same unit: one algebra, one class
        members = enum_drc(n, 1)
        part = classify_family([alg for _, alg in members])
        class_of = {i: c for c, cls in enumerate(part.classes) for i in cls}
        by_index: dict[int, set[int]] = {}
        for i, (lab, _) in enumerate(members):
            by_index.setdefault(lab.indices[0], set()).add(class_of[i])
        assert len(by_index) == n - 1 and all(len(cs) == 1 for cs in by_index.values())


class TestRecipeWitness:
    def test_b3_pair(self):
        a = FamilyLabel("B3", (1, 2, 1), 5)
        b = FamilyLabel("B3", (3, 4, 3), 5)
        assert recipe_witness(a, b) == (3, 4, 1, 2, 5)

    def test_same_member_identity(self):
        a = FamilyLabel("A2", (1, 2, 3), 5)
        assert recipe_witness(a, a) == (1, 2, 3, 4, 5)

    def test_c1_overlapping_indices(self):
        a = FamilyLabel("C1", (1, 3), 7)
        b = FamilyLabel("C1", (3, 5), 7)
        sigma = recipe_witness(a, b)
        algebra = RegularSubalgebra(7, frozenset(), (h_vector(7, 1), h_vector(7, 3)))
        target = RegularSubalgebra(7, frozenset(), (h_vector(7, 3), h_vector(7, 5)))
        image = permute_subalgebra(algebra, sigma)
        assert image == target

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
                    assert image == trio[y], (i, x, y)

    def test_segment_cycle(self):
        sigma = recipe_witness(FamilyLabel("C", (1,), 5, k=3), FamilyLabel("R", (1,), 5, k=3))
        image = permute_subalgebra(make_drc(5, "C", 1, 3), sigma)
        assert image == make_drc(5, "R", 1, 3)

    def test_uncovered_pair(self):
        with pytest.raises(RecipeError):
            recipe_witness(FamilyLabel("A1", (1, 2, 3, 4), 5), FamilyLabel("B1", (1, 2, 4), 5))
        with pytest.raises(RecipeError):
            recipe_witness(FamilyLabel("D", (1,), 5, k=2), FamilyLabel("R", (1,), 5, k=2))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_every_ordered_pair(self, n):
        # the paper's transposition products conjugate the members of one
        # dim2 family, the triple N_{i,i+1}, N_R_i, N_C_i, and R_i, C_i at
        # one k; every other label is covered only by itself
        def group(label):
            kind, idx = label.kind, label.indices
            if kind in DIM2_KINDS:
                return kind
            if kind in ("NR", "NC") or (kind == "N" and idx[1] == idx[0] + 1):
                return ("triple", idx[0])
            if kind in ("R", "C"):
                return ("segment", idx[0], label.k)
            return label

        members = enum_dim2(n) + enum_codim2(n)
        members += [m for k in range(1, n) for m in enum_drc(n, k)]
        for la, aa in members:
            for lb, ab in members:
                if group(la) == group(lb):
                    assert maps_onto(aa, recipe_witness(la, lb), ab), (la.text(), lb.text())
                else:
                    with pytest.raises(RecipeError, match="no recipe covers the pair"):
                        recipe_witness(la, lb)
