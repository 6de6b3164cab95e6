"""Invariant signatures and the separator dispatch."""

import json
from itertools import combinations

import pytest

from regalg.core import (
    NotClosedError,
    RegularSubalgebra,
    full_cartan,
    full_nil_set,
    h_vector,
)
from regalg.families import enum_codim1, enum_codim2
from regalg.invariants import (
    SIGNATURE_CACHE_SIZE,
    cartan_record,
    separate,
    signature,
)
from regalg.starcalc import root_classes

import bruteforce


def codim1_by_text(n):
    return {lab.text(): alg for lab, alg in enum_codim1(n)}


class TestSignature:
    def test_full_solvable_n4(self):
        sig = signature(RegularSubalgebra(4, full_nil_set(4), full_cartan(4)))
        assert sig.dim == 9
        assert sig.nil_dim == 6
        assert sig.derived_dims == (6, 3, 0)
        assert sig.col_action_seq == (3, 2, 1, 0)
        assert sig.max_rank == 4
        assert sig.min_rank == 1

    def test_single_unit(self):
        sig = signature(RegularSubalgebra(3, {(1, 3)}, ()))
        assert (sig.dim, sig.nil_dim, sig.max_rank, sig.min_rank) == (1, 1, 1, 1)

    def test_generator_dropped_member_has_two_records(self):
        algebra = codim1_by_text(4)["L_2"]
        sig = signature(algebra)
        assert sig.nil_dim == 6
        assert len(sig.cartan_signature) == 2

    def test_zero_algebra(self):
        sig = signature(RegularSubalgebra(3))
        assert sig.dim == 0 and sig.max_rank == 0 and sig.min_rank == 0

    def test_not_closed_rejected(self):
        with pytest.raises(NotClosedError):
            signature(RegularSubalgebra(3, {(1, 2), (2, 3)}, ()))

    def test_derived_dims_non_increasing_after_first(self):
        for _, algebra in enum_codim2(5):
            dims = signature(algebra).derived_dims
            assert all(a >= b for a, b in zip(dims[1:], dims[2:]))


class TestRootVectors:
    def test_full_cartan_has_all_pairs(self):
        algebra = RegularSubalgebra(4, full_nil_set(4), full_cartan(4))
        assert root_classes(algebra) == [[1, 2, 3, 4]]
        assert len(bruteforce.root_vectors(algebra)) == 6
        assert bruteforce.root_vectors(algebra) == bruteforce.root_vectors_by_rank(algebra)

    def test_partial_sum_span(self):
        algebra = RegularSubalgebra(4, full_nil_set(4), (h_vector(4, 1), h_vector(4, 3)))
        assert root_classes(algebra) == [[1, 2], [3, 4]]
        assert bruteforce.root_vectors(algebra) == ((1, -1, 0, 0), (0, 0, 1, -1))
        assert bruteforce.root_vectors(algebra) == bruteforce.root_vectors_by_rank(algebra)

    def test_adjacent_pair_span_gains_combination(self):
        algebra = RegularSubalgebra(4, frozenset(), (h_vector(4, 1), h_vector(4, 2)))
        assert root_classes(algebra) == [[1, 2, 3], [4]]
        assert bruteforce.root_vectors(algebra) == (
            (1, -1, 0, 0),
            (1, 0, -1, 0),
            (0, 1, -1, 0),
        )
        assert bruteforce.root_vectors(algebra) == bruteforce.root_vectors_by_rank(algebra)


class TestCartanRecord:
    @pytest.mark.parametrize("p, q", [(0, 2), (2, 2), (3, 2), (1, 5)])
    def test_rejects_pairs_out_of_range(self, p, q):
        with pytest.raises(ValueError, match="out of range for n=4"):
            cartan_record(RegularSubalgebra(4, full_nil_set(4)), p, q)


class TestSeparate:
    def test_first_field_wins(self):
        members = codim1_by_text(4)
        name = separate(signature(members["L_1"]), signature(members["L_{1,2}"]))
        assert name == "nilDim"  # dims tie, nil dimensions differ

    def test_equal_signatures(self):
        a = signature(RegularSubalgebra(4, {(1, 3)}, ()))
        assert separate(a, a) is None

    def test_codim2_consecutive_unit_pairs(self):
        members = {lab.text(): alg for lab, alg in enum_codim2(5)}
        a = signature(RegularSubalgebra(5, members["N_{1,2}"].nil_set))
        b = signature(RegularSubalgebra(5, members["N_{2,3}"].nil_set))
        # the first divergence is already in the series dimensions; the
        # column-action sequences differ as well
        assert separate(a, b) == "derivedDims"
        assert a.col_action_seq != b.col_action_seq

    def test_symmetric_outcome(self):
        members = [alg for _, alg in enum_codim2(4)]
        for a, b in combinations(members, 2):
            sa, sb = signature(a), signature(b)
            assert (separate(sa, sb) is None) == (separate(sb, sa) is None)


class TestCodim1Distinctness:
    def test_pairwise_distinct_signatures(self):
        for n in range(3, 7):
            sigs = [signature(alg) for _, alg in enum_codim1(n)]
            for a, b in combinations(sigs, 2):
                assert separate(a, b) is not None


class TestSerialization:
    def test_json_field_names(self):
        sig = signature(RegularSubalgebra(4, full_nil_set(4), full_cartan(4)))
        payload = sig.to_json()
        # literal keys: renaming an attribute must not silently rename a key
        assert list(payload) == [
            "dim", "nilDim", "derivedDims", "colActionSeq", "rowActionSeq",
            "maxRank", "minRank", "cartanSignature", "lastRowCartanFlag",
        ]
        assert payload["cartanSignature"]
        for record in payload["cartanSignature"]:
            assert list(record) == ["adjColDim", "adjRowDim", "adjMaxRank"]
        encoded = json.dumps(payload, sort_keys=True)
        assert json.loads(encoded) == payload

    def test_cartan_records_sorted(self):
        algebra = RegularSubalgebra(4, full_nil_set(4), full_cartan(4))
        records = signature(algebra).to_json()["cartanSignature"]
        keys = [(r["adjColDim"], r["adjRowDim"], r["adjMaxRank"]) for r in records]
        assert keys == sorted(keys)


def test_signature_cache_is_bounded():
    # `verify --n 8` computes 114 signatures: none is evicted
    assert signature.cache_info().maxsize == SIGNATURE_CACHE_SIZE >= 4096
