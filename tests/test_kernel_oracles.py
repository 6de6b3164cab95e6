"""The exact kernels against their brute-force references: the integer
row reduction by Fraction elimination, generic rank by term rank, root
vectors by one annihilator, minimum rank by the column matroid's
hyperplanes, and the pruned witness search by the full n! scan; and the
soundness of signatures and verdicts under relabeling."""

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regalg import linalg
from regalg.conjugacy import (
    _column_relations,
    _witness_scan,
    classify_family,
    decide,
    permute_subalgebra,
    same_algebra,
)
from regalg.core import RegularSubalgebra, full_nil_set
from regalg.families import enum_codim1, enum_codim2, enum_dim2, enum_drc
from regalg.invariants import root_vectors_in_span, signature
from regalg.starcalc import adjoint_image_pattern, generic_max_rank, min_rank

import bruteforce


def transitive_closure(n, pairs):
    nil = set(pairs)
    for k in range(1, n + 1):
        for i in range(1, k):
            for j in range(k + 1, n + 1):
                if (i, k) in nil and (k, j) in nil:
                    nil.add((i, j))
    return frozenset(nil)


@st.composite
def cartan_spans(draw, n):
    """Independent traceless integer vectors.  In half the draws some of them
    are e_p - e_q; in the other half none is, so that the span seldom holds
    a root vector and min_rank has to search the column matroid."""
    with_roots = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(0, n - 1))):
        if with_roots and draw(st.booleans()):
            p, q = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            v = [0] * n
            v[p], v[q] = 1, -1
        else:
            v = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
            v.append(-sum(v))
        if bruteforce.rank(gens + [v]) == len(gens) + 1:
            gens.append(v)
    return gens


@st.composite
def closed_algebras(draw, max_n, min_n=2):
    """A closed nil set and a Cartan span; one draw in four is Cartan-only."""
    n = draw(st.integers(min_n, max_n))
    pairs = set() if draw(st.integers(0, 3)) == 0 else draw(
        st.sets(st.sampled_from(sorted(full_nil_set(n)))))
    return RegularSubalgebra(n, transitive_closure(n, pairs), draw(cartan_spans(n)))


@st.composite
def integer_matrices(draw):
    """(n, rows): up to five integer rows of length n, one in four of them an
    integer combination of two earlier rows."""
    n = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([c * x + d * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
    return n, rows


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
@example((3, []))
@example((3, [[0, 0, 0]]))
@example((4, [[2, -4, 6, 0], [0, 3, 1, -4], [1, -2, 3, 0], [2, -1, 7, -4]]))
@example((3, [[-2, 1, 1], [0, -3, 3]]))
def test_integer_elimination_matches_fraction_oracle(matrix):
    n, rows = matrix
    reduced = linalg.rref_primitive(rows)
    assert reduced == bruteforce.rref_primitive(rows)
    assert linalg.rank(rows) == bruteforce.rank(rows) == len(reduced)
    assert linalg.annihilator(rows, n) == bruteforce.annihilator(rows, n)
    columns = [[row[k] for row in rows] for k in range(n)]
    relations = _column_relations(rows, n)
    for k, relation in enumerate(relations):
        independent = bruteforce.rank(columns[:k + 1]) > bruteforce.rank(columns[:k])
        assert (relation is None) == independent, k
        if relation is not None:
            d, coeffs = relation
            assert d and all(p < k and relations[p] is None for p, _ in coeffs), k
            combination = [sum(m * columns[p][r] for p, m in coeffs) for r in range(len(rows))]
            assert [d * x for x in columns[k]] == combination, k


def family_members(n):
    members = enum_codim1(n) + enum_codim2(n) + enum_dim2(n)
    for k in range(1, n):
        members += enum_drc(n, k)
    return members


def assert_generic_ranks_match(algebra):
    assert generic_max_rank(algebra) == bruteforce.instantiation_rank(algebra)
    for h in root_vectors_in_span(algebra) + algebra.cartan_gens:
        pattern = adjoint_image_pattern(h, algebra)
        assert generic_max_rank(pattern) == bruteforce.instantiation_rank(pattern), h


@settings(max_examples=150, deadline=None)
@given(closed_algebras(max_n=9))
def test_generic_rank_is_the_instantiation_rank(algebra):
    assert_generic_ranks_match(algebra)


@settings(max_examples=150, deadline=None)
@given(closed_algebras(max_n=9))
def test_root_vectors_match_pairwise_membership(algebra):
    assert root_vectors_in_span(algebra) == bruteforce.root_vectors_by_rank(algebra)


# A diagonal span and a relabeling of it: min rank 3 on both sides, which a
# coefficient search over a coordinate-dependent basis misreads as 4 for
# the first, so that it calls the pair DISTINCT (minRank).
SPAN_GENERATORS = ((-5, 3, -3, -3, 2, 6), (1, 0, -1, -1, -1, 2), (5, -1, 1, 5, -2, -8))
SPAN_AND_RELABELING = (RegularSubalgebra(6, frozenset(), SPAN_GENERATORS), (2, 6, 1, 5, 4, 3))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7).flatmap(cartan_spans).filter(bool))
@example(list(SPAN_GENERATORS))
def test_min_rank_is_the_min_support(gens):
    algebra = RegularSubalgebra(len(gens[0]), frozenset(), gens)
    assert min_rank(algebra) == bruteforce.min_support(algebra)


@settings(max_examples=150, deadline=None)
@given(closed_algebras(max_n=6), st.data())
def test_witness_scan_matches_rref_scan(a, data):
    image = permute_subalgebra(a, data.draw(st.permutations(range(1, a.n + 1))))
    b = a if image is None else image
    if data.draw(st.booleans()):
        b = RegularSubalgebra(b.n, b.nil_set, data.draw(cartan_spans(b.n)))
    assert _witness_scan(a, b) == bruteforce.witness_scan_by_rref(a, b)


@st.composite
def upper_relabelings(draw, algebra):
    """A permutation keeping every nil position above the diagonal: each
    coordinate goes to its place in a random linear extension of the nil
    poset."""
    remaining = set(range(1, algebra.n + 1))
    sigma = [0] * algebra.n
    for place in range(1, algebra.n + 1):
        minimal = sorted(i for i in remaining
                         if not any((j, i) in algebra.nil_set for j in remaining))
        i = draw(st.sampled_from(minimal))
        sigma[i - 1] = place
        remaining.remove(i)
    return tuple(sigma)


@settings(max_examples=150, deadline=None)
@given(closed_algebras(max_n=7), st.data())
def test_witness_scan_matches_exhaustive_scan(a, data):
    b = permute_subalgebra(a, data.draw(upper_relabelings(a)))
    copy = data.draw(st.sampled_from(
        ["relabeled", "other span", "reordered generators", "other basis"]))
    if copy == "other span":
        b = RegularSubalgebra(b.n, b.nil_set, data.draw(cartan_spans(b.n)))
    elif copy == "reordered generators":
        b = RegularSubalgebra(b.n, b.nil_set, data.draw(st.permutations(b.cartan_gens)))
    elif copy == "other basis" and len(b.cartan_gens) > 1:
        first, second, *rest = b.cartan_gens
        b = RegularSubalgebra(b.n, b.nil_set, [[x + y for x, y in zip(first, second)], second, *rest])
    assert _witness_scan(a, b) == bruteforce.witness_scan_exhaustive(a, b)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_family_witnesses_match_exhaustive_scan(n):
    """Every member against the first member of its signature group, the
    B2/B3/B4 cross pairs without a witness included."""
    groups: dict = {}
    for _, algebra in family_members(n):
        groups.setdefault(signature(algebra), []).append(algebra)
    for group in groups.values():
        for a in group:
            assert _witness_scan(a, group[0]) == bruteforce.witness_scan_exhaustive(a, group[0])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_family_members_match_the_oracles(n):
    members = family_members(n)
    for _, algebra in members:
        assert_generic_ranks_match(algebra)
        assert root_vectors_in_span(algebra) == bruteforce.root_vectors_by_rank(algebra)
    by_kind: dict[tuple, list] = {}
    for label, algebra in members:
        by_kind.setdefault((label.kind, label.k), []).append(algebra)
    for group in by_kind.values():
        for a, b in zip(group, group[1:]):
            assert _witness_scan(a, b) == bruteforce.witness_scan_by_rref(a, b)


def relabeled_algebras(max_n):
    """A closed algebra and a permutation that keeps it upper triangular."""
    return closed_algebras(max_n).flatmap(lambda a: st.tuples(st.just(a), upper_relabelings(a)))


@settings(max_examples=200, deadline=None)
@given(relabeled_algebras(max_n=8))
@example(SPAN_AND_RELABELING)
def test_signature_is_invariant_under_relabeling(pair):
    a, sigma = pair
    assert signature(permute_subalgebra(a, sigma)) == signature(a)


@settings(max_examples=200, deadline=None)
@given(relabeled_algebras(max_n=6))
@example(SPAN_AND_RELABELING)
def test_relabeled_copy_is_decided_conjugate(pair):
    a, sigma = pair
    b = permute_subalgebra(a, sigma)
    verdict = decide(a, b)
    assert verdict.kind == "conjugate"
    image = permute_subalgebra(a, verdict.witness)
    assert image is not None and same_algebra(image, b)


@st.composite
def relabeled_families(draw):
    """Closed algebras at one n <= 6: up to three drawn ones, each followed
    by relabeled copies, some of which get another Cartan span on the
    relabeled nil set."""
    n = draw(st.integers(2, 6))
    members = []
    for a in draw(st.lists(closed_algebras(max_n=n, min_n=n), min_size=1, max_size=3)):
        members.append(a)
        for _ in range(draw(st.integers(0, 2))):
            b = permute_subalgebra(a, draw(upper_relabelings(a)))
            if draw(st.booleans()):
                b = RegularSubalgebra(n, b.nil_set, draw(cartan_spans(n)))
            members.append(b)
    return members


@settings(max_examples=60, deadline=None)
@given(relabeled_families())
@example([alg for _, alg in enum_codim2(3)])  # holds a witness-free pair
def test_classify_family_agrees_with_decide(members):
    part = classify_family(members)
    class_of = {i: c for c, cls in enumerate(part.classes) for i in cls}
    for i, j in combinations(range(len(members)), 2):
        assert (class_of[i] == class_of[j]) == decide(members[i], members[j]).is_conjugate
    for c, d, name in part.separators:
        assert name == decide(members[part.classes[c][0]], members[part.classes[d][0]]).separator
