"""The exact kernels against their brute-force references: the integer
row reduction by Fraction elimination, generic rank by term rank, the
closed-form Cartan records by the adjoint pattern, root vectors by one
annihilator, minimum rank by the column matroid's hyperplanes, the
pruned witness search by the full n! scan, and the fewest removals that
avoid a position by every closed nil set; and the soundness of
signatures and verdicts under relabeling."""

from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regalg import conjugacy, linalg
from regalg.conjugacy import (
    NO_WITNESS,
    ConjugacyVerdict,
    _witness_search,
    classify_family,
    decide,
    maps_onto,
    permute_subalgebra,
)
from regalg.core import RegularSubalgebra, full_nil_set, h_pq_vector, is_closed, parse_descriptor
from regalg.families import enum_codim1, enum_codim2, enum_dim2, enum_drc
from regalg.invariants import (
    CartanRecord,
    cartan_record,
    first_difference,
    separate,
    signature,
)
from regalg.starcalc import generic_max_rank, min_rank
from regalg.verify import _fewest_removals

import bruteforce
from search_counts import SearchCounts


def transitive_closure(n, pairs):
    nil = set(pairs)
    for k in range(1, n + 1):
        for i in range(1, k):
            for j in range(k + 1, n + 1):
                if (i, k) in nil and (k, j) in nil:
                    nil.add((i, j))
    return frozenset(nil)


@st.composite
def cartan_spans(draw, n, counts=None):
    """Independent traceless integer vectors, as many as drawn from counts
    (0..n-1 by default) less those that fall in the span of earlier ones.
    In half the draws some of them are e_p - e_q; in the other half none
    is, so that the span seldom holds a root vector and min_rank has to
    search the column matroid."""
    with_roots = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(0, n - 1) if counts is None else counts)):
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
    null = linalg.annihilator(rows, n)
    assert null == bruteforce.annihilator(rows, n)
    assert n - len(null) == bruteforce.rank(rows)
    # the witness scan checks each annihilator row once its last nonzero
    # coordinate is assigned: that coordinate is a column depending on the
    # earlier columns, and each such column ends exactly one row
    columns = [[row[k] for row in rows] for k in range(n)]
    dependent = [k for k in range(n) if bruteforce.rank(columns[:k + 1]) == bruteforce.rank(columns[:k])]
    assert sorted(max(k for k, x in enumerate(a) if x) for a in null) == dependent


@pytest.mark.parametrize("n", range(1, 9))
def test_annihilator_of_no_rows_is_the_unit_basis(monkeypatch, n):
    # every nil-only algebra asks for it: no reduction is needed to answer
    monkeypatch.setattr(linalg, "_eliminate", None)
    assert linalg.annihilator((), n) == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def family_members(n):
    members = enum_codim1(n) + enum_codim2(n) + enum_dim2(n)
    for k in range(1, n):
        members += enum_drc(n, k)
    return members


def assert_generic_ranks_match(algebra):
    assert signature(algebra).max_rank == bruteforce.instantiation_rank(algebra)
    for h in bruteforce.root_vectors(algebra) + algebra.cartan_gens:
        pattern = bruteforce.adjoint_image_pattern(h, algebra)
        assert generic_max_rank(pattern) == bruteforce.instantiation_rank(pattern), h


@settings(max_examples=150, deadline=None)
@given(closed_algebras(max_n=9))
def test_generic_rank_is_the_instantiation_rank(algebra):
    assert_generic_ranks_match(algebra)


@st.composite
def nil_patterns(draw, max_n):
    """Any set of strictly upper positions, closed or not, with no Cartan
    part."""
    n = draw(st.integers(2, max_n))
    return RegularSubalgebra(n, draw(st.sets(st.sampled_from(sorted(full_nil_set(n))))))


@settings(max_examples=60, deadline=None)
@given(nil_patterns(max_n=9))
# (2, 3) is a nil position, and a matching through it (3 edges) beats
# every matching that avoids it (2 edges)
@example(RegularSubalgebra(4, {(1, 2), (2, 3), (3, 4)}))
def test_cartan_record_is_that_of_the_adjoint_pattern(algebra):
    n = algebra.n
    full = (1 << n) - 1
    for p, q in combinations(range(1, n + 1), 2):
        pattern = bruteforce.adjoint_image_pattern(h_pq_vector(n, p, q), algebra)
        record = cartan_record(algebra, p, q)
        assert record == CartanRecord(
            adj_col_dim=bruteforce.col_action(pattern, full).bit_count(),
            adj_row_dim=bruteforce.row_action(full, pattern).bit_count(),
            adj_max_rank=generic_max_rank(pattern),
        ), (p, q)
        assert record.adj_max_rank == bruteforce.instantiation_rank(pattern), (p, q)


@settings(max_examples=150, deadline=None)
@given(closed_algebras(max_n=9))
def test_root_vectors_match_pairwise_membership(algebra):
    assert bruteforce.root_vectors(algebra) == bruteforce.root_vectors_by_rank(algebra)


# A diagonal span and a relabeling of it: min rank 3 on both sides, which a
# coefficient search over a coordinate-dependent basis misreads as 4 for
# the first, so that it calls the pair DISTINCT (minRank).
SPAN_GENERATORS = ((-5, 3, -3, -3, 2, 6), (1, 0, -1, -1, -1, 2), (5, -1, 1, 5, -2, -8))
SPAN_AND_RELABELING = (RegularSubalgebra(6, frozenset(), SPAN_GENERATORS), (2, 6, 1, 5, 4, 3))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7).flatmap(cartan_spans).filter(bool))
@example(list(SPAN_GENERATORS))
# g = 2 with a zero column (the fifth): the root is the two-row count.
@example([[-1, 2, 0, 1, 0, -2], [-2, 0, -1, 1, 0, 2]])
# g = 3: contracting the first column leaves the last three as (0, 2),
# (0, -1) and (0, 3), one parallel class with mixed signs; so does
# contracting any of the last three.
@example([[0, 1, 1, -2, 0, 0, 0], [-1, -1, -2, 0, 0, 1, 3], [-1, 0, 1, 0, -2, 2, 0]])
# generators that are not primitive, the other rows zero at the first
# pivot column: those rows are carried to the child unreduced and unscaled,
# into the two-row count (the first), through a further elimination (the
# second), or past a pivot row that is not the first (the third)
@example([[2, 0, -2, 4, -4], [0, 2, 2, -2, -2], [0, 0, 2, 2, -4]])
@example([[3, 0, 0, -3, 6, -6], [0, 2, 0, 4, -2, -4], [0, 2, 4, -4, 2, -4], [0, 0, 0, 2, 2, -4]])
@example([[0, 3, -3, 6, 0, -6], [2, 0, 2, -2, -4, 2], [0, -4, 4, 0, 4, -4]])
def test_min_rank_is_the_min_support(gens):
    algebra = RegularSubalgebra(len(gens[0]), frozenset(), gens)
    assert min_rank(algebra) == bruteforce.min_support(algebra)


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 10).flatmap(lambda n: cartan_spans(n, st.integers(2, 4))).filter(bool))
def test_min_rank_is_the_min_support_past_two_rows(gens):
    """n = 8..10 with up to four generators: up to two contractions before
    the two-row count, which spans of n <= 7 seldom need."""
    algebra = RegularSubalgebra(len(gens[0]), frozenset(), gens)
    assert min_rank(algebra) == bruteforce.min_support(algebra)


@st.composite
def wide_spans(draw):
    """Generators of a span drawn as g > n/2 rows, column by column: g
    columns of new entries in [-2, 2], each other column but the last zero
    or a multiple of an earlier one, and a last column that makes every row
    traceless.  Draws whose rows are dependent are rejected."""
    n = draw(st.integers(3, 9))
    g = draw(st.integers(n // 2 + 1, n - 1))
    kinds = draw(st.permutations(["new"] * g + draw(st.lists(
        st.sampled_from(["zero", "parallel"]), min_size=n - 1 - g, max_size=n - 1 - g))))
    columns: list[list[int]] = []
    for kind in kinds:
        if kind == "zero":
            columns.append([0] * g)
        elif kind == "parallel" and columns:
            scale = draw(st.sampled_from([1, -1, 2, -3]))
            columns.append([scale * x for x in draw(st.sampled_from(columns))])
        else:
            columns.append(draw(st.lists(st.integers(-2, 2), min_size=g, max_size=g)))
    columns.append([-sum(row) for row in zip(*columns)])
    rows = [list(row) for row in zip(*columns)]
    assume(bruteforce.rank(rows) == g)
    return rows


# The largest hyperplane is columns 2 to 5, four columns in one plane.  It
# lacks column 1, which the search contracts by first, and that contraction
# finds no hyperplane of more than g - 1 = 2 columns; the answer 3, not 5,
# comes from the first basis (2, 3) of the plane.
FIRST_BASIS_LATER = [[0, 1, 0, 1, 1, 1, -4], [0, 0, 1, 1, -1, 2, -3], [1, 0, 0, 0, 0, 1, -2]]


# The only hyperplane of g = 3 columns is the last three: the bound at
# column 4 of the first node is exactly 3, one above the g - 1 = 2 found
# before it, so a node must go on while its bound exceeds best.
LAST_COLUMNS_PLANE = [[0, 1, 2, 1, 0, -4], [0, 2, 1, 0, 1, -4], [1, 1, -2, 0, 0, 0]]


@settings(max_examples=100, deadline=None)
@given(wide_spans())
@example(FIRST_BASIS_LATER)
@example(LAST_COLUMNS_PLANE)
# the same with a zero column in front: it lies in every hyperplane, and
# only the count of zero columns seen before a pivot keeps it in both the
# bound and the child's base
@example([[0, *row] for row in LAST_COLUMNS_PLANE])
def test_min_rank_is_the_min_support_of_wide_spans(gens):
    """g > n/2 with zero, repeated and parallel columns: the base count of
    columns already in the closure, and the bound that stops a node."""
    algebra = RegularSubalgebra(len(gens[0]), frozenset(), gens)
    assert min_rank(algebra) == bruteforce.min_support(algebra)


# Pairs for both witness-scan oracles.  Nil-only pairs need no Cartan
# check: a relabeled copy, and a pair with equal nil degrees but no
# witness (two stars against a zigzag and an edge).  The Cartan pair
# has every permutation as a witness for its nil sets, none for its spans.
NIL_ONLY_RELABELED = (RegularSubalgebra(4, {(1, 2), (1, 3)}), RegularSubalgebra(4, {(2, 3), (2, 4)}))
NIL_ONLY_NO_WITNESS = (RegularSubalgebra(6, {(1, 2), (1, 3), (4, 6), (5, 6)}),
                       RegularSubalgebra(6, {(1, 2), (1, 4), (3, 4), (5, 6)}))
CARTAN_NO_WITNESS = (RegularSubalgebra(3, cartan_gens=[(1, 2, -3)]),
                     RegularSubalgebra(3, cartan_gens=[(1, 1, -2)]))


@st.composite
def relabelings(draw):
    """(a, b): b is a relabeling of a (a itself when the relabeling leaves
    the upper triangle), with another Cartan span in half the draws."""
    a = draw(closed_algebras(max_n=6))
    image = permute_subalgebra(a, draw(st.permutations(range(1, a.n + 1))))
    b = a if image is None else image
    if draw(st.booleans()):
        b = RegularSubalgebra(b.n, b.nil_set, draw(cartan_spans(b.n)))
    return a, b


@settings(max_examples=150, deadline=None)
@given(relabelings())
@example(NIL_ONLY_RELABELED)
@example(NIL_ONLY_NO_WITNESS)
@example(CARTAN_NO_WITNESS)
def test_witness_scan_matches_rref_scan(pair):
    a, b = pair
    assert bruteforce.witness_scan(a, b) == bruteforce.witness_scan_by_rref(a, b)


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


@st.composite
def upper_copies(draw):
    """(a, b): b is an upper relabeling of a, that copy with another Cartan
    span, its generators reordered, or another basis of its span."""
    a = draw(closed_algebras(max_n=7))
    b = permute_subalgebra(a, draw(upper_relabelings(a)))
    copy = draw(st.sampled_from(
        ["relabeled", "other span", "reordered generators", "other basis"]))
    if copy == "other span":
        b = RegularSubalgebra(b.n, b.nil_set, draw(cartan_spans(b.n)))
    elif copy == "reordered generators":
        b = RegularSubalgebra(b.n, b.nil_set, draw(st.permutations(b.cartan_gens)))
    elif copy == "other basis" and len(b.cartan_gens) > 1:
        first, second, *rest = b.cartan_gens
        b = RegularSubalgebra(b.n, b.nil_set, [[x + y for x, y in zip(first, second)], second, *rest])
    return a, b


@settings(max_examples=150, deadline=None)
@given(upper_copies())
@example(NIL_ONLY_RELABELED)
@example(NIL_ONLY_NO_WITNESS)
@example(CARTAN_NO_WITNESS)
def test_witness_scan_matches_exhaustive_scan(pair):
    a, b = pair
    assert bruteforce.witness_scan(a, b) == bruteforce.witness_scan_exhaustive(a, b)


@settings(max_examples=150, deadline=None)
@given(closed_algebras(max_n=7), st.data())
def test_key_is_relabelling_invariant_and_refused_at_setup(a, data):
    """A relabelled copy has an equal _key, and a pair whose keys differ
    makes the witness search yield nothing, not even a dead end's None."""
    copy = permute_subalgebra(a, data.draw(upper_relabelings(a)))
    assert conjugacy._key(copy) == conjugacy._key(a)
    b = data.draw(closed_algebras(max_n=a.n, min_n=a.n))
    assume(conjugacy._key(b) != conjugacy._key(a))
    assert list(_witness_search(a, b)) == [] == list(_witness_search(b, a))


@settings(max_examples=300, deadline=None)
@given(closed_algebras(max_n=7), st.data())
def test_maps_onto_is_image_equality(a, data):
    """maps_onto against the built image, for b a relabeled copy of a (or
    that copy with other Cartan data) and sigma either that relabeling or
    any permutation, one that sends a nil pair below the diagonal included."""
    tau = data.draw(upper_relabelings(a))
    b = permute_subalgebra(a, tau)
    copy = data.draw(st.sampled_from(
        ["relabeled", "other span", "reordered generators", "other basis"]))
    if copy == "other span":
        # keep some of b's generators, so that checking only those is not enough
        gens = list(b.cartan_gens[:data.draw(st.integers(0, len(b.cartan_gens)))])
        for v in data.draw(cartan_spans(b.n)):
            if bruteforce.rank(gens + [v]) == len(gens) + 1:
                gens.append(v)
        b = RegularSubalgebra(b.n, b.nil_set, gens[:len(b.cartan_gens)])
    elif copy == "reordered generators":
        b = RegularSubalgebra(b.n, b.nil_set, data.draw(st.permutations(b.cartan_gens)))
    elif copy == "other basis" and len(b.cartan_gens) > 1:
        first, second, *rest = b.cartan_gens
        b = RegularSubalgebra(b.n, b.nil_set, [[x + y for x, y in zip(first, second)], second, *rest])
    sigma = data.draw(st.one_of(st.just(tau), st.permutations(range(1, a.n + 1))))
    assert maps_onto(a, sigma, b) == (permute_subalgebra(a, sigma) == b)


# Cartan-only pairs at n = 7 with equal signatures and no witness, found
# among spans with entries in [-1, 1] grouped by signature.  A search that
# also cut targets whose column depends on the earlier target columns
# makes that cut hundreds of times on each (630, 312, 252 and 240, in this
# order); the annihilator dot products alone must rule those branches out.
WITNESS_FREE_CARTAN_PAIRS = [
    ("n=7; nil=; cartan=diag(0,1,1,1,0,1,-4),diag(0,0,0,1,1,1,-3),diag(0,-1,1,0,0,0,0),"
     "diag(0,0,1,-1,-1,-1,2),diag(-1,1,-1,1,-1,0,1)",
     "n=7; nil=; cartan=diag(0,0,-1,-1,0,1,1),diag(1,-1,-1,-1,0,1,1),diag(1,-1,-1,1,1,0,-1),"
     "H[2,6],diag(1,1,1,-1,1,0,-3)"),
    ("n=7; nil=; cartan=diag(-1,-1,-1,1,-1,0,3),diag(0,-1,1,-1,1,1,-1),diag(0,-1,0,-1,-1,0,3),"
     "diag(-1,-1,0,1,0,1,0),diag(0,-1,-1,1,0,0,1)",
     "n=7; nil=; cartan=diag(0,0,1,0,-1,0,0),diag(0,1,-1,-1,0,0,1),diag(1,-1,-1,-1,-1,-1,4),"
     "diag(0,-1,0,0,-1,0,2),diag(1,-1,1,0,0,0,-1)"),
    ("n=7; nil=; cartan=diag(-1,1,0,0,1,1,-2),diag(0,1,-1,0,0,0,0),diag(-1,0,0,0,0,1,0),"
     "diag(0,-1,-1,-1,-1,-1,5)",
     "n=7; nil=; cartan=diag(0,0,0,1,0,0,-1),diag(1,1,1,-1,0,-1,-1),diag(1,-1,1,1,1,0,-3),"
     "diag(0,1,1,-1,1,-1,-1)"),
    ("n=7; nil=; cartan=diag(1,0,1,-1,-1,-1,1),diag(0,0,-1,1,1,0,-1),diag(-1,1,1,-1,-1,-1,2),"
     "diag(-1,0,-1,-1,1,-1,3),diag(0,1,1,-1,0,-1,0)",
     "n=7; nil=; cartan=diag(1,1,-1,0,1,0,-2),diag(0,0,1,-1,1,0,-1),diag(-1,-1,-1,0,1,0,2),"
     "diag(-1,0,1,-1,-1,0,2),diag(-1,0,0,0,-1,1,1)"),
]


@pytest.mark.parametrize("pair", WITNESS_FREE_CARTAN_PAIRS)
def test_witness_free_cartan_pairs_match_exhaustive_scan(pair):
    a, b = map(parse_descriptor, pair)
    assert signature(a) == signature(b)
    for x, y in ((a, b), (b, a)):
        assert bruteforce.witness_scan(x, y) is None
        assert bruteforce.witness_scan_exhaustive(x, y) is None
        verdict = decide(x, y)
        assert (verdict.kind, verdict.separator) == ("distinct", NO_WITNESS)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_family_witnesses_match_exhaustive_scan(n):
    """Every member against the first member of its signature group, the
    B2/B3/B4 cross pairs without a witness included."""
    groups: dict = {}
    for _, algebra in family_members(n):
        groups.setdefault(signature(algebra), []).append(algebra)
    for group in groups.values():
        for a in group:
            assert bruteforce.witness_scan(a, group[0]) == bruteforce.witness_scan_exhaustive(a, group[0])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_family_members_match_the_oracles(n):
    members = family_members(n)
    for _, algebra in members:
        assert_generic_ranks_match(algebra)
        assert bruteforce.root_vectors(algebra) == bruteforce.root_vectors_by_rank(algebra)
    by_kind: dict[tuple, list] = {}
    for label, algebra in members:
        by_kind.setdefault((label.kind, label.k), []).append(algebra)
    for group in by_kind.values():
        for a, b in zip(group, group[1:]):
            assert bruteforce.witness_scan(a, b) == bruteforce.witness_scan_by_rref(a, b)


def relabeled_algebras(max_n, min_n=2):
    """A closed algebra and a permutation that keeps it upper triangular."""
    return closed_algebras(max_n, min_n).flatmap(lambda a: st.tuples(st.just(a), upper_relabelings(a)))


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
    assert image == b


@settings(max_examples=60, deadline=None)
@given(relabeled_algebras(max_n=12, min_n=9))
def test_decide_above_the_search_guard_answers_from_the_first_descent(pair):
    """Above PERM_SEARCH_MAX_N, decide answers a relabeled copy exactly
    when the witness search's first descent reaches a leaf, with that
    leaf; when it dead-ends the fields agree, and the resumed search is
    guarded."""
    a, sigma = pair
    b = permute_subalgebra(a, sigma)
    step = next(_witness_search(a, b), None)
    if step is None:
        with pytest.raises(ValueError, match=f"guarded at n <= 8, got n={a.n}"):
            decide(a, b)
    else:
        verdict = decide(a, b)
        assert verdict.kind == "conjugate"
        assert verdict.witness == step == bruteforce.witness_scan(a, b)
        assert permute_subalgebra(a, verdict.witness) == b


@settings(max_examples=100, deadline=None)
@given(closed_algebras(max_n=8))
def test_signature_does_not_depend_on_the_basis(a):
    """signature is cached per subalgebra, and two bases of one span are one
    subalgebra, so no field may depend on the generator list: the uncached
    signature is unchanged when the first generator becomes the sum of the
    first two."""
    gens = list(a.cartan_gens)
    assume(len(gens) > 1)
    gens[0] = [x + y for x, y in zip(gens[0], gens[1])]
    b = RegularSubalgebra(a.n, a.nil_set, gens)
    assert b == a
    assert signature.__wrapped__(b) == signature.__wrapped__(a)


@settings(max_examples=100, deadline=None)
@given(relabeled_algebras(max_n=8), st.data())
def test_derived_fields_match_their_oracles(pair, data):
    """nil_rows and cartan_null against the masks and the Fraction null
    space rebuilt from the stored data, and == against span equality by
    rank, over an algebra, its relabeled image and other spans on its nil
    set."""
    a, sigma = pair
    image = permute_subalgebra(a, sigma)
    gens = list(a.cartan_gens)
    if len(gens) > 1:
        gens[0] = [x + y for x, y in zip(gens[0], gens[1])]
    others = [
        image,
        RegularSubalgebra(a.n, a.nil_set, image.cartan_gens),
        RegularSubalgebra(a.n, a.nil_set, gens),
        RegularSubalgebra(a.n, a.nil_set, data.draw(cartan_spans(a.n))),
    ]
    for x in [a, *others]:
        rows = [0] * x.n
        for i, j in x.nil_set:
            rows[i - 1] |= 1 << (j - 1)
        assert x.nil_rows == tuple(rows)
        assert x.cartan_null == bruteforce.annihilator(x.cartan_gens, x.n)
    for b in others:
        ranks = {bruteforce.rank(a.cartan_gens + b.cartan_gens),
                 bruteforce.rank(a.cartan_gens), bruteforce.rank(b.cartan_gens)}
        assert (a == b) == (a.nil_set == b.nil_set and len(ranks) == 1)


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
    sigs = [signature(members[cls[0]]) for cls in part.classes]
    for c, d in combinations(range(len(part.classes)), 2):
        name = separate(sigs[c], sigs[d]) or NO_WITNESS
        assert name == decide(members[part.classes[c][0]], members[part.classes[d][0]]).separator
    for i, j, sigma in part.witness_edges:
        a, b = members[i], members[j]
        assert sigma == bruteforce.witness_scan_exhaustive(a, b) == decide(a, b).witness


@st.composite
def relabeled_copies(draw):
    """A closed algebra at n <= 7 and up to three relabeled copies, each in
    half the draws with another span of up to as many generators on the
    relabeled nil set: every nil field agrees, so a pair of equal dim
    differs, if at all, from maxRank on."""
    a = draw(closed_algebras(max_n=7))
    members = [a]
    for _ in range(draw(st.integers(1, 3))):
        b = permute_subalgebra(a, draw(upper_relabelings(a)))
        if draw(st.booleans()):
            b = RegularSubalgebra(a.n, b.nil_set, draw(cartan_spans(a.n, st.just(len(a.cartan_gens)))))
        members.append(b)
    return members


def assert_decide_is_fields_first(members):
    """Over every ordered pair: the early-stopping comparison names the
    field that the full comparison of uncached signatures names, and
    decide, which runs the witness search's first descent before any
    field, gives the verdict of the fields-first reference:
    first_difference, then the full n! scan."""
    sigs = [signature.__wrapped__(m) for m in members]
    for (a, sig_a), (b, sig_b) in product(zip(members, sigs), repeat=2):
        name = first_difference(a, b)
        assert name == separate(sig_a, sig_b), (a.descriptor(), b.descriptor())
        sigma = None if name else bruteforce.witness_scan_exhaustive(a, b)
        if sigma is None:
            expected = ConjugacyVerdict("distinct", separator=name or NO_WITNESS)
        else:
            expected = ConjugacyVerdict("conjugate", witness=sigma)
        assert decide(a, b) == expected, (a.descriptor(), b.descriptor())


@settings(max_examples=150, deadline=None)
@given(relabeled_copies())
@example([parse_descriptor("n=3; nil=(1,3),(2,3); cartan=H1"),  # differ in the last field only
          parse_descriptor("n=3; nil=(1,3),(2,3); cartan=H2")])
@example([parse_descriptor("n=5; nil=(1,2),(3,5),(4,5)"),  # the descent dead-ends at 2
          parse_descriptor("n=5; nil=(1,5),(2,3),(4,5)")])
def test_decide_is_the_fields_first_comparison(members):
    assert_decide_is_fields_first(members)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_decide_is_the_fields_first_comparison_over_families(n):
    families = [enum_codim1(n), enum_codim2(n), enum_dim2(n)] + [enum_drc(n, k) for k in range(1, n)]
    for members in families:
        assert_decide_is_fields_first([alg for _, alg in members])


@pytest.mark.parametrize("n, labeled, unlabeled", [(3, 7, 5), (4, 40, 16), (5, 357, 63), (6, 4824, 318)])
def test_nilpotent_census_matches_the_poset_counts(monkeypatch, n, labeled, unlabeled):
    """The closed nil sets are the naturally labeled posets on 1..n (OEIS
    A006455), and their conjugacy classes the unlabeled posets (OEIS
    A000112).  Each class and member with the member's key start one
    search, run to its end, up to the member's own class; no signature
    is computed.  The starts at n = 6 moved from 4,741 to 4,699 when
    classify dropped its signature gate: a member that no first descent
    placed used to run the descent from every class with its key, those
    founded after its own class included, before any search resumed; the
    partition and every edge are unchanged.  A search whose first descent
    dead-ends is resumed to its end: at n = 6, 602 dead-end and 193 of
    those end without a witness.  Every edge is the first witness of the
    full n! scan."""
    census = [RegularSubalgebra(n, nil) for nil in bruteforce.closed_nil_sets(n)]
    assert len(set(census)) == len(census) == labeled
    assert all(is_closed(a) for a in census)
    monkeypatch.setattr(conjugacy, "_witness_search", counts := SearchCounts())
    part = classify_family(census)
    searches, dead_ends, without_witness = {3: (2, 0, 0), 4: (24, 0, 0), 5: (294, 15, 0), 6: (4699, 602, 193)}[n]
    assert (len(part.classes), counts.starts) == (unlabeled, searches)
    assert (counts.refused, counts.dead_ends, counts.without_witness) == (0, dead_ends, without_witness)
    for i, j, sigma in part.witness_edges:
        assert maps_onto(census[i], sigma, census[j])
        if n <= 5:
            assert sigma == bruteforce.witness_scan_exhaustive(census[i], census[j])


@pytest.mark.parametrize("n", range(2, 7))
def test_fewest_removals_match_the_largest_closed_nil_set(n):
    """The removal search behind codim2-bound-tight against every closed
    nil set: m minus the largest one that avoids (i, j)."""
    m, census = n * (n - 1) // 2, bruteforce.closed_nil_sets(n)
    for i, j in full_nil_set(n):
        assert _fewest_removals(i, j) == m - max(len(nil) for nil in census if (i, j) not in nil)
