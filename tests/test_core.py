"""The tests' bracket, closure, bounds, and the descriptor format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from fractions import Fraction
from itertools import product

from regalg import linalg
from regalg.core import (
    DESCRIPTOR_MAX_N,
    DIAG_ENTRY_MAX,
    DescriptorError,
    Diag,
    Nil,
    RegularSubalgebra,
    _cartan_null,
    closure_defect,
    dimension_bound,
    format_descriptor,
    full_cartan,
    full_nil_set,
    h_pq_vector,
    h_vector,
    is_closed,
    parse_descriptor,
)
from regalg.families import standard_basis

import bruteforce


def _bracket(a, b) -> dict:
    """The nonzero entries of the tests' bracket of two basis elements."""
    return bruteforce.bracket(bruteforce.element(a), bruteforce.element(b)).entries()


class TestBracket:
    def test_chain_product(self):
        assert _bracket(Nil(4, 1, 2), Nil(4, 2, 3)) == {(1, 3): 1}

    def test_chain_product_reversed_sign(self):
        assert _bracket(Nil(4, 2, 3), Nil(4, 1, 2)) == {(1, 3): -1}

    def test_diagonals_commute(self):
        assert _bracket(Diag((1, -1, 0, 0)), Diag((0, 1, -1, 0))) == {}

    def test_diagonal_scales_unit(self):
        assert _bracket(Diag((1, -1, 0)), Nil(3, 1, 2)) == {(1, 2): 2}

    def test_diagonal_kills_untouched_unit(self):
        assert _bracket(Diag((1, -1, 0, 0)), Nil(4, 3, 4)) == {}

    def test_disjoint_units_commute(self):
        assert _bracket(Nil(4, 1, 2), Nil(4, 3, 4)) == {}

    def test_antisymmetry_exhaustive_n4(self):
        basis = standard_basis(4)
        for a, b in product(basis, repeat=2):
            assert _bracket(a, b) == {p: -c for p, c in _bracket(b, a).items()}, (a, b)


class TestElements:
    def test_nil_rejects_lower_triangle(self):
        with pytest.raises(ValueError):
            Nil(4, 3, 2)
        with pytest.raises(ValueError):
            Nil(4, 2, 2)
        with pytest.raises(ValueError):
            Nil(4, 1, 5)

    def test_diag_requires_traceless(self):
        with pytest.raises(ValueError):
            Diag((1, 1, 0))

    def test_h_vectors(self):
        assert h_vector(4, 2) == (0, 1, -1, 0)
        assert h_pq_vector(4, 1, 3) == (1, 0, -1, 0)
        with pytest.raises(ValueError):
            h_vector(4, 4)
        with pytest.raises(ValueError):
            h_pq_vector(4, 3, 3)


class TestRegularSubalgebra:
    def test_dim_counts_both_parts(self):
        algebra = RegularSubalgebra(4, {(1, 2), (1, 3)}, (h_vector(4, 1),))
        assert algebra.dim == 3
        assert algebra.nil_dim == 2

    def test_rejects_bad_position(self):
        with pytest.raises(ValueError):
            RegularSubalgebra(3, {(2, 2)}, ())

    def test_rejects_non_traceless_generator(self):
        with pytest.raises(ValueError):
            RegularSubalgebra(3, frozenset(), ((1, 0, 0),))

    def test_rejects_dependent_generators(self, monkeypatch):
        # twice each: the second build reuses the reduced span and must still reject it
        for gens in (((1, -1, 0), (2, -2, 0)), ((1, -1, 0), (1, -1, 0))):
            for _ in range(2):
                with pytest.raises(ValueError, match="linearly dependent"):
                    RegularSubalgebra(3, frozenset(), gens)
        # n or more traceless generators are dependent with no elimination
        _cartan_null.cache_clear()
        monkeypatch.setattr(linalg, "annihilator", lambda rows, n: pytest.fail("row reduced"))
        for gens in (((1, -1, 0), (0, 1, -1), (1, 0, -1)), (h_vector(3, 1),) * 4):
            with pytest.raises(ValueError, match="linearly dependent"):
                RegularSubalgebra(3, frozenset(), gens)

    def test_each_span_is_reduced_once(self, monkeypatch):
        _cartan_null.cache_clear()
        calls = []
        real = linalg.annihilator
        monkeypatch.setattr(linalg, "annihilator", lambda rows, n: calls.append(rows) or real(rows, n))
        gens = ((1, 1, 0, -2), (0, 1, -1, 0))
        first = RegularSubalgebra(4, {(1, 2)}, gens)
        second = RegularSubalgebra(4, {(3, 4)}, [list(v) for v in gens])
        other = RegularSubalgebra(4, {(3, 4)}, gens[:1])
        assert calls == [gens, gens[:1]]
        assert first.cartan_null == second.cartan_null == real(gens, 4) != other.cartan_null

    def test_rejects_wrong_length_generator(self):
        with pytest.raises(ValueError):
            RegularSubalgebra(3, frozenset(), ((1, -1),))

    @pytest.mark.parametrize("entry", [0.5, Fraction(1, 2)])
    def test_rejects_non_integer_entry(self, entry):
        with pytest.raises(ValueError, match="non-integer entry"):
            RegularSubalgebra(3, {(1, 2)}, [(entry, -entry, 0)])


class TestDerivedForms:
    @pytest.mark.parametrize("nil", [set(), {(1, 3), (1, 4), (3, 4)}, full_nil_set(5)])
    def test_nil_cols_is_the_transpose_of_nil_rows(self, nil):
        algebra = RegularSubalgebra(5, nil, ())
        for i, j in product(range(5), repeat=2):
            assert algebra.nil_cols[j] >> i & 1 == algebra.nil_rows[i] >> j & 1, (i, j)

    def test_cartan_support_is_the_union_of_generator_supports(self):
        assert RegularSubalgebra(5).cartan_support == 0
        algebra = RegularSubalgebra(5, frozenset(), (h_vector(5, 1), (0, 0, 2, 0, -2)))
        assert algebra.cartan_support == 0b10111
        assert RegularSubalgebra(4, frozenset(), full_cartan(4)).cartan_support == 0b1111

    def test_two_bases_of_one_span_have_one_support(self):
        # H1 + H2 = H[1,3] and H1 - H[1,3] = -H2: three bases of one span
        bases = [(h_vector(4, 1), h_vector(4, 2)),
                 (h_pq_vector(4, 1, 3), h_vector(4, 2)),
                 (h_vector(4, 1), h_pq_vector(4, 1, 3))]
        supports = {RegularSubalgebra(4, frozenset(), gens).cartan_support for gens in bases}
        assert supports == {0b0111}


class TestClosure:
    def test_full_nilpotent_closed(self):
        assert is_closed(RegularSubalgebra(3, {(1, 2), (2, 3), (1, 3)}, ()))

    def test_missing_product_not_closed(self):
        assert not is_closed(RegularSubalgebra(3, {(1, 2), (2, 3)}, ()))

    def test_full_minus_offdiagonal_with_cartan_closed(self):
        algebra = RegularSubalgebra(4, full_nil_set(4) - {(1, 2)}, full_cartan(4))
        assert is_closed(algebra)

    def test_defect_single(self):
        assert closure_defect(RegularSubalgebra(3, {(1, 2), (2, 3)}, ())) == [(1, 3)]

    def test_defect_empty_for_full(self):
        assert closure_defect(RegularSubalgebra(5, full_nil_set(5), ())) == []

    def test_defect_first_order_only(self):
        algebra = RegularSubalgebra(4, {(1, 2), (2, 3), (3, 4)}, ())
        assert closure_defect(algebra) == [(1, 3), (2, 4)]

    def test_adding_cartan_preserves_closure(self):
        # diagonal generators only rescale members, so closure is untouched
        vectors = [h_vector(4, 1), h_pq_vector(4, 1, 4), (1, 1, -1, -1), (2, -1, -1, 0)]
        for nil in bruteforce.closed_nil_sets(4):
            algebra = RegularSubalgebra(4, nil)
            for v in vectors:
                extended = RegularSubalgebra(4, nil, (v,))
                assert is_closed(extended) == is_closed(algebra)


class TestDimensionBound:
    def test_solvable_bound(self):
        # the diagonal part of sl(4) has dimension 3: 6 - 3 + 3
        algebra = RegularSubalgebra(4, frozenset(), (h_vector(4, 1),))
        assert dimension_bound(algebra, (1, 4)) == 6

    @pytest.mark.parametrize("n", range(3, 6))
    def test_solvable_bound_is_tight(self, n):
        # with the full Cartan, the largest closed algebra missing (i,j) has
        # the bound's dimension, and none has more
        closed = [RegularSubalgebra(n, nil, full_cartan(n)) for nil in bruteforce.closed_nil_sets(n)]
        for i, j in full_nil_set(n):
            bound = dimension_bound(RegularSubalgebra(n, frozenset(), full_cartan(n)), (i, j))
            assert max(a.dim for a in closed if (i, j) not in a.nil_set) == bound

    def test_nilpotent_offdiagonal(self):
        assert dimension_bound(RegularSubalgebra(4), (1, 2)) == 5

    def test_nilpotent_interior(self):
        assert dimension_bound(RegularSubalgebra(5), (2, 5)) == 7

    def test_rejects_present_position(self):
        algebra = RegularSubalgebra(4, {(1, 2)}, ())
        with pytest.raises(ValueError):
            dimension_bound(algebra, (1, 2))

    def test_rejects_invalid_position(self):
        with pytest.raises(ValueError):
            dimension_bound(RegularSubalgebra(4), (3, 2))


class TestDescriptor:
    def test_parse_example(self):
        algebra = parse_descriptor("n=4; nil=(1,2),(1,3); cartan=H1,H[2,4]")
        assert algebra.n == 4
        assert algebra.nil_set == {(1, 2), (1, 3)}
        assert algebra.cartan_gens == ((1, -1, 0, 0), (0, 1, 0, -1))

    def test_whitespace_insensitive(self):
        a = parse_descriptor(" n = 4 ;  nil = (1,2) , (1,3); cartan = H1 , H[2,4] ")
        b = parse_descriptor("n=4;nil=(1,2),(1,3);cartan=H1,H[2,4]")
        assert a == b

    def test_empty_sections(self):
        algebra = parse_descriptor("n=3; nil=; cartan=")
        assert algebra.nil_set == frozenset() and algebra.cartan_gens == ()

    def test_diag_form(self):
        algebra = parse_descriptor("n=3; nil=; cartan=diag(2,-1,-1)")
        assert algebra.cartan_gens == ((2, -1, -1),)

    def test_format_canonical(self):
        algebra = RegularSubalgebra(
            4, {(1, 3), (1, 2)}, (h_vector(4, 1), h_pq_vector(4, 2, 4), (1, 1, -1, -1))
        )
        assert (
            format_descriptor(algebra)
            == "n=4; nil=(1,2),(1,3); cartan=H1,H[2,4],diag(1,1,-1,-1)"
        )

    def test_error_reports_token_and_position(self):
        with pytest.raises(DescriptorError) as info:
            parse_descriptor("n=4; nil=(1,2),(3;x); cartan=")
        assert info.value.position >= 0
        with pytest.raises(DescriptorError) as info:
            parse_descriptor("n=4; nil=; cartan=Q7")
        assert info.value.token == "Q7"

    def test_missing_n(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("nil=(1,2); cartan=")

    def test_duplicate_segment(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("n=3; n=4; nil=; cartan=")

    def test_out_of_range_position(self):
        with pytest.raises(DescriptorError):
            parse_descriptor("n=3; nil=(1,4); cartan=")

    def test_duplicate_nil_pair(self):
        text = "n=4; nil=(1,2), (1,3),(1,2); cartan="
        with pytest.raises(DescriptorError) as info:
            parse_descriptor(text)
        assert info.value.token == "(1,2)"
        assert info.value.position == text.rindex("(1,2)")

    def test_nil_pairs_need_commas(self):
        text = "n=3; nil=(1,2)(2,3)(1,3)"
        with pytest.raises(DescriptorError) as info:
            parse_descriptor(text)
        assert info.value.position == text.index("(2,3)")

    def test_nil_trailing_comma(self):
        text = "n=3; nil=(1,2),"
        with pytest.raises(DescriptorError) as info:
            parse_descriptor(text)
        assert info.value.token == "" and info.value.position == len(text)

    def test_n_must_be_decimal(self):
        # '²' passes str.isdigit but not str.isdecimal, and int() rejects it
        with pytest.raises(DescriptorError) as info:
            parse_descriptor("n=²")
        assert info.value.token == "²" and info.value.position == 2


class TestEquality:
    def test_two_bases_of_one_span_are_equal(self):
        # H1 + H2 = H[1,3]: one span, two presentations
        a = RegularSubalgebra(4, {(1, 2)}, (h_vector(4, 1), h_vector(4, 2)))
        b = RegularSubalgebra(4, {(1, 2)}, (h_pq_vector(4, 1, 3), h_vector(4, 2)))
        assert a == b and hash(a) == hash(b)
        assert a.descriptor() != b.descriptor()

    def test_other_span_or_nil_set_differs(self):
        a = RegularSubalgebra(4, {(1, 2)}, (h_vector(4, 1),))
        assert a != RegularSubalgebra(4, {(1, 2)}, (h_vector(4, 2),))
        assert a != RegularSubalgebra(4, {(1, 3)}, (h_vector(4, 1),))


# One input per error message, with the message, token and position it gives.
DESCRIPTOR_ERRORS = [
    ("n=3; nil=(1,2); x", "expected key=value segment: 'x' at position 16", "x", 16),
    ("n=3; n=4", "duplicate segment: 'n' at position 5", "n", 5),
    ("n=x", "n must be a positive integer: 'x' at position 2", "x", 2),
    ("n=21; nil=(1,2)", "n must be at most 20: '21' at position 2", "21", 2),
    # the bound holds before any of the 21,110 vectors of cartan_null is built
    ("n=21111; nil=(1,2); cartan=H1",
     "n must be at most 20: '21111' at position 2", "21111", 2),
    ("n=3; nil=(1,2),(2", "expected (i,j) pair: '(2' at position 15", "(2", 15),
    ("n=3; nil=(1,2),(1,2)", "duplicate nil pair: '(1,2)' at position 15", "(1,2)", 15),
    ("n=3; nil=(1,2)(2,3)", "expected ',' between pairs: '(2,3)' at position 14", "(2,3)", 14),
    ("n=3; cartan=H1,,H2", "expected Hk, H[p,q] or diag(...): ',H2' at position 15", ",H2", 15),
    # a token ends where its pattern does, so text glued to it is reported at the glue
    ("n=3; cartan=H1H2", "expected ',' between generators: 'H2' at position 14", "H2", 14),
    ("n=3; cartan=H[1,2]x", "expected ',' between generators: 'x' at position 18", "x", 18),
    ("n = 3 ;  cartan = H1 , diag(1,-1",
     "expected Hk, H[p,q] or diag(...): 'diag(1,-1' at position 23", "diag(1,-1", 23),
    ("n=3; foo=1", "unknown segment: 'foo' at position 5", "foo", 5),
    ("nil=(1,2)", "missing n= segment: 'nil=(1,2)' at position 0", "nil=(1,2)", 0),
    ("n=3; cartan=H5",
     "H index 5 out of range for n=3: 'n=3; cartan=H5' at position 0", "n=3; cartan=H5", 0),
    ("n=3; cartan=H[3,1]",
     "H[3,1] out of range for n=3: 'n=3; cartan=H[3,1]' at position 0", "n=3; cartan=H[3,1]", 0),
    ("n=0", "n must be positive, got 0: 'n=0' at position 0", "n=0", 0),
    ("n=3; nil=(2,1)",
     "invalid nilpotent position (2,1) for n=3: 'n=3; nil=(2,1)' at position 0", "n=3; nil=(2,1)", 0),
    ("n=3; cartan=diag(1,-1)",
     "cartan generator (1, -1) has length 2, expected 3: 'n=3; cartan=diag(1,-1)' at position 0",
     "n=3; cartan=diag(1,-1)", 0),
    ("n=3; cartan=diag(1,1,1)",
     "cartan generator (1, 1, 1) is not traceless: 'n=3; cartan=diag(1,1,1)' at position 0",
     "n=3; cartan=diag(1,1,1)", 0),
    ("n=3; cartan=H1,H[1,2]",
     "cartan generators are linearly dependent: 'n=3; cartan=H1,H[1,2]' at position 0",
     "n=3; cartan=H1,H[1,2]", 0),
    # the diag entry bound names the entry itself
    ("n=3; cartan=H1,diag(1001,-1001,0)",
     "diag entries must be at most 1000 in magnitude: '1001' at position 20", "1001", 20),
    ("n=3; cartan=diag( 1 , -1001 , 1000 )",
     "diag entries must be at most 1000 in magnitude: '-1001' at position 22", "-1001", 22),
    # more digits than int() converts (4,300 by default); the message quotes
    # the token shortened to 30 characters, and .token keeps it whole
    ("n=3; cartan=diag(1,-" + "1" * 5000 + ",0)",
     "integer has too many digits: '-11111111111...1111111111111' at position 19",
     f"-{'1' * 5000}", 19),
    ("n=" + "1" * 5000,
     "integer has too many digits: '111111111111...1111111111111' at position 2", "1" * 5000, 2),
    ("n=3; nil=(" + "1" * 5000 + ",2)",
     "integer has too many digits: '(11111111111...1111111111,2)' at position 9",
     f"({'1' * 5000},2)", 9),
    ("n=3; cartan=H" + "1" * 5000,
     "integer has too many digits: '111111111111...1111111111111' at position 13", "1" * 5000, 13),
    ("n=3; cartan=H[" + "1" * 5000 + ",2]",
     "integer has too many digits: '111111111111...1111111111111' at position 14", "1" * 5000, 14),
    ("n=3; cartan=H[1," + "1" * 5000 + "]",
     "integer has too many digits: '111111111111...1111111111111' at position 16", "1" * 5000, 16),
]


@pytest.mark.parametrize("text, message, token, position", DESCRIPTOR_ERRORS,
                         ids=[case[0][:40] for case in DESCRIPTOR_ERRORS])
def test_descriptor_error_is_pinned(text, message, token, position):
    with pytest.raises(DescriptorError) as info:
        parse_descriptor(text)
    assert (str(info.value), info.value.token, info.value.position) == (message, token, position)
    assert "\n" not in message and len(message) < 200


def test_default_bound_is_descriptor_max_n():
    assert parse_descriptor(f"n={DESCRIPTOR_MAX_N}; nil=(1,2)").n == DESCRIPTOR_MAX_N


def test_diag_entries_up_to_the_bound_are_admitted():
    m = DIAG_ENTRY_MAX
    algebra = parse_descriptor(f"n=3; cartan=diag({m},-{m},0),diag(0,{m},-{m})")
    assert algebra.cartan_gens == ((m, -m, 0), (0, m, -m))


SEED_DESCRIPTORS = [
    "n=4; nil=(1,2),(1,3); cartan=H1,H[2,4]",
    " n = 5 ; nil = (1,2) , (2,3),(1,3) ; cartan = diag( 1 , 1 , -2 , 0 , 0 ) , H4 ",
    "cartan=H[1,3]; nil=(1,4); n=4;",
]


@st.composite
def edited_descriptors(draw):
    """A seed descriptor after one to four single-character inserts,
    replacements or deletions."""
    text = draw(st.sampled_from(SEED_DESCRIPTORS))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from("n=;nil(),cartanHdiag[]-0123456789 x"))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        text = text[:i] + ("" if op == "delete" else char) + text[i + (op != "insert"):]
    return text


@settings(max_examples=300, deadline=None)
@given(edited_descriptors())
def test_descriptor_error_locates_its_token(text):
    """Once whitespace is removed, the text from an error's position on
    starts with its token."""
    try:
        parse_descriptor(text)
    except DescriptorError as exc:
        assert "".join(text[exc.position:].split()).startswith("".join(exc.token.split()))


@st.composite
def subalgebras(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    positions = sorted(full_nil_set(n))
    nil = frozenset(draw(st.sets(st.sampled_from(positions), max_size=len(positions))))
    gens = []
    count = draw(st.integers(min_value=0, max_value=min(2, n - 1)))
    pool = [h_vector(n, k) for k in range(1, n)]
    for idx in sorted(draw(st.sets(st.sampled_from(range(n - 1)), min_size=count, max_size=count))):
        gens.append(pool[idx])
    return RegularSubalgebra(n, nil, tuple(gens))


@settings(max_examples=150, deadline=None)
@given(subalgebras())
def test_descriptor_roundtrip(algebra):
    parsed = parse_descriptor(format_descriptor(algebra))
    assert parsed == algebra and parsed.cartan_gens == algebra.cartan_gens


@settings(max_examples=150, deadline=None)
@given(subalgebras())
def test_closure_matches_pairwise_chains(algebra):
    nil = algebra.nil_set
    chained = {(i, l) for i, j in nil for k, l in nil if j == k and (i, l) not in nil}
    assert closure_defect(algebra) == sorted(chained)
    assert is_closed(algebra) == (not chained)
