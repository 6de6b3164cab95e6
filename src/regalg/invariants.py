"""Conjugation invariants assembled into a comparable signature.

Equal signatures are a necessary condition for conjugacy, never proof of
it; the conjugacy layer only trusts differences (as separators) and
explicit permutation witnesses (as conjugators).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .core import RegularSubalgebra, require_closed
from .starcalc import action_dim_seq, derived_series_dims, generic_max_rank, min_rank, root_classes


def _camel(attr: str) -> str:
    head, *rest = attr.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _to_json(value):
    """JSON form of a record (a dataclass or a named tuple): its fields in
    declared order under camelCase names, other tuples as lists."""
    if is_dataclass(value):
        return {_camel(f.name): _to_json(getattr(value, f.name)) for f in fields(value)}
    if hasattr(value, "_fields"):
        return {_camel(name): _to_json(x) for name, x in zip(value._fields, value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


class CartanRecord(NamedTuple):
    """Invariants of the adjoint action of one root vector e_p - e_q of the
    diagonal span on the nil part, ordered field by field: the supports of
    the images of the full column and row vectors under its adjoint pattern,
    and that pattern's generic rank (cartan_record computes them).  A named
    tuple, so a signature's records are built and sorted as plain tuples;
    _to_json writes it as a JSON object under its fields' camelCase names.

    The adjoint pattern is a cross.  [e_p - e_q, E_ij] = (h_i - h_j) E_ij
    with h = e_p - e_q, and h_i = h_j iff neither i nor j is p or q, so the
    pattern holds the nil positions in rows p and q and in columns p and q.
    Write R_p, R_q for the nil rows and C_p, C_q for the nil columns of p
    and q.  A row of the cross is nonempty iff it is row p with R_p
    nonempty, row q with R_q nonempty, or a row in C_p | C_q, which gives
    adj_col_dim; adj_row_dim is the same count on the transpose.

    For adj_max_rank, every nil position lies above the diagonal and
    p < q, so rows p and q meet columns p and q at most in (p, q).
    Without that position the cross splits into two stars with two centres
    each: rows p, q against the columns R_p, R_q, and columns p, q against
    the rows C_p, C_q.  A maximum matching of two centres into leaf sets X
    and Y has 2 edges iff X and Y are nonempty with |X | Y| >= 2, 1 edge
    iff X | Y is nonempty otherwise, else none (_two_centres); the rank is
    the sum over the two stars.  With (p, q) nil, a matching that avoids
    it is the same sum with q taken out of R_p and p out of C_q; one that
    uses it leaves row q, which meets only R_q, and column p, which meets
    only C_p, and adds one edge for each that is nonempty.  The rank is
    the larger of the two.
    """

    adj_col_dim: int
    adj_row_dim: int
    adj_max_rank: int


@dataclass(frozen=True)
class InvariantSignature:
    dim: int
    nil_dim: int
    derived_dims: tuple[int, ...]
    col_action_seq: tuple[int, ...]
    row_action_seq: tuple[int, ...]
    max_rank: int
    min_rank: int
    cartan_signature: tuple[CartanRecord, ...]
    last_row_cartan_flag: bool

    to_json = _to_json


# Comparison order for separate() and first_difference(): (attribute,
# JSON key) per field.
FIELD_ORDER = tuple((f.name, _camel(f.name)) for f in fields(InvariantSignature))


def _two_centres(x: int, y: int) -> int:
    """Largest matching of two centres into the leaf sets x and y."""
    if x and y and (x | y).bit_count() >= 2:
        return 2
    return 1 if x | y else 0


def cartan_record(algebra: RegularSubalgebra, p: int, q: int) -> CartanRecord:
    """The CartanRecord of e_p - e_q, 1 <= p < q <= n, read off the nil rows
    and columns of p and q in O(1) bit operations (proof in CartanRecord).
    The nil set need not be closed."""
    if not 1 <= p < q <= algebra.n:
        raise ValueError(f"root vector e_{p} - e_{q} out of range for n={algebra.n}")
    row_p, row_q = algebra.nil_rows[p - 1], algebra.nil_rows[q - 1]
    col_p, col_q = algebra.nil_cols[p - 1], algebra.nil_cols[q - 1]
    bit_p, bit_q = 1 << p - 1, 1 << q - 1
    rank = _two_centres(row_p & ~bit_q, row_q) + _two_centres(col_p, col_q & ~bit_p)
    if row_p & bit_q:  # (p, q) is a nil position
        rank = max(rank, 1 + bool(row_q) + bool(col_p))
    return CartanRecord(
        adj_col_dim=(col_p | col_q | (bit_p if row_p else 0) | (bit_q if row_q else 0)).bit_count(),
        adj_row_dim=(row_p | row_q | (bit_p if col_p else 0) | (bit_q if col_q else 0)).bit_count(),
        adj_max_rank=rank,
    )


def _empty_row_anchored_flag(algebra: RegularSubalgebra) -> bool:
    """Whether the diagonal part reaches a coordinate whose pattern row is
    empty (for full and near-full nil parts that coordinate is n, so this
    is "some element of the span has a nonzero last entry").

    The naive "nonzero n-th entry" reading is not preserved by monomial
    conjugation once sparse patterns are allowed, because nothing then ties
    coordinate n to the pattern; anchoring to empty rows restores exact
    equivariance under simultaneous relabeling.  Some element of the span
    is nonzero at a coordinate iff some generator is, since every element
    is a combination of the generators, so cartan_support answers it for
    every basis of the span.
    """
    empty_rows = sum(1 << i for i, row in enumerate(algebra.nil_rows) if not row)
    return bool(algebra.cartan_support & empty_rows)


# One kernel per InvariantSignature field, in declaration order.  Series and
# action sequences are taken on the maximal nilpotent part, whose pattern is
# nil_rows (its transpose nil_cols for the column action); dim and the rank
# fields see the whole algebra.  No field's value depends on another's.  Each
# kernel looks its functions up in this module's namespace when called, so a
# wrapper or patch on one of those names sees every call.  Relabeling by
# sigma maps the root vectors e_p - e_q, p < q in one root class, onto those
# of the image span (up to sign), so their sorted records are an exact
# monomial-conjugation invariant, whatever the order of the pairs; an RREF
# basis has no such equivariance, as row reduction depends on coordinate order.
_FIELD_KERNELS = {
    "dim": lambda a: a.dim,
    "nil_dim": lambda a: a.nil_dim,
    "derived_dims": lambda a: tuple(derived_series_dims(a.nil_rows)),
    "col_action_seq": lambda a: tuple(action_dim_seq(a.nil_cols)),
    "row_action_seq": lambda a: tuple(action_dim_seq(a.nil_rows)),
    "max_rank": lambda a: generic_max_rank(
        tuple(row | a.cartan_support & 1 << i for i, row in enumerate(a.nil_rows))),
    "min_rank": lambda a: min_rank(a) if a.dim else 0,
    "cartan_signature": lambda a: tuple(sorted(
        cartan_record(a, p, q) for c in root_classes(a) for p, q in combinations(c, 2))),
    "last_row_cartan_flag": _empty_row_anchored_flag,
}

# signatures kept for reuse: `verify --n 8` makes 560 calls on 114
# algebras, so nothing it computes is evicted, and memory stays bounded in
# a long-lived process
SIGNATURE_CACHE_SIZE = 4096


@lru_cache(maxsize=SIGNATURE_CACHE_SIZE)
def signature(algebra: RegularSubalgebra) -> InvariantSignature:
    """Full invariant tuple of a closed subalgebra, every field from its
    exact, deterministic kernel."""
    require_closed(algebra)
    return InvariantSignature(**{attr: kernel(algebra) for attr, kernel in _FIELD_KERNELS.items()})


def separate(a: InvariantSignature, b: InvariantSignature) -> str | None:
    """Name of the first field (in the fixed order) where the signatures
    differ, or None if they are equal."""
    for attr, name in FIELD_ORDER:
        if getattr(a, attr) != getattr(b, attr):
            return name
    return None


def first_difference(a: RegularSubalgebra, b: RegularSubalgebra) -> str | None:
    """separate(signature(a), signature(b)), field by field: each field of
    both operands is computed in FIELD_ORDER, and none after the first that
    differs.  Reads and fills no signature memo, and checks no closure:
    decide, its caller, checks both operands before it compares them."""
    for attr, name in FIELD_ORDER:
        kernel = _FIELD_KERNELS[attr]
        if kernel(a) != kernel(b):
            return name
    return None
