"""Conjugation invariants assembled into a comparable signature.

Equal signatures are a necessary condition for conjugacy, never proof of
it; the conjugacy layer only trusts differences (as separators) and
explicit permutation witnesses (as conjugators).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache

from .core import RegularSubalgebra, require_closed
from .starcalc import (
    action_dim_seq,
    adjoint_image_pattern,
    col_action,
    derived_series_dims,
    generic_max_rank,
    min_rank,
    row_action,
)


def _camel(attr: str) -> str:
    head, *rest = attr.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _to_json(value):
    """JSON form of a record: its fields in declared order under camelCase
    names, tuples as lists."""
    if is_dataclass(value):
        return {_camel(f.name): _to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


@dataclass(frozen=True, order=True)
class CartanRecord:
    """Invariants of the adjoint action of one root vector e_p - e_q of the
    diagonal span on the nil part, ordered field by field."""

    adj_col_dim: int
    adj_row_dim: int
    adj_max_rank: int

    to_json = _to_json


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


# Comparison order for separate(): (attribute, JSON key) per field.
FIELD_ORDER = tuple((f.name, _camel(f.name)) for f in fields(InvariantSignature))


def root_vectors_in_span(algebra: RegularSubalgebra) -> tuple[tuple[int, ...], ...]:
    """Two-entry diagonal vectors e_p - e_q (p < q) lying in the diagonal
    span.  Simultaneous relabeling by sigma maps this set onto the set of
    the image span (up to irrelevant sign), which makes any multiset built
    over it an exact monomial-conjugation invariant; an RREF basis has no
    such equivariance because row reduction is coordinate-order sensitive.

    The span is the orthogonal complement of its annihilator, so e_p - e_q
    lies in it iff a_p = a_q for every annihilator basis vector a, that is
    iff annihilator columns p and q are equal.
    """
    n = algebra.n
    columns = list(zip(*algebra.cartan_null))
    out = []
    for p in range(n - 1):
        for q in range(p + 1, n):
            if columns[p] == columns[q]:
                v = [0] * n
                v[p], v[q] = 1, -1
                out.append(tuple(v))
    return tuple(out)


def _cartan_record(h: tuple[int, ...], algebra: RegularSubalgebra) -> CartanRecord:
    pattern = adjoint_image_pattern(h, algebra)
    full = (1 << algebra.n) - 1
    return CartanRecord(
        adj_col_dim=col_action(pattern, full).bit_count(),
        adj_row_dim=row_action(full, pattern).bit_count(),
        adj_max_rank=generic_max_rank(pattern),
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


@lru_cache(maxsize=None)
def signature(algebra: RegularSubalgebra) -> InvariantSignature:
    """Full invariant tuple of a closed subalgebra.

    Series and action sequences are taken on the maximal nilpotent part,
    whose pattern is nil_rows (its transpose nil_cols for the column
    action); dim and the rank fields see the whole algebra.  Every field comes from an exact, deterministic kernel.
    """
    require_closed(algebra)
    rows = algebra.nil_rows
    records = tuple(sorted(_cartan_record(h, algebra) for h in root_vectors_in_span(algebra)))
    return InvariantSignature(
        dim=algebra.dim,
        nil_dim=algebra.nil_dim,
        derived_dims=tuple(derived_series_dims(rows)),
        col_action_seq=tuple(action_dim_seq(algebra.nil_cols)),
        row_action_seq=tuple(action_dim_seq(rows)),
        max_rank=generic_max_rank(algebra),
        min_rank=min_rank(algebra) if algebra.dim else 0,
        cartan_signature=records,
        last_row_cartan_flag=_empty_row_anchored_flag(algebra),
    )


def separate(a: InvariantSignature, b: InvariantSignature) -> str | None:
    """Name of the first field (in the fixed order) where the signatures
    differ, or None if they are equal."""
    for attr, name in FIELD_ORDER:
        if getattr(a, attr) != getattr(b, attr):
            return name
    return None
