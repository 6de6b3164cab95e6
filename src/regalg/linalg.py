"""Exact linear algebra on small integer matrices.

Every row operation is one fraction-free step, _eliminate: a cross
multiplication followed by division by the gcd, so rows stay primitive
integer vectors.  There is no floating point and no fraction anywhere;
rank and span comparisons are exact.
"""

from __future__ import annotations

from math import gcd, lcm


def _eliminate(row, pivot, col: int) -> list[int]:
    """pivot[col] * row - row[col] * pivot, divided by the gcd of its entries:
    row with column col cleared.  Zero sets, and signs when pivot[col] > 0,
    are those of the exact rational step."""
    out = [pivot[col] * x - row[col] * y for x, y in zip(row, pivot)]
    divisor = gcd(*out)
    return [x // divisor for x in out] if divisor > 1 else out


def rref_primitive(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the row span: RREF rows scaled to primitive
    integer vectors with positive leading entry.

    Gauss-Jordan column by column: each row is zero before its pivot and in
    every other pivot column.  Two row sets span the same subspace iff their
    outputs are equal.
    """
    pending = [list(row) for row in rows]
    reduced: list[list[int]] = []
    for col in range(len(pending[0]) if pending else 0):
        at = next((i for i, row in enumerate(pending) if row[col]), None)
        if at is None:
            continue
        pivot = pending.pop(at)
        divisor = gcd(*pivot) if pivot[col] > 0 else -gcd(*pivot)
        pivot = [x // divisor for x in pivot]
        pending = [_eliminate(row, pivot, col) if row[col] else row for row in pending]
        reduced = [_eliminate(row, pivot, col) if row[col] else row for row in reduced]
        reduced.append(pivot)
    return tuple(tuple(row) for row in reduced)


def annihilator(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of {a in Q^n : r . a = 0 for every row r}
    for integer rows of length n.

    One basis vector per free column f of the RREF (rref_primitive) of the
    rows: a_f = L and a_p = -row[f] * L / row[p] at each pivot p, with L
    the lcm of the pivots, then scaled to be primitive with positive
    leading entry.  A reduced row is zero before its pivot, so a is zero
    at the pivots after f, and f is its last nonzero coordinate.  The row
    span is exactly the set of vectors orthogonal to every basis vector, so
    membership in it is a set of integer dot products.  No rows: the unit
    basis, which is what the general case gives, without the reduction.
    """
    if not rows:
        return tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
    reduced = rref_primitive(rows)
    pivots = [next(c for c, x in enumerate(row) if x) for row in reduced]
    scale = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    out = []
    for free in sorted(set(range(n)) - set(pivots)):
        a = [0] * n
        a[free] = scale
        for row, p in zip(reduced, pivots):
            a[p] = -row[free] * scale // row[p]
        divisor = gcd(*a) if next(x for x in a if x) > 0 else -gcd(*a)
        out.append(tuple(x // divisor for x in a))
    return tuple(out)
