"""Exact linear algebra on small integer matrices.

Every row operation is one fraction-free step, _eliminate: a cross
multiplication followed by division by the gcd, so an eliminated row is
a primitive integer vector.  Its start offset lets a caller that needs
only the columns after the pivot (starcalc.min_rank) build only those.
annihilator runs the one reduction; there is no floating point and no
fraction anywhere, so span comparisons are exact.
"""

from __future__ import annotations

from math import gcd, lcm


def _eliminate(row, pivot, col: int, start: int = 0) -> list[int]:
    """pivot[col] * row - row[col] * pivot from entry start on, divided by
    the gcd of those entries: row with column col cleared.  Zero sets, and
    signs when pivot[col] > 0, are those of the exact rational step.  A
    start past col builds only the tail after the pivot column."""
    a, b = pivot[col], row[col]
    out = [a * x - b * y for x, y in zip(row[start:], pivot[start:])]
    divisor = gcd(*out)
    return [x // divisor for x in out] if divisor > 1 else out


def annihilator(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of {a in Q^n : r . a = 0 for every row r}
    for integer rows of length n.

    Gauss-Jordan column by column, recording each pivot column as it is
    found, so each reduced row is zero before its pivot and in every other
    pivot column.  One basis vector per free column f: a_f = L and
    a_p = -row[f] * L / row[p] at each pivot p, with L the lcm of the
    pivots, then scaled to be primitive with positive leading entry (so no
    pivot row needs normalising).  a is zero at the pivots after f, so f is
    its last nonzero coordinate.  The row span is exactly the set of
    vectors orthogonal to every basis vector: membership in it is a set of
    integer dot products, and two row sets span the same subspace iff their
    annihilators are equal.  No rows: no pivots, L = 1, and the unit basis.
    """
    pending = [list(row) for row in rows]
    reduced: list[list[int]] = []
    pivots: list[int] = []
    for col in range(n):
        at = next((i for i, row in enumerate(pending) if row[col]), None)
        if at is None:
            continue
        pivot = pending.pop(at)
        pending = [_eliminate(row, pivot, col) if row[col] else row for row in pending]
        reduced = [_eliminate(row, pivot, col) if row[col] else row for row in reduced]
        reduced.append(pivot)
        pivots.append(col)
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
