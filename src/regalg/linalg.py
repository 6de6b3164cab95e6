"""Exact rational linear algebra on small integer matrices.

Everything here works over Fraction; there is no floating point anywhere,
so rank and span comparisons are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _echelonize(m: list[list[Fraction]]) -> int:
    """Reduce m to row echelon form in place, return the rank."""
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    piv_r = 0
    for piv_c in range(n_cols):
        pivot_row = None
        for r in range(piv_r, n_rows):
            if m[r][piv_c] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[piv_r], m[pivot_row] = m[pivot_row], m[piv_r]
        fp = m[piv_r][piv_c]
        for r in range(piv_r + 1, n_rows):
            fr = m[r][piv_c]
            if fr == 0:
                continue
            factor = fr / fp
            for c in range(piv_c, n_cols):
                m[r][c] -= m[piv_r][c] * factor
        piv_r += 1
        if piv_r == n_rows:
            break
    return piv_r


def rank(rows) -> int:
    """Rank over the rationals of a matrix given as an iterable of rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    return _echelonize(m)


def rref(rows) -> list[list[Fraction]]:
    """Reduced row echelon form over the rationals; zero rows are dropped."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = _echelonize(m)
    m = m[:r]
    # back-substitute and normalize pivots to 1
    for i in range(r - 1, -1, -1):
        piv_c = next(c for c, x in enumerate(m[i]) if x != 0)
        fp = m[i][piv_c]
        m[i] = [x / fp for x in m[i]]
        for j in range(i):
            factor = m[j][piv_c]
            if factor != 0:
                m[j] = [a - factor * b for a, b in zip(m[j], m[i])]
    return m


def _primitive(row) -> tuple[int, ...]:
    """A nonzero rational vector scaled to a primitive integer vector with
    positive leading entry."""
    denom_lcm = 1
    for x in row:
        denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
    ints = [int(x * denom_lcm) for x in row]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def rref_primitive(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the row span: RREF rows scaled to primitive
    integer vectors with positive leading entry.

    Two row sets span the same subspace iff their outputs are equal.
    """
    return tuple(_primitive(row) for row in rref(rows))


def annihilator(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer basis of {a in Q^n : r . a = 0 for every row r}.

    One basis vector per free column of the RREF.  The row span is exactly
    the set of vectors orthogonal to every basis vector, so membership in
    it is a set of integer dot products.
    """
    reduced = rref(rows)
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in reduced]
    out = []
    for free in sorted(set(range(n)) - set(pivots)):
        a = [Fraction(0)] * n
        a[free] = Fraction(1)
        for row, piv_c in zip(reduced, pivots):
            a[piv_c] = -row[free]
        out.append(_primitive(a))
    return tuple(out)


def spans_equal(rows_a, rows_b) -> bool:
    """True iff the two row sets span the same rational subspace."""
    return rref_primitive(rows_a) == rref_primitive(rows_b)
