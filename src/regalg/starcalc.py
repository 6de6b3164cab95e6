"""Boolean star-pattern calculus over the (OR, AND) semiring.

A star pattern records which matrix positions can be nonzero for elements
of a subalgebra's nilpotent part.  Products of patterns, pattern powers and
their actions on support vectors compute commutator shapes, series
dimensions, and row/column ranks without any arithmetic cancellation
(spans of distinct matrix units never cancel).

A pattern is a tuple of n row bitmasks, bit j-1 of row i-1 set iff (i,j) is
starred: the form of RegularSubalgebra.nil_rows.  A support is an int, bit
i-1 for coordinate i.
"""

from __future__ import annotations

from math import gcd

from . import linalg
from .core import DimensionMismatchError, RegularSubalgebra, _reach


def _check_support(x: tuple[int, ...], v: int) -> None:
    if v >> len(x):
        raise DimensionMismatchError(f"support {v:#b} is wider than n={len(x)}")


def bool_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Boolean matrix product: (XY)(i,l) = OR_k X(i,k) AND Y(k,l)."""
    if len(x) != len(y):
        raise DimensionMismatchError(f"pattern sizes {len(x)} and {len(y)} differ")
    return tuple(_reach(y, row) for row in x)


def col_action(x: tuple[int, ...], v: int) -> int:
    """Left action on a column support: output i set iff row i meets v."""
    _check_support(x, v)
    mask = 0
    for idx, row in enumerate(x):
        if row & v:
            mask |= 1 << idx
    return mask


def row_action(v: int, x: tuple[int, ...]) -> int:
    """Right action on a row support: output j set iff column j meets v."""
    _check_support(x, v)
    return _reach(x, v)


def commutator_pattern(algebra: RegularSubalgebra) -> tuple[int, ...]:
    """Pattern of the first derived term: nil-nil bracket positions plus
    every nil position rescaled by some diagonal generator (d_i != d_j),
    i.e. in the adjoint image of that generator.  The diagonal itself never
    survives a commutator."""
    rows = bool_mul(algebra.nil_rows, algebra.nil_rows)
    for v in algebra.cartan_gens:
        rows = tuple(r | s for r, s in zip(rows, adjoint_image_pattern(v, algebra)))
    return rows


def derived_series_dims(pattern: tuple[int, ...]) -> list[int]:
    """Sizes of a pattern and of its successive squares, ending at the
    first 0: the derived series of a nilpotent part from its nil pattern,
    or of a solvable algebra past its first term from commutator_pattern.

    Every pattern here is strictly upper triangular, so the k-th square is
    the 2^k-th power of the first, which is 0 once 2^k >= n.  A repeat
    before then would make a nonzero power equal to a higher power of
    itself, hence to all of its powers, 0 included; so none occurs and the
    loop needs no guard.
    """
    dims = []
    while True:
        dims.append(sum(row.bit_count() for row in pattern))
        if not any(pattern):
            return dims
        pattern = bool_mul(pattern, pattern)


def action_dim_seq(rows: tuple[int, ...]) -> list[int]:
    """Support sizes of successive powers of a pattern acting on the full
    support vector from the right (row_action), ending at the first 0.

    The left action on column vectors is the right action of the transpose,
    so nil_rows gives the row sequence and nil_cols the column sequence.
    Each step raises the lowest set coordinate of a strictly upper pattern
    and lowers the highest of a strictly lower one, so the support empties
    within n steps and never repeats.
    """
    v = (1 << len(rows)) - 1
    dims = []
    while v:
        v = _reach(rows, v)
        dims.append(v.bit_count())
    return dims


def adjoint_image_pattern(h, algebra: RegularSubalgebra) -> tuple[int, ...]:
    """Pattern of [h, -] restricted to the nilpotent part: a star survives
    at (i,j) iff (i,j) is a nil position and h_i != h_j."""
    h = tuple(h)
    if len(h) != algebra.n:
        raise DimensionMismatchError(f"vector length {len(h)} != n={algebra.n}")
    if sum(h) != 0:
        raise ValueError(f"diagonal vector {h} is not traceless")
    same: dict[int, int] = {}  # entry value -> bitmask of the coordinates holding it
    for k, x in enumerate(h):
        same[x] = same.get(x, 0) | 1 << k
    return tuple(row & ~same[x] for row, x in zip(algebra.nil_rows, h))


def generic_max_rank(algebra_or_pattern) -> int:
    """Rank of a generic element: the term rank of its support pattern,
    i.e. a maximum matching between rows and columns over the supported
    entries (for an algebra: the nil positions plus each diagonal position
    where some generator is nonzero).

    This is exact, not a bound.  Expand a k x k minor of the generic element
    as a sum over the matchings of its rows to its columns.  The entries at
    nil positions are independent indeterminates, so two matchings that use
    different sets of nil positions give different monomials in them; once
    that set is fixed, the remaining rows must be matched to the equal
    columns along the diagonal, so the matching is forced.  The coefficient
    of each monomial is therefore a single product of diagonal entries,
    each a nonzero linear form in the generator coefficients.  Nothing
    cancels, and the minor vanishes identically iff it has no perfect
    matching on supported entries.
    """
    if isinstance(algebra_or_pattern, tuple):
        rows = algebra_or_pattern
    else:
        support = algebra_or_pattern.cartan_support
        rows = tuple(row | support & 1 << i for i, row in enumerate(algebra_or_pattern.nil_rows))
    owner: dict[int, int] = {}  # matched column bit -> its row
    visited = 0

    def augment(r: int) -> bool:
        nonlocal visited
        while free := rows[r] & ~visited:
            col = free & -free
            visited |= col
            if col not in owner or augment(owner[col]):
                owner[col] = r
                return True
        return False

    matched = 0
    for r in range(len(rows)):
        visited = 0
        matched += augment(r)
    return matched


def min_rank(algebra: RegularSubalgebra) -> int:
    """Smallest rank of a nonzero element.

    Any single matrix unit has rank 1, so a nonempty nil set settles it.
    For a diagonal span the rank of an element is its number of nonzero
    entries, and a multiple of some e_p - e_q (rank 2) lies in the span iff
    annihilator columns p and q are equal.  Otherwise the answer is n minus
    the size of the largest hyperplane of the column matroid of the g x n
    generator matrix G.

    Proof.  The zero set Z of a nonzero x = y.G is a flat: a column that is
    a combination of columns in Z pairs with y to 0 as well.  Its rank is at
    most g - 1, since the columns in Z are orthogonal to y != 0.  Conversely,
    for a hyperplane F the vector y orthogonal to the columns in F is unique
    up to scale, x = y.G is nonzero because G has independent rows, and its
    zero set is a flat of rank g - 1 containing F, so it is F.  Hence the
    maximal zero sets are exactly the hyperplanes.  A relabeling of
    coordinates permutes the columns and a change of span basis keeps the
    matroid, so the value is invariant under both.

    Search.  Each hyperplane is the closure of g - 1 independent columns,
    so for g >= 2 it contains g - 2 of them.  The search goes over
    increasing independent column sets S of size up to g - 2, keeping the
    rows y.G for a basis of the y orthogonal to S: the contraction of the
    matroid by S, in which the columns of S are zero.  Contraction by S
    keeps exactly the hyperplanes that contain S, so the largest hyperplane
    is the largest one found in the contractions by all such S.  After
    g - 2 columns two rows are left, a matroid of rank 2, and the
    hyperplanes of a rank-2 matroid are its parallel classes, each together
    with the loops (Oxley, Matroid Theory, 3.1).  A two-row node therefore
    reads its answer off: the zero columns are the loops, and two nonzero
    columns are parallel iff they have the same direction, a 2-vector
    divided by the gcd of its entries with its first nonzero entry made
    positive; the least support is the number of nonzero columns less the
    largest class.  There are at most C(n, g - 2) contractions, each
    O(n), so the search costs O(n^(g-1)) at fixed g.  It stays
    exponential in g: minimum weight is NP-hard (Vardy, "The
    intractability of computing the minimum distance of a code", IEEE
    Trans. IT 1997).
    """
    if algebra.dim == 0:
        raise ValueError("minimum rank of the zero algebra is undefined")
    if algebra.nil_set:
        return 1
    n = algebra.n
    if len(set(zip(*algebra.cartan_null))) < n:
        return 2

    def search(rows: list[list[int]], start: int) -> int:
        if len(rows) == 1:
            return n - rows[0].count(0)
        if len(rows) == 2:
            directions: dict[tuple[int, int], int] = {}  # parallel class -> its size
            for a, b in zip(*rows):
                if a or b:
                    d = gcd(a, b) if a > 0 or (a == 0 and b > 0) else -gcd(a, b)
                    key = a // d, b // d
                    directions[key] = directions.get(key, 0) + 1
            return sum(directions.values()) - max(directions.values())
        best = n
        for j in range(start, n):
            pivot = next((row for row in rows if row[j]), None)
            if pivot is None:
                continue  # column j lies in the span of the chosen columns
            rest = [linalg._eliminate(row, pivot, j) for row in rows if row is not pivot]
            best = min(best, search(rest, j + 1))
        return best

    return search([list(v) for v in algebra.cartan_gens], 0)

