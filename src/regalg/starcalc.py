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

from collections.abc import Sequence
from math import gcd

from . import linalg
from .core import DimensionMismatchError, RegularSubalgebra, _reach


def bool_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Boolean matrix product: (XY)(i,l) = OR_k X(i,k) AND Y(k,l)."""
    if len(x) != len(y):
        raise DimensionMismatchError(f"pattern sizes {len(x)} and {len(y)} differ")
    return tuple(_reach(y, row) for row in x)


def derived_series_dims(pattern: tuple[int, ...]) -> list[int]:
    """Sizes of a pattern and of its successive squares, ending at the
    first 0: the derived series of a nilpotent part from its nil pattern.

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
    support vector from the right (a row support goes to the OR of the rows
    it selects), ending at the first 0.

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


def generic_max_rank(rows: tuple[int, ...]) -> int:
    """Rank of a generic element of an algebra from its support pattern:
    the term rank, i.e. a maximum matching between rows and columns over
    the supported entries.  signature passes nil_rows with each diagonal
    position where some generator is nonzero (cartan_support) OR'd in.

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


def root_classes(algebra: RegularSubalgebra) -> list[list[int]]:
    """The coordinates 1..n grouped by equal annihilator column, each class
    in increasing order.  The diagonal span is the orthogonal complement of
    its annihilator, so e_p - e_q lies in it iff a_p = a_q for every
    annihilator basis vector a, that is iff p and q share a class."""
    classes: dict[tuple[int, ...], list[int]] = {}  # annihilator column -> its coordinates
    for k, column in enumerate(zip(*algebra.cartan_null), start=1):
        classes.setdefault(column, []).append(k)
    return list(classes.values())


def min_rank(algebra: RegularSubalgebra) -> int:
    """Smallest rank of a nonzero element.

    Any single matrix unit has rank 1, so a nonempty nil set settles it.
    For a diagonal span the rank of an element is its number of nonzero
    entries, and the answer is n minus the size of the largest hyperplane
    of the column matroid of the g x n generator matrix G.

    Proof.  The zero set Z of a nonzero x = y.G is a flat: a column that is
    a combination of columns in Z pairs with y to 0 as well.  Its rank is at
    most g - 1, since the columns in Z are orthogonal to y != 0.  Conversely,
    for a hyperplane F the vector y orthogonal to the columns in F is unique
    up to scale, x = y.G is nonzero because G has independent rows, and its
    zero set is a flat of rank g - 1 containing F, so it is F.  Hence the
    maximal zero sets are exactly the hyperplanes.  A relabeling of
    coordinates permutes the columns and a change of span basis keeps the
    matroid, so the value is invariant under both.

    Search.  The search walks independent column sets S = {s_1 < ... < s_k}
    of increasing columns, keeping the rows y.G for a basis of the y
    orthogonal to S: the contraction of the matroid by S, in which the
    columns of the closure cl(S) are zero.  It counts each hyperplane F in
    full only at its lexicographically first basis, the one that scanning
    the columns in order and keeping each column outside the closure of
    those kept picks (the greedy basis; Oxley, Matroid Theory, 1.8).  If S
    is a prefix of that basis, a column of F before s_k lies in the closure
    of the basis columns before it, hence in cl(S), and a column outside
    cl(S) before s_k is not in F.  So a node keeps only the columns after s_k, plus a
    count base of the columns up to s_k that are zero in its contraction,
    the pivots included; a child that pivots on column j adds the zero
    columns seen since s_k and j itself.  Every count is at most the zero
    set of some nonzero x, because the columns it counts lie in a flat of
    rank at most g - 1; and along the first basis of F it is exactly |F|.
    A child's rows are the other rows with the pivot's column cleared by
    linalg._eliminate, which builds only their tails after it; a row
    already zero there is carried as its tail, unreduced and unscaled.
    Zero sets and parallel classes do not depend on a row's scale, so
    neither the nodes visited nor the answer do.

    A node of two rows (g - 2 pivots) is a leaf and reads its hyperplanes
    off: the contraction has rank 2, and the hyperplanes of a rank-2
    matroid are its parallel classes, each together with the loops (Oxley,
    3.1).  Two nonzero columns are parallel iff they have the same
    direction, a 2-vector divided by the gcd of its entries with its first
    nonzero entry made positive; the leaf's count is base, its zero
    columns and its largest class.

    Bound.  The largest hyperplane found so far, best, starts at g - 1,
    the size of every basis of a hyperplane, or at the most zeros of a
    generator (a nonzero element) if that is more.  A traceless vector
    with n - 1 zeros is 0, so best is at most n - 2, and the search runs
    only for g >= 2 and best < n - 2: one generator, or a root vector
    e_p - e_q among them, needs no elimination, while a root vector that
    is only a combination of the generators costs the full search.  Past
    column j of a node, no hyperplane below it has more than base + the
    zero columns seen before j + the columns from j on, so the node stops
    once that is at most best: only a strictly larger hyperplane can change
    the answer.  The answer is n - best.  Minimum weight is NP-hard
    (Vardy, "The intractability of computing the minimum distance of a
    code", IEEE Trans. IT 1997), so the search stays exponential in the
    worst case; the bound prunes hardest when g is close to n, where best
    starts large.
    """
    if algebra.dim == 0:
        raise ValueError("minimum rank of the zero algebra is undefined")
    if algebra.nil_set:
        return 1
    n = algebra.n
    gens = algebra.cartan_gens
    best = max(len(gens) - 1, max(v.count(0) for v in gens))

    def search(rows: Sequence[Sequence[int]], base: int) -> None:
        nonlocal best
        if len(rows) == 2:
            zeros = 0
            directions: dict[tuple[int, int], int] = {}  # parallel class -> its size
            for a, b in zip(*rows):
                if not (a or b):
                    zeros += 1
                    continue
                d = gcd(a, b) if a > 0 or (a == 0 and b > 0) else -gcd(a, b)
                key = a // d, b // d
                directions[key] = directions.get(key, 0) + 1
            best = max(best, base + zeros + max(directions.values(), default=0))
            return
        width = len(rows[0])
        zeros = 0
        for j in range(width):
            if base + zeros + width - j <= best:
                return
            for pivot in rows:
                if pivot[j]:
                    break
            else:
                zeros += 1  # column j lies in the closure of the pivots
                continue
            rest = [linalg._eliminate(row, pivot, j, j + 1) if row[j] else row[j + 1:]
                    for row in rows if row is not pivot]
            search(rest, base + zeros + 1)

    if len(gens) >= 2 and best < n - 2:
        search(gens, 0)
    return n - best
