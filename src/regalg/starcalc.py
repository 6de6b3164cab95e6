"""Boolean star-pattern calculus over the (OR, AND) semiring.

A star pattern records which matrix positions can be nonzero for elements
of a subalgebra's nilpotent part.  Products of patterns, pattern powers and
their actions on support vectors compute commutator shapes, series
dimensions, and row/column ranks without any arithmetic cancellation
(spans of distinct matrix units never cancel).

Rows are stored as integer bitmasks, bit j-1 for column j.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .core import DimensionMismatchError, RegularSubalgebra, _reach, require_closed


@dataclass(frozen=True)
class StarMatrix:
    """n x n boolean pattern; rows are column bitmasks."""

    n: int
    rows: tuple[int, ...]

    @classmethod
    def from_positions(cls, n: int, positions) -> "StarMatrix":
        rows = [0] * n
        for i, j in positions:
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"position ({i},{j}) out of range for n={n}")
            rows[i - 1] |= 1 << (j - 1)
        return cls(n, tuple(rows))

    @classmethod
    def zeros(cls, n: int) -> "StarMatrix":
        return cls(n, (0,) * n)

    @classmethod
    def full_upper(cls, n: int) -> "StarMatrix":
        rows = tuple(((1 << n) - 1) ^ ((1 << i) - 1) for i in range(1, n + 1))
        return cls(n, rows)

    def entry(self, i: int, j: int) -> bool:
        return bool(self.rows[i - 1] >> (j - 1) & 1)

    def positions(self) -> list[tuple[int, int]]:
        out = []
        for i in range(1, self.n + 1):
            row = self.rows[i - 1]
            while row:
                low = row & -row
                out.append((i, low.bit_length()))
                row ^= low
        return out

    @property
    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @property
    def is_zero(self) -> bool:
        return all(row == 0 for row in self.rows)

    def render(self) -> str:
        """Human-readable 0/* grid."""
        lines = []
        for i in range(1, self.n + 1):
            lines.append(" ".join("*" if self.entry(i, j) else "0" for j in range(1, self.n + 1)))
        return "\n".join(lines)


@dataclass(frozen=True)
class SupportVector:
    """Length-n boolean support, bit i-1 for coordinate i."""

    n: int
    mask: int

    @classmethod
    def full(cls, n: int) -> "SupportVector":
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n: int) -> "SupportVector":
        return cls(n, 0)

    @classmethod
    def from_indices(cls, n: int, indices) -> "SupportVector":
        mask = 0
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError(f"index {i} out of range for n={n}")
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self.mask >> (i - 1) & 1]


def nil_star(algebra: RegularSubalgebra) -> StarMatrix:
    """Pattern of the nilpotent part: a star at each nil position."""
    return StarMatrix(algebra.n, algebra.nil_rows)


def bool_mul(x: StarMatrix, y: StarMatrix) -> StarMatrix:
    """Boolean matrix product: (XY)(i,l) = OR_k X(i,k) AND Y(k,l)."""
    if x.n != y.n:
        raise DimensionMismatchError(f"pattern sizes {x.n} and {y.n} differ")
    return StarMatrix(x.n, tuple(_reach(y.rows, row) for row in x.rows))


def col_action(x: StarMatrix, v: SupportVector) -> SupportVector:
    """Left action on a column support: output i set iff row i meets v."""
    if x.n != v.n:
        raise DimensionMismatchError(f"sizes {x.n} and {v.n} differ")
    mask = 0
    for idx, row in enumerate(x.rows):
        if row & v.mask:
            mask |= 1 << idx
    return SupportVector(x.n, mask)


def row_action(v: SupportVector, x: StarMatrix) -> SupportVector:
    """Right action on a row support: output j set iff column j meets v."""
    if x.n != v.n:
        raise DimensionMismatchError(f"sizes {x.n} and {v.n} differ")
    return SupportVector(x.n, _reach(x.rows, v.mask))


def commutator_pattern(algebra: RegularSubalgebra) -> StarMatrix:
    """Pattern of the first derived term: nil-nil bracket positions plus
    every nil position rescaled by some diagonal generator (d_i != d_j),
    i.e. in the adjoint image of that generator.  The diagonal itself never
    survives a commutator."""
    star = nil_star(algebra)
    rows = bool_mul(star, star).rows
    for v in algebra.cartan_gens:
        rows = tuple(r | s for r, s in zip(rows, adjoint_image_pattern(v, algebra).rows))
    return StarMatrix(algebra.n, rows)


def derived_series_dims(algebra: RegularSubalgebra) -> list[int]:
    """Dimensions along the derived series, ending at the first 0.

    The first entry is the full dimension; successive terms square the
    current pattern.  Stops on an empty or repeating pattern.
    """
    require_closed(algebra)
    dims = [algebra.dim]
    if algebra.dim == 0:
        return dims
    pattern = commutator_pattern(algebra)
    seen = set()
    while True:
        dims.append(pattern.count)
        if pattern.is_zero or pattern.rows in seen:
            break
        seen.add(pattern.rows)
        pattern = bool_mul(pattern, pattern)
    return dims


def action_dim_seq(algebra: RegularSubalgebra, side: str) -> list[int]:
    """Support sizes of successive nil-pattern powers acting on the full
    support vector, ending at the first 0.

    side is "column" for the left action on column vectors, "row" for the
    right action on row vectors.
    """
    if side not in ("column", "row"):
        raise ValueError(f"side must be 'column' or 'row', got {side!r}")
    require_closed(algebra)
    star = nil_star(algebra)
    v = SupportVector.full(algebra.n)
    dims = []
    seen = set()
    while True:
        v = col_action(star, v) if side == "column" else row_action(v, star)
        dims.append(v.size)
        if v.size == 0 or v.mask in seen:
            break
        seen.add(v.mask)
    return dims


def adjoint_image_pattern(h, algebra: RegularSubalgebra) -> StarMatrix:
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
    return StarMatrix(algebra.n, tuple(row & ~same[x] for row, x in zip(algebra.nil_rows, h)))


def generic_max_rank(algebra_or_star) -> int:
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
    if isinstance(algebra_or_star, StarMatrix):
        rows = algebra_or_star.rows
    else:
        gens = algebra_or_star.cartan_gens
        rows = tuple(row | any(v[i] for v in gens) << i
                     for i, row in enumerate(algebra_or_star.nil_rows))
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
    maximal zero sets are exactly the hyperplanes.  Each hyperplane is the
    closure of g - 1 independent columns, so the search below, over
    increasing independent column sets, reaches all of them: it keeps the
    rows y.G for a basis of the y orthogonal to the chosen columns, and the
    single row left after g - 1 columns spans that hyperplane's vector.  A
    relabeling of coordinates permutes the columns and a change of span
    basis keeps the matroid, so the value is invariant under both.
    """
    if algebra.dim == 0:
        raise ValueError("minimum rank of the zero algebra is undefined")
    if algebra.nil_set:
        return 1
    n = algebra.n
    if len(set(zip(*linalg.annihilator(algebra.cartan_basis, n)))) < n:
        return 2

    def search(rows: list[list[int]], start: int) -> int:
        if len(rows) == 1:
            return n - rows[0].count(0)
        best = n
        for j in range(start, n):
            pivot = next((row for row in rows if row[j]), None)
            if pivot is None:
                continue  # column j lies in the span of the chosen columns
            rest = [linalg._eliminate(row, pivot, j) for row in rows if row is not pivot]
            best = min(best, search(rest, j + 1))
        return best

    return search([list(v) for v in algebra.cartan_gens], 0)


def diag_eigen_multiset(h) -> tuple[int, ...]:
    """Eigenvalue multiset of a traceless diagonal vector (sorted entries);
    equivalently the root multiset of its characteristic polynomial."""
    h = tuple(h)
    if sum(h) != 0:
        raise ValueError(f"diagonal vector {h} is not traceless")
    return tuple(sorted(h))
