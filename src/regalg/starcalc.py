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
from itertools import combinations, product

from . import linalg
from .core import (
    DimensionMismatchError,
    NotClosedError,
    RegularSubalgebra,
    closure_defect,
    is_closed,
)

MIN_RANK_COEFF_BOUND = 3


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
    return StarMatrix.from_positions(algebra.n, algebra.nil_set)


def bool_mul(x: StarMatrix, y: StarMatrix) -> StarMatrix:
    """Boolean matrix product: (XY)(i,l) = OR_k X(i,k) AND Y(k,l)."""
    if x.n != y.n:
        raise DimensionMismatchError(f"pattern sizes {x.n} and {y.n} differ")
    rows = []
    for row in x.rows:
        acc = 0
        r = row
        while r:
            low = r & -r
            acc |= y.rows[low.bit_length() - 1]
            r ^= low
        rows.append(acc)
    return StarMatrix(x.n, tuple(rows))


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
    mask = 0
    r = v.mask
    while r:
        low = r & -r
        mask |= x.rows[low.bit_length() - 1]
        r ^= low
    return SupportVector(x.n, mask)


def _require_closed(algebra: RegularSubalgebra) -> None:
    if not is_closed(algebra):
        raise NotClosedError(closure_defect(algebra))


def commutator_pattern(algebra: RegularSubalgebra) -> StarMatrix:
    """Pattern of the first derived term: nil-nil bracket positions plus
    every nil position rescaled by some diagonal generator (d_i != d_j).
    The diagonal itself never survives a commutator."""
    star = nil_star(algebra)
    pattern = bool_mul(star, star)
    rows = list(pattern.rows)
    for (i, j) in algebra.nil_set:
        if any(v[i - 1] != v[j - 1] for v in algebra.cartan_gens):
            rows[i - 1] |= 1 << (j - 1)
    return StarMatrix(algebra.n, tuple(rows))


def derived_series_dims(algebra: RegularSubalgebra) -> list[int]:
    """Dimensions along the derived series, ending at the first 0.

    The first entry is the full dimension; successive terms square the
    current pattern.  Stops on an empty or repeating pattern.
    """
    _require_closed(algebra)
    return _derived_series_dims(algebra)


def _derived_series_dims(algebra: RegularSubalgebra) -> list[int]:
    """derived_series_dims of an algebra already known to be closed."""
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
    _require_closed(algebra)
    return _action_dim_seq(algebra, side)


def _action_dim_seq(algebra: RegularSubalgebra, side: str) -> list[int]:
    """action_dim_seq of an algebra already known to be closed."""
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
    keep = [(i, j) for (i, j) in algebra.nil_set if h[i - 1] != h[j - 1]]
    return StarMatrix.from_positions(algebra.n, keep)


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
                     for i, row in enumerate(nil_star(algebra_or_star).rows))
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


@dataclass(frozen=True)
class MinRankResult:
    value: int
    confirmed: bool


def min_rank_detail(algebra: RegularSubalgebra) -> MinRankResult:
    """Smallest rank of a nonzero element.

    Any single matrix unit has rank 1, so a nonempty nil set settles it.
    For diagonal spans the rank of an element is its number of nonzero
    entries; a nonzero traceless vector has at least two, so the answer 2
    is decided exactly.  Otherwise integer combinations of the canonical
    basis with coefficients in [-3, 3] are searched, smallest support
    first; the result is exact for one-generator spans and an unconfirmed
    upper bound in general.
    """
    if algebra.dim == 0:
        raise ValueError("minimum rank of the zero algebra is undefined")
    if algebra.nil_set:
        return MinRankResult(1, True)
    n = algebra.n
    # a rank-2 diagonal element is a multiple of some e_p - e_q, which lies
    # in the span iff annihilator columns p and q are equal
    if len(set(zip(*linalg.annihilator(algebra.cartan_gens, n)))) < n:
        return MinRankResult(2, True)
    basis = linalg.rref_primitive(algebra.cartan_gens)
    g = len(basis)
    best = min(sum(1 for x in v if x != 0) for v in basis)
    coeff_range = [c for c in range(-MIN_RANK_COEFF_BOUND, MIN_RANK_COEFF_BOUND + 1) if c != 0]
    for support_size in range(1, g + 1):
        if best == 2:
            break
        for support in combinations(range(g), support_size):
            for coeffs in product(coeff_range, repeat=support_size):
                vec = [0] * n
                for c, idx in zip(coeffs, support):
                    for pos, x in enumerate(basis[idx]):
                        vec[pos] += c * x
                nonzeros = sum(1 for x in vec if x != 0)
                if 0 < nonzeros < best:
                    best = nonzeros
                    if best == 2:
                        break
            if best == 2:
                break
    confirmed = best == 2 or g == 1
    return MinRankResult(best, confirmed)


def min_rank(algebra: RegularSubalgebra) -> int:
    return min_rank_detail(algebra).value


def diag_eigen_multiset(h) -> tuple[int, ...]:
    """Eigenvalue multiset of a traceless diagonal vector (sorted entries);
    equivalently the root multiset of its characteristic polynomial."""
    h = tuple(h)
    if sum(h) != 0:
        raise ValueError(f"diagonal vector {h} is not traceless")
    return tuple(sorted(h))
