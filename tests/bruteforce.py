"""Independent brute-force oracles used by the tests.

Everything here recomputes results through exact rational linear algebra
(Fraction row reduction, kept apart from the package's integer kernel) on
explicit bracket expansions, deliberately avoiding the boolean-pattern
shortcuts of the package under test.  bracket is the tests' one exact
bracket: the span oracles expand it, the bracket laws are checked on it,
and closed_dim2_spans, the dimension-2 oracle that families.enum_dim2 is
compared with, decides closure with it.  The adjoint pattern
adjoint_image_pattern and the pattern actions col_action and row_action
are the direct loops over a pattern's rows that the closed-form Cartan
records are checked against.  witness_scan alone is no oracle: it runs
the package's pruned witness search to its end, the scan the oracles
here are compared with.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

from regalg.conjugacy import _witness_search
from regalg.core import Diag, DimensionMismatchError, Nil, RegularSubalgebra, full_nil_set, h_pq_vector
from regalg.families import standard_basis
from regalg.starcalc import root_classes

RANK_TRIALS = 3
RANK_VALUE_BOUND = 2**31


def pattern(n: int, stars) -> tuple[int, ...]:
    """Star pattern (row bitmasks, bit j-1 of row i-1) with stars at the
    given 1-based positions."""
    rows = [0] * n
    for i, j in stars:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"position ({i},{j}) out of range for n={n}")
        rows[i - 1] |= 1 << (j - 1)
    return tuple(rows)


def positions(rows) -> list[tuple[int, int]]:
    """Starred positions of a pattern, row by row, in increasing order."""
    return [(i, j) for i, row in enumerate(rows, start=1)
            for j in range(1, len(rows) + 1) if row >> (j - 1) & 1]


def indices(mask: int) -> list[int]:
    """Set coordinates of a support, 1-based, in increasing order."""
    return [i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1]


def _check_support(x: tuple[int, ...], v: int) -> None:
    if v >> len(x):
        raise DimensionMismatchError(f"support {v:#b} is wider than n={len(x)}")


def col_action(x: tuple[int, ...], v: int) -> int:
    """Left action of a pattern on a column support: output i set iff row i
    meets v.  With the full support it is the set of nonempty rows, the
    pattern oracle for CartanRecord.adj_col_dim."""
    _check_support(x, v)
    mask = 0
    for idx, row in enumerate(x):
        if row & v:
            mask |= 1 << idx
    return mask


def row_action(v: int, x: tuple[int, ...]) -> int:
    """Right action of a pattern on a row support: output j set iff column j
    meets v.  With the full support it is the set of nonempty columns, the
    pattern oracle for CartanRecord.adj_row_dim."""
    _check_support(x, v)
    out = 0
    for idx, row in enumerate(x):
        if v >> idx & 1:
            out |= row
    return out


def adjoint_image_pattern(h, algebra: RegularSubalgebra) -> tuple[int, ...]:
    """Pattern of [h, -] restricted to the nilpotent part: a star survives
    at (i,j) iff (i,j) is a nil position and h_i != h_j.  The pattern
    oracle for cartan_record."""
    h = tuple(h)
    if len(h) != algebra.n:
        raise DimensionMismatchError(f"vector length {len(h)} != n={algebra.n}")
    if sum(h) != 0:
        raise ValueError(f"diagonal vector {h} is not traceless")
    same: dict[int, int] = {}  # entry value -> bitmask of the coordinates holding it
    for k, x in enumerate(h):
        same[x] = same.get(x, 0) | 1 << k
    return tuple(row & ~same[x] for row, x in zip(algebra.nil_rows, h))


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
    """Rank over the rationals by Fraction row echelon form."""
    m = [[Fraction(x) for x in row] for row in rows]
    return _echelonize(m)


def rref(rows) -> list[list[Fraction]]:
    """Reduced row echelon form over the rationals; zero rows are dropped."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = _echelonize(m)
    m = m[:r]
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
    """Fraction RREF rows scaled to primitive integer vectors with positive
    leading entry."""
    return tuple(_primitive(row) for row in rref(rows))


def annihilator(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Primitive integer null-space basis, one vector per free column of the
    Fraction RREF."""
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


class Element:
    """Exact algebra element: coefficients on matrix units plus a diagonal."""

    __slots__ = ("n", "nil", "diag")

    def __init__(self, n, nil=None, diag=None):
        self.n = n
        self.nil = dict(nil or {})
        self.diag = list(diag) if diag is not None else [Fraction(0)] * n

    def entries(self) -> dict[tuple[int, int], Fraction]:
        """The nonzero matrix entries, {(row, col): value}, diagonal included."""
        out = {p: c for p, c in self.nil.items() if c}
        out.update(((k, k), d) for k, d in enumerate(self.diag, start=1) if d)
        return out

    def is_zero(self):
        return not self.entries()


def element(b: Nil | Diag) -> Element:
    """A standard basis element (families.standard_basis) as an Element."""
    if isinstance(b, Nil):
        return Element(b.n, nil={(b.row, b.col): Fraction(1)})
    return Element(b.n, diag=[Fraction(x) for x in b.entries])


def bracket(x: Element, y: Element) -> Element:
    """The commutator xy - yx, expanded over the matrix units; diagonals
    commute, so it has no diagonal part."""
    n = x.n
    out = Element(n)
    for (i, j), a in x.nil.items():
        if a == 0:
            continue
        for (k, l), b in y.nil.items():
            if b == 0:
                continue
            if j == k:
                out.nil[(i, l)] = out.nil.get((i, l), Fraction(0)) + a * b
            if l == i:
                out.nil[(k, j)] = out.nil.get((k, j), Fraction(0)) - a * b
    for (k, l), b in y.nil.items():
        c = x.diag[k - 1] - x.diag[l - 1]
        if c != 0 and b != 0:
            out.nil[(k, l)] = out.nil.get((k, l), Fraction(0)) + c * b
    for (i, j), a in x.nil.items():
        c = y.diag[i - 1] - y.diag[j - 1]
        if c != 0 and a != 0:
            out.nil[(i, j)] = out.nil.get((i, j), Fraction(0)) - c * a
    return out


def jacobi_sum(x: Element, y: Element, z: Element) -> dict[tuple[int, int], Fraction]:
    """The nonzero entries of [x,[y,z]] + [y,[z,x]] + [z,[x,y]], which the
    Jacobi identity makes empty."""
    total: dict[tuple[int, int], Fraction] = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for p, v in bracket(a, bracket(b, c)).entries().items():
            total[p] = total.get(p, 0) + v
    return {p: v for p, v in total.items() if v}


def _to_vector(el: Element, positions):
    vec = [Fraction(0)] * (len(positions) + el.n)
    for idx, p in enumerate(positions):
        vec[idx] = el.nil.get(p, Fraction(0))
    for i in range(el.n):
        vec[len(positions) + i] = el.diag[i]
    return vec


def _from_vector(vec, positions, n):
    el = Element(n)
    for idx, p in enumerate(positions):
        if vec[idx] != 0:
            el.nil[p] = vec[idx]
    el.diag = list(vec[len(positions):])
    return el


def span_derived_series(algebra: RegularSubalgebra):
    """Derived series dims and nil-support patterns by exact span brackets.

    Returns (dims, patterns): dims starts at the full dimension and ends at
    the first 0; patterns[k] is the nil support of the (k+1)-th term.
    """
    n = algebra.n
    positions = sorted(full_nil_set(n))
    current = []
    for (i, j) in sorted(algebra.nil_set):
        current.append(Element(n, nil={(i, j): Fraction(1)}))
    for v in algebra.cartan_gens:
        current.append(Element(n, diag=[Fraction(x) for x in v]))
    dims = [len(current)]
    patterns = []
    while dims[-1] != 0:
        produced = []
        for x, y in combinations(current, 2):
            b = bracket(x, y)
            if not b.is_zero():
                produced.append(_to_vector(b, positions))
        basis = rref(produced) if produced else []
        dims.append(len(basis))
        support = set()
        for row in basis:
            for idx, val in enumerate(row):
                if val != 0 and idx < len(positions):
                    support.add(positions[idx])
        patterns.append(frozenset(support))
        current = [_from_vector(row, positions, n) for row in basis]
    return dims, patterns


def span_power_action_dims(algebra: RegularSubalgebra, side: str):
    """Column/row action sizes of successive products of the nilpotent part,
    recomputed by exact products of generic instantiations of the span.

    Works on supports of exact matrix products: the image support of the
    m-fold product of the generic nil element.
    """
    n = algebra.n
    mat = [[Fraction(0)] * n for _ in range(n)]
    value = 2
    for (i, j) in sorted(algebra.nil_set):
        mat[i - 1][j - 1] = Fraction(value)
        value += 3  # distinct positive entries; no cancellation possible
    power = [row[:] for row in mat]
    dims = []
    while True:
        if side == "column":
            size = sum(1 for r in range(n) if any(power[r][c] != 0 for c in range(n)))
        else:
            size = sum(1 for c in range(n) if any(power[r][c] != 0 for r in range(n)))
        dims.append(size)
        if size == 0:
            break
        power = [
            [sum((power[r][k] * mat[k][c] for k in range(n)), Fraction(0)) for c in range(n)]
            for r in range(n)
        ]
    return dims


def brute_commutator_dim(algebra: RegularSubalgebra) -> int:
    """Dimension of the commutator: exact rank of all pairwise brackets."""
    n = algebra.n
    positions = sorted(full_nil_set(n))
    elements = [Element(n, nil={(i, j): Fraction(1)}) for (i, j) in sorted(algebra.nil_set)]
    elements += [Element(n, diag=[Fraction(x) for x in v]) for v in algebra.cartan_gens]
    produced = []
    for x, y in combinations(elements, 2):
        b = bracket(x, y)
        if not b.is_zero():
            produced.append(_to_vector(b, positions))
    return rank(produced) if produced else 0


def instantiation_rank(algebra_or_pattern) -> int:
    """Monte-Carlo generic rank: the largest exact rank over RANK_TRIALS
    instantiations with independent random entries at each star and random
    coefficients on each diagonal generator.

    Values come from [1, 2^31); by Schwartz-Zippel the chance that every
    trial lands on a rank-deficient choice is negligible.
    """
    rng = random.Random(0)
    if isinstance(algebra_or_pattern, tuple):
        n, stars, gens = len(algebra_or_pattern), positions(algebra_or_pattern), ()
    else:
        n, stars, gens = algebra_or_pattern.n, sorted(algebra_or_pattern.nil_set), algebra_or_pattern.cartan_gens
    best = 0
    for _ in range(RANK_TRIALS):
        m = [[0] * n for _ in range(n)]
        for (i, j) in stars:
            m[i - 1][j - 1] = rng.randrange(1, RANK_VALUE_BOUND)
        for v in gens:
            c = rng.randrange(1, RANK_VALUE_BOUND)
            for idx, x in enumerate(v):
                m[idx][idx] += c * x
        best = max(best, rank(m))
    return best


def in_span(vector, rows) -> bool:
    """Span membership by two exact ranks."""
    base = [list(r) for r in rows]
    return rank(base) == rank(base + [list(vector)])


def root_vectors(algebra: RegularSubalgebra) -> tuple[tuple[int, ...], ...]:
    """The package's root pairs (starcalc.root_classes), in increasing
    order, as vectors e_p - e_q: the form root_vectors_by_rank checks."""
    pairs = sorted(pair for c in root_classes(algebra) for pair in combinations(c, 2))
    return tuple(h_pq_vector(algebra.n, p, q) for p, q in pairs)


def root_vectors_by_rank(algebra: RegularSubalgebra) -> tuple[tuple[int, ...], ...]:
    """Vectors e_p - e_q (p < q) in the diagonal span, one membership test
    per pair."""
    n = algebra.n
    out = []
    for p, q in combinations(range(n), 2):
        v = [0] * n
        v[p], v[q] = 1, -1
        if in_span(v, algebra.cartan_gens):
            out.append(tuple(v))
    return tuple(out)


def min_support(algebra: RegularSubalgebra) -> int:
    """Fewest nonzero entries of a nonzero vector in the diagonal span, by
    subset enumeration: n minus the largest coordinate set Z on which the
    generator columns have rank at most g - 1, which is exactly when some
    nonzero combination of the g independent generators vanishes on Z."""
    n, gens = algebra.n, algebra.cartan_gens
    for size in range(n, -1, -1):
        for zeros in combinations(range(n), size):
            if rank([[v[z] for z in zeros] for v in gens]) < len(gens):
                return n - size
    raise ValueError("the diagonal span is zero")


def witness_scan(a: RegularSubalgebra, b: RegularSubalgebra):
    """Lexicographically first permutation mapping a onto b, or None: the
    package's witness search (conjugacy._witness_search) run to its end."""
    return next(filter(None, _witness_search(a, b)), None)


def witness_scan_exhaustive(a: RegularSubalgebra, b: RegularSubalgebra):
    """First permutation (lexicographic) mapping a onto b, relabeling the
    whole algebra for each of the n! candidates.  With equal generator
    counts the spans agree iff every relabeled generator of a has a zero dot
    product with every annihilator vector of b."""
    if len(a.cartan_gens) != len(b.cartan_gens):
        return None
    n = a.n
    target_ann = annihilator(b.cartan_gens, n)
    for sigma in permutations(range(1, n + 1)):
        nil = {(sigma[i - 1], sigma[j - 1]) for i, j in a.nil_set}
        if nil != b.nil_set:
            continue
        permuted = []
        for v in a.cartan_gens:
            w = [0] * n
            for idx, x in enumerate(v):
                w[sigma[idx] - 1] = x
            permuted.append(w)
        if all(sum(x * y for x, y in zip(w, ann)) == 0 for w in permuted for ann in target_ann):
            return sigma
    return None


def witness_scan_by_rref(a: RegularSubalgebra, b: RegularSubalgebra):
    """First permutation (lexicographic) mapping a onto b, comparing the
    canonical RREF of the relabeled generators with that of b for every
    candidate."""
    n = a.n
    target_span = rref_primitive(b.cartan_gens)
    for sigma in permutations(range(1, n + 1)):
        nil = {(sigma[i - 1], sigma[j - 1]) for i, j in a.nil_set}
        if any(i >= j for i, j in nil) or nil != b.nil_set:
            continue
        permuted = []
        for v in a.cartan_gens:
            w = [0] * n
            for idx, x in enumerate(v):
                w[sigma[idx] - 1] = x
            permuted.append(w)
        if rref_primitive(permuted) == target_span:
            return sigma
    return None


def closed_nil_sets(n: int) -> list[frozenset[tuple[int, int]]]:
    """Every closed nil set at n, i.e. every naturally labeled poset on
    1..n, built column by column: the rows i < j of column j form a
    down-set of the poset already built on 1..j-1, which is exactly the
    closure of (i, k), (k, j) -> (i, j) at the new column."""
    sets = [frozenset()]
    for j in range(2, n + 1):
        grown = []
        for nil in sets:
            below = [{h for h in range(1, i) if (h, i) in nil} for i in range(j)]
            for mask in range(1 << (j - 1)):
                column = {i for i in range(1, j) if mask >> (i - 1) & 1}
                if all(below[i] <= column for i in column):
                    grown.append(nil | {(i, j) for i in column})
        sets = grown
    return sets


def closed_dim2_spans(n: int) -> list[RegularSubalgebra]:
    """The closed spans of two distinct standard basis elements, by bracket
    expansion: a pair is closed iff the bracket of its two elements lies in
    their span, one exact rank test per pair.  The unlabelled oracle for
    families.enum_dim2, which decides closure on the nil pattern instead."""
    positions = sorted(full_nil_set(n))
    out = []
    for a, b in combinations(standard_basis(n), 2):
        pair = [_to_vector(element(e), positions) for e in (a, b)]
        if in_span(_to_vector(bracket(element(a), element(b)), positions), pair):
            nil = {(e.row, e.col) for e in (a, b) if isinstance(e, Nil)}
            gens = tuple(e.entries for e in (a, b) if isinstance(e, Diag))
            out.append(RegularSubalgebra(n, frozenset(nil), gens))
    return out
