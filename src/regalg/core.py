"""Basis elements, the subalgebra data model, exact brackets, and closure.

A regular upper-triangular subalgebra of sl(n) is stored as a set of
strictly-upper nilpotent positions (i, j) plus a list of traceless integer
diagonal generators.  All indices are 1-based.
"""

from __future__ import annotations

import re
import reprlib
from dataclasses import dataclass, field
from functools import lru_cache

from . import linalg


class DimensionMismatchError(ValueError):
    """Two operands live in sl(n) for different n."""


class NotClosedError(ValueError):
    """Operation requires a bracket-closed subalgebra."""

    def __init__(self, descriptor: str, defects: list[tuple[int, int]]):
        self.descriptor = descriptor
        self.defects = defects
        missing = ", ".join(f"({i},{j})" for i, j in defects)
        super().__init__(f"{descriptor!r} is not closed under the bracket; missing positions: {missing}")


class DescriptorError(ValueError):
    """Malformed subalgebra descriptor text.  The message quotes the token
    through reprlib.repr, so a long token is shortened to 30 characters with
    its middle elided; .token keeps it whole."""

    def __init__(self, message: str, token: str, position: int):
        self.token = token
        self.position = position
        super().__init__(f"{message}: {reprlib.repr(token)} at position {position}")


@dataclass(frozen=True)
class Nil:
    """Matrix unit E_ij with 1 <= i < j <= n."""

    n: int
    row: int
    col: int

    def __post_init__(self):
        if not (1 <= self.row < self.col <= self.n):
            raise ValueError(f"invalid nilpotent position ({self.row},{self.col}) for n={self.n}")


@dataclass(frozen=True)
class Diag:
    """Traceless diagonal element diag(entries)."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if sum(self.entries) != 0:
            raise ValueError(f"diagonal entries must sum to zero, got {self.entries}")

    @property
    def n(self) -> int:
        return len(self.entries)


BasisElement = Nil | Diag

# spans whose annihilator _cartan_null keeps; a classification builds many
# members over few spans (the 351 algebras of enum_dim2(7) use 22)
CARTAN_NULL_CACHE_SIZE = 4096


@lru_cache(maxsize=CARTAN_NULL_CACHE_SIZE)
def _cartan_null(gens: tuple[tuple[int, ...], ...], n: int) -> tuple[tuple[int, ...], ...]:
    """linalg.annihilator of the generator tuple, reduced once per span."""
    return linalg.annihilator(gens, n)


def h_vector(n: int, k: int) -> tuple[int, ...]:
    """The diagonal generator e_k - e_{k+1}."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"H index {k} out of range for n={n}")
    return h_pq_vector(n, k, k + 1)


def h_pq_vector(n: int, p: int, q: int) -> tuple[int, ...]:
    """The diagonal generator e_p - e_q."""
    if not (1 <= p < q <= n):
        raise ValueError(f"H[{p},{q}] out of range for n={n}")
    v = [0] * n
    v[p - 1] = 1
    v[q - 1] = -1
    return tuple(v)


def bracket(a: BasisElement, b: BasisElement) -> dict[BasisElement, int]:
    """Exact commutator [a, b] expanded over the standard basis, as
    {basis element: nonzero coefficient}; the empty dict is zero.

    For two matrix units the product rule gives delta_{jk} E_il - delta_{li} E_kj;
    a diagonal d acts on E_ij as the scalar d_i - d_j; diagonals commute.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"operands have n={a.n} and n={b.n}")
    if isinstance(a, Nil) and isinstance(b, Nil):
        out = {}
        if a.col == b.row:
            out[Nil(a.n, a.row, b.col)] = 1
        if b.col == a.row:
            out[Nil(a.n, b.row, a.col)] = -1
        return out
    if isinstance(a, Diag) and isinstance(b, Nil):
        c = a.entries[b.row - 1] - a.entries[b.col - 1]
        return {b: c} if c else {}
    if isinstance(a, Nil) and isinstance(b, Diag):
        return {e: -c for e, c in bracket(b, a).items()}
    return {}


@dataclass(frozen=True)
class RegularSubalgebra:
    """Span of matrix units E_ij (the nil set) and traceless diagonals.

    Cartan generators must have int entries and be linearly independent
    over the rationals; duplicates are rejected at construction rather than
    deduplicated.

    Construction also derives, once, the forms every layer reads: nil_rows,
    where bit j-1 of row i-1 is set iff (i,j) is a nil position; nil_cols,
    its transpose (bit i-1 of column j-1); cartan_null, the canonical basis
    (linalg.annihilator) of the null space of the diagonal span, which
    determines the span and is reduced once per generator tuple, however
    many members share it; cartan_support, bit k set iff some generator
    is nonzero at coordinate k, which is the same for every basis of the
    span; and colours, the colour of each coordinate k packed in one int:
    the nil out-degree and in-degree of k and bit k of cartan_support.  A
    relabelling carries nil rows, nil columns and the support of the span
    along, so every witness of conjugacy maps each coordinate to one of its
    own colour.

    Equality and hashing are those of subalgebras: n, the nil set and
    cartan_null.  The generator list is only the presentation that
    descriptor() prints, so two bases of one span are equal.
    """

    n: int
    nil_set: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    cartan_gens: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    nil_rows: tuple[int, ...] = field(init=False, compare=False, repr=False)
    nil_cols: tuple[int, ...] = field(init=False, compare=False, repr=False)
    cartan_null: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
    cartan_support: int = field(init=False, compare=False, repr=False)
    colours: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nil_set", frozenset(self.nil_set))
        object.__setattr__(self, "cartan_gens", tuple(tuple(v) for v in self.cartan_gens))
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        rows = [0] * self.n
        cols = [0] * self.n
        for i, j in self.nil_set:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"invalid nilpotent position ({i},{j}) for n={self.n}")
            rows[i - 1] |= 1 << (j - 1)
            cols[j - 1] |= 1 << (i - 1)
        for v in self.cartan_gens:
            if not all(isinstance(x, int) for x in v):
                raise ValueError(f"cartan generator {v} has a non-integer entry")
            if len(v) != self.n:
                raise ValueError(f"cartan generator {v} has length {len(v)}, expected {self.n}")
            if sum(v) != 0:
                raise ValueError(f"cartan generator {v} is not traceless")
        g = len(self.cartan_gens)
        # traceless vectors span at most n - 1 dimensions, so n or more
        # generators are dependent with no elimination
        if g >= self.n or len(null := _cartan_null(self.cartan_gens, self.n)) != self.n - g:
            raise ValueError("cartan generators are linearly dependent")
        object.__setattr__(self, "nil_rows", tuple(rows))
        object.__setattr__(self, "nil_cols", tuple(cols))
        object.__setattr__(self, "cartan_null", null)
        support = sum(1 << k for k, column in enumerate(zip(*self.cartan_gens)) if any(column))
        object.__setattr__(self, "cartan_support", support)
        shift = self.n.bit_length()  # in-degrees are below n
        object.__setattr__(self, "colours", tuple([
            (rows[k].bit_count() << shift | cols[k].bit_count()) << 1 | support >> k & 1
            for k in range(self.n)]))

    @property
    def dim(self) -> int:
        return len(self.nil_set) + len(self.cartan_gens)

    @property
    def nil_dim(self) -> int:
        return len(self.nil_set)

    def descriptor(self) -> str:
        return format_descriptor(self)

    def __str__(self) -> str:
        return self.descriptor()


def full_nil_set(n: int) -> frozenset[tuple[int, int]]:
    """All strictly upper positions of an n x n matrix."""
    return frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def full_cartan(n: int) -> tuple[tuple[int, ...], ...]:
    """The standard generators e_k - e_{k+1}, k = 1..n-1."""
    return tuple(h_vector(n, k) for k in range(1, n))


def _reach(rows, mask: int) -> int:
    """OR of rows[k] over the set bits k of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _closure_gaps(algebra: RegularSubalgebra):
    """For rows i = 1..n in turn, the bitmask (bit l-1) of the positions
    (i,l) with (i,k),(k,l) in the nil set for some k but (i,l) absent: the
    OR of the rows that row i reaches, less row i itself."""
    rows = algebra.nil_rows
    for row in rows:
        yield _reach(rows, row) & ~row


def is_closed(algebra: RegularSubalgebra) -> bool:
    """True iff the span is closed under the bracket.

    Diagonal generators never break closure (they rescale members), so the
    test reduces to: whenever two nil positions chain as (i,k),(k,j), the
    position (i,j) must also be present, i.e. for every row the OR of the
    rows it reaches lies inside it.
    """
    return not any(_closure_gaps(algebra))


def closure_defect(algebra: RegularSubalgebra) -> list[tuple[int, int]]:
    """Positions produced by brackets of current members but absent from the
    nil set.  Only first-order defects are reported, not the transitive
    completion; empty iff the subalgebra is closed."""
    missing = []
    for i, gap in enumerate(_closure_gaps(algebra), start=1):
        while gap:
            low = gap & -gap
            missing.append((i, low.bit_length()))
            gap ^= low
    return missing


def require_closed(algebra: RegularSubalgebra) -> None:
    """Raise NotClosedError, naming the descriptor and the missing
    positions, unless the algebra is closed."""
    if not is_closed(algebra):
        raise NotClosedError(algebra.descriptor(), closure_defect(algebra))


def dimension_bound(algebra: RegularSubalgebra, missing: tuple[int, int]) -> int:
    """Largest possible dimension of a closed subalgebra avoiding E_ij.

    n(n-1)/2 - (j-i) for purely nilpotent spans, and n - 1 more, the
    dimension of the diagonal part of sl(n), when diagonal generators
    participate.  The bound is tight.  The published figure n(n+1)/2 - (j-i)
    takes |H| = n, the same slip as the codim-1 dimension label that the
    codim1-count check flags.
    """
    i, j = missing
    if not (1 <= i < j <= algebra.n):
        raise ValueError(f"invalid position ({i},{j}) for n={algebra.n}")
    if (i, j) in algebra.nil_set:
        raise ValueError(f"position ({i},{j}) is present, not missing")
    n = algebra.n
    return n * (n - 1) // 2 - (j - i) + (n - 1 if algebra.cartan_gens else 0)


# ── descriptor text format ──────────────────────────────────────────────
#
# Grammar (whitespace-insensitive, indices 1-based):
#   n=4; nil=(1,2),(1,3); cartan=H1,H[2,4]
# where Hk is e_k - e_{k+1}, H[p,q] is e_p - e_q, and diag(a,b,...) is an
# explicit traceless integer vector.

# largest n parse_descriptor admits: min_rank (the minimum
# distance of a code, NP-hard) is slowest when the span has about n/2
# generators; over three random spans per g at n = 20 (entries in
# [-3, 3]), its worst measured case is about 0.9 s of CPU, at g = 11 and
# 12 (tests/wide_spans.py: 0.8 s at g = 12), and g = 18 takes 0.03 s (one
# core of a shared 2-vCPU VM, Python 3.11)
DESCRIPTOR_MAX_N = 20
# largest magnitude of a diag(...) entry parse_descriptor admits: the
# integers of min_rank's eliminations grow with the entries, and so does
# its time.  Over three random spans per g = 9..13 at n = 20, the slowest
# signature takes 1.1 s of CPU with entries in [-10, 10], 1.8 s in
# [-1000, 1000] (g = 11), 2.4 s up to 10^6 and 3.8 s up to 10^12 (one
# core of a shared 2-vCPU VM, Python 3.11)
DIAG_ENTRY_MAX = 1000

_NIL_PAIR = re.compile(r"\((\d+),(\d+)\)")
_CARTAN_TOKEN = re.compile(r"H(\d+)|H\[(\d+),(\d+)\]|diag\(((?:-?\d+,)*-?\d+)\)")


def parse_descriptor(text: str) -> RegularSubalgebra:
    """Parse the subalgebra text format accepted by every CLI command.

    Segments are read in one pass over the whitespace-free text, and each
    nil or cartan list one token at a time: a token ends where its pattern's
    match does, and a comma or the end of the list must follow it.  An error
    reports its offset in the original text; where no token matches, or no
    comma follows one, it quotes the rest of the list from that offset.  An
    n above DESCRIPTOR_MAX_N is rejected before any length-n vector is
    built, and a diag entry above DIAG_ENTRY_MAX in magnitude before any
    signature work."""
    condensed = "".join(text.split())  # str.split() cuts at exactly the str.isspace() characters

    def err(message: str, start: int, token: str) -> DescriptorError:
        posmap = [idx for idx, ch in enumerate(text) if not ch.isspace()]
        return DescriptorError(message, token, posmap[start] if start < len(posmap) else len(text))

    def number(digits: str, start: int, token: str) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise err("integer has too many digits", start, token) from None

    def tokens(value: str, at: int, pattern: re.Pattern, expected: str, between: str):
        pos = 0
        while True:
            m = pattern.match(value, pos)
            if not m:
                raise err(expected, at + pos, value[pos:])
            yield m
            pos = m.end()
            if pos == len(value):
                return
            if value[pos] != ",":
                raise err(f"expected ',' between {between}", at + pos, value[pos:])
            pos += 1

    n = None
    nil_pairs: set[tuple[int, int]] = set()
    cartan = []  # (k, p, q, diag entries) of each Cartan token, read once n is known
    seen = set()
    seg_start = 0
    for part in condensed.split(";"):
        start, seg_start = seg_start, seg_start + len(part) + 1
        if not part:
            continue
        if "=" not in part:
            raise err("expected key=value segment", start, part)
        key, _, value = part.partition("=")
        if key in seen:
            raise err("duplicate segment", start, key)
        seen.add(key)
        at = start + len(key) + 1  # offset of the value
        if key == "n":
            if not value.isdecimal():
                raise err("n must be a positive integer", at, value)
            n = number(value, at, value)
            if n > DESCRIPTOR_MAX_N:
                raise err(f"n must be at most {DESCRIPTOR_MAX_N}", at, value)
        elif key == "nil" and value:
            for m in tokens(value, at, _NIL_PAIR, "expected (i,j) pair", "pairs"):
                pair = (number(m[1], at + m.start(), m[0]), number(m[2], at + m.start(), m[0]))
                if pair in nil_pairs:
                    raise err("duplicate nil pair", at + m.start(), m[0])
                nil_pairs.add(pair)
        elif key == "cartan" and value:
            for m in tokens(value, at, _CARTAN_TOKEN, "expected Hk, H[p,q] or diag(...)", "generators"):
                k, p, q = (number(m[g], at + m.start(g), m[g]) if m[g] else None for g in (1, 2, 3))
                entries = []
                if m[4]:
                    pos = at + m.start(4)
                    for digits in m[4].split(","):
                        entries.append(number(digits, pos, digits))
                        if abs(entries[-1]) > DIAG_ENTRY_MAX:
                            raise err(f"diag entries must be at most {DIAG_ENTRY_MAX} in magnitude",
                                      pos, digits)
                        pos += len(digits) + 1
                cartan.append((k, p, q, tuple(entries)))
        elif key not in ("nil", "cartan"):
            raise err("unknown segment", start, key)

    if n is None:
        raise DescriptorError("missing n= segment", text.strip(), 0)
    try:
        gens = []
        for k, p, q, diag in cartan:
            if k is not None:
                gens.append(h_vector(n, k))
            elif p is not None:
                gens.append(h_pq_vector(n, p, q))
            else:
                gens.append(diag)
        return RegularSubalgebra(n, frozenset(nil_pairs), tuple(gens))
    except ValueError as exc:
        raise DescriptorError(str(exc), text.strip(), 0) from exc


def format_descriptor(algebra: RegularSubalgebra) -> str:
    """Canonical text form: nil positions sorted, generators rendered as
    Hk / H[p,q] when they have that shape and diag(...) otherwise."""
    nil = ",".join(f"({i},{j})" for i, j in sorted(algebra.nil_set))
    gens = ",".join(_format_cartan_vector(algebra.n, v) for v in algebra.cartan_gens)
    return f"n={algebra.n}; nil={nil}; cartan={gens}"


def _format_cartan_vector(n: int, v: tuple[int, ...]) -> str:
    support = [idx for idx, x in enumerate(v) if x != 0]
    if len(support) == 2:
        p, q = support
        if v[p] == 1 and v[q] == -1:
            if q == p + 1:
                return f"H{p + 1}"
            return f"H[{p + 1},{q + 1}]"
    return "diag(" + ",".join(str(x) for x in v) + ")"
