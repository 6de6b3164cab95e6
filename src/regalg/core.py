"""Basis elements, the subalgebra data model, exact brackets, and closure.

A regular upper-triangular subalgebra of sl(n) is stored as a set of
strictly-upper nilpotent positions (i, j) plus a list of traceless integer
diagonal generators.  All indices are 1-based.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import linalg


class DimensionMismatchError(ValueError):
    """Two operands live in sl(n) for different n."""


class NotClosedError(ValueError):
    """Operation requires a bracket-closed subalgebra."""

    def __init__(self, defects: list[tuple[int, int]]):
        self.defects = defects
        missing = ", ".join(f"({i},{j})" for i, j in defects)
        super().__init__(f"not closed under the bracket; missing positions: {missing}")


class DescriptorError(ValueError):
    """Malformed subalgebra descriptor text."""

    def __init__(self, message: str, token: str, position: int):
        self.token = token
        self.position = position
        super().__init__(f"{message}: {token!r} at position {position}")


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


@dataclass(frozen=True)
class BracketResult:
    """Exact bracket value as a sum of coefficient * basis element terms.

    Coefficients are nonzero and the elements of distinct terms differ;
    the empty term list is the zero value.
    """

    terms: tuple[tuple[int, BasisElement], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __neg__(self) -> "BracketResult":
        return BracketResult(tuple((-c, e) for c, e in self.terms))

    def as_dict(self) -> dict[BasisElement, int]:
        return {e: c for c, e in self.terms}


def h_vector(n: int, k: int) -> tuple[int, ...]:
    """The diagonal generator e_k - e_{k+1}."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"H index {k} out of range for n={n}")
    v = [0] * n
    v[k - 1] = 1
    v[k] = -1
    return tuple(v)


def h_pq_vector(n: int, p: int, q: int) -> tuple[int, ...]:
    """The diagonal generator e_p - e_q."""
    if not (1 <= p < q <= n):
        raise ValueError(f"H[{p},{q}] out of range for n={n}")
    v = [0] * n
    v[p - 1] = 1
    v[q - 1] = -1
    return tuple(v)


def bracket(a: BasisElement, b: BasisElement) -> BracketResult:
    """Exact commutator [a, b] expanded over the standard basis.

    For two matrix units the product rule gives delta_{jk} E_il - delta_{li} E_kj;
    a diagonal d acts on E_ij as the scalar d_i - d_j; diagonals commute.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"operands have n={a.n} and n={b.n}")
    if isinstance(a, Nil) and isinstance(b, Nil):
        terms = []
        if a.col == b.row:
            terms.append((1, Nil(a.n, a.row, b.col)))
        if b.col == a.row:
            terms.append((-1, Nil(a.n, b.row, a.col)))
        return BracketResult(tuple(terms))
    if isinstance(a, Diag) and isinstance(b, Nil):
        c = a.entries[b.row - 1] - a.entries[b.col - 1]
        return BracketResult(((c, b),) if c else ())
    if isinstance(a, Nil) and isinstance(b, Diag):
        return -bracket(b, a)
    return BracketResult(())


@dataclass(frozen=True)
class RegularSubalgebra:
    """Span of matrix units E_ij (the nil set) and traceless diagonals.

    Cartan generators must have int entries and be linearly independent
    over the rationals; duplicates are rejected at construction rather than
    deduplicated.
    """

    n: int
    nil_set: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    cartan_gens: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nil_set", frozenset(self.nil_set))
        object.__setattr__(self, "cartan_gens", tuple(tuple(v) for v in self.cartan_gens))
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        for i, j in self.nil_set:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"invalid nilpotent position ({i},{j}) for n={self.n}")
        for v in self.cartan_gens:
            if not all(isinstance(x, int) for x in v):
                raise ValueError(f"cartan generator {v} has a non-integer entry")
            if len(v) != self.n:
                raise ValueError(f"cartan generator {v} has length {len(v)}, expected {self.n}")
            if sum(v) != 0:
                raise ValueError(f"cartan generator {v} is not traceless")
        if self.cartan_gens and linalg.rank(self.cartan_gens) != len(self.cartan_gens):
            raise ValueError("cartan generators are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.nil_set) + len(self.cartan_gens)

    @property
    def nil_dim(self) -> int:
        return len(self.nil_set)

    def nil_part(self) -> "RegularSubalgebra":
        return RegularSubalgebra(self.n, self.nil_set, ())

    def sorted_nil(self) -> list[tuple[int, int]]:
        return sorted(self.nil_set)

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


def _closure_gaps(algebra: RegularSubalgebra):
    """For rows i = 1..n in turn, the bitmask (bit l-1) of the positions
    (i,l) with (i,k),(k,l) in the nil set for some k but (i,l) absent: the
    OR of the rows that row i reaches, less row i itself."""
    rows = [0] * algebra.n
    for i, j in algebra.nil_set:
        rows[i - 1] |= 1 << (j - 1)
    for row in rows:
        reach, r = 0, row
        while r:
            low = r & -r
            reach |= rows[low.bit_length() - 1]
            r ^= low
        yield reach & ~row


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


def dimension_bound(algebra: RegularSubalgebra, missing: tuple[int, int]) -> int:
    """Largest possible dimension of a closed subalgebra avoiding E_ij.

    n(n+1)/2 - (j-i) when diagonal generators participate, n(n-1)/2 - (j-i)
    for purely nilpotent spans.  The bound is tight.
    """
    i, j = missing
    if not (1 <= i < j <= algebra.n):
        raise ValueError(f"invalid position ({i},{j}) for n={algebra.n}")
    if (i, j) in algebra.nil_set:
        raise ValueError(f"position ({i},{j}) is present, not missing")
    n = algebra.n
    if algebra.cartan_gens:
        return n * (n + 1) // 2 - (j - i)
    return n * (n - 1) // 2 - (j - i)


# ── descriptor text format ──────────────────────────────────────────────
#
# Grammar (whitespace-insensitive, indices 1-based):
#   n=4; nil=(1,2),(1,3); cartan=H1,H[2,4]
# where Hk is e_k - e_{k+1}, H[p,q] is e_p - e_q, and diag(a,b,...) is an
# explicit traceless integer vector.

_NIL_PAIR = re.compile(r"\((\d+),(\d+)\)")
_H_SIMPLE = re.compile(r"H(\d+)$")
_H_PAIR = re.compile(r"H\[(\d+),(\d+)\]$")
_DIAG = re.compile(r"diag\(((?:-?\d+,)*-?\d+)\)$")


def _condense(text: str) -> tuple[str, list[int]]:
    """Strip whitespace, keeping a map back to original positions."""
    out = []
    positions = []
    for idx, ch in enumerate(text):
        if not ch.isspace():
            out.append(ch)
            positions.append(idx)
    return "".join(out), positions


def parse_descriptor(text: str, max_n: int | None = None) -> RegularSubalgebra:
    """Parse the subalgebra text format accepted by every CLI command.

    An n above max_n is rejected before any length-n vector is built."""
    condensed, posmap = _condense(text)

    def err(message: str, start: int, token: str) -> DescriptorError:
        original_pos = posmap[start] if start < len(posmap) else len(text)
        return DescriptorError(message, token, original_pos)

    segments = []
    start = 0
    for part in condensed.split(";"):
        segments.append((part, start))
        start += len(part) + 1
    segments = [(p, s) for p, s in segments if p]

    n = None
    nil_pairs: set[tuple[int, int]] = set()
    cartan: list[tuple] = []
    seen = set()
    for part, seg_start in segments:
        if "=" not in part:
            raise err("expected key=value segment", seg_start, part)
        key, _, value = part.partition("=")
        if key in seen:
            raise err("duplicate segment", seg_start, key)
        seen.add(key)
        if key == "n":
            if not value.isdigit():
                raise err("n must be a positive integer", seg_start + 2, value)
            n = int(value)
            if max_n is not None and n > max_n:
                raise err(f"n must be at most {max_n}", seg_start + 2, value)
        elif key == "nil":
            if not value:
                continue
            cursor = seg_start + len("nil=")
            rest = value
            while rest:
                m = _NIL_PAIR.match(rest)
                if not m:
                    raise err("expected (i,j) pair", cursor, rest)
                pair = (int(m.group(1)), int(m.group(2)))
                if pair in nil_pairs:
                    raise err("duplicate nil pair", cursor, m.group(0))
                nil_pairs.add(pair)
                rest = rest[m.end():]
                cursor += m.end()
                if rest.startswith(","):
                    rest = rest[1:]
                    cursor += 1
        elif key == "cartan":
            if not value:
                continue
            cursor = seg_start + len("cartan=")
            # split on commas not inside brackets/parens
            tokens = []
            depth = 0
            tok_start = 0
            for idx, ch in enumerate(value):
                if ch in "[(":
                    depth += 1
                elif ch in "])":
                    depth -= 1
                elif ch == "," and depth == 0:
                    tokens.append((value[tok_start:idx], cursor + tok_start))
                    tok_start = idx + 1
            tokens.append((value[tok_start:], cursor + tok_start))
            for tok, tok_pos in tokens:
                cartan.append(_parse_cartan_token(tok, tok_pos, err))
        else:
            raise err("unknown segment", seg_start, key)

    if n is None:
        raise DescriptorError("missing n= segment", text.strip(), 0)
    try:
        gens = []
        for tag, payload in cartan:
            if tag == "H":
                gens.append(h_vector(n, payload))
            elif tag == "Hpq":
                gens.append(h_pq_vector(n, *payload))
            else:
                gens.append(payload)
        return RegularSubalgebra(n, frozenset(nil_pairs), tuple(gens))
    except ValueError as exc:
        raise DescriptorError(str(exc), text.strip(), 0) from exc


def _parse_cartan_token(tok, tok_pos, err):
    m = _H_SIMPLE.match(tok)
    if m:
        return ("H", int(m.group(1)))
    m = _H_PAIR.match(tok)
    if m:
        return ("Hpq", (int(m.group(1)), int(m.group(2))))
    m = _DIAG.match(tok)
    if m:
        return ("diag", tuple(int(x) for x in m.group(1).split(",")))
    raise err("expected Hk, H[p,q] or diag(...)", tok_pos, tok)


def format_descriptor(algebra: RegularSubalgebra) -> str:
    """Canonical text form: nil positions sorted, generators rendered as
    Hk / H[p,q] when they have that shape and diag(...) otherwise."""
    nil = ",".join(f"({i},{j})" for i, j in algebra.sorted_nil())
    gens = []
    for v in algebra.cartan_gens:
        gens.append(_format_cartan_vector(algebra.n, v))
    return f"n={algebra.n}; nil={nil}; cartan={','.join(gens)}"


def _format_cartan_vector(n: int, v: tuple[int, ...]) -> str:
    support = [idx for idx, x in enumerate(v) if x != 0]
    if len(support) == 2:
        p, q = support
        if v[p] == 1 and v[q] == -1:
            if q == p + 1:
                return f"H{p + 1}"
            return f"H[{p + 1},{q + 1}]"
    return "diag(" + ",".join(str(x) for x in v) + ")"
