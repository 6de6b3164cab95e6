"""Enumeration of the named subalgebra families.

The codimension-1, codimension-2 and D/R/C enumerators build every member
by one removal rule, _removal: the full solvable algebra less a set of nil
positions and a set of diagonal generators H_k.  The two-element spans are
the pairs of standard basis elements that pass the closure test.  Published
count formulas are report-only reference values, never the enumeration
mechanism.  The published conjugators between labelled members are kept
here too, as witness recipes read off the label indices; the conjugacy
layer re-verifies each one like any other witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import (
    Diag,
    DimensionMismatchError,
    Nil,
    RegularSubalgebra,
    full_nil_set,
    h_vector,
    is_closed,
)
from .starcalc import bool_mul


@dataclass(frozen=True)
class FamilyLabel:
    """Family tag plus the index tuple that pins the member.

    Index conventions by kind:
      L: (i,)            drop the i-th diagonal generator
      Lii: (i,)          drop the superdiagonal unit E_{i,i+1}
      P: (i, j)          drop diagonal generators i and j (i < j)
      M: (i, j)          drop E_{i,i+1} and diagonal generator j
      N: (i, j)          drop E_{i,i+1} and E_{j,j+1} (i < j)
      NR: (i,)           drop E_{i,i+1} and E_{i,i+2}
      NC: (i,)           drop E_{i,i+2} and E_{i+1,i+2}
      A1/A2/A3: rows and columns of the two matrix units (see text())
      B1..B4: (i, j, k)  unit E_{i,j} plus diagonal generator k
      C1/C2: (k, l)      two diagonal generators
      D/R/C: (i,)        segment removals parameterised by k
    """

    kind: str
    indices: tuple[int, ...]
    n: int
    k: int | None = None

    def text(self) -> str:
        kind, idx = self.kind, self.indices
        if kind == "L":
            return f"L_{idx[0]}"
        if kind == "Lii":
            return f"L_{{{idx[0]},{idx[0] + 1}}}"
        if kind in ("P", "M", "N"):
            return f"{kind}_{{{idx[0]},{idx[1]}}}"
        if kind == "NR":
            return f"N_R_{idx[0]}"
        if kind == "NC":
            return f"N_C_{idx[0]}"
        if kind == "A1":
            i, j, k, l = idx
            return f"A1[E({i},{j}),E({k},{l})]"
        if kind == "A2":
            i, j, l = idx
            return f"A2[E({i},{j}),E({i},{l})]"
        if kind == "A3":
            i, k, j = idx
            return f"A3[E({i},{j}),E({k},{j})]"
        if kind in ("B1", "B2", "B3", "B4"):
            i, j, k = idx
            return f"{kind}[E({i},{j}),H{k}]"
        if kind in ("C1", "C2"):
            return f"{kind}[H{idx[0]},H{idx[1]}]"
        if kind in ("D", "R", "C"):
            return f"{kind}_{idx[0]}[k={self.k}]"
        raise ValueError(f"unknown label kind {kind!r}")

    def __str__(self) -> str:
        return self.text()


Member = tuple[FamilyLabel, RegularSubalgebra]


def _removal(n: int, units=(), hs=()) -> RegularSubalgebra:
    """The full solvable algebra of sl(n) less the nil positions in units
    and the generators H_k for k in hs: the one rule that builds every
    codimension-1, codimension-2 and D/R/C member."""
    gens = tuple(h_vector(n, k) for k in range(1, n) if k not in hs)
    return RegularSubalgebra(n, full_nil_set(n) - set(units), gens)


def enum_codim1(n: int) -> list[Member]:
    """The 2n-2 subalgebras one dimension below the full solvable algebra:
    drop one diagonal generator (L_i) or one superdiagonal unit (L_{i,i+1})."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    out = [(FamilyLabel("L", (i,), n), _removal(n, hs=(i,))) for i in range(1, n)]
    out += [(FamilyLabel("Lii", (i,), n), _removal(n, {(i, i + 1)})) for i in range(1, n)]
    return out


def enum_codim2(n: int) -> list[Member]:
    """The 2n^2-3n-1 subalgebras two dimensions below the full solvable
    algebra: P (two diagonals dropped), M (one unit, one diagonal),
    N / N_R / N_C (two units dropped)."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    pairs = list(combinations(range(1, n), 2))
    out = [(FamilyLabel("P", (i, j), n), _removal(n, hs=(i, j))) for i, j in pairs]
    out += [(FamilyLabel("M", (i, j), n), _removal(n, {(i, i + 1)}, (j,)))
            for i in range(1, n) for j in range(1, n)]
    out += [(FamilyLabel("N", (i, j), n), _removal(n, {(i, i + 1), (j, j + 1)}))
            for i, j in pairs]
    for i in range(1, n - 1):
        out.append((FamilyLabel("NR", (i,), n), _removal(n, {(i, i + 1), (i, i + 2)})))
        out.append((FamilyLabel("NC", (i,), n), _removal(n, {(i, i + 2), (i + 1, i + 2)})))
    return out


def codim2_expected_breakdown(n: int) -> dict[str, int]:
    return {
        "P": (n - 1) * (n - 2) // 2,
        "M": (n - 1) * (n - 1),
        "N": (n - 1) * (n - 2) // 2,
        "NR": n - 2,
        "NC": n - 2,
    }


# ── two-dimensional spans ───────────────────────────────────────────────


def standard_basis(n: int) -> list[Nil | Diag]:
    """The basis of the upper-triangular part of sl(n): the units E_ij in
    row-major order, then H1..H(n-1)."""
    elements: list[Nil | Diag] = [Nil(n, i, j) for i, j in sorted(full_nil_set(n))]
    elements.extend(Diag(h_vector(n, k)) for k in range(1, n))
    return elements


def _pair_algebra(n: int, a, b) -> RegularSubalgebra:
    nil = []
    gens = []
    for x in (a, b):
        if isinstance(x, Nil):
            nil.append((x.row, x.col))
        else:
            gens.append(x.entries)
    return RegularSubalgebra(n, frozenset(nil), tuple(gens))


def dim2_label(n: int, a, b) -> FamilyLabel:
    """Assign the family tag of a closed two-element span.

    Predicates run specific-to-general (A2, A3, A1, B3, B2, B4, B1, C2, C1)
    so shared-index cases are claimed before the disjoint catch-alls.
    """
    if isinstance(a, Diag) and isinstance(b, Nil):
        a, b = b, a
    if isinstance(a, Nil) and isinstance(b, Nil):
        (i, j), (k, l) = sorted([(a.row, a.col), (b.row, b.col)])
        if i == k:
            return FamilyLabel("A2", (i, j, l), n)
        if j == l:
            return FamilyLabel("A3", (i, k, j), n)
        return FamilyLabel("A1", (i, j, k, l), n)
    if isinstance(a, Nil) and isinstance(b, Diag):
        i, j = a.row, a.col
        k = next(idx + 1 for idx, x in enumerate(b.entries) if x != 0)
        if (i, j) == (k, k + 1):
            return FamilyLabel("B3", (i, j, k), n)
        if i in (k, k + 1):
            return FamilyLabel("B2", (i, j, k), n)
        if j in (k, k + 1):
            return FamilyLabel("B4", (i, j, k), n)
        return FamilyLabel("B1", (i, j, k), n)
    ks = sorted(next(idx + 1 for idx, x in enumerate(d.entries) if x != 0) for d in (a, b))
    k, l = ks
    if l == k + 1:
        return FamilyLabel("C2", (k, l), n)
    return FamilyLabel("C1", (k, l), n)


def enum_dim2(n: int) -> list[Member]:
    """Every closed span of two distinct standard basis elements, labelled.

    Ground truth is the closure scan itself; the published per-family count
    formulas are compared against it elsewhere and never drive this."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    out: list[Member] = []
    basis = standard_basis(n)
    for a, b in combinations(basis, 2):
        algebra = _pair_algebra(n, a, b)
        if is_closed(algebra):
            out.append((dim2_label(n, a, b), algebra))
    return out


def dim2_formula_count(kind: str, n: int) -> int:
    """Published closed-form member counts per family (reference values)."""
    counts = {
        "A1": (n**4 - 2 * n**3 - n**2 + 2 * n) // 8,
        "A2": (n**3 - 3 * n**2 + 2 * n) // 6,
        "A3": (n**3 - 3 * n**2 + 2 * n) // 6,
        "B1": (n**3 - 6 * n**2 + 11 * n - 6) // 2,
        "B2": n**2 - 3 * n + 2,
        "B3": n - 1,
        "B4": n**2 - 3 * n + 2,
        "C1": (n**2 - 5 * n + 6) // 2,
        "C2": n - 2,
    }
    return counts[kind]


DIM2_KINDS = ("A1", "A2", "A3", "B1", "B2", "B3", "B4", "C1", "C2")


def dim2_count_audit(n: int, members: list[Member]) -> list[dict]:
    """Exhaustive per-family counts of the labelled members enum_dim2(n)
    next to the published formulas; a mismatch is flagged, not hidden."""
    rows = []
    for kind in DIM2_KINDS:
        exhaustive = sum(1 for label, _ in members if label.kind == kind)
        formula = dim2_formula_count(kind, n)
        rows.append({
            "family": kind,
            "exhaustive": exhaustive,
            "formula": formula,
            "matches": exhaustive == formula,
        })
    return rows


# ── segment-removal families (D / R / C) ────────────────────────────────


def drc_removed_positions(n: int, kind: str, index: int, k: int) -> set[tuple[int, int]]:
    if kind not in ("D", "R", "C"):
        raise ValueError(f"kind must be D, R or C, got {kind!r}")
    if k < 1 or not (1 <= index <= n - k):
        raise ValueError(f"{kind}_{index} with k={k} out of range for n={n}")
    if kind == "D":
        return {(index + t, index + t + 1) for t in range(k)}
    if kind == "R":
        return {(index, index + t) for t in range(1, k + 1)}
    return {(index + t, index + k) for t in range(k)}


def make_drc(n: int, kind: str, index: int, k: int) -> RegularSubalgebra:
    """Nilpotent span with a superdiagonal run (D), a row segment (R), or a
    column segment (C) removed; closed by construction and re-verified."""
    algebra = _removal(n, drc_removed_positions(n, kind, index, k), range(1, n))
    if not is_closed(algebra):
        raise AssertionError(f"{kind}_{index}[k={k}] unexpectedly not closed")
    return algebra


def drc_valid_indices(n: int, k: int) -> range:
    return range(1, n - k + 1)


def enum_drc(n: int, k: int) -> list[Member]:
    out: list[Member] = []
    for kind in ("D", "R", "C"):
        for index in drc_valid_indices(n, k):
            out.append((FamilyLabel(kind, (index,), n, k=k), make_drc(n, kind, index, k)))
    return out


def drc_commutator_codim(n: int, kind: str, index: int, k: int) -> int:
    """Codimension of the commutator inside the gap-at-least-two positions,
    computed from the boolean square of the constructed pattern."""
    rows = make_drc(n, kind, index, k).nil_rows
    off_diag_count = n * (n - 1) // 2 - (n - 1)
    return off_diag_count - sum(row.bit_count() for row in bool_mul(rows, rows))


def drc_case(n: int, index: int, k: int) -> int:
    """Boundary case number (1..6) used by the published codimension table."""
    if index >= 2:
        if index + k + 2 <= n:
            return 1
        if index + k + 1 == n:
            return 2
        return 3
    if index + k + 2 <= n:
        return 4
    if index + k + 1 == n:
        return 5
    return 6


_DRC_TABLE = {
    # case: (D value, R value, C value) in terms of k
    1: (lambda k: 2 * k, lambda k: k + 1, lambda k: k + 1),
    2: (lambda k: 2 * k - 1, lambda k: k + 1, lambda k: k + 1),
    3: (lambda k: 2 * k - 2, lambda k: k, lambda k: k),
    4: (lambda k: 2 * k - 1, lambda k: k, lambda k: k),
    5: (lambda k: 2 * k - 2, lambda k: k, lambda k: k),
    6: (lambda k: 2 * k - 3, lambda k: k - 1, lambda k: k - 1),
}


def drc_reference_codim(n: int, kind: str, index: int, k: int) -> int:
    """The published table's codimension for this case; a reference value
    that drc_commutator_codim is audited against, not assumed."""
    case = drc_case(n, index, k)
    d_val, r_val, c_val = _DRC_TABLE[case]
    return {"D": d_val, "R": r_val, "C": c_val}[kind](k)


# ── explicit witness recipes ────────────────────────────────────────────
#
# Each recipe realises the index correspondence of the published
# transposition products directly as a permutation: the t-th anchor of
# one label goes to the t-th anchor of the other, and the rest is
# completed to a bijection.  Composing the printed transpositions
# literally breaks down when their index pairs collide, so the
# correspondence form is used for every recipe and the caller verifies the
# result like any other candidate witness.


class RecipeError(ValueError):
    """The requested pair is not covered by any explicit witness recipe."""


def perm_from_partial(n: int, mapping: dict[int, int]) -> tuple[int, ...]:
    """Extend an injective partial map on {1..n} to a permutation, sending
    the remaining sources to the remaining targets in increasing order."""
    targets = set(mapping.values())
    if len(targets) != len(mapping):
        raise ValueError(f"partial map is not injective: {mapping}")
    for x in list(mapping) + list(targets):
        if not 1 <= x <= n:
            raise ValueError(f"index {x} out of range for n={n}")
    free_targets = iter(sorted(set(range(1, n + 1)) - targets))
    out = []
    for i in range(1, n + 1):
        out.append(mapping[i] if i in mapping else next(free_targets))
    return tuple(out)


def _recipe_group(label: FamilyLabel):
    """The labels one recipe connects: a two-dimensional family, the
    codimension-two nil triple around the i-th superdiagonal (unit pair,
    row pair, column pair removals), or the row and column segments at
    (i, k).  None when no recipe covers the label."""
    kind, idx = label.kind, label.indices
    if kind in DIM2_KINDS:
        return kind
    if kind in ("NR", "NC") or (kind == "N" and idx[1] == idx[0] + 1):
        return ("triple", idx[0])
    if kind in ("R", "C"):
        return ("segment", idx[0], label.k)
    return None


def _anchors(label: FamilyLabel) -> tuple[int, ...]:
    """Coordinates in the order the recipes match them up.  For B2/B3 the
    row of the unit comes first, then its partner in {k, k+1}; B4 does the
    same for the column.  B3 and C2 repeat a coordinate, always at the
    same position, so it keeps one target."""
    kind, idx = label.kind, label.indices
    if kind in ("A1", "A2", "A3"):
        return idx
    if kind == "B1":
        i, j, k = idx
        return (i, j, k, k + 1)
    if kind in ("B2", "B3"):
        i, j, k = idx
        return (i, 2 * k + 1 - i, j)
    if kind == "B4":
        i, j, k = idx
        return (j, 2 * k + 1 - j, i)
    if kind in ("C1", "C2"):
        k, l = idx
        return (k, k + 1, l, l + 1)
    i = idx[0]
    if kind == "N":
        return (i, i + 1, i + 2)
    if kind == "NR":
        return (i + 1, i, i + 2)
    if kind == "NC":
        return (i, i + 2, i + 1)
    if kind == "C":
        return tuple(range(i, i + label.k + 1))
    return (*range(i + 1, i + label.k + 1), i)  # R


def recipe_witness(a: FamilyLabel, b: FamilyLabel) -> tuple[int, ...]:
    """Permutation from the explicit recipe covering this pair:
    intra-family two-dimensional pairs, the codimension-two nil triples, and
    the column-to-row segment conjugation.  The caller verifies the result
    via conjugacy.maps_onto."""
    if a.n != b.n:
        raise DimensionMismatchError(f"labels have n={a.n} and n={b.n}")
    if a == b:
        return perm_from_partial(a.n, {})
    group = _recipe_group(a)
    if group is None or group != _recipe_group(b):
        raise RecipeError(f"no recipe covers the pair {a.text()} / {b.text()}")
    return perm_from_partial(a.n, dict(zip(_anchors(a), _anchors(b))))
