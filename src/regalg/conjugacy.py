"""Conjugacy decisions: permutation witnesses and invariant separation.

A monomial matrix (permutation times invertible diagonal) conjugates
E_ij to a nonzero multiple of E_{sigma(i),sigma(j)}, so spans of standard
basis elements move by the permutation alone.  Conversely, two regular
subalgebras A and B are SL(n)-conjugate only if some permutation maps A
onto B.  Both are normalized by the diagonal torus H.  If g A g^-1 = B,
then H and g H g^-1 are maximal tori of the connected normalizer N(B)°,
and maximal tori of a connected linear algebraic group are conjugate
(Borel, Linear Algebraic Groups 11.3).  So some b in N(B)° has
b g H (b g)^-1 = H: the matrix bg normalizes H, hence is monomial, and it
still carries A onto B.  The witness space is therefore the full
symmetric group, and a complete search that finds no witness proves the
pair distinct.

The search runs depth first in lexicographic order, cutting a partial
assignment only when the nil relation, the nil degrees or the linear
relations among the Cartan columns already rule out every completion, so
the witness found is the lexicographically first one.  Signatures are
conjugation invariants: they reject most distinct pairs before any
search and name the field that separates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .core import (
    DimensionMismatchError,
    NotClosedError,
    RegularSubalgebra,
    closure_defect,
    is_closed,
)
from .families import FamilyLabel
from .invariants import InvariantSignature, separate, signature

PERM_SEARCH_MAX_N = 8
NO_WITNESS = "noPermutationWitness"  # separator of equal signatures with no witness

Perm = tuple[int, ...]  # sigma[i-1] is the image of i, values 1..n


class RecipeError(ValueError):
    """The requested pair is not covered by any explicit witness recipe."""


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose_perm(p: Perm, q: Perm) -> Perm:
    """Composition applying q first, then p."""
    return tuple(p[q[i] - 1] for i in range(len(p)))


def invert_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image - 1] = i + 1
    return tuple(out)


def transposition(n: int, a: int, b: int) -> Perm:
    out = list(range(1, n + 1))
    out[a - 1], out[b - 1] = b, a
    return tuple(out)


def perm_from_partial(n: int, mapping: dict[int, int]) -> Perm:
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


def _check_perm(sigma, n: int) -> Perm:
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")
    return sigma


def permute_subalgebra(algebra: RegularSubalgebra, sigma) -> RegularSubalgebra | None:
    """Image of the subalgebra under simultaneous row/column relabeling.

    Returns None when some nil position lands below the diagonal, i.e. the
    image is no longer upper-triangular regular.  Diagonal sign factors of a
    monomial conjugation rescale basis elements without changing spans, so
    this captures every monomial conjugation exactly.
    """
    sigma = _check_perm(sigma, algebra.n)
    nil = set()
    for i, j in algebra.nil_set:
        si, sj = sigma[i - 1], sigma[j - 1]
        if si >= sj:
            return None
        nil.add((si, sj))
    gens = []
    for v in algebra.cartan_gens:
        w = [0] * algebra.n
        for idx, x in enumerate(v):
            w[sigma[idx] - 1] = x
        gens.append(w)
    return RegularSubalgebra(algebra.n, nil, gens)


def same_algebra(a: RegularSubalgebra, b: RegularSubalgebra) -> bool:
    """Equality as subalgebras: identical nil sets and equal diagonal spans
    (compared through the canonical basis, not the stored generator lists)."""
    return (
        a.n == b.n
        and a.nil_set == b.nil_set
        and linalg.rref_primitive(a.cartan_gens) == linalg.rref_primitive(b.cartan_gens)
    )


def _require_pair(a: RegularSubalgebra, b: RegularSubalgebra) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"operands have n={a.n} and n={b.n}")
    for x in (a, b):
        if not is_closed(x):
            raise NotClosedError(closure_defect(x))


def _nil_masks(algebra: RegularSubalgebra) -> tuple[list[int], list[int]]:
    """Out- and in-neighbour bitmasks of the nil relation, 0-based: bit j of
    out[i] is set iff (i+1, j+1) is a nil position, and in[j] the reverse."""
    out, inn = [0] * algebra.n, [0] * algebra.n
    for i, j in algebra.nil_set:
        out[i - 1] |= 1 << (j - 1)
        inn[j - 1] |= 1 << (i - 1)
    return out, inn


def _column_relations(gens, n: int) -> list[tuple[int, tuple[tuple[int, int], ...]] | None]:
    """For each column k of the generator matrix: None when it is independent
    of columns 0..k-1, else (d, ((p, m_p), ...)) with d * column k equal to
    the integer combination of the earlier independent columns p.

    The pivot columns of the RREF are the greedy basis of the column space.
    The annihilator holds one null vector a per free column k, nonzero only
    at k and at pivots before it, so a_k * column k = sum of -a_p * column p.
    """
    out = [None] * n
    for a in linalg.annihilator(gens, n):
        k = max(c for c, x in enumerate(a) if x)
        out[k] = (a[k], tuple((p, -x) for p, x in enumerate(a[:k]) if x))
    return out


def _witness_scan(a: RegularSubalgebra, b: RegularSubalgebra) -> Perm | None:
    """Lexicographically first permutation mapping a onto b, or None.

    Depth-first search assigning sigma(1), sigma(2), ... in turn, trying
    targets in increasing order.  A prefix sigma(1..k) is extended only
    while no witness is ruled out below it:

    - colours: k and its target agree on nil out-degree, nil in-degree and
      whether the generator column is zero;
    - the nil relation: for every assigned i < k, (i, k) and (k, i) are nil
      positions of a iff (sigma i, sigma k) and (sigma k, sigma i) are nil
      positions of b;
    - the Cartan columns: the spans agree iff the generator matrices have
      the same null space once b's columns are taken in the order sigma,
      and relations supported on a prefix must then agree as well.  So a
      column of a that is an integer combination of its earlier independent
      columns needs b's column at the target to be the same combination of
      the corresponding targets, and an independent column needs an
      independent target column.

    With equal nil counts, a full assignment maps the nil set of a exactly
    onto that of b, and the column relations of all n columns agree, i.e.
    the spans are equal.  Only branches without a witness are cut, so the
    first leaf reached is the first witness of the lexicographic scan over
    all n! permutations.
    """
    n = a.n
    if len(a.cartan_gens) != len(b.cartan_gens) or len(a.nil_set) != len(b.nil_set):
        return None
    a_out, a_in = _nil_masks(a)
    b_out, b_in = _nil_masks(b)
    a_cols = list(zip(*a.cartan_gens)) or [()] * n
    b_cols = list(zip(*b.cartan_gens)) or [()] * n
    a_colour = [(a_out[i].bit_count(), a_in[i].bit_count(), any(a_cols[i])) for i in range(n)]
    b_colour = [(b_out[t].bit_count(), b_in[t].bit_count(), any(b_cols[t])) for t in range(n)]
    if sorted(a_colour) != sorted(b_colour):
        return None
    candidates = [[t for t in range(n) if b_colour[t] == a_colour[k]] for k in range(n)]
    relations = _column_relations(a.cartan_gens, n)
    sigma = [0] * n
    basis: list[tuple[int, list[int]]] = []  # b's columns at independent targets, reduced

    def image(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << sigma[low.bit_length() - 1]
            mask ^= low
        return out

    def extend(k: int, used: int) -> bool:
        if k == n:
            return True
        prefix = (1 << k) - 1
        want_out, want_in = image(a_out[k] & prefix), image(a_in[k] & prefix)
        relation = relations[k]
        if relation is not None:
            d, coeffs = relation
            want_col = [sum(m * b_cols[sigma[p]][r] for p, m in coeffs)
                        for r in range(len(a.cartan_gens))]
        for t in candidates[k]:
            if used >> t & 1 or b_out[t] & used != want_out or b_in[t] & used != want_in:
                continue
            sigma[k] = t
            if relation is not None:
                if [d * x for x in b_cols[t]] == want_col and extend(k + 1, used | 1 << t):
                    return True
                continue
            v = list(b_cols[t])
            for piv, row in basis:
                if v[piv]:
                    v = linalg._eliminate(v, row, piv)
            if not any(v):
                continue
            basis.append((next(r for r, x in enumerate(v) if x), v))
            if extend(k + 1, used | 1 << t):
                return True
            basis.pop()
        return False

    if not extend(0, 0):
        return None
    return tuple(t + 1 for t in sigma)


def perm_conjugate(a: RegularSubalgebra, b: RegularSubalgebra) -> Perm | None:
    """First permutation (in lexicographic order) carrying a exactly onto b,
    or None when no permutation does.

    Signature equality is checked first as a cheap necessary condition, so
    differing signatures give None at any n.  The search (guarded at n <= 8)
    covers all n! candidates in lexicographic order but skips every branch
    below a partial assignment that no witness can extend, so it returns the
    same permutation as a full scan would.
    """
    _require_pair(a, b)
    if signature(a) != signature(b):
        return None
    if a.n > PERM_SEARCH_MAX_N:
        raise ValueError(f"witness search guarded at n <= {PERM_SEARCH_MAX_N}, got n={a.n}")
    return _witness_scan(a, b)


@dataclass(frozen=True)
class ConjugacyVerdict:
    kind: str  # "conjugate" | "distinct"
    witness: Perm | None = None
    separator: str | None = None

    @property
    def is_conjugate(self) -> bool:
        return self.kind == "conjugate"

    def to_json(self):
        out: dict = {"verdict": self.kind.upper()}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.separator is not None:
            out["separator"] = self.separator
        return out


def decide(a: RegularSubalgebra, b: RegularSubalgebra) -> ConjugacyVerdict:
    """Conjugate(witness) when a permutation witness exists, else
    Distinct(name): the first signature field that differs, or NO_WITNESS
    when the signatures agree.  The search is complete and conjugacy needs
    a permutation witness (module docstring), so both verdicts are exact."""
    sigma = perm_conjugate(a, b)
    if sigma is None:
        name = separate(signature(a), signature(b)) or NO_WITNESS
        return ConjugacyVerdict("distinct", separator=name)
    image = permute_subalgebra(a, sigma)
    if image is None or not same_algebra(image, b):
        raise AssertionError("witness failed re-verification")
    return ConjugacyVerdict("conjugate", witness=sigma)


@dataclass(frozen=True)
class ClassPartition:
    """Partition of a member list into conjugacy classes.

    classes holds member indices; every within-class consecutive pair has a
    verified witness edge.  separators holds one (c, d, name) entry per pair
    c < d of indices into classes, with the name decide gives their members.
    """

    members: tuple[RegularSubalgebra, ...]
    classes: tuple[tuple[int, ...], ...]
    witness_edges: tuple[tuple[int, int, Perm], ...]
    separators: tuple[tuple[int, int, str], ...]

    def to_json(self):
        descs = [m.descriptor() for m in self.members]
        pair_key = lambda e: (e["a"], e["b"])  # noqa: E731
        classes = sorted(sorted(descs[i] for i in cls) for cls in self.classes)
        witnesses = sorted(
            [{"a": descs[i], "b": descs[j], "sigma": list(sigma)}
             for i, j, sigma in self.witness_edges],
            key=pair_key,
        )
        first = [min(descs[i] for i in cls) for cls in self.classes]
        separators = sorted(
            [dict(zip("ab", sorted((first[c], first[d]))), invariant=name)
             for c, d, name in self.separators],
            key=pair_key,
        )
        return {
            "classes": classes,
            "witnesses": witnesses,
            "separators": separators,
            # every pair is decided; the empty list stays because the
            # benchmark worker (perfbench/worker.py) still reads this key
            "unresolved": [],
        }


def classify_family(members) -> ClassPartition:
    """Group members into conjugacy classes by witness search, merging only
    on verified witnesses, and name one separator per pair of classes.

    Witness existence is an equivalence, so one failed scan against a
    component representative rules out the whole component.  A class never
    spans two signature groups, so the separator of two classes is that of
    their representatives: the first differing signature field, or
    NO_WITNESS for two classes of one group.
    """
    members = tuple(members)
    if not members:
        return ClassPartition((), (), (), ())
    n = members[0].n
    for m in members:
        if m.n != n:
            raise DimensionMismatchError("members mix different n")
        if not is_closed(m):
            raise NotClosedError(closure_defect(m))
    sigs = [signature(m) for m in members]

    groups: dict[InvariantSignature, list[int]] = {}
    for idx, sig in enumerate(sigs):
        groups.setdefault(sig, []).append(idx)

    components: list[list[int]] = []
    to_rep: dict[int, Perm] = {}  # witness: member -> its component representative
    for group in groups.values():
        group_comps: list[int] = []  # indices into components
        for idx in group:
            placed = False
            for comp_id in group_comps:
                rep = components[comp_id][0]
                sigma = _witness_scan(members[idx], members[rep])
                if sigma is not None:
                    components[comp_id].append(idx)
                    to_rep[idx] = sigma
                    placed = True
                    break
            if not placed:
                group_comps.append(len(components))
                components.append([idx])
                to_rep[idx] = identity_perm(n)

    classes = tuple(tuple(sorted(comp)) for comp in sorted(components, key=min))

    edges = []
    for cls in classes:
        for a, b in zip(cls, cls[1:]):
            sigma = compose_perm(invert_perm(to_rep[b]), to_rep[a])
            image = permute_subalgebra(members[a], sigma)
            if image is None or not same_algebra(image, members[b]):
                raise AssertionError("composed witness failed re-verification")
            edges.append((a, b, sigma))

    separators = tuple(
        (c, d, separate(sigs[classes[c][0]], sigs[classes[d][0]]) or NO_WITNESS)
        for c, d in combinations(range(len(classes)), 2)
    )
    return ClassPartition(members, classes, tuple(edges), separators)


# ── explicit witness recipes ────────────────────────────────────────────
#
# Each recipe realises the index correspondence of the published
# transposition products directly as a permutation (partial index map
# completed to a bijection).  Composing the printed transpositions
# literally breaks down when their index pairs collide, so the
# correspondence form is used for every recipe and the caller verifies the
# result like any other candidate witness.


def _dim2_correspondence(a: FamilyLabel, b: FamilyLabel) -> dict[int, int]:
    kind = a.kind
    if kind == "A1":
        i, j, k, l = a.indices
        m, nn, s, t = b.indices
        return {i: m, j: nn, k: s, l: t}
    if kind == "A2":
        i, j, l = a.indices
        k, m, nn = b.indices
        return {i: k, j: m, l: nn}
    if kind == "A3":
        i, k, j = a.indices
        m, s, nn = b.indices
        return {i: m, k: s, j: nn}
    if kind == "B1":
        i, j, k = a.indices
        m, nn, l = b.indices
        return {i: m, j: nn, k: l, k + 1: l + 1}
    if kind in ("B2", "B3"):
        i, j, k = a.indices
        m, nn, l = b.indices
        # row of the unit sits at the diagonal index or one below it
        row_map = {k: l, k + 1: l + 1} if (i == k) == (m == l) else {k: l + 1, k + 1: l}
        row_map[j] = nn
        return row_map
    if kind == "B4":
        i, j, k = a.indices
        m, nn, l = b.indices
        col_map = {k: l, k + 1: l + 1} if (j == k) == (nn == l) else {k: l + 1, k + 1: l}
        col_map[i] = m
        return col_map
    if kind == "C1":
        k, l = a.indices
        m, nn = b.indices
        return {k: m, k + 1: m + 1, l: nn, l + 1: nn + 1}
    if kind == "C2":
        k, _ = a.indices
        m, _ = b.indices
        return {k: m, k + 1: m + 1, k + 2: m + 2}
    raise RecipeError(f"no intra-family recipe for kind {a.kind!r}")


_NIL_TRIPLE_KINDS = ("N", "NR", "NC")


def _triple_index(label: FamilyLabel) -> int | None:
    """Index i when the label belongs to the conjugate triple built around
    the i-th superdiagonal (unit pair, row pair, column pair removals)."""
    if label.kind == "N" and label.indices[1] == label.indices[0] + 1:
        return label.indices[0]
    if label.kind in ("NR", "NC"):
        return label.indices[0]
    return None


def _cycle_map(start: int, length: int) -> dict[int, int]:
    out = {start + t: start + t + 1 for t in range(length)}
    out[start + length] = start
    return out


def recipe_witness(a: FamilyLabel, b: FamilyLabel) -> Perm:
    """Composed permutation from the explicit recipe covering this pair:
    intra-family two-dimensional pairs, the codimension-two nil triples, and
    the column-to-row segment conjugation.  The caller verifies the result
    via permute_subalgebra."""
    if a.n != b.n:
        raise DimensionMismatchError(f"labels have n={a.n} and n={b.n}")
    n = a.n
    if a == b:
        return identity_perm(n)
    if a.kind in ("A1", "A2", "A3", "B1", "B2", "B3", "B4", "C1", "C2"):
        if b.kind != a.kind:
            raise RecipeError(f"no recipe across families {a.kind} and {b.kind}")
        return perm_from_partial(n, _dim2_correspondence(a, b))
    ti, tj = _triple_index(a), _triple_index(b)
    if ti is not None and tj is not None and ti == tj:
        i = ti
        moves = {
            ("NC", "N"): transposition(n, i + 1, i + 2),
            ("N", "NC"): transposition(n, i + 1, i + 2),
            ("N", "NR"): transposition(n, i, i + 1),
            ("NR", "N"): transposition(n, i, i + 1),
            ("NC", "NR"): perm_from_partial(n, _cycle_map(i, 2)),
            ("NR", "NC"): invert_perm(perm_from_partial(n, _cycle_map(i, 2))),
        }
        key = (a.kind, b.kind)
        if key in moves:
            return moves[key]
    if a.kind == "C" and b.kind == "R" and a.indices == b.indices and a.k == b.k:
        return perm_from_partial(n, _cycle_map(a.indices[0], a.k))
    if a.kind == "R" and b.kind == "C" and a.indices == b.indices and a.k == b.k:
        return invert_perm(perm_from_partial(n, _cycle_map(a.indices[0], a.k)))
    raise RecipeError(f"no recipe covers the pair {a.text()} / {b.text()}")
