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
assignment only when the nil relation (one in-neighbour equality per
target), the colours or a dot product of the re-verification maps_onto,
all of whose coordinates are already assigned, rules out every
completion, so the witness found is the lexicographically first one, and
maps_onto re-verifies it before the search yields it.  Its first descent,
which takes the first target that passes at each depth, reaches that
witness for most conjugate pairs, so decide runs it before any invariant
and answers them from it.  Signatures are conjugation invariants: they
separate the distinct pairs and name the field that separates them.  When
the descent dead-ends, decide compares the two operands' fields in order,
stops at the first that differs, and resumes the same search only when
they all agree.  classify_family needs no field: for each member it runs
the search from the last member of each class with its _key to its end,
which finds the first witness or proves there is none, so no class and
member start a second search and no signature is computed.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import DimensionMismatchError, RegularSubalgebra, _reach, require_closed
from .invariants import first_difference

PERM_SEARCH_MAX_N = 8  # bounds decide's resumed backtracking search only
NO_WITNESS = "noPermutationWitness"  # separator of equal signatures with no witness

Perm = tuple[int, ...]  # sigma[i-1] is the image of i, values 1..n


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


def maps_onto(a: RegularSubalgebra, sigma, b: RegularSubalgebra) -> bool:
    """The relabeling sigma carries a onto b, i.e.
    permute_subalgebra(a, sigma) == b, checked without building the image.
    The witness search re-verifies every witness through this check, which
    shares no code with its own checks, before it yields it.

    Proof.  Take equal n, nil-set sizes and generator counts.  The image nil
    set {(sigma i, sigma j)} has as many positions as a's, since sigma is
    injective; if all of them lie in b's nil set, the two sets are equal
    (and no position lands below the diagonal).  The image span is
    {w : w o sigma in span(a)}, and w o sigma, the vector u with
    u[k] = w[sigma(k)], lies in span(a) iff it is orthogonal to every row
    of a.cartan_null.  So if every generator of b passes, span(b) lies in
    the image span; both have dimension the generator count, since each
    generator list is independent, so they are equal.  Conversely an equal
    image passes every check.
    """
    sigma = _check_perm(sigma, a.n)
    if a.n != b.n or len(a.nil_set) != len(b.nil_set) or len(a.cartan_gens) != len(b.cartan_gens):
        return False
    if any((sigma[i - 1], sigma[j - 1]) not in b.nil_set for i, j in a.nil_set):
        return False
    for w in b.cartan_gens:
        u = [w[s - 1] for s in sigma]
        if any(sum(x * y for x, y in zip(row, u)) for row in a.cartan_null):
            return False
    return True


def _key(algebra: RegularSubalgebra) -> tuple[int, tuple[int, ...]]:
    """Generator count and sorted colours: unequal keys admit no witness."""
    return len(algebra.cartan_gens), tuple(sorted(algebra.colours))


def _witness_search(a: RegularSubalgebra, b: RegularSubalgebra) -> Iterator[Perm | None]:
    """The witness search: yields None once, when its first descent dead-ends,
    and the lexicographically first permutation mapping a onto b when it
    reaches it; ends without a witness when there is none.  Each witness
    passes maps_onto first, or AssertionError is raised.

    Depth-first search assigning sigma(1), sigma(2), ... in turn, trying
    targets in increasing order.  An assignment sigma(1..k) is extended
    only while no witness is ruled out below it:

    - colours (RegularSubalgebra.colours) pre-filter the targets: k and its
      target agree on nil out-degree, nil in-degree and generator support;
    - the nil relation, one equality: the in-neighbours of sigma(k) in b
      (the u with (u, sigma k) nil) are the images of those of k in a, all
      below k in the upper-triangular a, hence assigned.  With k's in-degree
      (its colour) that is "(i, k) is nil in a iff (sigma i, sigma k) is
      nil in b, for all assigned i".  It puts each assigned target's
      in-neighbours among the targets assigned before it, so b has no nil
      (sigma k, sigma i), as a has no nil (k, i): that needs no test;
    - the Cartan span: each row alpha of a.cartan_null belongs to one free
      column f of the reduced generators, and is nonzero only at f and at
      the pivots before f, so its last nonzero coordinate is f.  Once
      sigma(f) is assigned, every generator w of b must pass the check
      maps_onto makes for alpha: sum over p of alpha_p * w[sigma(p)] = 0.
      With no generators (nil-only a and b) there is nothing to check.

    Equal colour multisets give equal nil counts, since the out-degrees sum
    to the count.  At a leaf the equality holds at every k, so sigma maps
    the nil set of a onto that of b, and every pulled-back generator of b
    is orthogonal to every row of a.cartan_null, hence lies in span(a); the
    generator counts are equal, so the spans are (the proof of maps_onto).
    Every cut branch fails a check that every completion would fail too, so
    no witness is cut, and the first leaf reached is the first witness of
    the lexicographic scan over all n! permutations.

    The first descent is the search up to its first backtrack: at each
    depth it takes the first target that passes, so it visits at most n
    nodes.  A leaf it reaches is reached before any backtrack, so it is the
    search's first leaf, the first witness; a descent that dead-ends yields
    None, and the next step of the generator resumes the same search from
    that dead end.
    """
    if _key(a) != _key(b):
        return
    n = a.n
    gens = b.cartan_gens
    a_in, b_in = a.nil_cols, b.nil_cols
    targets_of: dict[int, list[int]] = {}  # the targets of each colour, increasing
    for t, colour in enumerate(b.colours):
        targets_of.setdefault(colour, []).append(t)
    candidates = [targets_of[colour] for colour in a.colours]
    ending: list[tuple[int, ...] | None] = [None] * n  # the row of a.cartan_null that ends at k
    if gens:  # else a has no generators either, and every Cartan check is vacuous
        for row in a.cartan_null:
            ending[max(k for k, x in enumerate(row) if x)] = row
    sigma = [0] * n
    sigma_bit = [0] * n  # 1 << sigma[k]
    paused = []  # per assigned depth: its untried targets and what they must meet
    k = used = 0
    descending = True  # no backtrack yet
    targets = None
    while True:
        if targets is None:  # entering depth k with sigma(1..k) assigned
            want_in = _reach(sigma_bit, a_in[k])  # a_in[k] lies below k
            row = ending[k]
            head = None if row is None else [sum(x * w[s] for x, s in zip(row, sigma[:k])) for w in gens]
            targets = iter(candidates[k])
        for t in targets:
            if used >> t & 1 or b_in[t] != want_in:
                continue
            if row is not None and any(row[k] * w[t] + h for w, h in zip(gens, head)):
                continue
            break
        else:  # depth k is exhausted: back up one depth
            if descending:
                descending = False
                yield None
            if not k:
                return
            k -= 1
            used ^= sigma_bit[k]
            targets, want_in, row, head = paused.pop()
            continue
        sigma[k], sigma_bit[k] = t, 1 << t
        if k == n - 1:
            witness = tuple(t + 1 for t in sigma)
            if not maps_onto(a, witness, b):
                raise AssertionError("witness failed re-verification")
            yield witness
            return
        paused.append((targets, want_in, row, head))
        used |= 1 << t
        k += 1
        targets = None


@dataclass(frozen=True)
class ConjugacyVerdict:
    kind: str  # "conjugate" | "distinct"
    witness: Perm | None = None
    separator: str | None = None

    @property
    def is_conjugate(self) -> bool:
        return self.kind == "conjugate"


def decide(a: RegularSubalgebra, b: RegularSubalgebra) -> ConjugacyVerdict:
    """Conjugate(witness) when a permutation witness exists, else
    Distinct(name): the first signature field that differs, or NO_WITNESS
    when the signatures agree.  The search is complete and conjugacy needs
    a permutation witness (module docstring), so both verdicts are exact.

    Both operands' closure is checked first (NotClosedError names a, then
    b).  The witness search's first descent runs next, at every n: it
    visits at most n nodes, and a leaf it reaches is the lexicographically
    first witness (_witness_search), reported without any signature field.
    Otherwise the fields are compared (first_difference: both operands'
    fields in FIELD_ORDER until the first that differs, so a DISTINCT
    verdict computes no field after its separator, and the signature memo
    is neither read nor filled), and only equal signatures resume the same
    search from its dead end, the one unbounded step: above
    PERM_SEARCH_MAX_N it raises ValueError instead; a search that ended at
    its setup has refuted every witness and needs no guard.  The search
    re-verifies every witness by maps_onto.
    """
    if a.n != b.n:
        raise DimensionMismatchError(f"operands have n={a.n} and n={b.n}")
    require_closed(a)
    require_closed(b)
    search = _witness_search(a, b)
    sigma = next(search, ())  # () once the search has ended: no witness
    if not sigma:
        name = first_difference(a, b)
        if name is not None:
            return ConjugacyVerdict("distinct", separator=name)
        if sigma is None and a.n > PERM_SEARCH_MAX_N:  # a dead end to resume
            raise ValueError(f"witness search guarded at n <= {PERM_SEARCH_MAX_N}, got n={a.n}")
        sigma = next(search, ())
        if not sigma:
            return ConjugacyVerdict("distinct", separator=NO_WITNESS)
    return ConjugacyVerdict("conjugate", witness=sigma)


@dataclass(frozen=True)
class ClassPartition:
    """Partition of a member list into conjugacy classes, in founding
    order: classes in the order of their first members, each class's
    member indices in index order.

    classes holds the member indices of each class.
    witness_edges holds one (i, j, sigma) for every within-class pair i < j
    consecutive in index order: sigma is the lexicographically first
    permutation mapping member i onto member j, the witness decide prints,
    re-verified by maps_onto.  The partition holds no signature: the
    separator of two classes, the name decide gives their members, is
    separate of their founders' signatures or NO_WITNESS, and
    cli.cmd_classify, its one reader, computes it.
    """

    members: tuple[RegularSubalgebra, ...]
    classes: tuple[tuple[int, ...], ...]
    witness_edges: tuple[tuple[int, int, Perm], ...]


def classify_family(members) -> ClassPartition:
    """Group members into conjugacy classes by witness search, merging only
    on verified witnesses; the classes come in founding order.

    One pass over the members and one map, from a key (_key: the
    generator count and sorted RegularSubalgebra.colours) to its classes
    in founding order.  For each class with its key, in that order, a
    member runs the search from the class's last member to its end, and
    joins the first class that yields a witness; else it founds a class.

    No other class admits a witness: a search from a class with another
    _key ends at its setup, and a complete search from any other class
    ends without one, since witness existence is an equivalence.  So a
    member joins at most one class, through its last member, and the edge
    (last, member, sigma) carries the search's first leaf, the
    lexicographically first witness, the one decide(last, member)
    reports, re-verified by maps_onto inside the search; the edges link
    each class's members consecutively in index order.

    require_closed checks every founder's closure.  A member that joins
    is the image of a closed member under a verified relabelling, which
    preserves closure, so the first member that is not closed founds a
    class and raises NotClosedError there.

    Cost: no signature field cuts a search, so every search against a
    class with the member's key but other fields runs to its end.  At
    n <= 8 a search is bounded, and the CLI classifies families only, which
    take no longer without the fields.  Lists of Cartan-only spans are the
    slow case, since only the fields told most of their classes apart: on
    60 random independent full-support traceless spans with entries in
    [-1, 1] (random.Random(7)), this takes 1.2 s at n = 7 with 3
    generators, 3.9 s at n = 8 with 3 and 18.9 s at n = 8 with 4, against
    0.38 s, 1.6 s and 5.3 s with a signature gate in front of the resumed
    searches (Python 3.11, one Xeon core).
    """
    members = tuple(members)
    by_key: dict[tuple, list[list[int]]] = {}
    classes = []  # every class of by_key, in founding order
    edges = []
    for idx, m in enumerate(members):
        if m.n != members[0].n:
            raise DimensionMismatchError("members mix different n")
        near = by_key.setdefault(_key(m), [])
        for cls in near:
            sigma = next(filter(None, _witness_search(members[cls[-1]], m)), None)
            if sigma is not None:
                edges.append((cls[-1], idx, sigma))
                cls.append(idx)
                break
        else:
            require_closed(m)
            near.append([idx])
            classes.append(near[-1])

    return ClassPartition(members, tuple(tuple(cls) for cls in classes), tuple(edges))
