"""The verification engine: every classification statement of the paper as
a named, checkable criterion.

Each suite takes the matrix size n and yields `Check` records in a fixed
order.  `regalg verify` renders all of them as its report, and the
acceptance tests assert on the same records by check name, so a criterion
is stated once.  A suite is a generator: a caller that stops at the check
it needs pays only for the checks before it.  Published values known to
disagree with exact computation (the codim-1 dimension label, the A1
count formula, some diagonal-removal table cells, two adjoint boundary
cases) are warnings; the A2, B3 and C2 counts and the row/column table
cells must hold.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

from .conjugacy import classify_family, decide, permute_subalgebra, recipe_witness, same_algebra
from .core import (
    Diag,
    Nil,
    RegularSubalgebra,
    bracket,
    full_nil_set,
    h_pq_vector,
    h_vector,
    is_closed,
)
from .families import (
    DIM2_ORACLE_MAX_N,
    NILPOTENT_ORACLE_MAX_N,
    codim2_expected_breakdown,
    dim2_count_audit,
    drc_commutator_codim,
    drc_reference_codim,
    drc_valid_indices,
    enum_all_dim2_oracle,
    enum_all_nilpotent_oracle,
    enum_codim1,
    enum_codim2,
    enum_dim2,
    enum_drc,
    make_drc,
)
from .invariants import signature
from .starcalc import SupportVector, adjoint_image_pattern, col_action, row_action

DRC_KS = (1, 2, 3)


@dataclass
class Check:
    name: str
    passed: bool
    warnings: list[str] = field(default_factory=list)
    details: str = ""

    def row(self) -> dict:
        return {
            "check": self.name,
            "result": "PASS" if self.passed else "FAIL",
            "warnings": len(self.warnings),
            "details": self.details,
        }


def _partition_by_kind(members):
    part = classify_family([alg for _, alg in members])
    labels = [lab for lab, _ in members]
    classes = [sorted(labels[i].text() for i in cls) for cls in part.classes]
    kinds = [sorted({labels[i].kind for i in cls}) for cls in part.classes]
    return part, labels, classes, kinds


def _maps_onto(a: RegularSubalgebra, sigma, b: RegularSubalgebra) -> bool:
    """The relabeling sigma carries a onto b."""
    image = permute_subalgebra(a, sigma)
    return image is not None and same_algebra(image, b)


def codim1(n: int) -> Iterator[Check]:
    members = enum_codim1(n)
    # the full span E + H has |E| + |H| = n(n+1)/2 - 1 basis elements (the
    # diagonal part of sl(n) is traceless), so one-less-than-full means:
    want_dim = n * (n + 1) // 2 - 2
    count_ok = (
        len(members) == 2 * n - 2
        and all(is_closed(alg) and alg.dim == want_dim for _, alg in members)
    )
    yield Check(
        "codim1-count",
        count_ok,
        warnings=[
            f"published dimension label n(n+1)/2-1 = {n * (n + 1) // 2 - 1} equals the "
            f"full span dimension |E|+|H| = {want_dim + 1} (its proof takes |E|+|H| to be "
            f"n(n+1)/2); the one-less-than-full members have dimension {want_dim}"
        ],
        details=f"{len(members)} members (want {2 * n - 2}), each closed, dim {want_dim}",
    )
    part, labels, _, _ = _partition_by_kind(members)
    singletons = all(len(cls) == 1 for cls in part.classes)
    sigs = [signature(alg) for _, alg in members]
    nil_pairs_ok = all(
        sigs[i].col_action_seq != sigs[j].col_action_seq
        for i, j in combinations(range(len(members)), 2)
        if labels[i].kind == labels[j].kind == "Lii"
    )

    # the cartan records alone separate the generator-dropped pairs from
    # n=4 on; at n=3 the single tie (L_1, L_2) falls to the last-row flag,
    # the q=n separator
    def cartan_record(sig):
        return sig.cartan_signature if n >= 4 else (sig.cartan_signature, sig.last_row_cartan_flag)

    cartan_pairs_ok = all(
        cartan_record(sigs[i]) != cartan_record(sigs[j])
        for i, j in combinations(range(len(members)), 2)
        if labels[i].kind == labels[j].kind == "L"
    )
    yield Check(
        "codim1-classes",
        singletons and nil_pairs_ok and cartan_pairs_ok,
        details=(
            f"{len(part.classes)} singleton classes; column-action separates the "
            f"unit-removal members: {nil_pairs_ok}; cartan records separate the "
            f"generator-removal members: {cartan_pairs_ok}"
        ),
    )


def codim2(n: int) -> Iterator[Check]:
    members = enum_codim2(n)
    breakdown = codim2_expected_breakdown(n)
    got = {kind: sum(1 for lab, _ in members if lab.kind == kind) for kind in breakdown}
    count_ok = (
        len(members) == 2 * n * n - 3 * n - 1 == sum(breakdown.values())
        and got == breakdown
        and all(is_closed(alg) for _, alg in members)
    )
    yield Check(
        "codim2-count",
        count_ok,
        details=f"total {len(members)} (want {2 * n * n - 3 * n - 1}), breakdown {got}",
    )

    if n <= NILPOTENT_ORACLE_MAX_N:
        oracle = enum_all_nilpotent_oracle(n)
        full_count = n * (n - 1) // 2
        codim1_got = {a.nil_set for a in oracle if a.nil_dim == full_count - 1}
        codim1_want = {full_nil_set(n) - {(i, i + 1)} for i in range(1, n)}
        codim2_got = {a.nil_set for a in oracle if a.nil_dim == full_count - 2}
        codim2_want = {alg.nil_set for lab, alg in members if lab.kind in ("N", "NR", "NC")}
        yield Check(
            "codim2-oracle",
            codim1_got == codim1_want and codim2_got == codim2_want,
            details=f"exhaustive scan of {2 ** full_count} patterns matches the constructions",
        )
        bound_ok = all(
            max(a.nil_dim for a in oracle if (i, j) not in a.nil_set) == full_count - (j - i)
            for i in range(1, n)
            for j in range(i + 1, n + 1)
        )
        yield Check(
            "codim2-bound-tight",
            bound_ok,
            details="max closed nil dimension missing (i,j) equals n(n-1)/2-(j-i) for all positions",
        )
    else:
        yield Check(
            "codim2-oracle", True,
            warnings=[f"skipped: n={n} exceeds the exhaustive-oracle bound {NILPOTENT_ORACLE_MAX_N}"],
        )

    part, _, classes, _ = _partition_by_kind(members)
    # every class with more than one member is a unit/row/column triple, so
    # all other members are singletons
    triples = sorted(cls for cls in classes if len(cls) > 1)
    want_triples = sorted(
        sorted([f"N_C_{i}", f"N_R_{i}", f"N_{{{i},{i + 1}}}"]) for i in range(1, n - 1)
    )
    yield Check(
        "codim2-classes",
        triples == want_triples,
        details=(
            f"{len(part.classes)} classes: {n - 2} unit/row/column triples, "
            "all other members singletons"
        ),
    )


def dim2(n: int) -> Iterator[Check]:
    members = enum_dim2(n)
    if n <= DIM2_ORACLE_MAX_N:
        enum_set = {(alg.nil_set, alg.cartan_gens) for _, alg in members}
        oracle_set = {(alg.nil_set, alg.cartan_gens) for alg in enum_all_dim2_oracle(n)}
        yield Check(
            "dim2-enum-oracle",
            enum_set == oracle_set,
            details=f"{len(members)} labelled spans match the bracket-expansion oracle",
        )
    audit = dim2_count_audit(n)
    must_match = {"A2", "B3", "C2"}
    hard_ok = all(r["matches"] for r in audit if r["family"] in must_match)
    warnings = [
        f"count formula mismatch for {r['family']}: exhaustive {r['exhaustive']} vs formula {r['formula']}"
        for r in audit if not r["matches"]
    ]
    yield Check(
        "dim2-counts",
        hard_ok,
        warnings=warnings,
        details="exhaustive per-family counts vs published formulas",
    )
    part, _, _, kinds = _partition_by_kind(members)
    pure = all(len(k) == 1 for k in kinds)
    class_kinds = sorted(k[0] for k in kinds)
    # one class per nonempty kind: all nine from n=4 on, while A1, B1 and
    # C1 have no members at n=3
    want = sorted(r["family"] for r in audit if r["exhaustive"])
    yield Check(
        "dim2-classes",
        pure and class_kinds == want,
        details=f"{len(part.classes)} classes with kinds {class_kinds}",
    )
    by_kind: dict[str, list] = {}
    for lab, alg in members:
        by_kind.setdefault(lab.kind, []).append((lab, alg))
    recipes = [
        _maps_onto(aa, recipe_witness(la, lb), ab)
        for kind_members in by_kind.values()
        for (la, aa), (lb, ab) in combinations(kind_members, 2)
    ]
    total, recipe_fail = len(recipes), recipes.count(False)
    yield Check(
        "dim2-witness-recipes",
        recipe_fail == 0,
        details=f"{total} intra-family recipe witnesses verified, {recipe_fail} failures",
    )


def drc(n: int, ks: Sequence[int] = DRC_KS) -> Iterator[Check]:
    ks = [k for k in ks if k <= n - 1]
    table_warnings = []
    table_ok = True
    for k in ks:
        for index in drc_valid_indices(n, "D", k):
            values = {kind: drc_commutator_codim(n, kind, index, k) for kind in "DRC"}
            refs = {kind: drc_reference_codim(n, kind, index, k) for kind in "DRC"}
            if not values["R"] == values["C"] == refs["R"] == refs["C"]:
                table_ok = False  # the published row/column cells hold exactly
            if k <= 2 and values["D"] != values["R"]:
                table_ok = False  # conjugate algebras must share commutator dims
            if k > 2 and values["D"] == values["R"]:
                table_ok = False  # the separation the classification rests on
            for kind in "DRC":
                if values[kind] != refs[kind]:
                    table_warnings.append(
                        f"published table value for {kind}_{index}[k={k}] at n={n} is "
                        f"{refs[kind]}, computed {values[kind]}"
                    )
    yield Check(
        "drc-commutator-table",
        table_ok,
        warnings=table_warnings,
        details="commutator codimensions: R=C everywhere, D=R iff k<=2; "
                "published-cell mismatches are warnings",
    )
    class_ks = [k for k in ks if k in (2, 3)]
    if not class_ks:
        return  # no k here has a classification statement to check
    class_ok = True
    ambiguity = []
    for k in class_ks:
        for index in drc_valid_indices(n, "D", k):
            d, r, c = (make_drc(n, kind, index, k) for kind in "DRC")
            v_rc = decide(r, c)
            if k == 2:
                for a, b, verdict in ((d, r, decide(d, r)), (r, c, v_rc), (d, c, decide(d, c))):
                    class_ok &= verdict.is_conjugate and _maps_onto(a, verdict.witness, b)
            else:
                # the commutator dims separate the diagonal removal from both
                class_ok &= decide(d, r).separator == decide(d, c).separator == "derivedDims"
                class_ok &= not v_rc.is_conjugate or _maps_onto(r, v_rc.witness, c)
                ambiguity.append(
                    f"R_{index} vs C_{index} at k=3, n={n}: {v_rc.kind.upper()}"
                    + (f" witness {list(v_rc.witness)}" if v_rc.witness else "")
                )
    yield Check(
        "drc-classes",
        class_ok,
        warnings=ambiguity,
        details="k=2: unit/row/column removals conjugate; k=3: diagonal removals "
                "separated, row-vs-column verdict recorded",
    )


def kernels(n: int) -> Iterator[Check]:
    kn = min(n, 4)
    basis = [Nil(kn, i, j) for i, j in sorted(full_nil_set(kn))]
    basis += [Diag(h_vector(kn, k)) for k in range(1, kn)]
    anti_ok = all(
        bracket(a, b).as_dict() == (-bracket(b, a)).as_dict() for a, b in product(basis, repeat=2)
    )
    yield Check("kernel-antisymmetry", anti_ok, details=f"all basis pairs at n={kn}")

    jacobi_ok = True
    for a, b, c in product(basis, repeat=3):
        # [x, [y, z]] summed over the cyclic shifts of (a, b, c)
        total: dict = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for co, e in bracket(y, z).terms:
                for co2, e2 in bracket(x, e).terms:
                    total[e2] = total.get(e2, 0) + co * co2
        jacobi_ok &= not any(total.values())
    yield Check("kernel-jacobi", jacobi_ok, details=f"all basis triples at n={kn}")

    families = [enum_codim1(kn), enum_codim2(kn), enum_dim2(kn)]
    families += [enum_drc(kn, k) for k in range(1, kn)]
    members = [alg for family in families for _, alg in family]
    inv_ok = True
    for algebra in members:
        sig = signature(algebra)
        for sigma in permutations(range(1, kn + 1)):
            image = permute_subalgebra(algebra, sigma)
            if image is not None and signature(image) != sig:
                inv_ok = False
    yield Check(
        "kernel-signature-invariance",
        inv_ok,
        details=f"{len(members)} family members x all relabelings at n={kn}",
    )

    full_e = RegularSubalgebra(n, full_nil_set(n), ())
    full = SupportVector.full(n)
    col_dims, row_sizes = {}, {}
    for p, q in combinations(range(1, n + 1), 2):
        pattern = adjoint_image_pattern(h_pq_vector(n, p, q), full_e)
        col_dims[p, q] = col_action(pattern, full).size
        row_sizes.setdefault(p, set()).add(row_action(full, pattern).size)
    row_dims = {p: min(sizes) for p, sizes in row_sizes.items()}
    adj_ok = (
        all(dim == (q if q < n else n - 1) for (_, q), dim in col_dims.items())
        and all(len(sizes) == 1 for sizes in row_sizes.values())  # row dim depends on p only
        and row_dims == {p: (n - 1 if p == 1 else n - p + 1) for p in range(1, n)}
    )
    adj_warnings = []
    if any(col_dims[p, n] == n - 1 for p in range(1, n)):
        adj_warnings.append(
            f"column action of the (p,{n}) generators spans {n - 1} coordinates, "
            f"not q={n} as the full-range reading would give"
        )
    if n >= 3 and row_dims[1] == row_dims[2]:
        adj_warnings.append(
            "row-action dims tie at p=1 and p=2 (column 1 is always annihilated); "
            "strict decrease holds from p=2 on"
        )
    yield Check(
        "kernel-adjoint-facts",
        adj_ok,
        warnings=adj_warnings,
        details=f"column dims q (or n-1 at q=n), row dims {row_dims}",
    )


SUITES = {
    "codim1": codim1,
    "codim2": codim2,
    "dim2": dim2,
    "drc": drc,
    "kernels": kernels,
}
