"""Command-line surface: enumeration, invariant reports, pairwise verdicts,
family classification, and the verification suite.

JSON output is the machine contract and is byte-deterministic: every
kernel behind it is exact.  The table format is human-facing, CSV
flattens list values with ';' separators.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from itertools import combinations, permutations, product

from .conjugacy import (
    classify_family,
    decide,
    recipe_witness,
    permute_subalgebra,
    same_algebra,
)
from .core import (
    Diag,
    Nil,
    RegularSubalgebra,
    bracket,
    closure_defect,
    full_nil_set,
    h_pq_vector,
    h_vector,
    is_closed,
    parse_descriptor,
)
from .families import (
    FamilyLabel,
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
from .starcalc import (
    SupportVector,
    adjoint_image_pattern,
    col_action,
    nil_star,
    row_action,
)

ENUM_MIN_N, ENUM_MAX_N = 2, 8
DEFAULT_ORACLE_MAX_N = 5


class CommandError(ValueError):
    """User-facing input error; exits with status 2."""


# ── output rendering ────────────────────────────────────────────────────


def _flatten(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(_flatten(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_flatten(v)}" for k, v in sorted(value.items()))
    return str(value)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    rows = report.get("rows", [])
    if fmt == "csv":
        if not rows:
            return ""
        header = list(rows[0].keys())
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_flatten(row.get(h, "")) for h in header])
        return buffer.getvalue()
    # table; dict-valued payloads (signature, partition) live in rows or json
    lines = []
    tables = []
    for k, v in report.items():
        if k in ("rows", "command") or isinstance(v, dict):
            continue
        if isinstance(v, list) and v and all(isinstance(x, str) for x in v):
            lines.append(f"{k}:")
            lines.extend(f"  {x}" for x in v)
        elif isinstance(v, list) and v and all(isinstance(x, dict) for x in v):
            tables.append((k, v))
        else:
            lines.append(f"{k}: {v}")

    def table_lines(items):
        header = list(items[0].keys())
        cells = [[_flatten(r.get(h, "")) for h in header] for r in items]
        widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(header)]
        out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        out.append("  ".join("-" * w for w in widths))
        out.extend("  ".join(x.ljust(w) for x, w in zip(c, widths)) for c in cells)
        return out

    if rows:
        lines.extend(table_lines(rows))
    for name, items in tables:
        lines.append("")
        lines.append(f"{name}:")
        lines.extend(table_lines(items))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ── enumerate / classify member sources ─────────────────────────────────


def _check_n(n: int) -> None:
    if not ENUM_MIN_N <= n <= ENUM_MAX_N:
        raise CommandError(f"--n must be in [{ENUM_MIN_N}, {ENUM_MAX_N}], got {n}")


def _family_members(family: str, n: int, k: int | None, kind: str | None, index: int | None):
    enumerators = {"codim1": enum_codim1, "codim2": enum_codim2, "dim2": enum_dim2}
    if family in enumerators:
        for flag, value in (("--k", k), ("--kind", kind), ("--index", index)):
            if value is not None:
                raise CommandError(f"{flag} applies to the drc family only, not {family}")
        return enumerators[family](n)
    if family == "drc":
        if k is None:
            raise CommandError("--k is required for the drc family")
        if k < 1 or k > n - 1:
            raise CommandError(f"--k must be in [1, {n - 1}] for n={n}")
        if (kind is None) != (index is None):
            raise CommandError("--kind and --index must be given together")
        if kind is not None:
            return [(FamilyLabel(kind, (index,), n, k=k), make_drc(n, kind, index, k))]
        return enum_drc(n, k)
    raise CommandError(f"unknown family {family!r}")


def _member_row(label: FamilyLabel, algebra: RegularSubalgebra) -> dict:
    return {
        "label": label.text(),
        "indices": list(label.indices),
        "descriptor": algebra.descriptor(),
        "dim": algebra.dim,
        "nilDim": algebra.nil_dim,
    }


def cmd_enumerate(args) -> int:
    _check_n(args.n)
    members = _family_members(args.family, args.n, args.k, args.kind, args.index)
    report = {
        "command": "enumerate",
        "n": args.n,
        "family": args.family,
        "count": len(members),
        "rows": [_member_row(lab, alg) for lab, alg in members],
    }
    if args.family == "dim2":
        report["familyCounts"] = dim2_count_audit(args.n)
    _emit(render(report, args.format), args.out)
    return 0


def cmd_invariants(args) -> int:
    algebra = parse_descriptor(args.descriptor)
    if not is_closed(algebra):
        defects = closure_defect(algebra)
        raise CommandError(
            "subalgebra is not closed; bracket-generated positions missing: "
            + ", ".join(f"({i},{j})" for i, j in defects)
        )
    sig = signature(algebra)
    report = {
        "command": "invariants",
        "descriptor": algebra.descriptor(),
        "nilPattern": nil_star(algebra).render().splitlines(),
        "signature": sig.to_json(),
        "rows": [{"field": k, "value": v} for k, v in sig.to_json().items()],
    }
    _emit(render(report, args.format), args.out)
    return 0


def cmd_decide(args) -> int:
    a = parse_descriptor(args.descriptor_a)
    b = parse_descriptor(args.descriptor_b)
    for d in (a, b):
        if not is_closed(d):
            raise CommandError(f"not closed: {d.descriptor()}; missing {closure_defect(d)}")
    verdict = decide(a, b)
    report = {
        "command": "decide",
        "a": a.descriptor(),
        "b": b.descriptor(),
        **verdict.to_json(),
        "rows": [{"a": a.descriptor(), "b": b.descriptor(), **verdict.to_json()}],
    }
    _emit(render(report, args.format), args.out)
    return 0


def cmd_classify(args) -> int:
    _check_n(args.n)
    members = _family_members(args.family, args.n, args.k, args.kind, args.index)
    part = classify_family([alg for _, alg in members])
    label_by_desc = {alg.descriptor(): lab.text() for lab, alg in members}
    pj = part.to_json()
    report = {
        "command": "classify",
        "n": args.n,
        "family": args.family,
        "classCount": len(pj["classes"]),
        "unresolvedCount": len(pj["unresolved"]),
        "partition": pj,
        "rows": [
            {"class": idx, "label": label_by_desc[d], "descriptor": d}
            for idx, cls in enumerate(pj["classes"])
            for d in cls
        ],
    }
    _emit(render(report, args.format), args.out)
    return 0


# ── verification suite ──────────────────────────────────────────────────


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


def _codim1_checks(n: int, _cfg) -> list[Check]:
    members = enum_codim1(n)
    # the full span E + H has |E| + |H| = n(n+1)/2 - 1 basis elements (the
    # diagonal part of sl(n) is traceless), so one-less-than-full means:
    want_dim = n * (n + 1) // 2 - 2
    count_ok = (
        len(members) == 2 * n - 2
        and all(is_closed(alg) and alg.dim == want_dim for _, alg in members)
    )
    checks = [Check(
        "codim1-count",
        count_ok,
        warnings=[
            f"published dimension label n(n+1)/2-1 = {n * (n + 1) // 2 - 1} equals the "
            f"full span dimension |E|+|H| = {want_dim + 1} (its proof takes |E|+|H| to be "
            f"n(n+1)/2); the one-less-than-full members have dimension {want_dim}"
        ],
        details=f"{len(members)} members (want {2 * n - 2}), each closed, dim {want_dim}",
    )]
    part, labels, _, _ = _partition_by_kind(members)
    singletons = all(len(cls) == 1 for cls in part.classes)
    sigs = [signature(alg) for _, alg in members]
    nil_pairs_ok = all(
        sigs[i].col_action_seq != sigs[j].col_action_seq
        for i, j in combinations(range(len(members)), 2)
        if labels[i].kind == labels[j].kind == "Lii"
    )
    # cartan records separate generator-dropped pairs; at n=3 the single
    # tie (L_1, L_2) falls to the last-row flag, the q=n separator
    cartan_pairs_ok = all(
        (sigs[i].cartan_signature, sigs[i].last_row_cartan_flag)
        != (sigs[j].cartan_signature, sigs[j].last_row_cartan_flag)
        for i, j in combinations(range(len(members)), 2)
        if labels[i].kind == labels[j].kind == "L"
    )
    checks.append(Check(
        "codim1-classes",
        singletons and nil_pairs_ok and cartan_pairs_ok and not part.unresolved,
        details=(
            f"{len(part.classes)} singleton classes; column-action separates the "
            f"unit-removal members: {nil_pairs_ok}; cartan records separate the "
            f"generator-removal members: {cartan_pairs_ok}"
        ),
    ))
    return checks


def _codim2_checks(n: int, cfg) -> list[Check]:
    members = enum_codim2(n)
    breakdown = codim2_expected_breakdown(n)
    got = {kind: sum(1 for lab, _ in members if lab.kind == kind) for kind in breakdown}
    count_ok = (
        len(members) == 2 * n * n - 3 * n - 1
        and got == breakdown
        and all(is_closed(alg) for _, alg in members)
    )
    checks = [Check(
        "codim2-count",
        count_ok,
        details=f"total {len(members)} (want {2 * n * n - 3 * n - 1}), breakdown {got}",
    )]

    if n <= cfg.n_max_oracle:
        oracle = enum_all_nilpotent_oracle(n)
        full_count = n * (n - 1) // 2
        codim1_got = {a.nil_set for a in oracle if a.nil_dim == full_count - 1}
        codim1_want = {full_nil_set(n) - {(i, i + 1)} for i in range(1, n)}
        codim2_got = {a.nil_set for a in oracle if a.nil_dim == full_count - 2}
        codim2_want = {alg.nil_set for lab, alg in members if lab.kind in ("N", "NR", "NC")}
        checks.append(Check(
            "codim2-oracle",
            codim1_got == codim1_want and codim2_got == codim2_want,
            details=f"exhaustive scan of {2 ** full_count} patterns matches the constructions",
        ))
        bound_ok = True
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                best = max(a.nil_dim for a in oracle if (i, j) not in a.nil_set)
                if best != full_count - (j - i):
                    bound_ok = False
        checks.append(Check(
            "codim2-bound-tight",
            bound_ok,
            details="max closed nil dimension missing (i,j) equals n(n-1)/2-(j-i) for all positions",
        ))
    else:
        checks.append(Check(
            "codim2-oracle", True,
            warnings=[f"skipped: n={n} exceeds --n-max-oracle={cfg.n_max_oracle}"],
        ))

    part, labels, classes, _ = _partition_by_kind(members)
    triples = sorted(cls for cls in classes if len(cls) > 1)
    want_triples = sorted(
        sorted([f"N_C_{i}", f"N_R_{i}", f"N_{{{i},{i + 1}}}"]) for i in range(1, n - 1)
    )
    singles_ok = all(
        len(cls) == 1 for cls in classes
        if not any(t == sorted(cls) for t in want_triples)
    )
    checks.append(Check(
        "codim2-classes",
        triples == want_triples and singles_ok and not part.unresolved,
        details=(
            f"{len(part.classes)} classes: {n - 2} unit/row/column triples, "
            f"all other members singletons, unresolved={len(part.unresolved)}"
        ),
    ))
    return checks


def _dim2_checks(n: int, cfg) -> list[Check]:
    checks = []
    members = enum_dim2(n)
    if n <= min(cfg.n_max_oracle + 1, 6):
        enum_set = {(alg.nil_set, alg.cartan_gens) for _, alg in members}
        oracle_set = {(alg.nil_set, alg.cartan_gens) for alg in enum_all_dim2_oracle(n)}
        checks.append(Check(
            "dim2-enum-oracle",
            enum_set == oracle_set,
            details=f"{len(members)} labelled spans match the bracket-expansion oracle",
        ))
    audit = dim2_count_audit(n)
    must_match = {"A2", "B3", "C2"}
    hard_ok = all(r["matches"] for r in audit if r["family"] in must_match)
    warnings = [
        f"count formula mismatch for {r['family']}: exhaustive {r['exhaustive']} vs formula {r['formula']}"
        for r in audit if not r["matches"]
    ]
    checks.append(Check(
        "dim2-counts",
        hard_ok,
        warnings=warnings,
        details="exhaustive per-family counts vs published formulas",
    ))
    part, labels, _, kinds = _partition_by_kind(members)
    pure = all(len(k) == 1 for k in kinds)
    class_kinds = sorted(k[0] for k in kinds)
    want = ["A1", "A2", "A3", "B1", "B2", "B3", "B4", "C1", "C2"]
    unresolved_warn = []
    if part.unresolved:
        pair_kinds = sorted({
            "/".join(sorted((labels[i].kind, labels[j].kind))) for i, j in part.unresolved
        })
        unresolved_warn = [
            f"{len(part.unresolved)} cross-class pairs unresolved (equal signatures, "
            f"no permutation witness): {', '.join(pair_kinds)}"
        ]
    checks.append(Check(
        "dim2-classes",
        pure and class_kinds == want,
        warnings=unresolved_warn,
        details=f"{len(part.classes)} classes with kinds {class_kinds}",
    ))
    by_kind: dict[str, list] = {}
    for lab, alg in members:
        by_kind.setdefault(lab.kind, []).append((lab, alg))
    recipe_fail = 0
    total = 0
    for kind_members in by_kind.values():
        for (la, aa), (lb, ab) in combinations(kind_members, 2):
            total += 1
            sigma = recipe_witness(la, lb)
            image = permute_subalgebra(aa, sigma)
            if image is None or not same_algebra(image, ab):
                recipe_fail += 1
    checks.append(Check(
        "dim2-witness-recipes",
        recipe_fail == 0,
        details=f"{total} intra-family recipe witnesses verified, {recipe_fail} failures",
    ))
    return checks


def _drc_checks(n: int, cfg) -> list[Check]:
    ks = [cfg.k] if cfg.k else [1, 2, 3]
    checks = []
    table_warnings = []
    table_ok = True
    for k in ks:
        if k > n - 1:
            continue
        for index in drc_valid_indices(n, "D", k):
            values = {kind: drc_commutator_codim(n, kind, index, k) for kind in "DRC"}
            refs = {kind: drc_reference_codim(n, kind, index, k) for kind in "DRC"}
            if values["R"] != values["C"]:
                table_ok = False
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
    checks.append(Check(
        "drc-commutator-table",
        table_ok,
        warnings=table_warnings,
        details="commutator codimensions: R=C everywhere, D=R iff k<=2; "
                "published-cell mismatches are warnings",
    ))
    class_ok = True
    ambiguity = []
    for k in [k for k in ks if k in (2, 3)]:
        if k > n - 1:
            continue
        for index in drc_valid_indices(n, "D", k):
            d = make_drc(n, "D", index, k)
            r = make_drc(n, "R", index, k)
            c = make_drc(n, "C", index, k)
            v_dr, v_rc = decide(d, r), decide(r, c)
            if k == 2 and not (v_dr.is_conjugate and v_rc.is_conjugate):
                class_ok = False
            if k == 3:
                if v_dr.kind != "distinct":
                    class_ok = False
                ambiguity.append(
                    f"R_{index} vs C_{index} at k=3, n={n}: {v_rc.kind.upper()}"
                    + (f" witness {list(v_rc.witness)}" if v_rc.witness else "")
                )
    checks.append(Check(
        "drc-classes",
        class_ok,
        warnings=ambiguity,
        details="k=2: unit/row/column removals conjugate; k=3: diagonal removals "
                "separated, row-vs-column verdict recorded",
    ))
    return checks


def _kernel_checks(n: int, cfg) -> list[Check]:
    checks = []
    kn = min(n, 4)
    basis = [Nil(kn, i, j) for i, j in sorted(full_nil_set(kn))]
    basis += [Diag(h_vector(kn, k)) for k in range(1, kn)]
    anti_ok = True
    for a, b in product(basis, repeat=2):
        lhs, rhs = bracket(a, b), bracket(b, a)
        if lhs.as_dict() != {e: -c for e, c in rhs.as_dict().items()}:
            anti_ok = False
    checks.append(Check("kernel-antisymmetry", anti_ok,
                        details=f"all basis pairs at n={kn}"))

    def expand(x, res):
        acc: dict = {}
        for c, e in res.terms:
            for c2, e2 in bracket(x, e).terms:
                acc[e2] = acc.get(e2, 0) + c * c2
        return acc

    jacobi_ok = True
    for a, b, c in product(basis, repeat=3):
        total: dict = {}
        for x, r in ((a, bracket(b, c)), (b, bracket(c, a)), (c, bracket(a, b))):
            for e, co in expand(x, r).items():
                total[e] = total.get(e, 0) + co
        if any(v != 0 for v in total.values()):
            jacobi_ok = False
    checks.append(Check("kernel-jacobi", jacobi_ok,
                        details=f"all basis triples at n={kn}"))

    inv_n = min(n, 4)
    members = [alg for _, alg in enum_codim1(inv_n)]
    members += [alg for _, alg in enum_codim2(inv_n)]
    members += [alg for _, alg in enum_dim2(inv_n)]
    for k in range(1, inv_n):
        members += [alg for _, alg in enum_drc(inv_n, k)]
    inv_ok = True
    for algebra in members:
        sig = signature(algebra)
        for sigma in permutations(range(1, inv_n + 1)):
            image = permute_subalgebra(algebra, sigma)
            if image is not None and signature(image) != sig:
                inv_ok = False
    checks.append(Check(
        "kernel-signature-invariance",
        inv_ok,
        details=f"{len(members)} family members x all relabelings at n={inv_n}",
    ))

    adj_ok = True
    adj_warnings = []
    full_e = RegularSubalgebra(n, full_nil_set(n), ())
    full = SupportVector.full(n)
    row_dims = {}
    for p in range(1, n):
        seen = set()
        for q in range(p + 1, n + 1):
            pattern = adjoint_image_pattern(h_pq_vector(n, p, q), full_e)
            cdim = col_action(pattern, full).size
            want = q if q < n else n - 1
            if cdim != want:
                adj_ok = False
            if q == n and cdim == n - 1:
                adj_warnings.append(
                    f"column action of the (p,{n}) generators spans {n - 1} coordinates, "
                    f"not q={n} as the full-range reading would give"
                )
            seen.add(row_action(full, pattern).size)
        if len(seen) != 1:
            adj_ok = False
        row_dims[p] = seen.pop()
    expected_rows = {p: (n - 1 if p == 1 else n - p + 1) for p in range(1, n)}
    if row_dims != expected_rows:
        adj_ok = False
    if n >= 3 and row_dims[1] == row_dims[2]:
        adj_warnings.append(
            "row-action dims tie at p=1 and p=2 (column 1 is always annihilated); "
            "strict decrease holds from p=2 on"
        )
    checks.append(Check(
        "kernel-adjoint-facts",
        adj_ok,
        warnings=sorted(set(adj_warnings)),
        details=f"column dims q (or n-1 at q=n), row dims {row_dims}",
    ))
    return checks


SUITES = {
    "codim1": _codim1_checks,
    "codim2": _codim2_checks,
    "dim2": _dim2_checks,
    "drc": _drc_checks,
    "kernels": _kernel_checks,
}


@dataclass
class VerifyConfig:
    n_max_oracle: int = DEFAULT_ORACLE_MAX_N
    k: int | None = None


def cmd_verify(args) -> int:
    _check_n(args.n)
    cfg = VerifyConfig(n_max_oracle=args.n_max_oracle, k=args.k)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks: list[Check] = []
    for name in names:
        checks.extend(SUITES[name](args.n, cfg))
    failed = [c for c in checks if not c.passed]
    warnings = [w for c in checks for w in c.warnings]
    report = {
        "command": "verify",
        "suite": args.suite,
        "n": args.n,
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "warningCount": len(warnings),
        "warnings": warnings,
        "rows": [c.row() for c in checks],
    }
    _emit(render(report, args.format), args.out)
    return 1 if failed else 0


# ── argument parsing ────────────────────────────────────────────────────


def _add_common(p: argparse.ArgumentParser, with_n: bool = True) -> None:
    if with_n:
        p.add_argument("--n", type=int, required=True, help="matrix size (2..8)")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.add_argument("--out", default=None, help="write the report to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regalg",
        description="Regular upper-triangular subalgebras of sl(n): "
                    "enumeration, invariants, conjugacy, verification.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("enumerate", help="list a family's members")
    _add_common(p)
    p.add_argument("--family", required=True, choices=("codim1", "codim2", "dim2", "drc"))
    p.add_argument("--k", type=int, default=None, help="segment length for drc")
    p.add_argument("--kind", choices=("D", "R", "C"), default=None)
    p.add_argument("--index", type=int, default=None)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("invariants", help="signature of one subalgebra")
    p.add_argument("descriptor", help="e.g. 'n=4; nil=(1,2),(1,3); cartan=H1,H[2,4]'")
    _add_common(p, with_n=False)
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("decide", help="conjugacy verdict for a pair")
    p.add_argument("descriptor_a")
    p.add_argument("descriptor_b")
    _add_common(p, with_n=False)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("classify", help="conjugacy class partition of a family")
    _add_common(p)
    p.add_argument("--family", required=True, choices=("codim1", "codim2", "dim2", "drc"))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--kind", choices=("D", "R", "C"), default=None)
    p.add_argument("--index", type=int, default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", default="all",
                   choices=("all", "codim1", "codim2", "dim2", "drc", "kernels"))
    p.add_argument("--k", type=int, default=None, help="restrict drc checks to one k")
    p.add_argument("--n-max-oracle", type=int, default=DEFAULT_ORACLE_MAX_N,
                   help="largest n for exhaustive-oracle checks")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CommandError, ValueError, OSError) as exc:
        print(f"regalg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
