"""Command-line surface: enumeration, invariant reports, pairwise verdicts,
family classification, and `verify`, which validates its arguments and
renders the `Check` records of the `regalg.verify` suites.

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

from .conjugacy import classify_family, decide
from .core import RegularSubalgebra, closure_defect, is_closed, parse_descriptor
from .families import (
    FamilyLabel,
    dim2_count_audit,
    enum_codim1,
    enum_codim2,
    enum_dim2,
    enum_drc,
    make_drc,
)
from .invariants import signature
from .starcalc import nil_star
from .verify import SUITES, Check

ENUM_MIN_N, ENUM_MAX_N = 2, 8
# largest n of an invariants or decide descriptor: min_rank (the minimum
# distance of a code, NP-hard) already takes seconds at n = 20, g = 10
DESCRIPTOR_MAX_N = 20


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


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n - 1:
        raise CommandError(f"--k must be in [1, {n - 1}] for n={n}")


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
        _check_k(k, n)
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
    algebra = parse_descriptor(args.descriptor, DESCRIPTOR_MAX_N)
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
    a = parse_descriptor(args.descriptor_a, DESCRIPTOR_MAX_N)
    b = parse_descriptor(args.descriptor_b, DESCRIPTOR_MAX_N)
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
        # always 0, kept with the partition's empty list (ClassPartition.to_json)
        "unresolvedCount": 0,
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


def cmd_verify(args) -> int:
    _check_n(args.n)
    if args.k is not None:
        if args.suite not in ("drc", "all"):
            raise CommandError(f"--k applies to the drc and all suites only, not {args.suite}")
        _check_k(args.k, args.n)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    checks: list[Check] = []
    for name in names:
        if name == "drc" and args.k is not None:
            checks.extend(SUITES[name](args.n, ks=(args.k,)))
        else:
            checks.extend(SUITES[name](args.n))
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
    p.add_argument("--suite", default="all", choices=("all", *SUITES))
    p.add_argument("--k", type=int, default=None, help="restrict drc checks to one k")
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
