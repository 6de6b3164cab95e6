"""Command-line surface: enumeration, invariant reports, pairwise verdicts,
family classification, and `verify`, which validates its arguments and
runs the `regalg.verify` suites.  Each command lays out its own report
from the values the library returns (verdicts, partitions, `Check`
records); no other module knows the layout but InvariantSignature.to_json.

JSON output is the machine contract and is byte-deterministic: every
kernel behind it is exact.  It is the text of json.dumps(sort_keys=True,
indent=2), but render yields it chunk by chunk as the encoder produces it
and _emit writes it in blocks of EMIT_BLOCK_CHUNKS chunks, so writing a
report holds the path to the current value and one block, never the whole
text.  The table format is human-facing.  CSV and table cells flatten
list values with ';' separators and write each record in braces, its
keys in JSON order, e.g. {adjColDim=2;adjRowDim=3;adjMaxRank=2}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterable
from itertools import chain, combinations, islice

from .conjugacy import NO_WITNESS, classify_family, decide
from .core import RegularSubalgebra, parse_descriptor
from .families import (
    FamilyLabel,
    dim2_count_audit,
    enum_codim1,
    enum_codim2,
    enum_dim2,
    enum_drc,
    make_drc,
)
from .invariants import separate, signature
from .verify import SUITE_MIN_N, SUITES, Check

ENUM_MIN_N, ENUM_MAX_N = 2, 8
# encoder chunks joined into one write: a codim2 report at n=7 is 36,103
# chunks of about 24 bytes each, so a block of 1000 is about 24 kB
EMIT_BLOCK_CHUNKS = 1000


class CommandError(ValueError):
    """User-facing input error; exits with status 2."""


# ── output rendering ────────────────────────────────────────────────────


def _flatten(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return ";".join(_flatten(v) for v in value)
    if isinstance(value, dict):
        return "{" + ";".join(f"{k}={_flatten(v)}" for k, v in value.items()) + "}"
    return str(value)


def render(report: dict, fmt: str) -> Iterable[str]:
    """The report as text chunks, in order.  JSON is encoded lazily, chunk
    by chunk, with the settings of json.dumps(sort_keys=True, indent=2);
    csv and table are one chunk each."""
    if fmt == "json":
        return chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(report), ("\n",))
    rows = report["rows"]
    if fmt == "csv":
        header = list(rows[0].keys())
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_flatten(row.get(h, "")) for h in header])
        return (buffer.getvalue(),)
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

    lines.extend(table_lines(rows))
    for name, items in tables:
        lines.append("")
        lines.append(f"{name}:")
        lines.extend(table_lines(items))
    return ("\n".join(lines) + "\n",)


def _blocks(chunks: Iterable[str]) -> Iterable[str]:
    it = iter(chunks)
    while block := list(islice(it, EMIT_BLOCK_CHUNKS)):
        yield "".join(block)


def _emit(chunks: Iterable[str], out_path: str | None) -> None:
    """Write the chunks in blocks of EMIT_BLOCK_CHUNKS, joined, so a JSON
    report is never held whole."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.writelines(_blocks(chunks))
    else:
        sys.stdout.writelines(_blocks(chunks))


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
    if k is None:  # drc, the one family left by the parser's choices
        raise CommandError("--k is required for the drc family")
    _check_k(k, n)
    if (kind is None) != (index is None):
        raise CommandError("--kind and --index must be given together")
    if kind is not None:
        return [(FamilyLabel(kind, (index,), n, k=k), make_drc(n, kind, index, k))]
    return enum_drc(n, k)


def _member_row(label: FamilyLabel, algebra: RegularSubalgebra) -> dict:
    return {
        "label": label.text(),
        "indices": list(label.indices),
        "descriptor": algebra.descriptor(),
        "dim": algebra.dim,
        "nilDim": algebra.nil_dim,
    }


def cmd_enumerate(args) -> dict:
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
        report["familyCounts"] = dim2_count_audit(args.n, members)
    return report


def cmd_invariants(args) -> dict:
    algebra = parse_descriptor(args.descriptor)
    sig = signature(algebra).to_json()
    return {
        "command": "invariants",
        "descriptor": algebra.descriptor(),
        "nilPattern": [" ".join("*" if row >> j & 1 else "0" for j in range(algebra.n))
                       for row in algebra.nil_rows],
        "signature": sig,
        "rows": [{"field": k, "value": v} for k, v in sig.items()],
    }


def cmd_decide(args) -> dict:
    a = parse_descriptor(args.descriptor_a)
    b = parse_descriptor(args.descriptor_b)
    verdict = decide(a, b)
    row = {"a": a.descriptor(), "b": b.descriptor(), "verdict": verdict.kind.upper()}
    if verdict.witness is not None:
        row["witness"] = list(verdict.witness)
    if verdict.separator is not None:
        row["separator"] = verdict.separator
    return {"command": "decide", **row, "rows": [row]}


def cmd_classify(args) -> dict:
    _check_n(args.n)
    members = _family_members(args.family, args.n, args.k, args.kind, args.index)
    part = classify_family([alg for _, alg in members])
    descs = [alg.descriptor() for _, alg in members]
    # a stable sort of a class in index order is by (descriptor, index);
    # equal descriptors are one algebra, hence one class, so first
    # descriptors differ between classes and order them, and the
    # separators come out sorted by their (a, b) descriptors; each class
    # carries its founder's signature, one per class
    classes = sorted(((sorted(cls, key=descs.__getitem__), signature(part.members[cls[0]]))
                      for cls in part.classes),
                     key=lambda c: descs[c[0][0]])
    first = [(descs[cls[0]], sig) for cls, sig in classes]
    edges = sorted(part.witness_edges, key=lambda e: (descs[e[0]], descs[e[1]]))
    return {
        "command": "classify",
        "n": args.n,
        "family": args.family,
        "classCount": len(part.classes),
        # every pair is decided, so this count is always 0 and the
        # partition's unresolved list always empty; both stay because the
        # benchmark worker (perfbench/worker.py) still reads the list
        "unresolvedCount": 0,
        "partition": {
            "classes": [[descs[i] for i in cls] for cls, _ in classes],
            "witnesses": [{"a": descs[i], "b": descs[j], "sigma": list(sigma)}
                          for i, j, sigma in edges],
            "separators": [{"a": a, "b": b, "invariant": separate(sig_a, sig_b) or NO_WITNESS}
                           for (a, sig_a), (b, sig_b) in combinations(first, 2)],
            "unresolved": [],
        },
        "rows": [
            {"class": idx, "label": members[i][0].text(), "descriptor": descs[i]}
            for idx, (cls, _) in enumerate(classes)
            for i in cls
        ],
    }


# ── verification suite ──────────────────────────────────────────────────


def cmd_verify(args) -> dict:
    _check_n(args.n)
    if args.k is not None:
        if args.suite not in ("drc", "all"):
            raise CommandError(f"--k applies to the drc and all suites only, not {args.suite}")
        _check_k(args.k, args.n)
    if args.suite == "all":
        names = [name for name in SUITES if args.n >= SUITE_MIN_N[name]]
    elif args.n < SUITE_MIN_N[args.suite]:
        raise CommandError(f"the {args.suite} suite needs --n of at least "
                           f"{SUITE_MIN_N[args.suite]}, got {args.n}")
    else:
        names = [args.suite]
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
        "rows": [
            {"check": c.name, "result": "PASS" if c.passed else "FAIL",
             "warnings": len(c.warnings), "details": c.details}
            for c in checks
        ],
    }
    return report


# ── argument parsing ────────────────────────────────────────────────────


def _add_common(p: argparse.ArgumentParser, with_n: bool = True) -> None:
    if with_n:
        p.add_argument("--n", type=int, required=True, help=f"matrix size ({ENUM_MIN_N}..{ENUM_MAX_N})")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.add_argument("--out", default=None, help="write the report to this path")


def _add_members(p: argparse.ArgumentParser) -> None:
    """The common options and the member selection of enumerate and classify."""
    _add_common(p)
    p.add_argument("--family", required=True, choices=("codim1", "codim2", "dim2", "drc"))
    p.add_argument("--k", type=int, default=None, help="segment length for drc")
    p.add_argument("--kind", choices=("D", "R", "C"), default=None)
    p.add_argument("--index", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regalg",
        description="Regular upper-triangular subalgebras of sl(n): "
                    "enumeration, invariants, conjugacy, verification.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("enumerate", help="list a family's members")
    _add_members(p)
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
    _add_members(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", default="all", choices=("all", *SUITES))
    p.add_argument("--k", type=int, default=None, help="restrict drc checks to one k")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every command returns its report; only verify's can count failures
        report = args.fn(args)
        _emit(render(report, args.format), args.out)
        return 1 if report.get("failed") else 0
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and not args.out:
            # the reader closed stdout early; the interpreter's final flush
            # would fail again, so the rest of the output goes to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        print(f"regalg: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
