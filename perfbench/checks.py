"""Output checks for the regalg benchmark.

Each check returns None for a correct output or a one-line reason for a
failed one.  Failures count against the operations attempted.  The known
false-DISTINCT defect (a relabelled copy whose signature differs only in
minRank) counts as failed like any other; a failure of any other kind
also marks the whole run as incorrect.

Witnesses are re-verified with regalg's permute_subalgebra, then compared
by nil set and by an exact span comparison that does not use regalg.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

from .inputs import rank

# Signature fields whose disagreement on a relabelled copy is the known
# minRank defect (min_rank_detail searches a coordinate-dependent basis).
KNOWN_DEFECT_FIELDS = ["min_rank"]


def is_known_defect(reason: str | None) -> bool:
    return reason is not None and reason.startswith("known defect")


def spans_equal(rows_a, rows_b) -> bool:
    a, b = [list(r) for r in rows_a], [list(r) for r in rows_b]
    if not a or not b:
        return not a and not b
    ra = rank(a)
    return ra == rank(b) == rank(a + b)


def witness_failure(regalg, a, b, sigma) -> str | None:
    """Why sigma fails to carry algebra a onto algebra b, or None."""
    try:
        image = regalg.permute_subalgebra(a, sigma)
    except ValueError as exc:
        return f"witness {sigma} rejected: {exc}"
    if image is None:
        return f"witness {sigma} moves a nil position below the diagonal"
    if image.nil_set != b.nil_set:
        return f"witness {sigma} maps the nil set elsewhere"
    if not spans_equal(image.cartan_gens, b.cartan_gens):
        return f"witness {sigma} maps the Cartan span elsewhere"
    return None


def differing_fields(sig_a, sig_b) -> list[str]:
    return [f.name for f in dataclasses.fields(sig_a) if getattr(sig_a, f.name) != getattr(sig_b, f.name)]


def _signature_mismatch(what: str, fields: list[str]) -> str:
    prefix = "known defect: " if fields == KNOWN_DEFECT_FIELDS else ""
    return f"{prefix}{what} differs in {', '.join(fields) or 'no field'}"


def check_signature_pair(op_a: dict, sig_a, op_b: dict, sig_b) -> list[str | None]:
    """Reasons for the two signature calls of one relabelled pair."""
    reasons = []
    for op, sig in ((op_a, sig_a), (op_b, sig_b)):
        if sig.dim != op["dim"] or sig.nil_dim != op["nil_dim"]:
            reasons.append(f"dim/nilDim {sig.dim}/{sig.nil_dim}, expected {op['dim']}/{op['nil_dim']}")
        else:
            reasons.append(None)
    fields = differing_fields(sig_a, sig_b)
    if fields and reasons[1] is None:
        reasons[1] = _signature_mismatch("signature of the relabelled copy", fields)
    return reasons


def check_decide(regalg, op: dict, a, b, verdict) -> str | None:
    """A conjugate-built pair must not get DISTINCT; a CONJUGATE witness
    must re-verify."""
    if verdict.kind == "conjugate":
        return witness_failure(regalg, a, b, verdict.witness)
    if verdict.kind == "distinct" and op["conjugate_built"]:
        fields = differing_fields(regalg.signature(a), regalg.signature(b))
        return _signature_mismatch(f"conjugate-built pair got DISTINCT ({verdict.separator}); signature", fields)
    if verdict.kind not in ("distinct", "unresolved"):
        return f"unknown verdict {verdict.kind!r}"
    return None


def classes_digest(classes) -> str:
    return hashlib.sha256(json.dumps(classes, sort_keys=True).encode()).hexdigest()


def check_classify(regalg, report: dict, reference: dict) -> str | None:
    """The class partition must match the reference and every witness in
    the JSON report must re-verify."""
    partition = report["partition"]
    classes = partition["classes"]
    if len(classes) != reference["classCount"] or classes_digest(classes) != reference["classesSha256"]:
        return f"class partition differs from the reference ({len(classes)} classes)"
    for edge in partition["witnesses"]:
        a, b = regalg.parse_descriptor(edge["a"]), regalg.parse_descriptor(edge["b"])
        reason = witness_failure(regalg, a, b, edge["sigma"])
        if reason is not None:
            return reason
    return None
