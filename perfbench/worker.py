"""One pass of a regalg benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed S --pass K --trace 0|1

A pass does what one user's CLI invocation or library script does: import
regalg, turn its inputs into algebras, and run the workload's operations
once, so in-process caches such as the signature lru_cache help only as
much as they would help that user.  Every output is then checked, and one
JSON record goes to stdout.  Only a traced pass loads the tracer.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"
REFERENCE = ROOT / "perfbench" / "reference" / "classify-n7.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, inputs  # noqa: E402


def _load_regalg(workload: str):
    regalg = importlib.import_module("regalg")
    if workload == "classify-n7":
        importlib.import_module("regalg.cli")
    if not Path(regalg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"regalg imported from {regalg.__file__}, not from this checkout")
    return regalg


def _classify_op(regalg, op: dict, index: int):
    out = OUT_DIR / f"classify-{os.getpid()}-{index}.json"
    return regalg.cli.main([*op["argv"], "--out", str(out)]), out


def run_pass(workload: str, seed: int, pass_index: int, trace: bool) -> dict:
    ops = inputs.workload_inputs(workload, seed, pass_index)
    OUT_DIR.mkdir(exist_ok=True)

    t0 = perf_counter()
    regalg = _load_regalg(workload)
    setup_s = perf_counter() - t0
    tracer = None
    if trace:
        from perfbench.tracer import Tracer
        tracer = Tracer()
        tracer.install(regalg)
    t0 = perf_counter()
    if workload == "invariants-large":
        args = [(regalg.parse_descriptor(op["descriptor"]),) for op in ops]
    elif workload == "decide-stream":
        args = [(regalg.parse_descriptor(op["a"]), regalg.parse_descriptor(op["b"])) for op in ops]
    else:
        args = [(regalg, op, i) for i, op in enumerate(ops)]
    setup_s += perf_counter() - t0

    call = {"classify-n7": _classify_op, "invariants-large": regalg.signature,
            "decide-stream": regalg.decide}[workload]
    results, errors, latencies = [], {}, []
    loop_start = perf_counter()
    for i, op_args in enumerate(args):
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            result = call(*op_args)
        except Exception as exc:  # an operation that raises counts as failed
            result = None
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append((perf_counter() - t0) * 1000.0)
        results.append(result)
    wall_s = perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "setup_s": setup_s, "wall_s": wall_s, "latencies_ms": latencies,
        "peak_rss_mb": peak_rss_mb,
        "tracer_loaded": "perfbench.tracer" in sys.modules,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        tracer.write_spans(OUT_DIR / f"{workload}.spans.tsv")

    reasons, answered, answer_base = _check(regalg, workload, ops, args, results)
    for i, reason in errors.items():
        reasons[i] = f"raised {reason}"
    failures = [r for r in reasons if r is not None]
    record.update({
        "attempted": len(ops),
        "failed": len(failures),
        "known_defect": sum(checks.is_known_defect(r) for r in failures),
        "unexpected": [r for r in failures if not checks.is_known_defect(r)][:5],
        "answered": answered,
        "answer_base": answer_base,
    })
    return record


def _check(regalg, workload, ops, args, results):
    """Per-operation failure reasons, answered count and its base."""
    if workload == "invariants-large":
        reasons: list[str | None] = [None] * len(ops)
        for i in range(0, len(ops), 2):
            if results[i] is not None and results[i + 1] is not None:
                reasons[i:i + 2] = checks.check_signature_pair(ops[i], results[i], ops[i + 1], results[i + 1])
        answered = sum(r is not None for r in results)
        return reasons, answered, len(ops)
    if workload == "decide-stream":
        reasons = [
            checks.check_decide(regalg, op, a, b, verdict) if verdict is not None else None
            for op, (a, b), verdict in zip(ops, args, results)
        ]
        answered = sum(v is not None and v.kind in ("conjugate", "distinct") for v in results)
        return reasons, answered, len(ops)
    reference = json.loads(REFERENCE.read_text())
    reasons, answered, answer_base = [], 0, 0
    for op, result in zip(ops, results):
        if result is None:  # the operation raised
            reasons.append(None)
            continue
        code, out = result
        if code != 0:
            reasons.append(f"exit code {code}")
            continue
        report = json.loads(out.read_text())
        out.unlink()
        partition = report["partition"]
        answered += len(partition["separators"])
        answer_base += len(partition["separators"]) + len(partition["unresolved"])
        reasons.append(checks.check_classify(regalg, report, reference[" ".join(op["argv"])]))
    return reasons, answered, answer_base


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.pass_index, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
