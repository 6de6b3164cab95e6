"""regalg benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a checkout.  A run makes a fixed number of passes
of the workload, each a fresh process (perfbench/worker.py): --seconds
divided by the workload's nominal pass time, and never fewer than
MIN_PASSES.  The count depends only on the arguments, never on machine
speed, so a given (workload, seed, seconds) always runs the same
operations and counts the same failures.  Pass k draws its inputs from
(workload, seed, k); closed loop, one caller, no threads.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json:
medians over passes of wall_s, setup_s, peak_rss_mb and of each pass's
p50 and p90 operation latency.  Every pass runs the same mix of operation
kinds, so a pass quantile picks the same kinds in every pass.  With
--trace 1 each pass runs
twice on the same inputs, untraced and then traced, and the run reports
the per-layer metrics (medians over traced passes) and trace.overhead_frac.

Human-readable lines with sample counts come first; the last line of stdout
is the JSON result.  Exit code 1 means an output check failed other than
by the known minRank defect, or a pass did not finish; exit code 2 means
the checkout holds no regalg sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
sys.path.insert(0, str(ROOT))

from perfbench.inputs import WORKLOADS  # noqa: E402

MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Seconds one untraced pass takes, process start and output checks
# included, on a shared 2-vCPU Xeon VM at the seed commit.
NOMINAL_PASS_S = {"classify-n7": 6.5, "invariants-large": 4.8, "decide-stream": 1.2}


def pass_count(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, int(seconds / NOMINAL_PASS_S[workload]))


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, pass_index: int, trace: bool, timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "REGALG_SEED"}
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--pass", str(pass_index), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {pass_index} did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise PassError(f"pass {pass_index} exited with {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[tuple[dict, dict | None]]:
    """(untraced, traced or None) records, one pair per pass index."""
    rounds = []
    start = perf_counter()
    for k in range(pass_count(workload, seconds)):
        untraced = run_pass(workload, seed, k, False, RUN_LIMIT_S - (perf_counter() - start))
        traced = None
        if trace:
            traced = run_pass(workload, seed, k, True, RUN_LIMIT_S - (perf_counter() - start))
        rounds.append((untraced, traced))
    return rounds


def _median_of_pass_quantiles(records: list[dict], decile: int) -> float:
    return statistics.median(
        statistics.quantiles(r["latencies_ms"], n=10, method="inclusive")[decile - 1]
        for r in records)


def end_to_end(records: list[dict]) -> dict[str, tuple[float, int]]:
    """End-to-end metric -> (value, sample count)."""
    passes = len(records)
    operations = sum(len(r["latencies_ms"]) for r in records)
    answer_base = sum(r["answer_base"] for r in records)
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in records), passes),
        "setup_s": (statistics.median(r["setup_s"] for r in records), passes),
        "op_p50_ms": (_median_of_pass_quantiles(records, 5), operations),
        "op_p90_ms": (_median_of_pass_quantiles(records, 9), operations),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), passes),
        "answered_frac": (sum(r["answered"] for r in records) / answer_base, answer_base),
    }


def per_layer(rounds: list[tuple[dict, dict]]) -> dict[str, tuple[float, int]]:
    """Per-layer metric -> (value, sample count): medians over traced passes."""
    traced = [t for _, t in rounds]
    out = {
        name: (statistics.median(t["layers"][name] for t in traced), len(traced))
        for name in traced[0]["layers"]
    }
    overhead = statistics.median(t["wall_s"] / u["wall_s"] for u, t in rounds) - 1.0
    out["trace.overhead_frac"] = (overhead, len(rounds))
    return out


def result(spec: dict, rounds, trace: bool) -> tuple[dict, dict]:
    """The JSON result line, and the details printed above it."""
    records = [r for pair in rounds for r in pair if r is not None]
    unexpected = [reason for r in records for reason in r["unexpected"]]
    if any(u["tracer_loaded"] for u, _ in rounds):
        unexpected.append("an untraced pass loaded the tracer")
    values = per_layer(rounds) if trace else end_to_end([u for u, _ in rounds])
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    line = {
        "correct": not unexpected,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    details = {
        "samples": {name: count for name, (_, count) in values.items()},
        "unexpected": unexpected[:5],
        "known_defect": sum(r["known_defect"] for r in records),
    }
    return line, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regalg benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "regalg" / "__init__.py").is_file():
        print(f"run.py: no regalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rounds = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    line, details = result(spec, rounds, bool(args.trace))
    print(f"{args.workload} seed={args.seed} passes={len(rounds)} trace={args.trace}")
    for name, metric in line["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']:6s} n={details['samples'][name]}")
    print(f"  attempted={line['attempted']} failed={line['failed']} "
          f"(known minRank defect: {details['known_defect']})")
    for reason in details["unexpected"]:
        print(f"  FAILED: {reason}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
