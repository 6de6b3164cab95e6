"""Tests of the benchmark itself: seeded inputs, output checks, metric names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import regalg  # noqa: E402
from regalg import cli  # noqa: E402
from regalg.conjugacy import ConjugacyVerdict  # noqa: E402

from perfbench import checks, inputs, run, worker  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((ROOT / "perfbench" / "design.json").read_text())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    first = json.dumps(inputs.workload_inputs(workload, 7, 3))
    assert first == json.dumps(inputs.workload_inputs(workload, 7, 3))
    if workload != "classify-n7":  # classify-n7 runs a fixed argv list
        assert first != json.dumps(inputs.workload_inputs(workload, 8, 3))
        assert first != json.dumps(inputs.workload_inputs(workload, 7, 4))


def test_generated_inputs_are_closed_and_match_their_strata():
    for op in inputs.workload_inputs("invariants-large", 1, 0):
        algebra = regalg.parse_descriptor(op["descriptor"])
        assert regalg.is_closed(algebra)
        assert (algebra.dim, algebra.nil_dim) == (op["dim"], op["nil_dim"])
    for op in inputs.workload_inputs("decide-stream", 1, 0):
        a, b = regalg.parse_descriptor(op["a"]), regalg.parse_descriptor(op["b"])
        assert regalg.is_closed(a) and regalg.is_closed(b)
        assert (a.n, a.dim, a.nil_dim) == (b.n, b.dim, b.nil_dim)


def _conjugate_pair():
    a = regalg.parse_descriptor("n=3; nil=(1,2); cartan=diag(1,1,-2)")
    b = regalg.parse_descriptor("n=3; nil=(2,3); cartan=diag(-2,1,1)")
    return {"conjugate_built": True}, a, b


def test_decide_check_accepts_a_true_verdict():
    op, a, b = _conjugate_pair()
    assert checks.check_decide(regalg, op, a, b, regalg.decide(a, b)) is None


def test_injected_wrong_verdict_counts_as_failed():
    op, a, b = _conjugate_pair()
    reason = checks.check_decide(regalg, op, a, b, ConjugacyVerdict("distinct", separator="dim"))
    assert reason is not None and not checks.is_known_defect(reason)


def test_injected_bad_witness_counts_as_failed():
    op, a, b = _conjugate_pair()
    for bad in ((1, 2, 3), (3, 1, 2)):
        reason = checks.check_decide(regalg, op, a, b, ConjugacyVerdict("conjugate", witness=bad))
        assert reason is not None and not checks.is_known_defect(reason)


def test_worker_counts_injected_failures():
    ops, args, results = [], [], []
    for op in inputs.workload_inputs("decide-stream", 2, 0):
        a, b = regalg.parse_descriptor(op["a"]), regalg.parse_descriptor(op["b"])
        verdict = regalg.decide(a, b)
        if op["conjugate_built"] and verdict.kind == "conjugate":
            ops.append(op)
            args.append((a, b))
            results.append(verdict)
        if len(ops) == 3:
            break
    assert worker._check(regalg, "decide-stream", ops, args, results)[0] == [None] * 3
    results[0] = ConjugacyVerdict("distinct", separator="dim")
    results[1] = ConjugacyVerdict("conjugate", witness=(1, 2))
    reasons = worker._check(regalg, "decide-stream", ops, args, results)[0]
    assert [r is not None and not checks.is_known_defect(r) for r in reasons] == [True, True, False]


def test_classify_check_catches_bad_witness_and_wrong_partition(tmp_path):
    argv = ["classify", "--n", "7", "--family", "drc", "--k", "1", "--format", "json"]
    out = tmp_path / "drc.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    reference = json.loads(worker.REFERENCE.read_text())[" ".join(argv)]
    assert checks.check_classify(regalg, report, reference) is None

    bad = json.loads(out.read_text())
    edge = bad["partition"]["witnesses"][0]
    edge["sigma"] = list(range(7, 0, -1))
    assert checks.check_classify(regalg, bad, reference) is not None

    merged = json.loads(out.read_text())
    classes = merged["partition"]["classes"]
    classes[0] = sorted(classes[0] + classes.pop())
    assert checks.check_classify(regalg, merged, reference) is not None


def test_signature_check_flags_a_wrong_dimension():
    op = {"descriptor": "n=3; nil=(1,2); cartan=", "dim": 2, "nil_dim": 1}
    sig = regalg.signature(regalg.parse_descriptor(op["descriptor"]))
    assert checks.check_signature_pair(op, sig, op, sig)[0] is not None


def _fake_record(trace: bool, wall: float) -> dict:
    record = {"wall_s": wall, "setup_s": 0.05, "latencies_ms": [1.0, 2.0, 3.0, 4.0],
              "peak_rss_mb": 20.0, "tracer_loaded": trace, "attempted": 4, "failed": 0,
              "known_defect": 0, "unexpected": [], "answered": 3, "answer_base": 4}
    if trace:
        tracer = Tracer()
        tracer.install(regalg)
        try:
            a = regalg.parse_descriptor("n=4; nil=(1,2),(1,3); cartan=H3")
            regalg.decide(a, a)
        finally:
            tracer.uninstall()
        record["layers"] = tracer.metrics()
    return record


def test_printed_metric_names_are_those_of_benchmark_json():
    rounds = [(_fake_record(False, 1.0), _fake_record(True, 1.2)) for _ in range(3)]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line, _ = run.result(SPEC, rounds, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in SPEC[key]]
        assert line["correct"]
    line, _ = run.result(SPEC, rounds, True)
    assert line["metrics"]["trace.overhead_frac"]["value"] == pytest.approx(0.2)


def test_pass_count_depends_on_the_arguments_only(monkeypatch):
    calls = []
    monkeypatch.setattr(run, "run_pass", lambda w, s, k, trace, timeout: calls.append((k, trace)) or {})
    rounds = run.run_passes("decide-stream", 1, 36, True)
    passes = run.pass_count("decide-stream", 36)
    assert len(rounds) == passes > run.MIN_PASSES
    assert calls == [(k, traced) for k in range(passes) for traced in (False, True)]
    assert run.pass_count("classify-n7", 1) == run.MIN_PASSES


def test_tracer_restores_every_function():
    before = {name: getattr(regalg, name) for name in regalg.__all__}
    cli_main = cli.main
    tracer = Tracer()
    tracer.install(regalg)
    assert regalg.signature is not before["signature"]
    tracer.uninstall()
    assert {name: getattr(regalg, name) for name in regalg.__all__} == before
    assert cli.main is cli_main


def test_design_maps_every_layer_metric_to_end_to_end_metrics():
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    mapped = [name for group in DESIGN["layer_map"] for name in group["metrics"]]
    assert sorted(mapped) == sorted(layer_names)
    targets = {m["name"] for m in SPEC["end_to_end"]} | {"failed_frac"}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for group in DESIGN["layer_map"]:
        for target in group["moves"] + group.get("flat", []):
            metric, workload = target.split("@")
            assert metric in targets and workload in workloads


def test_untraced_pass_does_not_load_the_tracer():
    proc = subprocess.run(
        [sys.executable, str(worker.__file__), "--workload", "decide-stream", "--seed", "5",
         "--pass", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=120, check=True)
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["tracer_loaded"] is False
    assert record["attempted"] == len(record["latencies_ms"]) > 100
    assert record["unexpected"] == []


def test_run_fails_without_regalg_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
