"""CLI behavior: subcommands, formats, determinism, exit codes."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from regalg import cli
from regalg.cli import main

from wide_spans import WIDE_SPAN_G18


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


def fresh_run(*argv, pass_fds=()):
    """`regalg *argv` in a new interpreter, on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    return subprocess.Popen([sys.executable, "-m", "regalg.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=pass_fds)


def built_report(monkeypatch, *argv):
    """The report dict a command hands to render, and the text it writes."""
    reports = []
    real = cli.render
    monkeypatch.setattr(cli, "render", lambda report, fmt: reports.append(report) or real(report, fmt))
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    main([*argv, "--format", "json"])
    (report,) = reports
    return report, out.getvalue()


class TestEnumerate:
    def test_codim1_n4(self, capsys):
        code, report, _ = run_json(capsys, "enumerate", "--n", "4", "--family", "codim1")
        assert code == 0
        assert report["count"] == 6
        assert [r["label"] for r in report["rows"]][:3] == ["L_1", "L_2", "L_3"]

    def test_codim2_n4(self, capsys):
        code, report, _ = run_json(capsys, "enumerate", "--n", "4", "--family", "codim2")
        assert code == 0 and report["count"] == 19

    def test_codim1_n2(self, capsys):
        code, report, _ = run_json(capsys, "enumerate", "--n", "2", "--family", "codim1")
        assert code == 0 and report["count"] == 2

    def test_dim2_includes_count_audit(self, capsys):
        code, report, _ = run_json(capsys, "enumerate", "--n", "4", "--family", "dim2")
        assert code == 0
        mism = [r for r in report["familyCounts"] if not r["matches"]]
        assert [r["family"] for r in mism] == ["A1"]

    def test_drc_single_member(self, capsys):
        code, report, _ = run_json(
            capsys, "enumerate", "--n", "5", "--family", "drc",
            "--k", "3", "--kind", "R", "--index", "1",
        )
        assert code == 0 and report["count"] == 1
        assert report["rows"][0]["label"] == "R_1[k=3]"

    def test_drc_requires_k(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "5", "--family", "drc")
        assert code == 2 and "--k" in err

    def test_n_out_of_range(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "9", "--family", "codim1")
        assert code == 2 and "--n" in err

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--family", "codim1")
        assert code == 0 and "L_{1,2}" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--family", "codim1", "--format", "csv"
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == ["label", "indices", "descriptor", "dim", "nilDim"]


FULL_N4 = "n=4; nil=(1,2),(1,3),(1,4),(2,3),(2,4),(3,4); cartan=H1,H2,H3"
DIAG_N4 = "n=4; nil=; cartan=diag(1,1,-2,0),diag(0,0,1,-1)"  # Cartan-only


class TestInvariants:
    def test_full_solvable(self, capsys):
        code, report, _ = run_json(capsys, "invariants", FULL_N4)
        assert code == 0
        assert report["signature"]["derivedDims"] == [6, 3, 0]
        assert report["signature"]["dim"] == 9

    def test_not_closed_names_defect(self, capsys):
        code, _, err = run(capsys, "invariants", "n=3; nil=(1,2),(2,3); cartan=")
        assert code == 2 and "(1,3)" in err

    def test_single_unit(self, capsys):
        code, report, _ = run_json(capsys, "invariants", "n=3; nil=(1,3); cartan=")
        assert code == 0
        assert report["signature"]["minRank"] == 1
        assert report["signature"]["maxRank"] == 1

    def test_wide_span_at_the_descriptor_bound(self, capsys):
        descriptor, min_rank = WIDE_SPAN_G18
        code, report, err = run_json(capsys, "invariants", descriptor)
        assert code == 0 and err == ""
        assert report["signature"]["minRank"] == min_rank

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "invariants", "n=3; nil=(1,2; cartan=")
        assert code == 2 and "position" in err

    def test_nil_pattern_grid(self, capsys):
        code, report, _ = run_json(capsys, "invariants", "n=4; nil=(1,3),(1,4),(3,4); cartan=")
        assert code == 0
        assert report["nilPattern"] == [
            "0 0 * *",
            "0 0 0 0",
            "0 0 0 *",
            "0 0 0 0",
        ]

    def test_csv_cartan_signature_splits_into_records(self, capsys):
        # records are written in braces, so ';' between them is unambiguous
        _, report, _ = run_json(capsys, "invariants", FULL_N4)
        _, out, _ = run(capsys, "invariants", FULL_N4, "--format", "csv")
        cell = next(row[1] for row in csv.reader(io.StringIO(out)) if row[0] == "cartanSignature")
        assert cell.startswith("{") and cell.endswith("}")
        records = [
            {key: int(value) for key, value in (item.split("=") for item in record.split(";"))}
            for record in cell[1:-1].split("};{")
        ]
        assert records == report["signature"]["cartanSignature"]


    @pytest.mark.parametrize("desc, fmt, digest", [
        (FULL_N4, "json", "7e1a835303549ff2d26c60efbbd10ba9932d27ce70ccaac361c54a7e628bd2bd"),
        (FULL_N4, "table", "beb0d4f98867761bf2887e747e39801022f022b7989336ac9effc1d48113a86e"),
        (FULL_N4, "csv", "8e9e8e5cf159cd5da073adb9142e43ba13779d076ded752b41a0b656ca61e2a4"),
        (DIAG_N4, "json", "59e93ee8f4c0fbb86afa65c69d2b89f53c2b6c3cd8b9dc382d4a1cef0b11329f"),
        (DIAG_N4, "table", "dd3f963a7ad8d95905ce73299a931d23e6f5fea0ca56e81230cf9b79a26eb79c"),
        (DIAG_N4, "csv", "379b58022355ba147c857c45cabc91722bb51615a64e8dcba6277219e6e4d4eb"),
    ])
    def test_report_bytes(self, capsys, desc, fmt, digest):
        # a change to these bytes is a change to the report: record it
        _, out, _ = run(capsys, "invariants", desc, "--format", fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDecide:
    def test_conjugate_pair(self, capsys):
        code, report, _ = run_json(
            capsys, "decide",
            "n=4; nil=(1,2),(1,4),(2,4),(3,4); cartan=",
            "n=4; nil=(1,3),(1,4),(2,4),(3,4); cartan=",
        )
        assert code == 0
        assert report["verdict"] == "CONJUGATE" and report["witness"] == [1, 3, 2, 4]

    def test_distinct_pair(self, capsys):
        full_e = "(1,2),(1,3),(1,4),(1,5),(2,3),(2,4),(2,5),(3,4),(3,5),(4,5)"
        code, report, _ = run_json(
            capsys, "decide",
            f"n=5; nil={full_e}; cartan=H2,H3,H4",
            f"n=5; nil={full_e}; cartan=H1,H2,H4",
        )
        assert code == 0 and report["verdict"] == "DISTINCT"
        assert report["separator"] == "maxRank"

    @pytest.mark.parametrize("a, b, witness", [
        # the first descent dead-ends at coordinate 2; the resumed search finds the witness
        ("n=5; nil=(1,2),(3,5),(4,5)", "n=5; nil=(1,5),(2,3),(4,5)", [2, 3, 1, 4, 5]),
        # a relabelled copy, answered from the first descent
        ("n=8; nil=(1,2),(1,3),(2,3),(4,6),(5,6),(7,8); cartan=H1,H[4,7],H5",
         "n=8; nil=(1,4),(2,4),(3,7),(3,8),(5,6),(7,8); cartan=H[3,7],H[1,5],H[2,4]",
         [3, 7, 8, 1, 2, 4, 5, 6]),
    ], ids=["n5-resumed", "n8-descent"])
    def test_conjugate_pair_witness(self, capsys, a, b, witness):
        code, report, _ = run_json(capsys, "decide", a, b)
        assert code == 0
        assert report["verdict"] == "CONJUGATE" and report["witness"] == witness

    def test_self_identity(self, capsys):
        desc = "n=3; nil=(1,3); cartan=H1"
        code, report, _ = run_json(capsys, "decide", desc, desc)
        assert code == 0
        assert report["verdict"] == "CONJUGATE" and report["witness"] == [1, 2, 3]

    def test_size_mismatch(self, capsys):
        code, _, err = run(capsys, "decide", "n=3; nil=; cartan=H1", "n=4; nil=; cartan=H1")
        assert code == 2

    def test_not_closed_operand_names_descriptor(self, capsys):
        bad = "n=3; nil=(1,2),(2,3); cartan="
        code, out, err = run(capsys, "decide", "n=3; nil=(1,3); cartan=", bad)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"'{bad}'" in err and "(1,3)" in err

    def test_signatures_compared_above_search_guard(self, capsys):
        code, report, _ = run_json(capsys, "decide", "n=9; nil=(1,2)", "n=9; nil=(1,2),(2,3),(1,3)")
        assert code == 0
        assert report["verdict"] == "DISTINCT" and report["separator"] == "dim"
        code, report, _ = run_json(capsys, "decide", "n=9; nil=(1,2)", "n=9; nil=(2,3)")
        assert code == 0
        assert report["verdict"] == "CONJUGATE" and report["witness"] == [2, 3, 1, 4, 5, 6, 7, 8, 9]
        for n in (9, 20):  # refuted at the search's setup, so not guarded
            code, report, _ = run_json(capsys, "decide", f"n={n}; nil=(1,4),(1,5),(2,5),(3,5)",
                                       f"n={n}; nil=(1,4),(1,5),(2,4),(3,5)")
            assert code == 0
            assert report["verdict"] == "DISTINCT" and report["separator"] == "noPermutationWitness"
        code, _, err = run(capsys, "decide", "n=9; nil=(1,2),(3,5),(4,5)", "n=9; nil=(1,5),(2,3),(4,5)")
        assert code == 2 and err == "regalg: witness search guarded at n <= 8, got n=9\n"


# the reports the classify-n7 benchmark workload writes: (family
# arguments, byte length, sha256)
CLASSIFY_N7_REPORTS = [
    (("codim1",), 31_260, "f90a95f11923eb447996db24e3fdf723cf77a5715343ad8134adcb74bf67cb2b"),
    (("codim2",), 861_848, "d32bc043f4f027281b87f082c88f1a54e68dca88b4a7c4c798a85f54d42f4485"),
    (("dim2",), 122_834, "512e5693910bbb6dc3d66dd70f0fe3faacdfc22898fee7dd6a82ea28354e6424"),
    (("drc", "--k", "1"), 17_666, "b616050d5e5afe20a7dd5d872cc6716af9a69c43f4998a12cbbad7e9a98fd12a"),
    (("drc", "--k", "2"), 13_442, "ccd4e8ca1da9b02af04e956f0dc60a356032dd003027df11fd74017847a65163"),
    (("drc", "--k", "3"), 15_569, "b096687e587ea6ce9b0734b48848acd34129959fcea1afb78f7e3e79ac46aa7b"),
]


class TestClassify:
    def test_codim1(self, capsys):
        code, report, _ = run_json(capsys, "classify", "--n", "4", "--family", "codim1")
        assert code == 0
        assert report["classCount"] == 6 and report["unresolvedCount"] == 0

    def test_drc_k2(self, capsys):
        code, report, _ = run_json(
            capsys, "classify", "--n", "5", "--family", "drc", "--k", "2"
        )
        assert code == 0 and report["classCount"] == 3
        assert all(len(cls) == 3 for cls in report["partition"]["classes"])

    def test_rows_keep_the_labels_of_equal_members(self, capsys):
        # at k = 1, D_i, R_i and C_i remove the same unit: one algebra, three labels
        code, report, _ = run_json(capsys, "classify", "--n", "3", "--family", "drc", "--k", "1")
        assert code == 0
        assert [(r["class"], r["label"]) for r in report["rows"]] == [
            (0, "D_2[k=1]"), (0, "R_2[k=1]"), (0, "C_2[k=1]"),
            (1, "D_1[k=1]"), (1, "R_1[k=1]"), (1, "C_1[k=1]"),
        ]
        descriptors = [r["descriptor"] for r in report["rows"]]
        assert descriptors == [d for cls in report["partition"]["classes"] for d in cls]

    @pytest.mark.parametrize("family, digest", [
        ("codim2", "cb40e5afd5be2866200a90664fa9a1650a6a629ff2578d1a60ca183e85cbf944"),
        ("dim2", "bb87a646b0f3ef31605f6a412087de8f667f29a47d92d7f6fa3e3f0e262511e2"),
    ])
    def test_report_bytes(self, capsys, family, digest):
        # a change to these bytes is a change to the report: record it
        _, out, _ = run(capsys, "classify", "--n", "5", "--family", family, "--format", "json")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("extra, length, digest", CLASSIFY_N7_REPORTS,
                             ids=[" ".join(extra) for extra, _, _ in CLASSIFY_N7_REPORTS])
    def test_n7_report_bytes(self, capsys, extra, length, digest):
        # a change to these bytes is a change to the report: record it
        _, out, _ = run(capsys, "classify", "--n", "7", "--family", *extra, "--format", "json")
        data = out.encode()
        assert len(data) == length
        assert hashlib.sha256(data).hexdigest() == digest


class TestVerify:
    def test_codim1_suite(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--suite", "codim1", "--n", "5")
        assert code == 0 and report["failed"] == 0

    def test_dim2_suite(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--suite", "dim2", "--n", "5")
        assert code == 0 and report["failed"] == 0
        classes = next(r for r in report["rows"] if r["check"] == "dim2-classes")
        assert classes["result"] == "PASS"

    def test_drc_suite_records_ambiguity(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--suite", "drc", "--n", "6")
        assert code == 0
        assert any("k=3" in w and "CONJUGATE" in w for w in report["warnings"])

    def test_all_suite_n4(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--suite", "all", "--n", "4")
        assert code == 0 and report["failed"] == 0 and report["warningCount"] > 0

    def test_all_suite_n5_within_budget(self, capsys):
        import time

        start = time.perf_counter()
        code, report, _ = run_json(capsys, "verify", "--suite", "all", "--n", "5")
        assert code == 0 and report["failed"] == 0
        assert time.perf_counter() - start < 60.0

    def test_drc_suite_k_restriction(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--suite", "drc", "--n", "6", "--k", "2"
        )
        assert code == 0
        # k=2 only: no k=3 ambiguity warnings, no published-table slips at k=2
        assert not any("k=3" in w for w in report["warnings"])

    @pytest.mark.parametrize("argv", [("--n", "6", "--k", "1"), ("--n", "2")])
    def test_drc_classes_omitted_without_k2_or_k3(self, capsys, argv):
        # drc-classes states facts about k=2 and k=3 only; with neither
        # selected it would decide no pair, so it is not reported at all
        code, report, _ = run_json(capsys, "verify", "--suite", "drc", *argv)
        assert code == 0 and report["failed"] == 0
        assert [r["check"] for r in report["rows"]] == ["drc-commutator-table"]

    @pytest.mark.parametrize("argv, message", [
        (("--suite", "drc", "--k", "0"), "--k must be in [1, 5] for n=6"),
        (("--suite", "drc", "--k", "9"), "--k must be in [1, 5] for n=6"),
        (("--suite", "codim1", "--k", "2"), "--k applies to the drc and all suites only, not codim1"),
    ])
    def test_bad_k_rejected(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--n", "6", *argv)
        assert code == 2 and out == ""
        assert err == f"regalg: {message}\n"

    @pytest.mark.parametrize("suite", ["codim2", "all"])
    def test_witness_free_pair_passes_at_n3(self, capsys, suite):
        # M_{2,1} and M_{2,2} have equal signatures and no witness
        code, report, _ = run_json(capsys, "verify", "--suite", suite, "--n", "3")
        assert code == 0 and report["failed"] == 0

    def test_dim2_classes_pass_at_n3(self, capsys):
        # A1, B1 and C1 have no members at n=3, so six classes are expected
        code, report, _ = run_json(capsys, "verify", "--suite", "dim2", "--n", "3")
        assert code == 0 and report["failed"] == 0
        classes = next(r for r in report["rows"] if r["check"] == "dim2-classes")
        assert classes["result"] == "PASS"

    @pytest.mark.parametrize("n, digest, length", [
        (2, "5f6dbeb72a8c22533b23b80ef0f393f3d2116400452edc8c3fc79d0532e17832", 1_704),
        (3, "88b6d06860d21e36f689a6d475567b5d21c200bf1fd1549f291f26245164a227", 3_578),
        (4, "12a1f8d638862fb802279e81434e2365786a3189dd6f588314acc398c5aab268", 3_672),
        (5, "0472c10cbb33cd62879a4457f4daab7147ecac54258e20749248bb345fd7cda7", 3_819),
        (6, "4c96cd6e128de6056c03b6c0b0ded4cb20aecf4ece60b800931a100f900ce36c", 4_041),
        (7, "8e75dadef1732eaabbb1d1e2f758f4b785f982778b7c5f3676fee572cf9b1812", 4_260),
        (8, "52d165a9888b30cfa67b33b09e5891bc2e2ddff71d0ccc5d22b13a4fce0664f9", 4_487),
    ])
    def test_all_suite_report_bytes(self, capsys, n, digest, length):
        # a change to these bytes is a change to the report: record it
        code, out, _ = run(capsys, "verify", "--suite", "all", "--n", str(n), "--format", "json")
        data = out.encode()
        assert code == 0 and len(data) == length
        assert hashlib.sha256(data).hexdigest() == digest

    def test_dim2_oracle_runs_at_the_top_of_the_range(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--suite", "dim2", "--n", "8")
        oracle = next(r for r in report["rows"] if r["check"] == "dim2-enum-oracle")
        assert code == 0 and oracle["result"] == "PASS" and oracle["warnings"] == 0
        assert oracle["details"].startswith("539 labelled spans")

    def test_kernels_suite_at_n2(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--suite", "kernels", "--n", "2")
        assert code == 0 and report["passed"] == 4 and report["failed"] == 0

    def test_all_suite_at_n2_skips_the_n3_suites(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--suite", "all", "--n", "2")
        assert code == 0 and report["failed"] == 0
        assert {r["check"].split("-")[0] for r in report["rows"]} == {"codim1", "drc", "kernel"}

    @pytest.mark.parametrize("suite", ["codim2", "dim2"])
    def test_suite_below_its_minimum_n(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", "2")
        assert code == 2 and out == ""
        assert err == f"regalg: the {suite} suite needs --n of at least 3, got 2\n"

    def test_n_max_oracle_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "codim2", "--n", "4", "--n-max-oracle", "5"])
        assert info.value.code == 2


def _classify_argvs(n):
    yield from (("classify", "--n", str(n), "--family", f) for f in ("codim1", "codim2", "dim2"))
    yield from (("classify", "--n", str(n), "--family", "drc", "--k", str(k)) for k in range(1, n))


JSON_ORACLE_ARGVS = [
    *(("enumerate", "--n", "5", "--family", f) for f in ("codim1", "codim2", "dim2")),
    ("enumerate", "--n", "5", "--family", "drc", "--k", "2"),
    ("invariants", FULL_N4),
    ("invariants", DIAG_N4),
    ("decide", "n=4; nil=(1,2),(1,4),(2,4),(3,4); cartan=", "n=4; nil=(1,3),(1,4),(2,4),(3,4); cartan="),
    ("decide", "n=3; nil=(1,3); cartan=H1", "n=3; nil=(1,2); cartan=H1"),
    *(argv for n in range(3, 7) for argv in _classify_argvs(n)),
    ("verify", "--n", "4"),
]


class TestStreamedJson:
    @pytest.mark.parametrize("argv", JSON_ORACLE_ARGVS, ids=" ".join)
    def test_chunks_join_to_json_dumps(self, monkeypatch, argv):
        report, out = built_report(monkeypatch, *argv)
        expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert "".join(cli.render(report, "json")) == expected
        assert out == expected

    @pytest.fixture(scope="class")
    def codim2_n8(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            return built_report(monkeypatch, "classify", "--n", "8", "--family", "codim2")

    def test_multi_block_report_to_stdout(self, capsys, monkeypatch):
        reports = []
        real = cli.render
        monkeypatch.setattr(cli, "render", lambda report, fmt: reports.append(report) or real(report, fmt))
        code, out, _ = run(capsys, "classify", "--n", "6", "--family", "codim2", "--format", "json")
        (report,) = reports
        assert code == 0
        assert sum(1 for _ in real(report, "json")) > 2 * cli.EMIT_BLOCK_CHUNKS
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"

    def test_codim2_n8_report_bytes(self, codim2_n8):
        # a change to these bytes is a change to the report: record it
        data = codim2_n8[1].encode()
        assert len(data) == 2_003_599
        assert hashlib.sha256(data).hexdigest() == (
            "bcc908967826007f7a20ffe6a48b037aff30c00927e98ce8df9d4078d0379109")

    def test_writing_a_report_does_not_hold_it(self, codim2_n8, tmp_path):
        # the 2 MB report streams to its file: memory grows with nesting depth, not size
        report, text = codim2_n8
        path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            cli._emit(cli.render(report, "json"), str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text() == text
        assert peak < 1_000_000


class TestDeterminismAndPlumbing:
    def test_json_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "verify", "--suite", "codim2", "--n", "4", "--format", "json")
        _, second, _ = run(capsys, "verify", "--suite", "codim2", "--n", "4", "--format", "json")
        assert first == second
        _, third, _ = run(capsys, "enumerate", "--n", "5", "--family", "dim2", "--format", "json")
        _, fourth, _ = run(capsys, "enumerate", "--n", "5", "--family", "dim2", "--format", "json")
        assert third == fourth

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--family", "codim1",
            "--format", "json", "--out", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["count"] == 4

    def test_reader_closing_early_exits_quietly(self):
        # `regalg classify ... | head -c 10`: a reader that stops is no input error
        with fresh_run("classify", "--n", "8", "--family", "codim2", "--format", "json") as proc:
            assert proc.stdout.read(10) == b'{\n  "class'
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")

    def test_out_pipe_closing_early_is_reported(self):
        # --out names a pipe whose reader stops: a write error like any other --out path
        read_fd, write_fd = os.pipe()
        with fresh_run("classify", "--n", "8", "--family", "codim2", "--format", "json",
                       "--out", f"/dev/fd/{write_fd}", pass_fds=(write_fd,)) as proc:
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as reader:
                assert reader.read(10) == b'{\n  "class'
            out, err = proc.communicate(timeout=120)
        assert (proc.returncode, out, err) == (2, b"", b"regalg: [Errno 32] Broken pipe\n")

    def test_seed_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["invariants", "n=3; nil=(1,2); cartan=", "--seed", "7"])
        assert info.value.code == 2

    def test_env_seed_ignored(self, capsys, monkeypatch):
        _, plain, _ = run(capsys, "invariants", "n=3; nil=(1,2); cartan=H1", "--format", "json")
        monkeypatch.setenv("REGALG_SEED", "pi")
        code, out, _ = run(capsys, "invariants", "n=3; nil=(1,2); cartan=H1", "--format", "json")
        assert code == 0 and out == plain
        assert "seed" not in json.loads(out)

    def test_unwritable_out_path(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "enumerate", "--n", "3", "--family", "codim1",
            "--out", str(tmp_path / "missing" / "report.json"),
        )
        assert code == 2 and out == ""
        assert err.startswith("regalg: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cmd", ["enumerate", "classify"])
    @pytest.mark.parametrize("half", [("--kind", "R"), ("--index", "1")])
    def test_drc_kind_and_index_go_together(self, capsys, cmd, half):
        code, out, err = run(capsys, cmd, "--n", "5", "--family", "drc", "--k", "2", *half)
        assert code == 2 and out == ""
        assert "--kind and --index" in err

    @pytest.mark.parametrize("cmd", ["enumerate", "classify"])
    @pytest.mark.parametrize("family", ["codim1", "codim2", "dim2"])
    @pytest.mark.parametrize("flag", [("--k", "2"), ("--kind", "R"), ("--index", "1")])
    def test_drc_flags_rejected_for_other_families(self, capsys, cmd, family, flag):
        code, out, err = run(capsys, cmd, "--n", "4", "--family", family, *flag)
        assert code == 2 and out == ""
        assert err.startswith("regalg: ") and err.count("\n") == 1
        assert flag[0] in err and family in err

    def test_unknown_family_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--n", "4", "--family", "everything"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("invariants", "n={}; nil=; cartan=H1"),
        ("decide", "n={}; nil=; cartan=", "n={}; nil=(1,2); cartan="),
    ])
    @pytest.mark.parametrize("n", ["21", "99999999999999999999999"])
    def test_n_above_descriptor_bound(self, capsys, argv, n):
        # rejected before any length-n vector is built
        code, out, err = run(capsys, argv[0], *(d.format(n) for d in argv[1:]))
        assert code == 2 and out == ""
        assert err == f"regalg: n must be at most 20: '{n}' at position 2\n"

    @pytest.mark.parametrize("argv", [
        ("invariants", "n=4; nil=; cartan=diag({},-1,0,1)"),
        ("decide", "n=4; nil=; cartan=H1", "n=4; nil=; cartan=diag({},-1,0,1)"),
    ])
    @pytest.mark.parametrize("entry", ["-1001", "99999999999999999999999"])
    def test_diag_entry_above_descriptor_bound(self, capsys, argv, entry):
        # rejected before any signature work
        code, out, err = run(capsys, argv[0], *(d.format(entry) for d in argv[1:]))
        assert code == 2 and out == ""
        assert err == f"regalg: diag entries must be at most 1000 in magnitude: '{entry}' at position 23\n"
