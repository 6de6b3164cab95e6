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


# every classify --format json report, n = 3..8, each family and drc at
# every k: (n, family arguments, byte length, sha256); the n = 7 rows are
# the reports the classify-n7 benchmark workload writes
CLASSIFY_REPORTS = [
    (3, ("codim1",), 1_869, "d9ef324df4ce8f70fa3257dd21a0257ea8b926b4f3ddee2e577832a6842d0666"),
    (3, ("codim2",), 4_097, "fed0816977321fa7b0824c56d73dde014a7f571c50e0ac330f577761048ac61e"),
    (3, ("dim2",), 4_225, "3da24222cd91504c8d52364aee46c6273aa57265c9dd8f6ab298517a96644faf"),
    (3, ("drc", "--k", "1"), 2_020, "0b7b4ff93592f14c3656768b59ef76d711fa50e90a3c6a1595a13e62dd6fd776"),
    (3, ("drc", "--k", "2"), 990, "141460ade9780ed1f23264be218153f88e4164efe8e3a3cdef02c9f9a78f0083"),
    (4, ("codim1",), 4_483, "75d8e0a1c63cac19cfde61a52d7bc14dae85cc37d903e779096838037b31c279"),
    (4, ("codim2",), 24_737, "fd72fec618ca398bf785271c02cacc5695fd29486c6cb78f24a244c4431614c1"),
    (4, ("dim2",), 14_289, "7871b9775a00e9c98a6ac1b7105adfc55b5332b4e27aafbe0b59441a54dffc87"),
    (4, ("drc", "--k", "1"), 3_855, "b403b8190e09735db422b19937863a5a12f47529ffd5d83418ac5fbe26f82a6c"),
    (4, ("drc", "--k", "2"), 2_336, "4ad72bb59c992c7346e80a2261f4b07c262621ef5a9843145a96d5ffea7938b8"),
    (4, ("drc", "--k", "3"), 1_111, "3587169f8a06b8ead7b9e3b48e7756fa05eddb762d435f8d43b15c1664b11c87"),
    (5, ("codim1",), 9_414, "29e04fbab236e9b1e52d9544fa4095ca5c0ffd7ddf85152023d7e4d21568081b"),
    (5, ("codim2",), 102_093, "cb40e5afd5be2866200a90664fa9a1650a6a629ff2578d1a60ca183e85cbf944"),
    (5, ("dim2",), 31_790, "bb87a646b0f3ef31605f6a412087de8f667f29a47d92d7f6fa3e3f0e262511e2"),
    (5, ("drc", "--k", "1"), 6_775, "bd1a57274c7ab2e0b0ccde24fc180d688a03a6e5dc03bbf1b65bea67d80d5c5f"),
    (5, ("drc", "--k", "2"), 4_581, "7f5659e6adb39fcf04549a4f1e0a7374413fd9ffa5f818e661ea4c615676c768"),
    (5, ("drc", "--k", "3"), 3_313, "d953d043a7ae7001d971800b5538dd6a10900fd28efb688b9e4751404aa3af12"),
    (5, ("drc", "--k", "4"), 1_304, "f5bf484012ee943c18f61c6872a0b8b27b8f8e930cd2a3bc3160f7e53e2b7731"),
    (6, ("codim1",), 17_849, "80976ac5889b4979b08bfc1b5bdae773b257525038a339e4b1dcdd4690ac2928"),
    (6, ("codim2",), 324_756, "e83f151f07705942aaae702beaec0833e655372956694fc5b90f6f3000f10742"),
    (6, ("dim2",), 65_273, "201ef8903f92b64f9a8df60c4a83f3af8fc868b7dee73b56e2380e82dcd04ab0"),
    (6, ("drc", "--k", "1"), 11_212, "4aad0dd33ba3e910c781b75d1f7758ceaffe1e5a3315db36295f8fdd4452a025"),
    (6, ("drc", "--k", "2"), 8_127, "5190a1b694c6984ed451d42212537a0427752ff2e714f501d0c4b9c7aa258a06"),
    (6, ("drc", "--k", "3"), 7_735, "d0083239221a0bd98f1150754a8f2bf7223d257ce290386a21bf250b04405713"),
    (6, ("drc", "--k", "4"), 4_011, "1bc25d336390f625797fdd91cc96374942ad992ad835bbc5059ed86aaaed6326"),
    (6, ("drc", "--k", "5"), 1_557, "957e495e5b9ab81999fe98dff0c69b80a96816c4a494cbff80173c3118a80709"),
    (7, ("codim1",), 31_260, "f90a95f11923eb447996db24e3fdf723cf77a5715343ad8134adcb74bf67cb2b"),
    (7, ("codim2",), 861_848, "d32bc043f4f027281b87f082c88f1a54e68dca88b4a7c4c798a85f54d42f4485"),
    (7, ("dim2",), 122_834, "512e5693910bbb6dc3d66dd70f0fe3faacdfc22898fee7dd6a82ea28354e6424"),
    (7, ("drc", "--k", "1"), 17_666, "b616050d5e5afe20a7dd5d872cc6716af9a69c43f4998a12cbbad7e9a98fd12a"),
    (7, ("drc", "--k", "2"), 13_442, "ccd4e8ca1da9b02af04e956f0dc60a356032dd003027df11fd74017847a65163"),
    (7, ("drc", "--k", "3"), 15_569, "b096687e587ea6ce9b0734b48848acd34129959fcea1afb78f7e3e79ac46aa7b"),
    (7, ("drc", "--k", "4"), 9_394, "d238d94b176bf7c49ba5397f14f6f909da11dd96aaa2c80dbebcab3961f498b2"),
    (7, ("drc", "--k", "5"), 4_877, "67cd8b3014c4e0136df77fed5a6a682638e1119959711f6474c761a66287c02d"),
    (7, ("drc", "--k", "6"), 1_870, "fc3982701e86da9de7472ef1f9ac863dc31312921f004e9bb381e91adaf8949a"),
    (8, ("codim1",), 51_414, "ecaab78f1e7731f0394ac8b872062a516a83b47e642b9c6d938ba9e78a177ff0"),
    (8, ("codim2",), 2_003_599, "bcc908967826007f7a20ffe6a48b037aff30c00927e98ce8df9d4078d0379109"),
    (8, ("dim2",), 214_656, "f53bf2ce99a17d4b201b28b373ed46169a6f3d1df67c7b2aeb57c91988cd00c1"),
    (8, ("drc", "--k", "1"), 26_717, "823d4533651edc9903438f0abee80e5eda51db461d4339d447ba68d333752cdb"),
    (8, ("drc", "--k", "2"), 21_062, "793d672c94ff07c789980d11ae46e3883ae42efefd69ededcc43c3c28952b257"),
    (8, ("drc", "--k", "3"), 28_296, "de2c33e750db90b82f45bdddeb8bb6d83f2a59ba5dff8c7697dd76b922929f99"),
    (8, ("drc", "--k", "4"), 18_789, "a23457efb742cc46889aaa8ca263ea1bf20532095b1f162a3aea0092a8793057"),
    (8, ("drc", "--k", "5"), 11_377, "dd2e8ab7bd36045ee3312088c39745080845047ab6e3862409f3058c0f9ed4db"),
    (8, ("drc", "--k", "6"), 5_911, "42acbee5c396fe2bb5b99a4591df0de51043b09f47f3a8cfa2d611b163425ff4"),
    (8, ("drc", "--k", "7"), 2_243, "9e09be56cc157c8398bdb4dfcc19dfb51fdb16d6dedf811a45c1fa8a1544b433"),
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

    @pytest.mark.parametrize("n, extra, length, digest", CLASSIFY_REPORTS,
                             ids=[f"{n} {' '.join(extra)}" for n, extra, _, _ in CLASSIFY_REPORTS])
    def test_json_report_bytes(self, capsys, n, extra, length, digest):
        # a change to these bytes is a change to the report: record it
        code, out, _ = run(capsys, "classify", "--n", str(n), "--family", *extra, "--format", "json")
        data = out.encode()
        assert code == 0 and len(data) == length
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
