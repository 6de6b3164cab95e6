"""CLI behavior: subcommands, formats, determinism, exit codes."""

import hashlib
import json

import pytest

from regalg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


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


class TestInvariants:
    def test_full_solvable(self, capsys):
        desc = "n=4; nil=(1,2),(1,3),(1,4),(2,3),(2,4),(3,4); cartan=H1,H2,H3"
        code, report, _ = run_json(capsys, "invariants", desc)
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

    def test_parse_error_exit(self, capsys):
        code, _, err = run(capsys, "invariants", "n=3; nil=(1,2; cartan=")
        assert code == 2 and "position" in err


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

    def test_self_identity(self, capsys):
        desc = "n=3; nil=(1,3); cartan=H1"
        code, report, _ = run_json(capsys, "decide", desc, desc)
        assert code == 0
        assert report["verdict"] == "CONJUGATE" and report["witness"] == [1, 2, 3]

    def test_size_mismatch(self, capsys):
        code, _, err = run(capsys, "decide", "n=3; nil=; cartan=H1", "n=4; nil=; cartan=H1")
        assert code == 2

    def test_signatures_compared_above_search_guard(self, capsys):
        code, report, _ = run_json(capsys, "decide", "n=9; nil=(1,2)", "n=9; nil=(1,2),(2,3),(1,3)")
        assert code == 0
        assert report["verdict"] == "DISTINCT" and report["separator"] == "dim"
        code, _, err = run(capsys, "decide", "n=9; nil=(1,2)", "n=9; nil=(2,3)")
        assert code == 2 and "guarded at n <= 8" in err


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

    @pytest.mark.parametrize("family, digest", [
        ("codim2", "cb40e5afd5be2866200a90664fa9a1650a6a629ff2578d1a60ca183e85cbf944"),
        ("dim2", "bb87a646b0f3ef31605f6a412087de8f667f29a47d92d7f6fa3e3f0e262511e2"),
    ])
    def test_report_bytes(self, capsys, family, digest):
        # a change to these bytes is a change to the report: record it
        _, out, _ = run(capsys, "classify", "--n", "5", "--family", family, "--format", "json")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize("n, digest", [
        (4, "1987aed137e2fe252d6dcb2a802308d21133507b5e8bc671569e6b81a66fa0a6"),
        (5, "7f74d5360b011852ea7ec1cc4d671c65b544f194efced95913f0f62879b8ce03"),
    ])
    def test_all_suite_report_bytes(self, capsys, n, digest):
        # a change to these bytes is a change to the report: record it
        _, out, _ = run(capsys, "verify", "--suite", "all", "--n", str(n), "--format", "json")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_n_max_oracle_flag_rejected(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "codim2", "--n", "4", "--n-max-oracle", "5"])
        assert info.value.code == 2


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
