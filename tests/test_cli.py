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
    """The exit status of a --format json run, the report dict the command
    hands to render, and the text it writes."""
    reports = []
    real = cli.render
    monkeypatch.setattr(cli, "render", lambda report, fmt: reports.append(report) or real(report, fmt))
    out = io.StringIO()
    monkeypatch.setattr("sys.stdout", out)
    code = main([*argv, "--format", "json"])
    (report,) = reports
    return code, report, out.getvalue()


def report_digests(report, json_text):
    """sha256 of the json text and of the table and csv text rendered from
    the same report, so one command run pins all three formats."""
    texts = (json_text, *("".join(cli.render(report, fmt)) for fmt in ("table", "csv")))
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


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

    # (family arguments, json byte length, sha256 of the json, table and csv
    # text); the dim2 table is the one that lists familyCounts as a table
    @pytest.mark.parametrize("extra, length, digests", [
        (("codim1",), 1_835, ("1564c4e140c2ddb46b48646d9052aee1bab309aed32510bc309888b62d3af1f6",
                              "1f82bcc35ba1ad4900b6dc4211a897bebf7d40f2f9f360b72ddfbfb6f3a77437",
                              "19f41e255f957ca04e195587c28067778e1a5ad68d03a740d1a6965357370c77")),
        (("codim2",), 7_686, ("c54d9b94d9d5965eac28f01325ce98bee742a2d7f1ecccc3a3142935a6258d99",
                              "a2f9cc8958b54c268f1b82cb5e357cee192533faf9d7a0ac0bb050577c091a48",
                              "688d80da2b53d799aa8c4b7dff72c70831c57a0297463a8f5b9d98eecad80e63")),
        (("dim2",), 16_598, ("537cc2391a0102ba0dc6c20570079bedd35d71f10f101e5595c119b8ef97d1f7",
                             "48d306ff8c4b6d380db9f9efffdd5054ccb243174fb59f67e53322ba0e9f56fb",
                             "cdc484e3e18f43820550c8b32211b6c9bd808675ae7bd718ab8150d75c582ad6")),
        (("drc", "--k", "2"), 1_897, ("503db87d0b6715e5d8e7265293027d37926afe47f2c82be6d33f18698b799714",
                                      "4d8de882b460882ffd343d43a4883a1a985f8fe2c899457ffa2e7d1c1ada75f8",
                                      "368e10e7d602eb77d87059fe19597a35c8ac3f07f82b910409f8e7204503b71a")),
    ], ids=["codim1", "codim2", "dim2", "drc --k 2"])
    def test_report_bytes(self, monkeypatch, extra, length, digests):
        # a change to these bytes is a change to the report: record it
        code, report, out = built_report(monkeypatch, "enumerate", "--n", "5", "--family", *extra)
        assert code == 0 and len(out.encode()) == length
        assert report_digests(report, out) == digests


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


FULL_E5 = "(1,2),(1,3),(1,4),(1,5),(2,3),(2,4),(2,5),(3,4),(3,5),(4,5)"


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
        code, report, _ = run_json(
            capsys, "decide",
            f"n=5; nil={FULL_E5}; cartan=H2,H3,H4",
            f"n=5; nil={FULL_E5}; cartan=H1,H2,H4",
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
        # Cartan-only at the guard's edge: the descent dead-ends and the
        # fields agree, so only the resumed search at n = 8 finds the witness
        ("n=8; nil=; cartan=diag(-2,1,1,-2,-1,1,0,2),diag(2,1,-3,1,-3,3,0,-1)",
         "n=8; nil=; cartan=diag(-2,1,1,-2,2,-1,1,0),diag(2,3,-3,1,-1,-3,1,0)",
         [1, 7, 3, 4, 6, 2, 8, 5]),
    ], ids=["n5-resumed", "n8-descent", "n8-guard-edge"])
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

    # (a, b, json byte length, sha256 of the json, table and csv text)
    @pytest.mark.parametrize("a, b, length, digests", [
        ("n=4; nil=(1,2),(1,4),(2,4),(3,4); cartan=", "n=4; nil=(1,3),(1,4),(2,4),(3,4); cartan=",
         444, ("5973221589cfa100a6310737cacc340059772812bfd9ef773da42ee1615c6f25",
               "8244d426e315260bdb5621b6d1dfc1e7a21a0ea540c31c17292bd7d6a3362841",
               "594cfef2f9ec3b2e144643387dd98241b8593cadae6d31ca6bcd1c83a3830147")),
        ("n=5; nil=(1,2),(3,5),(4,5)", "n=5; nil=(1,5),(2,3),(4,5)",
         438, ("eee0e1bda3efa11f97b4d14d2cb912251a279d214453dab9a9bce50a41886a36",
               "9bba742631791b1498835fb2e56712d15d0d2f677c4500d2c584db97673888c3",
               "4358eb2edcb85f2c84238e6073b4d7b959b1b0f7e7a63a0c268ed99861d1ff3e")),
        (f"n=5; nil={FULL_E5}; cartan=H2,H3,H4", f"n=5; nil={FULL_E5}; cartan=H1,H2,H4",
         556, ("a89c6bb31894b76963e3f4321339f8c9582d56144c4db0df24833d5ee5673857",
               "0ff23a515be67382ed61634fd9f1f83e475fc4007a7a29957acd96371b44cbac",
               "7053030caa91d92aa6b67ae1662525ff4ccc38df588b9a7820f87342e91fce7f")),
        ("n=3; nil=(1,2),(1,3); cartan=H2", "n=3; nil=(1,2),(1,3); cartan=H1",
         366, ("373f9fa048836573c2c6863d6799ff2ca30d20e201e56dcc2d7eec9ec838e5a1",
               "7baf9c154367a88d1520d2f1f86d5cadb49a4dad7a8dfca0f2f8e718be9340b5",
               "b7e85274357c1d5fdc0ee23154a1acbc35590fbcfd72fa50f31eb68054c3b0ce")),
        ("n=9; nil=(1,4),(1,5),(2,5),(3,5)", "n=9; nil=(1,4),(1,5),(2,4),(3,5)",
         406, ("d715e95bafef1d9534b437ad7f8315b70c73e3162cc5d3e66a16c66002181296",
               "21254daee5fa1b2667ac34bdfe6663e87658c92cb4a9c006486e649d4e8da99e",
               "965888b207474e45dd16336ef64d6ceadb6ec93f87db155543e351c99576fde7")),
    ], ids=["n4-descent", "n5-resumed", "max-rank", "no-witness", "n9-setup"])
    def test_report_bytes(self, monkeypatch, a, b, length, digests):
        # a change to these bytes is a change to the report: record it
        code, report, out = built_report(monkeypatch, "decide", a, b)
        assert code == 0 and len(out.encode()) == length
        assert report_digests(report, out) == digests


# every classify report, n = 3..8, each family and drc at every k: (n,
# family arguments, json byte length, sha256 of the json, table and csv
# text); the n = 7 rows are the reports the classify-n7 benchmark workload
# writes
CLASSIFY_REPORTS = [
    (3, ("codim1",), 1_869, ("d9ef324df4ce8f70fa3257dd21a0257ea8b926b4f3ddee2e577832a6842d0666",
                             "948ece9670cac02197b2138fca34a8dfb8494f0e69219342974b797ecc3c390d",
                             "371c34ad712b4e3a00264d04143997361c6c625ca55a219368f8b07692168d8c")),
    (3, ("codim2",), 4_097, ("fed0816977321fa7b0824c56d73dde014a7f571c50e0ac330f577761048ac61e",
                             "cddf7ecef2d8641c5ebde5603789d0ec7c28364e13f82f9858e6251f8daff816",
                             "38e409830ca164c2e01e26dee6f3738218b393b81c1757ed9f8f4130ee5aaece")),
    (3, ("dim2",), 4_225, ("3da24222cd91504c8d52364aee46c6273aa57265c9dd8f6ab298517a96644faf",
                           "a7174ca12f5b27bde60e7c3cf0d18f19d6b8e686136e60bccf77e7632a87edbd",
                           "0b02b8e587f8f9def75c6c8157b75dfdb5d5ae763b62e85390960b75303fa711")),
    (3, ("drc", "--k", "1"), 2_020, ("0b7b4ff93592f14c3656768b59ef76d711fa50e90a3c6a1595a13e62dd6fd776",
                                     "1f97160bdd29e17e24baf84a84ebb610df62ce047548a18370ad0b126ded30a3",
                                     "afa377a61a5149fc6dc7f3d653985aeb8a18584868a9533b670d7906ea31dd7f")),
    (3, ("drc", "--k", "2"), 990, ("141460ade9780ed1f23264be218153f88e4164efe8e3a3cdef02c9f9a78f0083",
                                   "8e02143693e94e25d4fc1f1c3412f43b38672adf6011d5eb4e1a95712c118044",
                                   "2b97f02d5399c047bcce2b1ad941e5cf74ab86cd6b4d72ce2ea7370e5b537635")),
    (4, ("codim1",), 4_483, ("75d8e0a1c63cac19cfde61a52d7bc14dae85cc37d903e779096838037b31c279",
                             "8ef99c598422f9de2ad23fdf8d1d3770decc69691e5292505808e0a2dcdd49fc",
                             "1edebe7b6b1193177b6723d86bb09b051394953abbe002b2053dba64fa713ec2")),
    (4, ("codim2",), 24_737, ("fd72fec618ca398bf785271c02cacc5695fd29486c6cb78f24a244c4431614c1",
                              "9131efeb82e08b6694baeca9e9b175483b3b15b2c4a07a45a42b710d392f0270",
                              "6881a8c8e37041afe1b49d0547de6cd3eb1ba9397828f6732d49df08897527e0")),
    (4, ("dim2",), 14_289, ("7871b9775a00e9c98a6ac1b7105adfc55b5332b4e27aafbe0b59441a54dffc87",
                            "21c15ac2ca35a83c9f07b088afc735bdb53a1f80971ce42f0296f085da8f12a7",
                            "69e7702f50b5b902d2f867c76da43f606454d64f78d1c0f920f1d36fd2544805")),
    (4, ("drc", "--k", "1"), 3_855, ("b403b8190e09735db422b19937863a5a12f47529ffd5d83418ac5fbe26f82a6c",
                                     "4d1ea6068edc11d97fc25b22f6b7cfc99a358aaa9ca1d037fbd39048bd5f4154",
                                     "00ba74ec99f93ff83e58f07f1dc076388a1c306564616e072bcc1f1f926779e7")),
    (4, ("drc", "--k", "2"), 2_336, ("4ad72bb59c992c7346e80a2261f4b07c262621ef5a9843145a96d5ffea7938b8",
                                     "f86094793d923de8347147abd4fde9073b6d5cc704fcd5e112b53be14d902365",
                                     "5e29be203107eeeefd31cdae16563369c26a15d74b4e398094810b75f98e045e")),
    (4, ("drc", "--k", "3"), 1_111, ("3587169f8a06b8ead7b9e3b48e7756fa05eddb762d435f8d43b15c1664b11c87",
                                     "695762ac53900fd313be95f4c6b4bf6b52a6c012fde86835966f7a5691f5f97d",
                                     "684ef499b4f5631dbdea171d8e90734d5858fca3868d2a4f3cc9aa5b7f7bc2e6")),
    (5, ("codim1",), 9_414, ("29e04fbab236e9b1e52d9544fa4095ca5c0ffd7ddf85152023d7e4d21568081b",
                             "7559fa80bfa942511a83e3371b2ef06e4777b351488f2fb060b1dbfb3fefcece",
                             "0d83c56b90709228a9ab362bca2e8aa309f58d52bf374123ee423653771cd359")),
    (5, ("codim2",), 102_093, ("cb40e5afd5be2866200a90664fa9a1650a6a629ff2578d1a60ca183e85cbf944",
                               "6f3049546d6f0737a8b3eccf08bd3885cc9c2ff5e2bbf1e74fc882ff4c944ffd",
                               "dcc10d5c17a3f3acc991df1d2b793d6be18760fe76516765511c9f8c030343ec")),
    (5, ("dim2",), 31_790, ("bb87a646b0f3ef31605f6a412087de8f667f29a47d92d7f6fa3e3f0e262511e2",
                            "e5957c6e257a2e6747693806926bafcc40463578d74a1ea697c41c1052f62f36",
                            "d2e56e98fe15bdc7dd150a44981f7b8f2c6c992e2c74be7fc21a2c331ae7dd43")),
    (5, ("drc", "--k", "1"), 6_775, ("bd1a57274c7ab2e0b0ccde24fc180d688a03a6e5dc03bbf1b65bea67d80d5c5f",
                                     "f4677314d325a361e001332fd6e0e5f19fa8ada1f2350da2bca33ee8fa712e07",
                                     "b3c8f840a0364aac392a9e77d6c1ca213127d4ef79f987866841fba063e48447")),
    (5, ("drc", "--k", "2"), 4_581, ("7f5659e6adb39fcf04549a4f1e0a7374413fd9ffa5f818e661ea4c615676c768",
                                     "8f711d2212d1dee54e644a5cead6e46e51747d5d627e135633a64dbd23169353",
                                     "de8fbc991581e39eb422bf458320e9da916e4ad19208f3508b8cf04e2932fd79")),
    (5, ("drc", "--k", "3"), 3_313, ("d953d043a7ae7001d971800b5538dd6a10900fd28efb688b9e4751404aa3af12",
                                     "1a318772dd71e26c3923b2c7bad56eb6df4d85329bc8d5d64452d54226b51793",
                                     "65e0890b3b3cc2a5755b00502ce862a76c97d862657d7c74d5b5313448931e2b")),
    (5, ("drc", "--k", "4"), 1_304, ("f5bf484012ee943c18f61c6872a0b8b27b8f8e930cd2a3bc3160f7e53e2b7731",
                                     "33f8b8490e7376805c1e8f4ec8e6b3af2a7173d9d6e10ef7c96c690e74ce016b",
                                     "6b698e6341f1bd8b20ee6f1452d5c01227e04652ba38622dc940f3c5b3f0ea75")),
    (6, ("codim1",), 17_849, ("80976ac5889b4979b08bfc1b5bdae773b257525038a339e4b1dcdd4690ac2928",
                              "a75c4a0bb9a80474d34d1decbb83db9a57a73352e6b289e2e044198b1f65d4fc",
                              "b1786b6492bddf999789687badeacfb19837f6d1a4e84206210cfc95fb61da9b")),
    (6, ("codim2",), 324_756, ("e83f151f07705942aaae702beaec0833e655372956694fc5b90f6f3000f10742",
                               "046bbb59d6839bcf9d11626f8f4cf2d9cdffb179d946a13646e76717fcb4dc71",
                               "48d757f0221abbdd758bf7416ce429f183ab37f5b6cacf8e9e57ed809b39d2bc")),
    (6, ("dim2",), 65_273, ("201ef8903f92b64f9a8df60c4a83f3af8fc868b7dee73b56e2380e82dcd04ab0",
                            "c14ee00f02e5aa21137f13906a9114a4c7f0298182d3c24ac2c7ce1486b12f6c",
                            "37f6d9ce21bb89b42de5b9a6609ebc12ed8d030d258f491e497099cf8e6b5a57")),
    (6, ("drc", "--k", "1"), 11_212, ("4aad0dd33ba3e910c781b75d1f7758ceaffe1e5a3315db36295f8fdd4452a025",
                                      "ab1037d76fab9a71efab05ce4a48b22b8c133409b6583bbc6c938405f353fc5c",
                                      "f1150ac3400e24cd9998fdc451f63b14edaffc9d239ac58ce0bdb3f39b782205")),
    (6, ("drc", "--k", "2"), 8_127, ("5190a1b694c6984ed451d42212537a0427752ff2e714f501d0c4b9c7aa258a06",
                                     "0ef670f756b2282b939d9fa6db23aaaaed7d104d38cbfb1ed4a65a3903f3c74f",
                                     "005c04fdcd88e4a4684224c5d61206d4983816bd621d6528a1818263b6a6b076")),
    (6, ("drc", "--k", "3"), 7_735, ("d0083239221a0bd98f1150754a8f2bf7223d257ce290386a21bf250b04405713",
                                     "1fb18eebc3517830a54f67ba123d95c351746eba11b3b343ec130860902ecf91",
                                     "b6550115fd0d45a057122766ff9b13689482b4ebebf9d19a09c88677b457b5b7")),
    (6, ("drc", "--k", "4"), 4_011, ("1bc25d336390f625797fdd91cc96374942ad992ad835bbc5059ed86aaaed6326",
                                     "99b7abdee00df32f213527aace83c7ed485667dd95ce6c4d2708d8252a678f3b",
                                     "2f92f2185494eb9948fe82f3cf16fd45fec9ed08d4a12d176e7ce7c8b122fd0d")),
    (6, ("drc", "--k", "5"), 1_557, ("957e495e5b9ab81999fe98dff0c69b80a96816c4a494cbff80173c3118a80709",
                                     "0d58c788956f3298371697093c9e4a82321f87631de214c32047be17bd3c166a",
                                     "21b25b482e45ffe134ff21d5c071392664d6b07f6ccd46fe3cc2b9ed9ca508c7")),
    (7, ("codim1",), 31_260, ("f90a95f11923eb447996db24e3fdf723cf77a5715343ad8134adcb74bf67cb2b",
                              "874575f75c8e4b28bb730be7f9ef697425ababfb6bae901e91f4ccc629916bab",
                              "04dfdb31b2e8ba188ff9c0e33222f4329e58380f1892fddf952c4e8c144565da")),
    (7, ("codim2",), 861_848, ("d32bc043f4f027281b87f082c88f1a54e68dca88b4a7c4c798a85f54d42f4485",
                               "4a9d06403331e79fb0a72b17cea15dca14d6c191cad5d630d8c557c0224e595a",
                               "7d173a249cc9d9b347a7a77e9cfbf84c48dd98b56d53d93ce102e3f147497203")),
    (7, ("dim2",), 122_834, ("512e5693910bbb6dc3d66dd70f0fe3faacdfc22898fee7dd6a82ea28354e6424",
                             "3c18d22f4e64be7f46cf8f400b0b65b562c5a76bbec983e749c7e53571bfdd3f",
                             "116a6343b051193b548ea9bbe3af95cfbc651fc442fd78384ce37bf35ff54722")),
    (7, ("drc", "--k", "1"), 17_666, ("b616050d5e5afe20a7dd5d872cc6716af9a69c43f4998a12cbbad7e9a98fd12a",
                                      "23bf748b4fa9b6e667c4169484989e6350c76679e2f7a8be9baa96d39fd661b4",
                                      "08bb60d844ac5718a26d03d8f9b0d69382885ac82f2974771be1b57645f8d454")),
    (7, ("drc", "--k", "2"), 13_442, ("ccd4e8ca1da9b02af04e956f0dc60a356032dd003027df11fd74017847a65163",
                                      "3ac10449607d5c4acbb108cb3903ab034007281457322458ca8f84cefe1cc3f1",
                                      "a7a39af977f1f524a8f0abbab1b8a7a5f118b5ac83c2222ac9fb776dff8f3b9b")),
    (7, ("drc", "--k", "3"), 15_569, ("b096687e587ea6ce9b0734b48848acd34129959fcea1afb78f7e3e79ac46aa7b",
                                      "0d7c36a822f61821e056d2b97830130b4c14af26a59c00fc5f52a174f15fdab7",
                                      "66c5834b81358744a61282cb526dc7b335b6fa8493df1e82c543159b1184f158")),
    (7, ("drc", "--k", "4"), 9_394, ("d238d94b176bf7c49ba5397f14f6f909da11dd96aaa2c80dbebcab3961f498b2",
                                     "e71f6fca24b9b36b224af9aa9da35a9766672b9dc2cda1a34ec6eacb2e1d4852",
                                     "7592e5273964aaf1714e08a8635c09d1f04e3ffef59d51ea9499d14af8850353")),
    (7, ("drc", "--k", "5"), 4_877, ("67cd8b3014c4e0136df77fed5a6a682638e1119959711f6474c761a66287c02d",
                                     "b5bf514c36baa230b82c3afb5458480cd1e48096a16eccdfe632fce0af0b89ea",
                                     "dfd6d7253d9a3db9f1d13d4374a741c5dcc1afcf27f1d13ef26c724ab4129236")),
    (7, ("drc", "--k", "6"), 1_870, ("fc3982701e86da9de7472ef1f9ac863dc31312921f004e9bb381e91adaf8949a",
                                     "bbfde6c9c460457a5257d506d6eb728964fc295a42a9d88bb6a6cc94462ebd2e",
                                     "3f687f4e18a4da025a7c93944cf8df3c4d67e47665ca67fa7c1ec7fa1c859b8b")),
    (8, ("codim1",), 51_414, ("ecaab78f1e7731f0394ac8b872062a516a83b47e642b9c6d938ba9e78a177ff0",
                              "9d7e73b009f4a4a7cf1e62df9a5ac26e66dbb5fc6287c1a94d1d5567d8df3126",
                              "35ba5e56e0c0d65910819b6f0318bda2734c1e2580b71b4bdf3da886d117db63")),
    (8, ("codim2",), 2_003_599, ("bcc908967826007f7a20ffe6a48b037aff30c00927e98ce8df9d4078d0379109",
                                 "8fc137cc1c5cb8988dc6b6d123a901e8bc8657250aa49092c857967b0b9f41b9",
                                 "85374dd2c312e7d0760dfee4bdde78afdc1f7c725a6b889ba198e5278b599ebe")),
    (8, ("dim2",), 214_656, ("f53bf2ce99a17d4b201b28b373ed46169a6f3d1df67c7b2aeb57c91988cd00c1",
                             "31b0251bce8ef77b002fc14a1a482d3998b4fe7f2b84c0a39d194c9a21c07ddf",
                             "65904a0d1daec0c20a1643643082e35f36fdf0b6d0913ff75a63f53f96aeca56")),
    (8, ("drc", "--k", "1"), 26_717, ("823d4533651edc9903438f0abee80e5eda51db461d4339d447ba68d333752cdb",
                                      "25fe3e117db89cda9cce06c6da46417ced5e3a25611df48700b43b05981673e7",
                                      "7292b445192e6b558a95bb7c09b2ec83ebbff3af520f791b8db376d1f8ecfa76")),
    (8, ("drc", "--k", "2"), 21_062, ("793d672c94ff07c789980d11ae46e3883ae42efefd69ededcc43c3c28952b257",
                                      "03c5c75d4f7acb803cc857131a2083039b649e9341173225f1598581d5a60bbf",
                                      "ebc5ff820d3f4c937b15a2c2906e2ed4c76ca125580c34e39dfbb4e7821057d1")),
    (8, ("drc", "--k", "3"), 28_296, ("de2c33e750db90b82f45bdddeb8bb6d83f2a59ba5dff8c7697dd76b922929f99",
                                      "d820b5445edfeadeaec91ee90166436a1a6452fa99347a8c68027278f90b03f6",
                                      "64292f53e94d5e46ea37ec0dd4c8746a604715f21c8262a558fa872d616cf6d0")),
    (8, ("drc", "--k", "4"), 18_789, ("a23457efb742cc46889aaa8ca263ea1bf20532095b1f162a3aea0092a8793057",
                                      "a88f59556cbda9d4e0a43d70e234bf05a0bfd4be98c1dbf396bca06678fa1d3f",
                                      "67f5ce0d7c9d8c9143a99484ab87284d44a4033f5a4e67b7647469ad5fe7d27d")),
    (8, ("drc", "--k", "5"), 11_377, ("dd2e8ab7bd36045ee3312088c39745080845047ab6e3862409f3058c0f9ed4db",
                                      "21d787fafd08da84f92388d6c8481b917d378dad2fb00cbc85f70df1272ceb6a",
                                      "03cef69bcbc446b4fac1e842d4381498b8f025d751b52424c3257cc922d9c873")),
    (8, ("drc", "--k", "6"), 5_911, ("42acbee5c396fe2bb5b99a4591df0de51043b09f47f3a8cfa2d611b163425ff4",
                                     "00295b55d6d6cba011795ccfa2937bbfc237614b62d5be602f89e2678c2a11a7",
                                     "7060e6140ea4ae156271eb7a60ba189b69a7048e1f8b26c42b025c144f6efd6a")),
    (8, ("drc", "--k", "7"), 2_243, ("9e09be56cc157c8398bdb4dfcc19dfb51fdb16d6dedf811a45c1fa8a1544b433",
                                     "07e5dcfa211a24b66fc06f331f4a68dd85a561053a7c8c4405314f29b5d860c4",
                                     "731f1d96f5f85f57f475d35a4bf8043bda56d9872c074150578593f05a8b541c")),
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

    def test_json_shape(self, capsys):
        code, report, _ = run_json(capsys, "classify", "--n", "3", "--family", "codim1")
        payload = report["partition"]
        assert code == 0
        assert set(payload) == {"classes", "witnesses", "separators", "unresolved"}
        assert payload["unresolved"] == []
        assert all(isinstance(cls, list) for cls in payload["classes"])
        flat = [d for cls in payload["classes"] for d in cls]
        assert len(flat) == 4 and flat == sorted(set(flat))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_separator_order(self, capsys, n):
        # one separator per pair of classes, sorted by their (a, b) descriptors
        for argv in _classify_argvs(n):
            code, report, _ = run_json(capsys, *argv)
            separators = report["partition"]["separators"]
            assert code == 0
            assert separators == sorted(separators, key=lambda e: (e["a"], e["b"]))
            assert len(separators) == report["classCount"] * (report["classCount"] - 1) // 2

    @pytest.mark.parametrize("n, extra, length, digests", CLASSIFY_REPORTS,
                             ids=[f"{n} {' '.join(extra)}" for n, extra, _, _ in CLASSIFY_REPORTS])
    def test_json_report_bytes(self, monkeypatch, n, extra, length, digests):
        # a change to these bytes is a change to the report: record it
        code, report, out = built_report(monkeypatch, "classify", "--n", str(n), "--family", *extra)
        assert code == 0 and len(out.encode()) == length
        assert report_digests(report, out) == digests


# every verify --suite all report, n = 2..8: (n, json byte length, sha256 of
# the json, table and csv text)
VERIFY_REPORTS = [
    (2, 1_704, ("5f6dbeb72a8c22533b23b80ef0f393f3d2116400452edc8c3fc79d0532e17832",
                "695e190d50a9d0c837b304c49426d2e7ebd47bb39792800974c6fef9722694d2",
                "39d9a8bebac81dac2ab8e524d9543b477a7f576c118dbf3390136796e9c9e3f9")),
    (3, 3_578, ("88b6d06860d21e36f689a6d475567b5d21c200bf1fd1549f291f26245164a227",
                "95ad73598cc8edd87d820d9370a2f0716a72d32b2b3d1de4d2599d974cbf1b0b",
                "0d2ff302b1554ee87cc21cab9d1f31ccc71521f05937c5203efe2abcee1f5214")),
    (4, 3_672, ("12a1f8d638862fb802279e81434e2365786a3189dd6f588314acc398c5aab268",
                "2c67ab2996ed9d352affc39e2b81a7828ff4ebadc0282c6c28935923c3d87656",
                "113f0c3bc8b2ce2ba4e1446c4b02709784286fbae0c17fec3287bbc86e4a3d9f")),
    (5, 3_819, ("0472c10cbb33cd62879a4457f4daab7147ecac54258e20749248bb345fd7cda7",
                "ce42d9579b88b60bfe77349cc762acf310a551daa5d10562bf6a8eb912e71717",
                "2ffed407bf202dc3b113cae1b02993af5ffbb7839dca5143f8b42b7406111d38")),
    (6, 4_041, ("4c96cd6e128de6056c03b6c0b0ded4cb20aecf4ece60b800931a100f900ce36c",
                "d376d67ab88a1aaaf3011893bf087effa1c95aa9efe0a69b03bc902c8eea3a91",
                "b0498285e3d8a66a2c621165832c93828974e7930ad7a09ce62b5ea1cb85f1f7")),
    (7, 4_260, ("8e75dadef1732eaabbb1d1e2f758f4b785f982778b7c5f3676fee572cf9b1812",
                "1b32763dc07ac6b2f5a6979e132695cd678d2816849e5a3ecf8ad531be62dfb9",
                "06e0825ccf44cf336ab0e06422769fd819417b418ed0b5def46988d2c45724f6")),
    (8, 4_487, ("52d165a9888b30cfa67b33b09e5891bc2e2ddff71d0ccc5d22b13a4fce0664f9",
                "976ba154dd2fab3c8ddc342d718646f417459fed4bbc0323f87e204aed00d2b5",
                "52e92daebde69e4f432fda3456d3d2bf4299433a7b44234eedbd5612392e6a65")),
]


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

    @pytest.mark.parametrize("n, length, digests", VERIFY_REPORTS,
                             ids=[f"{n}-{digests[0]}-{length}" for n, length, digests in VERIFY_REPORTS])
    def test_all_suite_report_bytes(self, monkeypatch, n, length, digests):
        # a change to these bytes is a change to the report: record it
        code, report, out = built_report(monkeypatch, "verify", "--suite", "all", "--n", str(n))
        assert code == 0 and len(out.encode()) == length
        assert report_digests(report, out) == digests

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
        _, report, out = built_report(monkeypatch, *argv)
        expected = json.dumps(report, sort_keys=True, indent=2) + "\n"
        assert "".join(cli.render(report, "json")) == expected
        assert out == expected

    @pytest.fixture(scope="class")
    def codim2_n8(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            return built_report(monkeypatch, "classify", "--n", "8", "--family", "codim2")[1:]

    def test_multi_block_report_to_stdout(self, monkeypatch):
        code, report, out = built_report(monkeypatch, "classify", "--n", "6", "--family", "codim2")
        assert code == 0
        assert sum(1 for _ in cli.render(report, "json")) > 2 * cli.EMIT_BLOCK_CHUNKS
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
