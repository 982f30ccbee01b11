import json

import pytest

from krc.cli import (
    CORPUS_DIR,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY,
    corpus_report,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus_file(name: str) -> str:
    return str(CORPUS_DIR / f"{name}.sgp")


class TestAnalyze:
    def test_right_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", corpus_file("right_zero_2"))
        assert code == EXIT_OK
        assert "order: 2" in out
        assert "aperiodic: yes" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent.sgp")
        assert code == EXIT_USAGE

    def test_bad_usage(self, capsys):
        code, _, _ = run(capsys, "analyze")
        assert code == EXIT_USAGE

    def test_resource_budget(self, capsys):
        code, _, err = run(
            capsys, "analyze", corpus_file("sym3"), "--budget-elements", "2"
        )
        assert code == EXIT_RESOURCE
        assert "budget" in err


class TestQuotientCommands:
    def test_rlm_outputs_semigroup_and_sidecar(self, capsys):
        code, out, _ = run(capsys, "rlm", corpus_file("b2z2_1"), "--jclass", "1")
        assert code == EXIT_OK
        assert out.startswith("points: 2")
        assert '"b_classes": 2' in out

    def test_gm_roundtrips(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gm", corpus_file("z2_rz2"), "--jclass", "0")
        assert code == EXIT_OK
        header, rest = out.split("{", 1)
        from krc.fileformats import parse_semigroup

        quotient = parse_semigroup(header)
        assert len(quotient) == 2

    def test_rees_sidecar(self, capsys):
        code, out, _ = run(capsys, "rees", corpus_file("b2z2_1"), "--jclass", "1")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["group_order"] == 2
        assert len(payload["matrix"]) == 2

    def test_irregular_class_is_input_error(self, capsys):
        code, _, err = run(capsys, "rees", corpus_file("b2z2_1"), "--jclass", "0")
        # J0 is the identity class: regular, so pick a truly bad id instead
        code2, _, err2 = run(capsys, "rees", corpus_file("b2z2_1"), "--jclass", "9")
        assert code2 == EXIT_USAGE


class TestFlowCommands:
    def test_search_then_verify(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "flow", "search", corpus_file("small_2_z2"), "--max-states", "1"
        )
        assert code == EXIT_OK
        flow_path = tmp_path / "flow.txt"
        flow_path.write_text(out, encoding="ascii")
        code2, out2, _ = run(
            capsys, "flow", "verify", corpus_file("small_2_z2"), str(flow_path)
        )
        assert code2 == EXIT_OK
        assert out2.strip() == "ok"

    def test_verify_rejects_bad_flow(self, capsys, tmp_path):
        bad = (
            "states: 1\n"
            "trans: 1 i 1\ntrans: 1 s1 1\ntrans: 1 d1 1\ntrans: 1 e 1\n"
            "flow:\n"
            "W={1}; blocks=[{1}:0]\n"
        )
        p = tmp_path / "bad.txt"
        p.write_text(bad, encoding="ascii")
        code, out, _ = run(
            capsys, "flow", "verify", corpus_file("small_2_z2"), str(p)
        )
        assert code == EXIT_VERIFY
        assert "violation" in out

    def test_search_exhaustion_exit(self, capsys):
        code, out, _ = run(
            capsys,
            "flow", "search", corpus_file("small_2_z2"),
            "--max-states", "1", "--automata-budget", "0",
        )
        assert code == EXIT_RESOURCE
        assert "unknown" in out


class TestDivide:
    def test_search(self, capsys):
        code, out, _ = run(capsys, "divide", corpus_file("z2"), corpus_file("sym3"))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["lifts"]["t"] == "1 3 2"

    def test_with_lifts(self, capsys, tmp_path):
        lifts = tmp_path / "lifts.txt"
        lifts.write_text("t: 1 3 2\n", encoding="ascii")
        code, out, _ = run(
            capsys,
            "divide", corpus_file("z2"), corpus_file("sym3"),
            "--lifts", str(lifts),
        )
        assert code == EXIT_OK

    def test_search_stdout_is_pinned(self, capsys):
        code, out, _ = run(capsys, "divide", corpus_file("z2"), corpus_file("sym3"))
        assert code == EXIT_OK
        assert out == (
            '{\n  "lifts": {\n    "t": "1 3 2"\n  },\n  "morphism": [\n'
            '    [\n      "1 2 3",\n      "1 2"\n    ],\n'
            '    [\n      "1 3 2",\n      "2 1"\n    ]\n  ]\n}\n'
        )

    @pytest.mark.parametrize("budget,tried", [("3", "3"), ("9", "9"), ("20", "9")])
    def test_search_exhaustion_stdout_is_pinned(self, capsys, budget, tried):
        # the Klein four-group does not divide Sym_3; 3 x 3 lift tuples
        code, out, _ = run(
            capsys,
            "divide", corpus_file("klein"), corpus_file("sym3"),
            "--division-budget", budget,
        )
        assert code == EXIT_RESOURCE
        assert out == f"unknown: searched {tried} lift tuples (budget {budget})\n"

    def test_bad_lifts_fail_verification(self, capsys, tmp_path):
        lifts = tmp_path / "lifts.txt"
        lifts.write_text("t: 1 2 3\n", encoding="ascii")
        code, _, err = run(
            capsys,
            "divide", corpus_file("z2"), corpus_file("sym3"),
            "--lifts", str(lifts),
        )
        assert code == EXIT_VERIFY


class TestEstimateAndReplay:
    @pytest.mark.parametrize("name,expect", [
        ("right_zero_2", "[0, 0]"),
        ("b2z2_1", "[1, 1]"),
        ("small_2_z2", "[1, 1]"),
    ])
    def test_estimate_values(self, capsys, tmp_path, name, expect):
        code, out, _ = run(capsys, "estimate", corpus_file(name))
        assert code == EXIT_OK
        assert out.strip() == expect

    def test_trace_prints_certificate_json(self, capsys):
        code, out, _ = run(capsys, "estimate", corpus_file("b2z2_1"), "--trace")
        assert code == EXIT_OK
        interval_line, payload = out.split("\n", 1)
        assert interval_line == "[1, 1]"
        cert = json.loads(payload)
        assert cert["rule"] == "gm-max"

    def test_certificate_replay_cold(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, _, _ = run(
            capsys, "estimate", corpus_file("small_2_z2"), "--cert", str(cert)
        )
        assert code == EXIT_OK
        code2, out2, _ = run(capsys, "replay", str(cert))
        assert code2 == EXIT_OK
        assert "replay: ok" in out2

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        run(capsys, "estimate", corpus_file("b2z2_1"), "--cert", str(cert))
        payload = json.loads(cert.read_text(encoding="ascii"))
        payload["interval"] = [0, 0]
        cert.write_text(json.dumps(payload), encoding="ascii")
        code, _, err = run(capsys, "replay", str(cert))
        assert code == EXIT_VERIFY

    def test_child_proof_about_another_semigroup_fails(self, capsys, tmp_path):
        # a valid [1, 1] group-mapping proof for Z_2 grafted under b2z2_1's
        # self-group-mapping child: the interval agrees, the semigroup does not
        cert, other = tmp_path / "cert.json", tmp_path / "z2.json"
        run(capsys, "estimate", corpus_file("b2z2_1"), "--cert", str(cert))
        run(capsys, "estimate", corpus_file("z2"), "--cert", str(other))
        payload = json.loads(cert.read_text(encoding="ascii"))
        graft = json.loads(other.read_text(encoding="ascii"))["children"][0]
        assert payload["children"][0]["kind"] == graft["kind"] == "self-group-mapping"
        payload["children"][0]["sub"] = graft["sub"]
        cert.write_text(json.dumps(payload), encoding="ascii")
        code, _, err = run(capsys, "replay", str(cert))
        assert code == EXIT_VERIFY
        assert "replay: child certificate mismatch" in err

    def test_replay_recurses_on_abstract_gm_images(self, capsys, tmp_path):
        # replay must recurse on the GM images it recomputes, as estimate
        # does: their re-parsed transformation form orders the elements
        # differently, which changes the GM child classes of this order-61
        # semigroup's image
        src = tmp_path / "s61.sgp"
        src.write_text(
            "points: 4\ngens:\ng0: 1 3 1 -\ng1: 2 - 3 4\ng2: - 4 3 2\n",
            encoding="ascii",
        )
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, "estimate", str(src), "--cert", str(cert))
        assert code == EXIT_OK
        assert json.loads(cert.read_text(encoding="ascii"))["order"] == 61
        code2, out2, err2 = run(capsys, "replay", str(cert))
        assert code2 == EXIT_OK, err2
        assert out2.splitlines()[-1] == "replay: ok"


class TestInverseDemo:
    def test_demo_with_lift(self, capsys):
        code, out, _ = run(
            capsys,
            "inverse", "demo", "--n", "2", "--group", "Z2", "--rank", "1", "--lift",
        )
        assert code == EXIT_OK
        assert "census: units 8, rank-1 8, zero 1, total 17" in out
        assert "lift: order 32" in out

    def test_rank2_demo(self, capsys):
        code, out, _ = run(
            capsys,
            "inverse", "demo", "--n", "3", "--group", "trivial", "--rank", "2",
        )
        assert code == EXIT_OK
        assert "19 elements with zero" in out


class TestCorpusAndDeterminism:
    def test_report_is_reproducible(self):
        assert corpus_report() == corpus_report()

    def test_manifest_values_all_tagged(self):
        from krc.cli import load_corpus_manifest

        for entry in load_corpus_manifest():
            assert entry["name"] and entry["file"]
            for key, (value, tag) in entry["expected"].items():
                assert tag in {"PAPER", "TRIVIAL", "DERIVED"}, (entry["name"], key)

    def test_cli_corpus_run_byte_identical(self, capsys, tmp_path):
        out1 = tmp_path / "r1.txt"
        out2 = tmp_path / "r2.txt"
        code1, _, _ = run(capsys, "corpus", "run", "--out", str(out1))
        code2, _, _ = run(capsys, "corpus", "run", "--out", str(out2))
        assert code1 == code2 == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_all_entries_pass(self, capsys):
        code, out, _ = run(capsys, "corpus", "run")
        assert code == EXIT_OK
        assert "MISMATCH" not in out


class TestSpcCommand:
    def test_meet_join(self, capsys, tmp_path):
        grp = tmp_path / "z2.grp"
        grp.write_text("order: 2\n0 1\n1 0\n", encoding="ascii")
        code, out, _ = run(
            capsys,
            "spc", str(grp), "meet",
            "W={1,2}; blocks=[{1,2}:0,1]", "W={1,2}; blocks=[{1,2}:0,0]",
            "--size", "2",
        )
        assert code == EXIT_OK
        assert out.strip() == "W={1,2}; blocks=[{1}:0 | {2}:0]"
        code2, out2, _ = run(
            capsys,
            "spc", str(grp), "join",
            "W={1,2}; blocks=[{1,2}:0,1]", "W={1,2}; blocks=[{1,2}:0,0]",
            "--size", "2",
        )
        assert out2.strip() == "TOP"

    def test_enumerate(self, capsys, tmp_path):
        grp = tmp_path / "z2.grp"
        grp.write_text("order: 2\n0 1\n1 0\n", encoding="ascii")
        code, out, _ = run(
            capsys, "spc", str(grp), "enumerate", "--size", "2"
        )
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 6
