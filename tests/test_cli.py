import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import krc
from krc import complexity as cx
from krc.cli import (
    CORPUS_DIR,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VERIFY,
    build_parser,
    corpus_report,
    main,
)
from krc.complexity import estimate
from krc.fileformats import load_semigroup, parse_semigroup

from helpers import changed, leaf_paths, node_at


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def corpus_file(name: str) -> str:
    return str(CORPUS_DIR / f"{name}.sgp")


def fresh_process(cwd, *argv) -> tuple[int, bytes, bytes]:
    """`python -m krc.cli ARGV` in a new interpreter: exit code, stdout and
    stderr."""
    src = str(Path(krc.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "krc.cli", *argv],
        capture_output=True, cwd=cwd, env={**os.environ, "PYTHONPATH": path}, check=False,
    )
    return done.returncode, done.stdout, done.stderr


# each subcommand's required arguments, and its non-negative int options
COMMANDS = {
    ("analyze",): ([corpus_file("z2")], ["--budget-elements"]),
    ("rlm",): ([corpus_file("z2"), "--jclass", "0"], ["--budget-elements"]),
    ("gm",): ([corpus_file("z2"), "--jclass", "0"], ["--budget-elements"]),
    ("rees",): ([corpus_file("z2"), "--jclass", "0"], ["--budget-elements"]),
    ("spc",): (["z2.grp", "enumerate"], ["--size"]),
    ("flow", "verify"): ([corpus_file("z2"), "flow.txt"], ["--budget-elements"]),
    ("flow", "search"): (
        [corpus_file("z2")],
        ["--budget-elements", "--automata-budget", "--max-states", "--cap"],
    ),
    ("divide",): ([corpus_file("z2"), corpus_file("z2")], ["--budget-elements", "--division-budget"]),
    ("estimate",): (
        [corpus_file("z2")], ["--budget-elements", "--budget-states", "--automata-budget"]
    ),
    ("corpus", "run"): ([], ["--budget-states", "--automata-budget"]),
    ("replay",): (["cert.json"], ["--budget-states", "--automata-budget"]),
}
BUDGET_PAIRS = [(command, flag) for command, (_, flags) in COMMANDS.items() for flag in flags]
BUDGET_IDS = [" ".join(command) + " " + flag for command, flag in BUDGET_PAIRS]


def non_negative_options(parser, command=()):
    """(subcommand, flag) for every option of `parser` typed as a non-negative int."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from non_negative_options(sub, (*command, name))
        elif getattr(action.type, "__name__", None) == "non_negative_int":
            yield command, action.option_strings[0]


class TestBudgetFlags:
    def test_every_budget_flag_is_listed(self):
        assert sorted(non_negative_options(build_parser())) == sorted(BUDGET_PAIRS)

    @pytest.mark.parametrize("command,flag", BUDGET_PAIRS, ids=BUDGET_IDS)
    def test_negative_budget_is_a_usage_error(self, capsys, command, flag):
        code, out, err = run(capsys, *command, *COMMANDS[command][0], flag, "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert f"argument {flag}: invalid non-negative int value: '-1'" in err


def leaf_commands(parser, command=()):
    """The subcommands of `parser` that take no further subcommand, as
    space-joined words."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(command)
    for action in subs:
        for name, sub in action.choices.items():
            yield from leaf_commands(sub, (*command, name))


class TestSubcommandLists:
    def test_docstring_readme_and_parser_agree(self):
        import krc.cli

        listed = re.search(r"Subcommands: ([^.]*)\.", krc.cli.__doc__).group(1)
        docstring = {" ".join(name.split()) for name in listed.split(",")}
        readme = (Path(krc.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        in_readme = {m.group(1) for m in re.finditer(r"^krc((?: [a-z]+)+)", block, re.M)}
        in_readme = {name.strip() for name in in_readme}
        assert docstring == in_readme == set(leaf_commands(build_parser()))
        assert len(docstring) == 12


class TestParserReuse:
    def test_second_call_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        assert run(capsys, "analyze", corpus_file("z2"))[0] == EXIT_OK
        assert built[0] == "krc"
        built.clear()
        assert run(capsys, "analyze", corpus_file("z2"))[0] == EXIT_OK
        assert built == []

    def test_defaults_do_not_leak_between_calls(self, capsys):
        argv = ("flow", "search", corpus_file("b2z2_1"), "--max-states", "0")
        assert run(capsys, *argv, "--automata-budget", "3") == (
            EXIT_RESOURCE, "unknown: exhausted after 0 automata (budget 3)\n", ""
        )
        assert run(capsys, *argv) == (
            EXIT_RESOURCE, "unknown: exhausted after 0 automata (budget 2000)\n", ""
        )

    def test_usage_error_and_help_change_no_later_output(self, capsys, tmp_path):
        argv = ("estimate", corpus_file("b2z2_1"), "--trace")
        assert run(capsys, *argv, "--automata-budget", "-1")[0] == EXIT_USAGE
        code, out, _ = run(capsys, "estimate", "--help")
        assert code == EXIT_OK
        assert out.startswith("usage: krc estimate")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert fresh_process(tmp_path, *argv)[:2] == (code, out.encode("ascii"))


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

    @pytest.mark.parametrize("argv", [
        ("analyze", corpus_file("sym3"), "--automata-budget", "5"),
        ("flow", "search", corpus_file("small_2_z2"), "--budget-states", "2"),
        ("replay", "cert.json", "--division-budget", "5"),
    ])
    def test_unread_budget_flag_is_a_usage_error(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""


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

    @pytest.mark.parametrize("file,jclass,text,sidecar", [
        ("b2z2_1", 1,
         "points: 10\ngens:\ne: 1 2 3 4 5 6 7 8 9 10\n"
         "a: 5 5 4 10 10 9 8 10 10 10\nb: 6 10 10 2 3 10 10 6 7 10\n",
         {"classes": [["- - - -", 9], ["- - 1 2", 5], ["- - 2 1", 6], ["- - 3 4", 7],
                      ["- - 4 3", 8], ["1 2 - -", 1], ["1 2 3 4", 0], ["2 1 - -", 2],
                      ["3 4 - -", 3], ["4 3 - -", 4]],
          "generalized_only": False, "injective_on_all_subgroups": True,
          "jclass": 1, "order": 10}),
        ("z2_rz2", 0, "points: 2\ngens:\nx: 2 1\ny: 2 1\n",
         {"classes": [["1 2 3 3", 0], ["1 2 4 4", 0], ["2 1 3 3", 2], ["2 1 4 4", 2]],
          "generalized_only": False, "injective_on_all_subgroups": True,
          "jclass": 0, "order": 2}),
        # B_2: its GM image at J0 has no identity, so the text adjoins point
        # 6; the one at J1 is trivial, a single point
        ("brandt", 0, "points: 6\ngens:\na: 2 5 4 5 5 2\nb: 5 1 5 3 5 3\n",
         {"classes": [["- -", 4], ["- 1", 2], ["- 2", 3], ["1 -", 0], ["2 -", 1]],
          "generalized_only": True, "injective_on_all_subgroups": True,
          "jclass": 0, "order": 5}),
        ("brandt", 1, "points: 1\ngens:\na: 1\nb: 1\n",
         {"classes": [["- -", 0], ["- 1", 0], ["- 2", 0], ["1 -", 0], ["2 -", 0]],
          "generalized_only": True, "injective_on_all_subgroups": True,
          "jclass": 1, "order": 1}),
    ], ids=["b2z2_1-J1", "z2_rz2-J0", "brandt-J0", "brandt-J1"])
    def test_gm_stdout_is_pinned(self, capsys, tmp_path, file, jclass, text, sidecar):
        path = tmp_path / "brandt.sgp"
        path.write_text("points: 2\ngens:\na: 2 -\nb: - 1\n", encoding="ascii")
        source = str(path) if file == "brandt" else corpus_file(file)
        code, out, _ = run(capsys, "gm", source, "--jclass", str(jclass))
        assert code == EXIT_OK
        assert out == text + json.dumps(sidecar, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("file,jclass,text,sidecar", [
        ("b2z2_1", 1, "points: 2\ngens:\ne: 1 2\na: 2 -\nb: - 1\n",
         {"b_classes": 2, "jclass": 1, "order": 6,
          "morphism": [["- - - -", "- -"], ["- - 1 2", "- 1"], ["- - 2 1", "- 1"],
                       ["- - 3 4", "- 2"], ["- - 4 3", "- 2"], ["1 2 - -", "1 -"],
                       ["1 2 3 4", "1 2"], ["2 1 - -", "1 -"], ["3 4 - -", "2 -"],
                       ["4 3 - -", "2 -"]]}),
        ("z2_rz2", 0, "points: 2\ngens:\nx: 1 1\ny: 2 2\n",
         {"b_classes": 2, "jclass": 0, "order": 2,
          "morphism": [["1 2 3 3", "1 1"], ["1 2 4 4", "2 2"], ["2 1 3 3", "1 1"],
                       ["2 1 4 4", "2 2"]]}),
    ], ids=["b2z2_1-J1", "z2_rz2-J0"])
    def test_rlm_stdout_is_pinned(self, capsys, file, jclass, text, sidecar):
        code, out, _ = run(capsys, "rlm", corpus_file(file), "--jclass", str(jclass))
        assert code == EXIT_OK
        assert out == text + json.dumps(sidecar, sort_keys=True, indent=2) + "\n"

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


SMALL_3_TRIV_R2_FLOW = (
    "states: 1\ntrans: 1 i 1\ntrans: 1 s1 1\ntrans: 1 s2 1\ntrans: 1 e 1\nflow:\n"
    "W={1,2,3}; blocks=[{1}:0 | {2}:0 | {3}:0]\n"
)


class TestFlowCommands:
    def test_search_max_states_defaults_to_the_estimate_option(self):
        args = build_parser().parse_args(["flow", "search", corpus_file("z2")])
        assert args.max_states == cx.EstimateOptions.max_flow_states

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

    def t3_image(self, tmp_path):
        """T_3's S/GM[J1] (order 25, B = {1, 2, 3}), as its certificate holds it."""
        node = node_at(T3_CERT, ("children", 0, "sub"))
        assert (node["label"], node["order"]) == ("S/GM[J1]", 25)
        path = tmp_path / "t3_gm1.sgp"
        path.write_text(node["semigroup"], encoding="ascii")
        return str(path)

    def test_verify_rejects_a_flow_that_covers_nothing(self, capsys, tmp_path):
        # F1-F5 hold on the empty labeling; the cover condition does not
        flow = tmp_path / "empty.txt"
        flow.write_text(
            "states: 1\ntrans: 1 g0 1\ntrans: 1 g1 1\ntrans: 1 g2 1\nflow:\nW={}; blocks=[]\n",
            encoding="ascii",
        )
        code, out, _ = run(capsys, "flow", "verify", self.t3_image(tmp_path), str(flow))
        assert code == EXIT_VERIFY
        assert out == "violation: cover: no state's support contains 1, 2, 3\n"

    def test_search_prints_a_covering_flow(self, capsys):
        # the flow small_3_triv_r2's certificate holds as its upper
        code, out, _ = run(
            capsys, "flow", "search", corpus_file("small_3_triv_r2"), "--max-states", "1"
        )
        assert code == EXIT_OK
        assert out == SMALL_3_TRIV_R2_FLOW

    def test_search_under_cap_one(self, capsys):
        # cap 1 checks each T_A by estimating it; a one-state automaton's
        # T_A is aperiodic, so the flow is the one found at cap 0
        code, out, _ = run(
            capsys,
            "flow", "search", corpus_file("small_3_triv_r2"), "--max-states", "1", "--cap", "1",
        )
        assert code == EXIT_OK
        assert out == SMALL_3_TRIV_R2_FLOW

    def test_search_exhausts_on_t3_image_at_one_state(self, capsys, tmp_path):
        # each one-state covering flow there has an undefined g2 that moves
        # a point of W, so none keeps the sink condition
        code, out, _ = run(
            capsys, "flow", "search", self.t3_image(tmp_path), "--max-states", "1"
        )
        assert code == EXIT_RESOURCE
        assert out == "unknown: exhausted after 8 automata (budget 2000)\n"

    def test_verify_rejects_a_flow_that_breaks_the_sink_condition(self, capsys, tmp_path):
        # the flow this search printed before the sink condition was part of
        # the definition; its construction fails ("relation not functional")
        flow = tmp_path / "sink.txt"
        flow.write_text(
            "states: 1\ntrans: 1 g0 1\ntrans: 1 g1 1\ntrans: 1 g2 -\nflow:\n"
            "W={1,2,3}; blocks=[{1}:0 | {2}:0 | {3}:0]\n",
            encoding="ascii",
        )
        code, out, _ = run(capsys, "flow", "verify", self.t3_image(tmp_path), str(flow))
        assert code == EXIT_VERIFY
        assert out == "violation: sink at state 1 letter g2: 2.g2 = 2 but the transition is undefined\n"

    def test_search_estimates_each_automaton_under_the_subcommands_budgets(
        self, capsys, tmp_path, monkeypatch
    ):
        seen = []
        real = cx.estimate

        def spy(sgp, options=None, *rest, **kw):
            seen.append((options, kw.get("_label")))
            return real(sgp, options, *rest, **kw)

        monkeypatch.setattr(cx, "estimate", spy)
        image = self.t3_image(tmp_path)
        argv = ["flow", "search", image, "--max-states", "2", "--automata-budget", "7"]
        assert run(capsys, *argv, "--cap", "0")[0] == EXIT_RESOURCE
        assert seen == []
        assert run(capsys, *argv, "--cap", "1")[0] == EXIT_RESOURCE
        options = cx.EstimateOptions(max_flow_states=2, automata_budget=7)
        assert seen == [(options, "T_A")] * 7

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
        # the given lift and the closure, decoded back to values
        assert out == (
            '{\n  "lifts": {\n    "t": "1 3 2"\n  },\n  "morphism": [\n'
            '    [\n      "1 2 3",\n      "1 2"\n    ],\n'
            '    [\n      "1 3 2",\n      "2 1"\n    ]\n  ]\n}\n'
        )

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
        code, out, err = run(
            capsys,
            "divide", corpus_file("z2"), corpus_file("sym3"),
            "--lifts", str(lifts),
        )
        assert code == EXIT_VERIFY
        assert out == ""
        assert err == (
            "verification failure: division lifts rejected: "
            "relation not functional at PartialTransformation(images=(1, 2, 3))\n"
        )

    @pytest.mark.parametrize("text,message", [
        ("t 1 3 2\n", "bad lift line: 't 1 3 2'"),
        ("t: 1 x 2\n", "bad image in lift 't': 'x'"),
        (
            "zz: 1 2 3\nt: 1 3 2\n",
            "lift for 'zz', which is not a generator of the source (generators: t)",
        ),
        ("t: 1 2 3\nt: 1 3 2\n", "generator 't' is lifted twice"),
    ])
    def test_malformed_lifts_are_input_errors(self, capsys, tmp_path, text, message):
        lifts = tmp_path / "lifts.txt"
        lifts.write_text(text, encoding="ascii")
        code, out, err = run(
            capsys,
            "divide", corpus_file("z2"), corpus_file("sym3"),
            "--lifts", str(lifts),
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err


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

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cx, "estimate", exhausted)
        code, out, err = run(capsys, "estimate", corpus_file("z2"))
        assert (code, out, err) == (EXIT_RESOURCE, "", "resource error: out of memory\n")

    def test_trace_prints_certificate_json(self, capsys):
        code, out, _ = run(capsys, "estimate", corpus_file("b2z2_1"), "--trace")
        assert code == EXIT_OK
        interval_line, payload = out.split("\n", 1)
        assert interval_line == "[1, 1]"
        cert = json.loads(payload)
        assert cert["rule"] == "gm-max"

    def test_trace_and_cert_hold_the_same_bytes(self, capsys, tmp_path, monkeypatch):
        calls = []
        serialize = cx.certificate_json
        monkeypatch.setattr(cx, "certificate_json", lambda c: calls.append(c) or serialize(c))
        cert = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "estimate", corpus_file("b2z2_1"), "--trace", "--cert", str(cert)
        )
        assert code == EXIT_OK
        interval_line, payload = out.split("\n", 1)
        assert interval_line == "[1, 1]"
        assert payload.encode("ascii") == cert.read_bytes()
        assert len(calls) == 1

    def test_one_shot_process_matches_in_process_main(self, capsys, tmp_path):
        file = corpus_file("small_3_z2_r1")
        code, out, _ = run(capsys, "estimate", file, "--cert", str(tmp_path / "main.json"))
        assert code == EXIT_OK
        one_shot = fresh_process(tmp_path, "estimate", file, "--cert", "one-shot.json")
        assert one_shot[:2] == (code, out.encode("ascii"))
        assert (tmp_path / "one-shot.json").read_bytes() == (tmp_path / "main.json").read_bytes()

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
        assert "replay: certificate differs from the recomputed one at children.0.sub." in err

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


# the symmetric inverse monoid on three points; its certificate holds a flow
I3_TEXT = "points: 3\ngens:\ng0: 2 3 1\ng1: 2 1 3\ng2: - 2 3\n"
TAMPER_CERTS = {
    "b2z2_1": estimate(load_semigroup(CORPUS_DIR / "b2z2_1.sgp")).certificate,
    "I3": estimate(parse_semigroup(I3_TEXT)).certificate,
}
I3_FLOW = ("children", 1, "sub", "children", 1, "sub", "upper")
# the full transformation monoid on three points: S/GM[J2] is the carrier
# of S/GM[J1]/GM[J2], computed once and served to the later node as a copy
T3_TEXT = "points: 3\ngens:\ng0: 2 3 1\ng1: 2 1 3\ng2: 1 1 3\n"
T3_CERT = estimate(parse_semigroup(T3_TEXT)).certificate
T3_COMPUTED = ("children", 0, "sub", "children", 1, "sub")
T3_SERVED = ("children", 1, "sub")


def path_id(value):
    return ".".join(map(str, value)) if isinstance(value, tuple) else value


def tampered(name, path, value):
    cert = json.loads(json.dumps(TAMPER_CERTS[name]))
    node_at(cert, path[:-1])[path[-1]] = value
    return cert


def equal_twins(cert):
    """(path, value) for every int leaf with the equal float, and for every
    0/1 leaf with the equal bool: equal in Python, distinct in JSON."""
    for path in leaf_paths(cert):
        leaf = node_at(cert, path)
        if type(leaf) is int:
            yield path, float(leaf)
            if leaf in (0, 1):
                yield path, bool(leaf)


def replay(capsys, tmp_path, cert):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert), encoding="ascii")
    return run(capsys, "replay", str(path))


class TestReplayRejects:
    def test_untampered_certificates_replay(self, capsys, tmp_path):
        assert node_at(TAMPER_CERTS["I3"], I3_FLOW)["kind"] == "flow"
        for cert in TAMPER_CERTS.values():
            code, out, err = replay(capsys, tmp_path, cert)
            assert code == EXIT_OK, err
            assert out.splitlines()[-1] == "replay: ok"

    @pytest.mark.parametrize("name,path", [
        (name, path) for name, cert in TAMPER_CERTS.items() for path in leaf_paths(cert)
    ], ids=path_id)
    def test_every_changed_leaf(self, capsys, tmp_path, name, path):
        leaf = node_at(TAMPER_CERTS[name], path)
        code, _, err = replay(capsys, tmp_path, tampered(name, path, changed(leaf)))
        assert code == EXIT_VERIFY, err
        assert "replay: certificate differs from the recomputed one at " in err

    @pytest.mark.parametrize(
        "path,value", list(equal_twins(TAMPER_CERTS["b2z2_1"])),
        ids=lambda v: path_id(v) if isinstance(v, tuple) else json.dumps(v),
    )
    def test_equal_leaf_of_another_json_type(self, capsys, tmp_path, path, value):
        code, _, err = replay(capsys, tmp_path, tampered("b2z2_1", path, value))
        assert code == EXIT_VERIFY
        assert err == (
            "verification failure: replay: certificate differs from the recomputed one"
            f" at {path_id(path)}\n"
        )

    @pytest.mark.parametrize("field,value", [
        ("cap", 5), ("b_bar", 8), ("b_bar", -1),
    ])
    def test_flow_fields_are_recomputed(self, capsys, tmp_path, field, value):
        assert node_at(TAMPER_CERTS["I3"], I3_FLOW)["cap"] == 0
        code, _, err = replay(capsys, tmp_path, tampered("I3", I3_FLOW + (field,), value))
        assert code == EXIT_VERIFY
        assert err == (
            "verification failure: replay: certificate differs from the recomputed one"
            f" at {path_id(I3_FLOW + (field,))}\n"
        )

    @pytest.mark.parametrize("path", [
        T3_SERVED + path for path in leaf_paths(node_at(T3_CERT, T3_SERVED))
    ], ids=path_id)
    def test_changed_leaf_in_a_memo_served_copy(self, capsys, tmp_path, path):
        computed, served = node_at(T3_CERT, T3_COMPUTED), node_at(T3_CERT, T3_SERVED)
        assert (computed["label"], served["label"]) == ("S/GM[J1]/GM[J2]", "S/GM[J2]")
        assert computed["semigroup"] == served["semigroup"]
        cert = json.loads(json.dumps(T3_CERT))
        node_at(cert, path[:-1])[path[-1]] = changed(node_at(cert, path))
        code, _, err = replay(capsys, tmp_path, cert)
        assert code == EXIT_VERIFY
        assert err == (
            "verification failure: replay: certificate differs from the recomputed one"
            f" at {path_id(path)}\n"
        )

    def test_unknown_self_group_mapping_kind(self, capsys, tmp_path):
        cert = tampered("b2z2_1", ("children", 0, "kind"), "other-proof")
        code, _, err = replay(capsys, tmp_path, cert)
        assert code == EXIT_VERIFY
        assert err.endswith("at children.0.kind\n")

    def test_flow_that_does_not_verify(self, capsys, tmp_path):
        bad = "states: 1\ntrans: 1 g0 1\ntrans: 1 g1 1\ntrans: 1 g2 1\nflow:\nW={1}; blocks=[{1}:0]\n"
        code, _, err = replay(capsys, tmp_path, tampered("I3", I3_FLOW + ("flow",), bad))
        assert code == EXIT_VERIFY
        assert "replay: stored flow does not verify" in err


class TestReplayMalformed:
    def check(self, capsys, tmp_path, cert):
        code, _, err = replay(capsys, tmp_path, cert)
        assert code in (EXIT_USAGE, EXIT_VERIFY)
        assert err.startswith(("error: ", "verification failure: ")), err
        return code, err

    def test_missing_root_semigroup(self, capsys, tmp_path):
        cert = json.loads(json.dumps(TAMPER_CERTS["b2z2_1"]))
        del cert["semigroup"]
        code, err = self.check(capsys, tmp_path, cert)
        assert code == EXIT_USAGE
        assert "no root semigroup text" in err

    def test_empty_gm_max_on_the_trivial_semigroup(self, capsys, tmp_path):
        cert = {
            "children": [], "interval": [0, 0], "label": "S", "order": 1,
            "rule": "gm-max", "semigroup": "points: 1\ngens:\na: 1\n",
        }
        code, err = self.check(capsys, tmp_path, cert)
        assert code == EXIT_VERIFY
        assert err.endswith("at children\n")

    @pytest.mark.parametrize("value", [None, [], {}], ids=["null", "list", "object"])
    @pytest.mark.parametrize("name,path", [
        ("b2z2_1", path) for path in leaf_paths(TAMPER_CERTS["b2z2_1"])
    ] + [
        ("I3", I3_FLOW + (key,)) for key in node_at(TAMPER_CERTS["I3"], I3_FLOW)
    ], ids=path_id)
    def test_leaf_replaced(self, capsys, tmp_path, name, path, value):
        self.check(capsys, tmp_path, tampered(name, path, value))

    @pytest.mark.parametrize("line,bad", [
        (0, "states: x"), (1, "trans: 1 g0 x"), (5, "W={x}; blocks=[{1}:0]"),
    ])
    def test_flow_text_with_a_bad_number(self, capsys, tmp_path, line, bad):
        flow = node_at(TAMPER_CERTS["I3"], I3_FLOW)["flow"].splitlines()
        flow[line] = bad
        cert = tampered("I3", I3_FLOW + ("flow",), "\n".join(flow) + "\n")
        code, err = self.check(capsys, tmp_path, cert)
        assert code == EXIT_USAGE
        assert "bad " in err

    @pytest.mark.parametrize("text", [
        "", "[1, 2]", "{", "\"S\"", "[" * 10**5 + "]" * 10**5,
    ], ids=["empty", "list", "truncated", "string", "deep"])
    def test_not_a_certificate(self, capsys, tmp_path, text):
        path = tmp_path / "cert.json"
        path.write_text(text, encoding="ascii")
        code, _, err = run(capsys, "replay", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error: ")


class TestInverseDemo:
    def test_demo_with_lift(self, capsys):
        code, out, _ = run(
            capsys,
            "inverse", "demo", "--n", "2", "--group", "Z2", "--rank", "1", "--lift",
        )
        assert code == EXIT_OK
        assert "census: units 8, rank-1 8, zero 1, total 17" in out
        assert "lift: order 32" in out


    def test_only_the_inverse_commands_load_the_module(self):
        # `krc` re-exports the inverse-monoid names lazily (PEP 562), and
        # the CLI imports `inverse` inside its one handler
        src = str(Path(krc.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, krc, krc.cli\n"
            "print('krc.inverse' in sys.modules)\n"
            "print(krc.lift_TS.__module__, 'krc.inverse' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert done.stdout == "False\nkrc.inverse True\n"
        assert set(krc.__all__) >= {"inverse", "lift_TS", "small_monoid", "PartialMonomialMatrix"}
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            krc.no_such_name

    def test_lift_needs_rank_one(self, capsys, tmp_path):
        # refused before any work: the group file is not read
        code, out, err = run(
            capsys, "inverse", "demo", "--n", "3", "--group", str(tmp_path / "none.grp"),
            "--rank", "2", "--lift",
        )
        assert (code, out, err) == (EXIT_USAGE, "", "error: --lift needs --rank 1\n")

    def test_rank2_demo(self, capsys):
        code, out, _ = run(
            capsys,
            "inverse", "demo", "--n", "3", "--group", "trivial", "--rank", "2",
        )
        assert code == EXIT_OK
        assert "19 elements with zero" in out

    # sha256 of the whole stdout; any change in the chosen group generators
    # (and so in the monomial generators of M_n(G)) moves these
    @pytest.mark.parametrize("n, group, extra, digest", [
        ("2", "Z2", ["--lift"], "b091274dec02bffdd2c97328fdb591044102dde7b73651d938637bc4b3fc469f"),
        ("2", "klein", [], "8b34d908f33e1c55d20be1de99fc708fca6d08e40b505dc58198cd693f118cdd"),
        ("2", "s3", [], "bc0a417c3ff0e98764191abc95a763cf75fddcaaed7b1babdf7291225eaf1a8a"),
        ("4", "Z2", [], "417a467aee92b2036ead283e5d6824f84200bd3335a3b249346283cc154bcb75"),
    ], ids=["Z2-lift", "klein", "s3", "n4-Z2"])
    def test_demo_stdout_is_pinned(self, capsys, tmp_path, n, group, extra, digest):
        import hashlib

        from krc.core import FiniteGroup
        from krc.fileformats import dump_group

        files = {
            "klein": "order: 4\n" + "".join(
                " ".join(str(a ^ b) for b in range(4)) + "\n" for a in range(4)
            ),
            "s3": dump_group(FiniteGroup.symmetric(3)),
        }
        if group in files:
            path = tmp_path / f"{group}.grp"
            path.write_text(files[group])
            group = str(path)
        code, out, _ = run(
            capsys, "inverse", "demo", "--n", n, "--group", group, "--rank", "1", *extra,
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def edited(mapping: dict, drop=(), **changes) -> dict:
    """A copy of `mapping` with `changes` and without the keys `drop`."""
    return {k: v for k, v in {**mapping, **changes}.items() if k not in drop}


Z2_EXPECTED = {
    "order": [2, "TRIVIAL"], "aperiodic": [False, "DERIVED"], "group_mapping": [True, "DERIVED"],
}
Z2_ENTRY = {"name": "z2", "file": "z2.sgp", "expected": Z2_EXPECTED}


# (argv, the input file made non-ASCII); argv names the input files
# written by `ascii_inputs` by their keys
NON_ASCII_CASES = [
    (["analyze", "SGP"], "SGP"),
    (["rlm", "SGP", "--jclass", "0"], "SGP"),
    (["gm", "SGP", "--jclass", "0"], "SGP"),
    (["rees", "SGP", "--jclass", "0"], "SGP"),
    (["spc", "GRP", "enumerate", "--size", "1"], "GRP"),
    (["flow", "verify", "SGP", "FLOW"], "SGP"),
    (["flow", "verify", "SGP", "FLOW"], "FLOW"),
    (["flow", "search", "SGP"], "SGP"),
    (["divide", "SGP", "SGP", "--lifts", "LIFTS"], "SGP"),
    (["divide", "SGP", "SGP", "--lifts", "LIFTS"], "LIFTS"),
    (["estimate", "SGP"], "SGP"),
    (["inverse", "demo", "--n", "2", "--group", "GRP", "--rank", "1"], "GRP"),
    (["corpus", "run", "--manifest", "MANIFEST"], "MANIFEST"),
    (["corpus", "run", "--manifest", "MANIFEST"], "SGP"),
    (["replay", "CERT"], "CERT"),
]


@pytest.fixture
def ascii_inputs(tmp_path, capsys):
    """Z_2's semigroup, group, flow, lift, one-entry manifest and
    certificate files, by key."""
    files = {
        "SGP": "points: 2\ngens:\nt: 2 1\n",
        "GRP": "order: 2\n0 1\n1 0\n",
        "FLOW": "states: 1\ntrans: 1 t 1\nflow:\nW={1}; blocks=[{1}:0]\n",
        "LIFTS": "t: 2 1\n",
        "MANIFEST": json.dumps([edited(Z2_ENTRY, file="SGP")]),
    }
    paths = {key: tmp_path / key for key in [*files, "CERT"]}
    for key, text in files.items():
        paths[key].write_text(text, encoding="ascii")
    assert run(capsys, "estimate", str(paths["SGP"]), "--cert", str(paths["CERT"]))[0] == EXIT_OK
    return paths


class TestNonAsciiInput:
    """A byte outside ASCII in any input file, in a comment too, is an
    input error (exit 2) with an `error:` line."""

    @pytest.mark.parametrize(
        "argv,key", NON_ASCII_CASES, ids=[" ".join(argv) + " @" + key for argv, key in NON_ASCII_CASES]
    )
    def test_every_input_file(self, capsys, ascii_inputs, argv, key):
        argv = [str(ascii_inputs.get(arg, arg)) for arg in argv]
        assert run(capsys, *argv)[0] == EXIT_OK
        path = ascii_inputs[key]
        # a UTF-8 byte order mark on JSON, an accented comment elsewhere
        prefix = b"\xef\xbb\xbf" if key in ("MANIFEST", "CERT") else b"# caf\xc3\xa9\n"
        path.write_bytes(prefix + path.read_bytes())
        offset = next(i for i, byte in enumerate(prefix) if byte > 127)
        assert run(capsys, *argv) == (
            EXIT_USAGE, "", f"error: {path}: byte {prefix[offset]:#04x} at offset {offset} is not ASCII\n"
        )

    def test_no_traceback_in_a_fresh_process(self, tmp_path):
        (tmp_path / "z2.sgp").write_bytes(b"# caf\xc3\xa9\npoints: 2\ngens:\nt: 2 1\n")
        code, out, err = fresh_process(tmp_path, "analyze", "z2.sgp")
        assert (code, out) == (EXIT_USAGE, b"")
        assert err == b"error: z2.sgp: byte 0xc3 at offset 5 is not ASCII\n"
        assert b"Traceback" not in err


class TestMalformedManifest:
    @pytest.mark.parametrize("text,message", [
        ("[{", "manifest is not JSON: "),
        ("[" * 10**5 + "]" * 10**5, "manifest is not JSON: "),
        ('{"name": "z2"}', "manifest is not a list of entries"),
        ('"z2"', "manifest is not a list of entries"),
    ], ids=["truncated", "deep", "object", "string"])
    def test_not_a_list(self, capsys, tmp_path, text, message):
        path = tmp_path / "manifest.json"
        path.write_text(text, encoding="ascii")
        code, out, err = run(capsys, "corpus", "run", "--manifest", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("entry", [
        "z2.sgp",
        edited(Z2_ENTRY, drop=("name",)),
        edited(Z2_ENTRY, drop=("file",)),
        edited(Z2_ENTRY, drop=("expected",)),
        edited(Z2_ENTRY, name=2),
        edited(Z2_ENTRY, file=["z2.sgp"]),
        edited(Z2_ENTRY, expected=[["order", 2]]),
        edited(Z2_ENTRY, expected=edited(Z2_EXPECTED, drop=("order",))),
        edited(Z2_ENTRY, expected=edited(Z2_EXPECTED, drop=("group_mapping",))),
        edited(Z2_ENTRY, expected=edited(Z2_EXPECTED, order=2)),
        edited(Z2_ENTRY, expected=edited(Z2_EXPECTED, order=[2])),
        edited(Z2_ENTRY, expected=edited(Z2_EXPECTED, order=[2, "TRIVIAL", "x"])),
        edited(Z2_ENTRY, expected=edited(Z2_EXPECTED, interval=[[1, 1], None])),
    ], ids=[
        "string", "no-name", "no-file", "no-expected", "int-name", "list-file",
        "expected-list", "no-order", "no-group-mapping", "bare-value", "no-tag",
        "triple", "null-tag",
    ])
    def test_bad_entry(self, capsys, tmp_path, entry):
        (tmp_path / "z2.sgp").write_text("points: 2\ngens:\nt: 2 1\n", encoding="ascii")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([Z2_ENTRY, entry]), encoding="ascii")
        code, out, err = run(capsys, "corpus", "run", "--manifest", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: manifest entry 1 needs a name, a file and an expected object of "
            "[value, tag] pairs for order, aperiodic and group_mapping\n"
        )

    def test_good_entries_run(self, capsys, tmp_path):
        (tmp_path / "z2.sgp").write_text("points: 2\ngens:\nt: 2 1\n", encoding="ascii")
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([Z2_ENTRY, Z2_ENTRY]), encoding="ascii")
        code, out, _ = run(capsys, "corpus", "run", "--manifest", str(path))
        assert code == EXIT_OK
        assert out.endswith("  RESULT: pass\nentries: 2\n")


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
