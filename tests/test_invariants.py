"""Cross-module invariants run over the whole corpus, plus the boundary
cases that motivated the documented conventions."""

import ast
import itertools
import re
from pathlib import Path

import pytest

from krc.cli import CORPUS_DIR, load_corpus_manifest
from krc.core import FiniteSemigroup, PartialTransformation, is_aperiodic
from krc.fileformats import (
    dump_automaton,
    dump_flow,
    dump_group,
    dump_semigroup,
    load_semigroup,
    parse_flow,
    parse_group,
    parse_semigroup,
)
from krc.flows import (
    FlowSearchExhausted,
    FlowViolation,
    flow_search,
    presentation_construct,
    trivial_flow,
    verify_flow,
)
from krc.products import ExhaustionReport
from krc.semilocal import (
    JClassRef,
    classify,
    gm_quotient,
    group_mapping_presentation,
    rlm_quotient,
)
from krc.spc import CrossSectionFailure

from helpers import parse_automaton

T = PartialTransformation


@pytest.mark.parametrize("verdict", [
    FlowViolation("F1", 1, "x", "1.x = 2 escapes the target support"),
    FlowSearchExhausted(2, 2000, 2000),
    ExhaustionReport(408, 2_000_000, searched_all=True),
    CrossSectionFailure(1, 2),
], ids=lambda verdict: type(verdict).__name__)
def test_failure_values_are_false(verdict):
    # a search or check returns these in place of a result, so a caller
    # may test the result by truth (`if verify_flow(flow):`); a dataclass
    # with fields is true unless it says otherwise
    assert not verdict


def corpus_semigroups():
    for entry in load_corpus_manifest():
        yield entry["name"], load_semigroup(CORPUS_DIR / entry["file"])


def test_serializer_roundtrip_on_whole_corpus():
    for name, sgp in corpus_semigroups():
        text = dump_semigroup(sgp)
        again = parse_semigroup(text)
        assert dump_semigroup(again) == text, name
        assert again.elements == sgp.elements, name


def test_rlm_image_aperiodic_at_every_regular_class():
    # Jλ_J is an aperiodic class of the quotient, for every regular J
    for name, sgp in corpus_semigroups():
        gs = sgp.green()
        for j in range(len(gs.j_classes)):
            jref = JClassRef(sgp, j)
            if not jref.is_regular:
                continue
            rq = rlm_quotient(sgp, jref)
            rgs = rq.rlm.green()
            for c in {rq.code[i] for i in jref.members}:
                h = rgs.h_classes[rgs.h_of[c]]
                if rq.rlm.mul_index(c, c) == c:
                    assert len(h) == 1, (name, j)


def test_gm_projection_can_collapse_foreign_subgroups():
    # Z_2 x U_1: at the unit class the kernel copy of Z_2 collapses, so
    # blanket injectivity fails while in-class injectivity holds; this is
    # the boundary case behind keeping the global claim as a flag only.
    vals = [(g, e) for g in (0, 1) for e in (0, 1)]

    def mul(u, v):
        return ((u[0] + v[0]) % 2, u[1] * v[1])

    s = FiniteSemigroup.from_elements(vals, mul, sort_key=lambda v: v)
    gs = s.green()
    units_class = gs.j_of[s.index[(0, 1)]]
    gq = gm_quotient(s, JClassRef(s, units_class))
    assert not gq.injective_on_all_subgroups
    # the kernel subgroup is the collapsed one
    assert gq.class_rep[s.index[(0, 0)]] == gq.class_rep[s.index[(1, 0)]]
    # the subgroup inside the distinguished class embeds
    assert gq.class_rep[s.index[(0, 1)]] != gq.class_rep[s.index[(1, 1)]]
    # and at the kernel class everything separates again
    kernel_class = gs.j_of[s.index[(0, 0)]]
    gq2 = gm_quotient(s, JClassRef(s, kernel_class))
    assert len(gq2.quotient) == 2


class TestCollapseWreathMember:
    """The 14-element monoid whose twisting total letter rejects the
    all-singleton labeling, forcing the search onward."""

    def setup_method(self):
        self.sgp = load_semigroup(CORPUS_DIR / "collapse_wreath.sgp")
        self.pres = group_mapping_presentation(self.sgp)

    def test_first_canonical_labeling_fails(self):
        verdict = verify_flow(trivial_flow(self.pres))
        assert verdict is not True
        assert verdict.letter == "y"
        assert verdict.condition in {"F3", "F4"}

    def test_search_moves_on_and_succeeds(self):
        flow = flow_search(self.pres, max_states=1)
        assert verify_flow(flow) is True
        spc = flow.labeling[0]
        assert len(spc.blocks) == 1  # the coarser labeling carries the day
        assert spc.labels[0] == (0, 1)  # with the twisted cross section
        witness = presentation_construct(flow)
        assert set(witness.division.morphism.values()) == set(self.sgp.elements)


def test_acyclic_plus_loops_transition_semigroups_aperiodic():
    # letters that only move forward along 1 < 2 < 3 (or stand still)
    # generate aperiodic transition semigroups, whatever the combination
    forward = [
        imgs
        for imgs in itertools.product(range(4), repeat=3)
        if all(v == 0 or v >= q + 1 for q, v in enumerate(imgs))
    ]
    checked = 0
    for f in forward[::2]:
        for g in forward[::3]:
            sgp = FiniteSemigroup.generate([("a", T(f)), ("b", T(g))])
            assert is_aperiodic(sgp)
            checked += 1
    assert checked >= 50


def test_group_case_presentation_reduces_to_the_group(sym3):
    pres = group_mapping_presentation(sym3)
    w = presentation_construct(trivial_flow(pres))
    # b = 1 and T_A trivial: the lifted semigroup is a copy of the group
    assert w.b_bar == 1
    assert len(w.division.morphism) == len(sym3)


def test_lift_projects_to_transition_semigroup(b2z2_1):
    pres = group_mapping_presentation(b2z2_1)
    w = presentation_construct(trivial_flow(pres))
    for name in pres.sgp.gen_names:
        wreath_part, _ = w.division.lifts[name]
        # T_A's part is the letter's partial map of the states, as a row
        images = w.flow.automaton.letter_map(name).images
        assert wreath_part[1] == tuple(q - 1 for q in images)


def test_format_roundtrips_for_auxiliary_files(b2z2_1):
    from krc.core import FiniteGroup

    g = FiniteGroup.cyclic(4)
    assert dump_group(parse_group(dump_group(g))) == dump_group(g)
    pres = group_mapping_presentation(b2z2_1)
    flow = trivial_flow(pres)
    text = dump_flow(flow)
    assert dump_flow(parse_flow(text, pres)) == text
    aut = flow.automaton
    assert dump_automaton(parse_automaton(dump_automaton(aut), aut.letters)) == dump_automaton(aut)


def _code_tokens(tree):
    """(name, line) for every name, attribute and identifier string
    literal in a module's code; docstrings and comments hold none."""
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in docstrings
        ):
            yield node.value, node.lineno


def test_no_test_only_surface_in_src():
    """Every function, class and method that `src/krc` defines is used in
    `src/krc`'s code outside its own definition (as a name, an attribute
    or an identifier string literal), or named as a word in
    `perfbench/*.py` or `demos/*.py`: a definition only the tests reach
    belongs in the tests.  Docstrings and comments do not count as uses;
    dunder methods are called by the language."""
    root = Path(__file__).resolve().parent.parent
    word = re.compile(r"\w+")
    sources = sorted((root / "src" / "krc").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    tokens = {path: list(_code_tokens(tree)) for path, tree in trees.items()}
    outside = {
        name
        for pattern in ("perfbench/*.py", "demos/*.py")
        for path in root.glob(pattern)
        for name in word.findall(path.read_text())
    }
    unused = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__") or name in outside:
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if not any(
                token == name
                for other in sources
                for token, k in tokens[other]
                if other != path or not first <= k <= node.end_lineno
            ):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
