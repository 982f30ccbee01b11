import pytest

from krc.core import FiniteGroup, PartialTransformation
from krc.errors import InputError
from krc import fileformats as ff
from krc.flows import Automaton, trivial_flow
from krc.semilocal import group_mapping_presentation

from helpers import parse_automaton

T = PartialTransformation


class TestSemigroupFiles:
    def test_roundtrip(self, b2z2_1, sym3, right_zero_2):
        for s in (b2z2_1, sym3, right_zero_2):
            text = ff.dump_semigroup(s)
            again = ff.parse_semigroup(text)
            assert ff.dump_semigroup(again) == text
            assert len(again) == len(s)

    def test_undefined_marker(self):
        text = "points: 2\ngens:\na: 1 -\n"
        s = ff.parse_semigroup(text)
        assert s.elements[s.gens[0]].images == (1, 0)
        assert ff.dump_semigroup(s) == text

    def test_comments_and_blanks_ignored(self):
        text = "# header\npoints: 2\n\ngens:\na: 2 1  # swap\n"
        assert len(ff.parse_semigroup(text)) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "gens:\na: 1\n",
            "points: 0\ngens:\na:\n",
            "points: 2\ngens:\na: 1\n",
            "points: 2\ngens:\na: 3 1\n",
            "points: 2\ngens:\n",
            "points: 2\ngens:\na: 1 2\na: 2 1\n",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(InputError):
            ff.parse_semigroup(bad)


class TestGroupFiles:
    def test_roundtrip(self):
        for g in (FiniteGroup.cyclic(3), FiniteGroup.trivial(), FiniteGroup.cyclic(2)):
            text = ff.dump_group(g)
            again = ff.parse_group(text)
            assert ff.dump_group(again) == text

    def test_rejects_nongroup(self):
        with pytest.raises(InputError):
            ff.parse_group("order: 2\n0 0\n0 0\n")


class TestAutomatonFiles:
    def test_roundtrip(self):
        aut = Automaton(2, ("a", "b"), {(1, "a"): 2, (2, "a"): 1, (1, "b"): 1})
        text = ff.dump_automaton(aut)
        again = parse_automaton(text, ("a", "b"))
        assert again == aut
        assert ff.dump_automaton(again) == text

    def test_omitted_and_dash_equivalent(self):
        base = "states: 1\ntrans: 1 a 1\n"
        with_dash = "states: 1\ntrans: 1 a 1\ntrans: 1 b -\n"
        a1 = parse_automaton(base + "trans: 1 b -\n", ("a", "b"))
        a2 = parse_automaton(with_dash, ("a", "b"))
        assert a1 == a2

    def test_rejects_unknown_letter(self):
        with pytest.raises(InputError):
            parse_automaton("states: 1\ntrans: 1 q 1\n", ("a",))


class TestFlowFiles:
    def test_roundtrip(self, b2z2_1):
        pres = group_mapping_presentation(b2z2_1)
        flow = trivial_flow(pres)
        text = ff.dump_flow(flow)
        again = ff.parse_flow(text, pres)
        assert ff.dump_flow(again) == text
        assert again.labeling == flow.labeling

    def test_state_count_mismatch_rejected(self, b2z2_1):
        pres = group_mapping_presentation(b2z2_1)
        text = "states: 2\ntrans: 1 e 1\nflow:\nW={}; blocks=[]\n"
        with pytest.raises(InputError):
            ff.parse_flow(text, pres)
