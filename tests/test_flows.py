import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from krc import complexity, core, flows
from krc.cli import CORPUS_DIR, load_corpus_manifest
from krc.complexity import EstimateOptions, estimate
from krc.core import (
    ZERO,
    FiniteGroup,
    FiniteSemigroup,
    PartialTransformation,
    compose,
    is_aperiodic,
)
from krc.errors import InputError, VerificationError
from krc.flows import (
    Automaton,
    Flow,
    FlowSearchExhausted,
    FlowViolation,
    _enumerate_automata,
    _iter_labelings,
    _sink_index,
    _successor_index,
    _transition_check,
    flow_search,
    presentation_construct,
    transition_semigroup,
    trivial_flow,
    verify_flow,
)
from krc.fileformats import dump_flow, load_semigroup
from krc.inverse import matrix_semigroup_as_transformations, small_monoid
from krc.products import (
    ActionPair,
    DivisionWitness,
    MulOracle,
    PairSemigroup,
    PartialMaps,
    WreathProduct,
    _relation_closure,
)
from krc.semilocal import fasp_embedding, group_mapping_presentation
from krc.spc import canonicalize, enumerate_spcs

from helpers import I4_GENS, LADDER, T4_GENS, fasp_wreath, ladder, reached_presentations

T = PartialTransformation


@pytest.fixture(scope="module")
def small17_pres(z2_group):
    sgp = matrix_semigroup_as_transformations(small_monoid(2, z2_group, 1), z2_group)
    return group_mapping_presentation(sgp)


@pytest.fixture(scope="module")
def corpus_presentations():
    return reached_presentations(
        load_semigroup(CORPUS_DIR / entry["file"]) for entry in load_corpus_manifest()
    )


@pytest.fixture(scope="module")
def ladder_presentations():
    """T_3, PT_3 and I_3's group-mapping nodes, by name."""
    return {name: reached_presentations([ladder(gens)]) for name, gens in LADDER.items()}


def _rho_reference(w):
    """(b) and (c) of the `flows` docstring on a construction, point by
    point: rho is onto G x B + 0, and for every point omega of Qbar and
    letter x whose lift's wreath part moves omega's wreath point, omega.x
    is in Qbar and rho(omega.x) = rho(omega).x.  None when they hold, else
    the first failure."""
    pres = w.flow.presentation
    group = pres.group
    want = {ZERO} | {(g, b) for g in range(len(group)) for b in range(1, pres.n_b + 1)}
    if set(w.rho.values()) != want:
        return "rho is not onto G x B + 0"
    outer = w.division.target.left
    for x, (wx, _) in w.division.lifts.items():
        rlm_map, labels = pres.rlm_of_gen[x], pres.label_of_gen[x]
        row = outer.row(outer.encode(wx))
        for omega in w.qbar:
            point, b = omega
            if row[point] < 0:
                continue  # the state path dies: nothing to compare
            omega_x = (row[point], ZERO if b == ZERO or not rlm_map[b - 1] else rlm_map[b - 1])
            if omega_x not in w.rho:
                return f"Qbar is not closed at {omega} under {x}"
            down = w.rho[omega]
            if down == ZERO or not rlm_map[down[1] - 1]:
                down_x = ZERO
            else:
                down_x = (group.mul(down[0], labels[down[1] - 1]), rlm_map[down[1] - 1])
            if w.rho[omega_x] != down_x:
                return f"rho is not a morphism at {omega} under {x}"
    return None


class FirstSight:
    """A lazy oracle of values under `mul`, codes given on first sight:
    how the construction multiplied Sym_b and T_A before they were partial
    maps coded by rows."""

    elements = codes = None

    def __init__(self, mul):
        self.mul = mul
        self.values = []
        self.code_of = {}

    def encode(self, value):
        if value not in self.code_of:
            self.code_of[value] = len(self.values)
            self.values.append(value)
        return self.code_of[value]

    def decode(self, code):
        return self.values[code]

    def mul_code(self, a, b):
        return self.encode(self.mul(self.values[a], self.values[b]))


def first_sight_maps(size):
    """(size, the partial maps of {1..size} under `compose`), coded on
    first sight, each acting by its images."""
    maps = FirstSight(compose)
    return ActionPair(size, maps, lambda c: tuple(v - 1 for v in maps.decode(c).images))


def _nested_division_reference(w):
    """The division of construction `w` on the product it was checked in
    before its wreath factors were coded by rows: G wr Sym_b nested as
    `WreathProduct(ActionPair.of_group(G), Sym_b)`, a state's entry the
    pair (labels, block permutation), and Sym_b and T_A first-sight oracles
    of `PartialTransformation`s.  `_relation_closure`'s result: the closure
    or the first conflict."""
    pres, aut = w.flow.presentation, w.flow.automaton
    inner = WreathProduct(ActionPair.of_group(pres.group), first_sight_maps(w.b_bar))
    target = PairSemigroup(WreathProduct(inner, first_sight_maps(aut.n_states)), pres.rlmq.rlm)
    lifts = {}
    for x, gi in zip(pres.sgp.gen_names, pres.sgp.gens):
        fvals = tuple(
            None if aut.step(q, x) is None else (
                w.gbar[x][q - 1], T(tuple(p + 1 for p in w.perms[x][q - 1]))
            )
            for q in range(1, aut.n_states + 1)
        )
        value = ((fvals, aut.letter_map(x)), pres.rlmq.rlm.elements[pres.rlmq.code[gi]])
        lifts[x] = target.encode(value)
    return _relation_closure(pres.sgp, target, lifts)


def assert_closes_as_nested(w):
    """The row-coded division of construction `w` closes to the same size
    and the same S indices, in the same order, as the nested reference."""
    assert list(_nested_division_reference(w).values()) == list(w.division.closure.values())


def unchecked_division(s, target, lifts):
    """A division witness for the given lifts with no closure: the
    construction with its division unchecked, for `_rho_reference`."""
    return DivisionWitness(s, target, lifts, {})


@pytest.fixture(scope="module")
def estimated_constructions():
    """Every construction that estimates of the corpus, T_3, PT_3 and I_3
    make."""
    built = []
    construct = complexity.presentation_construct

    def recording(flow):
        built.append(construct(flow))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexity, "presentation_construct", recording)
        for entry in load_corpus_manifest():
            estimate(load_semigroup(CORPUS_DIR / entry["file"]))
        for gens in LADDER.values():
            estimate(ladder(gens))
    return built


def keeps_sink(pres, spc, x):
    """The sink condition at an undefined transition: x sends W to 0."""
    return all(pres.rlm_of_gen[x][b - 1] == 0 for b in spc.subset)


def transition_passes(pres, spcs):
    """(i, k, x) -> whether F1-F5 hold on the transition from spcs[i] to
    spcs[k] under x."""
    return {
        (i, k, x): _transition_check(pres, spcs[i], spcs[k], x) is None
        for i, k, x in itertools.product(
            range(len(spcs)), range(len(spcs)), pres.sgp.gen_names
        )
    }


def successors(pres):
    spcs = enumerate_spcs(pres.n_b, pres.group)
    supports = [frozenset(spc.subset) for spc in spcs]
    return spcs, supports, _successor_index(pres, spcs, supports)


class TestTransitionSemigroup:
    def test_one_state_self_loops(self):
        aut = Automaton(1, ("a", "b"), {(1, "a"): 1, (1, "b"): 1})
        assert len(transition_semigroup(aut)) == 1

    def test_swap_gives_z2(self):
        aut = Automaton(2, ("a",), {(1, "a"): 2, (2, "a"): 1})
        tsg = transition_semigroup(aut)
        assert len(tsg) == 2
        assert not is_aperiodic(tsg)

    def test_reset_automaton_right_zero(self):
        aut = Automaton(
            2, ("a", "b"), {(1, "a"): 1, (2, "a"): 1, (1, "b"): 2, (2, "b"): 2}
        )
        tsg = transition_semigroup(aut)
        assert len(tsg) == 2
        assert is_aperiodic(tsg)
        for u in tsg.elements:
            for v in tsg.elements:
                assert tsg.mul(u, v) == v


class TestVerifyFlow:
    def test_trivial_flow_on_gm_inverse(self, small17_pres):
        assert verify_flow(trivial_flow(small17_pres)) is True

    def test_trivial_flow_on_b2z2(self, b2z2_1):
        pres = group_mapping_presentation(b2z2_1)
        assert verify_flow(trivial_flow(pres)) is True

    def test_merged_blocks_collide(self, small17_pres):
        # one big block whose labels d1 moves off the cross section
        pres = small17_pres
        aut = Automaton(
            1,
            tuple(pres.sgp.gen_names),
            {(1, x): 1 for x in pres.sgp.gen_names},
        )
        bad = canonicalize(pres.n_b, [{1, 2}], {1: 0, 2: 0}, pres.group)
        flow = Flow(aut, pres, (bad,))
        assert verify_flow(flow) == FlowViolation(
            "F5", 1, "d1", "block (1, 2) transports outside the target cross section at 2"
        )

    def test_f1_violation(self, small17_pres):
        pres = small17_pres
        aut = Automaton(
            1,
            tuple(pres.sgp.gen_names),
            {(1, x): 1 for x in pres.sgp.gen_names},
        )
        partial = canonicalize(pres.n_b, [{1}], {1: 0}, pres.group)
        flow = Flow(aut, pres, (partial,))
        verdict = verify_flow(flow)
        assert isinstance(verdict, FlowViolation)
        assert verdict.condition == "F1"

    def test_f3_violation_constructed(self, b2z2_1):
        # two singleton blocks mapped into one target block by a collapsing
        # letter: use the two-state automaton sending both along "a"
        pres = group_mapping_presentation(b2z2_1)
        letters = tuple(pres.sgp.gen_names)
        aut = Automaton(2, letters, {(1, "e"): 2})
        src = canonicalize(2, [{1}, {2}], {1: 0, 2: 0}, pres.group)
        tgt = canonicalize(2, [{1, 2}], {1: 0, 2: 0}, pres.group)
        flow = Flow(aut, pres, (src, tgt))
        verdict = verify_flow(flow)
        assert isinstance(verdict, FlowViolation)
        assert verdict.condition == "F3"

    def test_sink_violation(self, b2z2_1):
        pres = group_mapping_presentation(b2z2_1)
        aut = Automaton(1, ("e", "a", "b"), {(1, "e"): 1, (1, "b"): 1})
        verdict = verify_flow(Flow(aut, pres, trivial_flow(pres).labeling))
        assert verdict == FlowViolation(
            "sink", 1, "a", "1.a = 2 but the transition is undefined"
        )

    def test_relabeling_invariance(self, small17_pres):
        pres = small17_pres
        flow = trivial_flow(pres)
        rng = random.Random(20240811)
        base = verify_flow(flow) is True
        for _ in range(100):
            relabeled = []
            for spc in flow.labeling:
                mu = {}
                for blk, labs in zip(spc.blocks, spc.labels):
                    g = rng.randrange(len(pres.group))
                    for b, v in zip(blk, labs):
                        mu[b] = pres.group.mul(g, v)
                relabeled.append(
                    canonicalize(spc.size_b, spc.blocks, mu, pres.group)
                )
            again = Flow(flow.automaton, pres, tuple(relabeled))
            assert (verify_flow(again) is True) == base


def _row_by_definition(pair, value):
    """The row of `value` read off its factor's own definition: a partial
    map's row is its value, a transformation's its images (point q at
    position q - 1), a group element's its column of the group table (g.x
    for every g, by the oracle's value product), the zero undefined
    everywhere, and a wreath element's point by point."""
    if isinstance(pair, WreathProduct):
        return _row_by_points(pair, value)
    if isinstance(pair, PartialMaps):
        return value
    if isinstance(value, PartialTransformation):
        return tuple(v - 1 for v in value.images)
    if value == ZERO:
        return (-1,) * pair.size
    return tuple(pair.sgp.mul(g, value) for g in range(pair.size))


def _row_by_points(w, value):
    """`WreathProduct.row` by its definition, point by point: (b, q)(f, t)
    = (b(qf), qt) by positions, b running slowest, -1 where qt or b(qf) is
    undefined, and a None entry of f acting as the identity; the factors
    act by `_row_by_definition`."""
    f, t = value
    nq = w.right.size
    return tuple(
        -1 if b2 < 0 or j < 0 else b2 * nq + j
        for b in range(w.left.size)
        for v, j in zip(f, _row_by_definition(w.right, t))
        for b2 in (b if v is None else _row_by_definition(w.left, v)[b],)
    )


def test_wreath_rows_match_the_point_definition(b2z2_1, small17_pres):
    """The wreath row interleaves cached columns; it agrees with the point
    definition on the FASP wreath (the zero where the RLM map is
    undefined), where it is also the code `WreathRows` gives the value, on
    the flows' wreath over partial maps, and on a nested wreath."""
    checked = Counter()
    pres = group_mapping_presentation(b2z2_1)
    rows, fasp = fasp_embedding(pres).rows, fasp_wreath(pres)
    for row, value in zip(rows.closure, rows.morphism):
        assert row == (*fasp.row(fasp.encode(value)), -1)
        assert row == (*_row_by_points(fasp, value), -1)
        checked["fasp", ZERO in value[0]] += 1
    division = presentation_construct(trivial_flow(small17_pres)).division
    outer = division.target.left
    # and by hand: G wr Sym_2 nested over a 2-state transition semigroup
    # where a letter dies
    sym = ActionPair.of_transformations(FiniteSemigroup.generate([("s", T((2, 1)))]))
    inner = WreathProduct(ActionPair.of_group(FiniteGroup.cyclic(2)), sym)
    states = FiniteSemigroup.generate([("x", T((2, 0))), ("y", T((1, 1)))])
    dying = WreathProduct(inner, ActionPair.of_transformations(states))
    made = [
        ((((1, 0), T((2, 1))), None), T((2, 0))),
        ((None, ((0, 1), T((1, 2)))), T((1, 1))),
    ]
    codes = [dying.encode(v) for v in made]
    codes += [dying.mul_code(u, v) for u in codes for v in codes]
    for w, w_codes in ((outer, [c for c, _ in division.closure]), (dying, codes)):
        for code in w_codes:
            f, _ = value = w.decode(code)
            assert w.row(code) == _row_by_points(w, value)
            assert all(
                w.left.row(c) == _row_by_definition(w.left, v)
                for c, v in zip(code[0], f)
                if c is not None
            )
            checked[w is dying, -1 in w.right.row(code[1]), None in code[0]] += 1
    assert checked["fasp", True] and checked["fasp", False]
    assert checked[False, False, False] and checked[True, True, True]


class TestPresentationConstruct:
    def test_group_one_state(self, sym3):
        pres = group_mapping_presentation(sym3)
        w = presentation_construct(trivial_flow(pres))
        assert w.b_bar == 1
        # the lifted semigroup divides onto Sym_3 itself
        assert set(w.division.morphism.values()) == set(sym3.elements)

    def test_small_monoid_reproduces_decomposition(self, small17_pres):
        w = presentation_construct(trivial_flow(small17_pres))
        assert w.b_bar == 2
        assert len(w.division.morphism) == 32  # the unit-extension lift
        assert set(w.division.morphism.values()) == set(small17_pres.sgp.elements)

    def test_rho_covers_g_cross_b(self, small17_pres):
        w = presentation_construct(trivial_flow(small17_pres))
        images = set(w.rho.values())
        nb, ng = small17_pres.n_b, len(small17_pres.group)
        assert len(images) == nb * ng + 1

    def test_division_witness_reverifies(self, b2z2_1):
        pres = group_mapping_presentation(b2z2_1)
        w = presentation_construct(trivial_flow(pres))
        w.division.verify()

    def test_no_symmetric_group_is_built(self, b2z2_1, monkeypatch):
        # Sym_b stays a lazy oracle: checking the lifts only multiplies
        def refuse(n):
            raise AssertionError(f"Sym_{n} built")

        monkeypatch.setattr(FiniteGroup, "symmetric", refuse)
        pres = group_mapping_presentation(b2z2_1)
        w = presentation_construct(trivial_flow(pres))
        assert w.b_bar == 2
        assert set(w.division.morphism.values()) == set(b2z2_1.elements)

    def test_rejects_non_flow(self, small17_pres):
        pres = small17_pres
        aut = Automaton(
            1, tuple(pres.sgp.gen_names), {(1, x): 1 for x in pres.sgp.gen_names}
        )
        bad = canonicalize(pres.n_b, [{1}], {1: 0}, pres.group)
        with pytest.raises(InputError):
            presentation_construct(Flow(aut, pres, (bad,)))

    def test_rho_reference_on_estimated_constructions(self, estimated_constructions):
        # one-state flows, each carrier constructed once per estimate
        assert [(len(w.flow.labeling), w.b_bar) for w in estimated_constructions] == [
            (1, 2), (1, 3), (1, 3), (1, 3)
        ]
        for w in estimated_constructions:
            assert _rho_reference(w) is None, dump_flow(w.flow)
            assert_closes_as_nested(w)

    def test_wrong_shift_breaks_rho(self, small17_pres, monkeypatch):
        # F1-F5 read only the transport's violations, so the flow still
        # verifies; the lifts built from the wrong shift break rho, and
        # the division rejects them
        transport = flows._transport
        group = small17_pres.group
        other = next(g for g in range(len(group)) if g != group.identity)

        def wrong_shift(pres, spc_q, spc_t, letter):
            moves = transport(pres, spc_q, spc_t, letter)
            if isinstance(moves, tuple):
                return moves
            at = next((i for i, (home, _) in enumerate(moves) if home is not None), None)
            if at is not None:
                home, shift = moves[at]
                moves[at] = (home, group.mul(shift, other))
            return moves

        monkeypatch.setattr(flows, "_transport", wrong_shift)
        flow = trivial_flow(small17_pres)
        assert verify_flow(flow) is True
        with pytest.raises(
            VerificationError, match="^division lifts rejected: relation not functional"
        ):
            presentation_construct(flow)
        # the same construction with its division unchecked
        monkeypatch.setattr(flows, "check_division", unchecked_division)
        assert _rho_reference(presentation_construct(flow)).startswith(
            "rho is not a morphism"
        )

    def test_estimate_and_replay_multiply_no_values(self, monkeypatch):
        # one corpus estimate and its replay construct two decompositions,
        # both on codes: no value product inside `presentation_construct`
        counts = Counter()
        inside = []
        construct = complexity.presentation_construct

        def constructing(flow):
            counts["constructions"] += 1
            inside.append(flow)
            try:
                return construct(flow)
            finally:
                inside.pop()

        def counting(name, fn):
            def counted(*args):
                counts[name] += bool(inside)
                return fn(*args)

            return counted

        monkeypatch.setattr(complexity, "presentation_construct", constructing)
        monkeypatch.setattr(MulOracle, "mul_code", counting("mul_code", MulOracle.mul_code))
        monkeypatch.setattr(core, "compose", counting("compose", core.compose))
        cert = estimate(load_semigroup(CORPUS_DIR / "small_3_z2_r1.sgp")).certificate
        complexity.replay_certificate(json.loads(complexity.certificate_json(cert)))
        assert [counts[k] for k in ("constructions", "mul_code", "compose")] == [2, 0, 0]

    def test_lifted_action_fiberwise_permutation(self, small17_pres):
        w = presentation_construct(trivial_flow(small17_pres))
        for x in small17_pres.sgp.gen_names:
            for q_perms in w.perms[x]:
                assert sorted(q_perms) == list(range(w.b_bar))


class TestFlowSearch:
    def test_gm_inverse_found_at_one_state(self, small17_pres):
        flow = flow_search(small17_pres, max_states=1)
        assert isinstance(flow, Flow)
        assert flow.automaton.n_states == 1
        # canonical first: full support, all-singleton blocks
        spc = flow.labeling[0]
        assert len(spc.subset) == small17_pres.n_b
        assert all(len(blk) == 1 for blk in spc.blocks)

    def test_group_found_at_one_state(self, sym3):
        pres = group_mapping_presentation(sym3)
        flow = flow_search(pres, max_states=1)
        assert isinstance(flow, Flow)
        assert pres.n_b == 1

    def test_search_results_reverify(self, b2z2_1):
        pres = group_mapping_presentation(b2z2_1)
        flow = flow_search(pres, max_states=1)
        assert verify_flow(flow) is True

    def test_budget_exhaustion_reported(self, small17_pres):
        out = flow_search(small17_pres, max_states=1, automata_budget=0)
        assert isinstance(out, FlowSearchExhausted)

    def test_zero_budget_enumerates_no_spcs(self, small17_pres, monkeypatch):
        def refuse(*args):
            raise AssertionError("SPCs enumerated although no automaton is tried")

        monkeypatch.setattr(flows, "enumerate_spcs", refuse)
        out = flow_search(small17_pres, max_states=2, automata_budget=0)
        assert out == FlowSearchExhausted(2, 0, 0)

    @pytest.mark.parametrize("budget", [0, 1, 3, 1000])
    def test_estimate_counts_automata_like_flow_search(
        self, small17_pres, monkeypatch, budget
    ):
        # every automaton fails the cap check, so both searches run dry
        def reject(tsg):
            return False

        monkeypatch.setattr(complexity, "flow_cap_check", lambda cap, options: reject)
        via_estimate = complexity.flow_upper(
            small17_pres, 1, EstimateOptions(automata_budget=budget)
        )
        direct = flow_search(
            small17_pres, max_states=1, cap_check=reject, automata_budget=budget
        )
        assert isinstance(via_estimate, FlowSearchExhausted)
        assert isinstance(direct, FlowSearchExhausted)
        total = 2 ** len(small17_pres.sgp.gen_names)
        assert via_estimate.automata_tried == direct.automata_tried == min(budget, total)


class TestSuccessorIndex:
    """succ(i, x) is exactly the set of targets `_transition_check` passes."""

    def test_every_triple_on_the_corpus_and_ladder(
        self, corpus_presentations, ladder_presentations
    ):
        presentations = corpus_presentations + [
            pres for group in ladder_presentations.values() for pres in group
        ]
        triples = 0
        for pres in presentations:
            spcs, _, succ = successors(pres)
            for i, x in itertools.product(range(len(spcs)), pres.sgp.gen_names):
                want = {
                    k for k in range(len(spcs))
                    if _transition_check(pres, spcs[i], spcs[k], x) is None
                }
                assert succ(i, x) == want, (i, x)
                triples += len(spcs)
        assert triples == 11_592

    @pytest.mark.parametrize("gens", [I4_GENS, T4_GENS], ids=["I4", "T4"])
    def test_sampled_sources_at_four_b_points(self, gens):
        presentations = [
            pres
            for pres in reached_presentations([ladder(gens)], EstimateOptions(automata_budget=0))
            if pres.n_b == 4
        ]
        assert presentations
        rng = random.Random(20261018)
        for pres in presentations:
            spcs, _, succ = successors(pres)
            for _ in range(12):
                i, x = rng.randrange(len(spcs)), rng.choice(pres.sgp.gen_names)
                want = {
                    k for k in range(len(spcs))
                    if _transition_check(pres, spcs[i], spcs[k], x) is None
                }
                assert succ(i, x) == want, (i, x)


class TestLabelings:
    def test_covering_solutions_match_brute_force(self, corpus_presentations):
        small = [pres for pres in corpus_presentations if pres.n_b <= 2]
        assert {pres.n_b for pres in small} == {1, 2}
        # presentations whose transition checks agree give `_iter_labelings`
        # the same input, so each distinct one is enumerated once
        seen = set()
        for pres in small:
            spcs, supports, succ = successors(pres)
            sinks = _sink_index(pres, supports)
            letters = tuple(pres.sgp.gen_names)
            passes = transition_passes(pres, spcs)
            sink_ok = {
                (i, x): keeps_sink(pres, spcs[i], x)
                for i, x in itertools.product(range(len(spcs)), letters)
            }
            full = frozenset(range(1, pres.n_b + 1))
            shape = (
                letters, tuple(supports), tuple(sorted(passes.items())), tuple(sorted(sink_ok.items()))
            )
            if shape in seen:
                continue
            seen.add(shape)
            for m in (1, 2):
                for aut in _enumerate_automata(m, letters):
                    want = [
                        list(labels)
                        for labels in itertools.product(range(len(spcs)), repeat=m)
                        if all(
                            passes[labels[q - 1], labels[t - 1], x]
                            for (q, x), t in aut.delta.items()
                        )
                        and all(
                            sink_ok[labels[q - 1], x]
                            for q, x in itertools.product(range(1, m + 1), letters)
                            if (q, x) not in aut.delta
                        )
                        and frozenset().union(*(supports[i] for i in labels)) == full
                    ]
                    assert list(_iter_labelings(aut, supports, succ, sinks)) == want, aut


class TestCover:
    """A one-state labeling verifies exactly when F1-F5, the sink condition
    and the cover condition hold; a flow that verifies constructs with rho
    onto, and one that breaks only the cover condition leaves rho short of
    G x B + 0 and its lifts are rejected by the division, as by the nested
    reference."""

    def test_cover_iff_onto(self, corpus_presentations, ladder_presentations, monkeypatch):
        presentations = corpus_presentations + [
            pres for name in ("T3", "PT3") for pres in ladder_presentations[name]
        ]
        constructed = 0
        for pres in presentations:
            letters = tuple(pres.sgp.gen_names)
            for aut in _enumerate_automata(1, letters):
                for spc in enumerate_spcs(pres.n_b, pres.group):
                    flow = Flow(aut, pres, (spc,))
                    verdict = verify_flow(flow)
                    local = all(
                        _transition_check(pres, spc, spc, x) is None
                        if (1, x) in aut.delta
                        else keeps_sink(pres, spc, x)
                        for x in letters
                    )
                    if len(spc.subset) < pres.n_b:
                        assert verdict is not True
                        assert (verdict.condition == "cover") == local
                        if local:
                            with monkeypatch.context() as patch:
                                patch.setattr(flows, "verify_flow", lambda flow: True)
                                with pytest.raises(
                                    VerificationError, match="^division lifts rejected"
                                ):
                                    presentation_construct(flow)
                                patch.setattr(flows, "check_division", unchecked_division)
                                w = presentation_construct(flow)
                                assert _rho_reference(w) == "rho is not onto G x B + 0"
                                assert not isinstance(_nested_division_reference(w), dict)
                        continue
                    assert (verdict is True) == local
                    if verdict is True:
                        w = presentation_construct(flow)
                        assert _rho_reference(w) is None
                        assert_closes_as_nested(w)
                        constructed += 1
        assert constructed

    def test_empty_labeling_violates_cover(self, small17_pres):
        letters = tuple(small17_pres.sgp.gen_names)
        aut = Automaton(1, letters, {(1, x): 1 for x in letters})
        flow = Flow(aut, small17_pres, (canonicalize(small17_pres.n_b, [], {}, small17_pres.group),))
        assert verify_flow(flow) == FlowViolation(
            "cover", 0, "", "no state's support contains 1, 2"
        )


def local_covering_flows(pres, automata):
    """Every labeling of each automaton that passes F1-F5 at its defined
    transitions and whose supports cover B, the sink condition aside."""
    spcs = enumerate_spcs(pres.n_b, pres.group)
    passes = transition_passes(pres, spcs)
    full = frozenset(range(1, pres.n_b + 1))
    for aut in automata:
        for labels in itertools.product(range(len(spcs)), repeat=aut.n_states):
            if all(
                passes[labels[q - 1], labels[t - 1], x] for (q, x), t in aut.delta.items()
            ) and frozenset().union(*(spcs[i].subset for i in labels)) == full:
                yield Flow(aut, pres, tuple(spcs[i] for i in labels))


def construct_outcome(flow, monkeypatch):
    """"ok" when the flow's decomposition constructs, else the failure,
    with the flow conditions left to the construction's own checks.  The
    nested reference agrees: the same closure when it constructs, and a
    rejection of the same kind when it does not."""
    with monkeypatch.context() as patch:
        patch.setattr(flows, "verify_flow", lambda flow: True)
        try:
            assert_closes_as_nested(presentation_construct(flow))
        except VerificationError as err:
            patch.setattr(flows, "check_division", unchecked_division)
            reference = _nested_division_reference(presentation_construct(flow))
            kind = f"division lifts rejected: {reference}".partition(" at ")[0]
            assert str(err).startswith(kind), (str(err), reference)
            return str(err)
    return "ok"


class TestSinkSoundness:
    """Over labelings that keep F1-F5 and cover B, a flow that verifies
    constructs, and a flow that fails to construct breaks the sink
    condition.  The converse does not hold: some flows break it and still
    construct (the 2-state sweep below meets them)."""

    def sweep(self, presentations, automata_of, monkeypatch):
        counts = {"flows": 0, "verified": 0, "constructed": 0}
        for pres in presentations:
            for flow in local_covering_flows(pres, automata_of(pres)):
                verdict = verify_flow(flow)
                outcome = construct_outcome(flow, monkeypatch)
                if verdict is True:
                    assert outcome == "ok", dump_flow(flow)
                elif outcome != "ok":
                    assert verdict.condition == "sink", (dump_flow(flow), outcome)
                    assert outcome.startswith("division lifts rejected")
                counts["flows"] += 1
                counts["verified"] += verdict is True
                counts["constructed"] += outcome == "ok"
        return counts

    def test_one_state_on_the_corpus_t3_and_pt3(
        self, corpus_presentations, ladder_presentations, monkeypatch
    ):
        presentations = (
            corpus_presentations + ladder_presentations["T3"] + ladder_presentations["PT3"]
        )
        counts = self.sweep(
            presentations,
            lambda pres: _enumerate_automata(1, tuple(pres.sgp.gen_names)),
            monkeypatch,
        )
        assert counts == {"flows": 596, "verified": 43, "constructed": 43}

    def test_two_state_slice_on_t3(self, ladder_presentations, monkeypatch):
        # every 7th automaton of the canonical order; the whole sweep at two
        # states runs for several seconds
        counts = self.sweep(
            ladder_presentations["T3"],
            lambda pres: itertools.islice(
                _enumerate_automata(2, tuple(pres.sgp.gen_names)), 0, None, 7
            ),
            monkeypatch,
        )
        # 26 flows break the sink condition and construct all the same
        assert counts == {"flows": 1751, "verified": 90, "constructed": 116}

    def test_the_condition_is_not_necessary(self, ladder_presentations, monkeypatch):
        # T_3's order-7 presentation (one point of B): no transition enters
        # state 2, whose g1 is undefined although g1 moves the point of W_2
        pres = next(pres for pres in ladder_presentations["T3"] if len(pres.sgp) == 7)
        aut = Automaton(
            2,
            ("g0", "g1", "g2"),
            {(1, "g0"): 1, (1, "g1"): 1, (1, "g2"): 1, (2, "g0"): 1, (2, "g2"): 1},
        )
        spc = trivial_flow(pres).labeling[0]
        flow = Flow(aut, pres, (spc, spc))
        assert verify_flow(flow) == FlowViolation(
            "sink", 2, "g1", "1.g1 = 1 but the transition is undefined"
        )
        assert construct_outcome(flow, monkeypatch) == "ok"

    @pytest.mark.parametrize(
        "name,exhausted",
        [("T3", FlowSearchExhausted(2, 737, 2000)), ("PT3", FlowSearchExhausted(2, 2000, 2000))],
    )
    def test_two_state_search_results(self, ladder_presentations, name, exhausted):
        results = [flow_search(pres, max_states=2) for pres in ladder_presentations[name]]
        assert results[0] == exhausted
        assert [dump_flow(flow) for flow in results[1:]] == [
            dump_flow(trivial_flow(pres)) for pres in ladder_presentations[name][1:]
        ]
        for flow in results[1:]:
            presentation_construct(flow)


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def pinned_presentations(b2z2_1, small17_pres, ladder_presentations):
    """b2z2_1's and small17's presentations (two points of B) and T_3's
    group-mapping node with three."""
    t3 = ladder_presentations["T3"][0]
    assert t3.n_b == 3
    return {"b2z2_1": group_mapping_presentation(b2z2_1), "small17": small17_pres, "T3": t3}


class TestPinned:
    """Verdicts and constructions recorded before verification and
    construction read one transport per transition."""

    @pytest.mark.parametrize("name,conditions,want", [
        ("b2z2_1", {None: 73, "F1": 29, "F2": 2, "F3": 2, "F5": 2}, "8d3ad3d67f328f4d"),
        ("small17", {None: 79, "F1": 47, "F2": 6, "F3": 6, "F5": 6}, "c14866f13ebce2fb"),
        (
            "T3",
            {None: 526, "F1": 634, "F2": 188, "F3": 224, "F4": 72, "F5": 84},
            "7369f67dfc9ccf8b",
        ),
    ])
    def test_transition_check_verdicts(self, pinned_presentations, name, conditions, want):
        # every (source, target, letter): the first failing condition and
        # its detail, or None
        pres = pinned_presentations[name]
        spcs = enumerate_spcs(pres.n_b, pres.group)
        verdicts = [
            _transition_check(pres, spcs[i], spcs[k], x)
            for i, k, x in itertools.product(
                range(len(spcs)), range(len(spcs)), pres.sgp.gen_names
            )
        ]
        assert Counter(v and v[0] for v in verdicts) == conditions
        assert digest(verdicts) == want

    @pytest.mark.parametrize("name,flows,want", [
        ("b2z2_1", 612, "6d8df5ea09e54bc3"),
        ("small17", 488, "46d8d979bba5ba07"),
        ("T3", 0, "4f53cda18c2baa0c"),
    ])
    def test_two_state_constructions(self, pinned_presentations, name, flows, want):
        # every labeling `_iter_labelings` yields at two states, over
        # undefined transitions and states with fewer blocks than b_bar
        pres = pinned_presentations[name]
        spcs, supports, succ = successors(pres)
        sinks = _sink_index(pres, supports)
        built = []
        for aut in _enumerate_automata(2, tuple(pres.sgp.gen_names)):
            for labels in _iter_labelings(aut, supports, succ, sinks):
                w = presentation_construct(Flow(aut, pres, tuple(spcs[i] for i in labels)))
                assert _rho_reference(w) is None
                assert_closes_as_nested(w)
                built.append([w.b_bar, w.perms, w.gbar, len(w.division.morphism)])
        assert len(built) == flows
        assert digest(built) == want
