import collections
import dataclasses
import json

import pytest

from krc import complexity, core, flows, products, semilocal
from krc.core import FiniteSemigroup, PartialTransformation, is_aperiodic
from krc.complexity import (
    ComplexityInterval,
    EstimateOptions,
    RelationalMorphism,
    certificate_json,
    check_derived_wreath_division,
    derived_division_witness,
    derived_semigroup,
    estimate,
    gm_reduction,
    lift_through_expansion,
    rhodes_expansion,
)
from krc.cli import CORPUS_DIR, EXIT_OK, EXIT_VERIFY, load_corpus_manifest, main
from krc.fileformats import load_semigroup
from krc.errors import InputError, VerificationError
from krc.products import DivisionWitness, ExhaustionReport

from helpers import I4_GENS, LADDER, T4_GENS, _sample_semigroups, ladder, whole_ideal_verdicts

T = PartialTransformation


def abstract(values, mul):
    return FiniteSemigroup.from_elements(values, mul, sort_key=lambda v: v)


@pytest.fixture(scope="module")
def z2_abs():
    return abstract([0, 1], lambda a, b: (a + b) % 2)


@pytest.fixture(scope="module")
def z2_rz2():
    return FiniteSemigroup.generate(
        [("x", T((2, 1, 3, 3))), ("y", T((2, 1, 4, 4)))]
    )


class TestComplexityZero:
    def test_right_zero(self, right_zero_2):
        assert is_aperiodic(right_zero_2)

    def test_z2(self):
        assert not is_aperiodic(FiniteSemigroup.generate([("t", T((2, 1)))]))

    def test_counter_free_transition_semigroup(self):
        s = FiniteSemigroup.generate([("a", T((2, 3, 3))), ("b", T((1, 1, 1)))])
        assert is_aperiodic(s)


class TestGmReduction:
    def test_aperiodic_empty(self, right_zero_2):
        assert gm_reduction(right_zero_2) == []

    def test_z2_rz2_single_image(self, z2_rz2):
        children = gm_reduction(z2_rz2)
        assert len(children) == 1
        _, gq = children[0]
        assert len(gq.quotient) == 2
        assert not is_aperiodic(gq.quotient)

    def test_small_monoid_two_images(self, corpus):
        sgp, _ = corpus["small_2_z2"]
        assert len(gm_reduction(sgp)) == 2

    @pytest.mark.parametrize("broken,message", [
        ("subgroup", "combined GM projection not injective on a subgroup"),
        ("reduction", "nontrivial subgroup escaped the GM reduction"),
    ])
    def test_combined_projection_messages(self, corpus, monkeypatch, broken, message):
        # a GM image that merges a maximal subgroup, or no GM image at all
        sgp, _ = corpus["small_2_z2"]
        if broken == "subgroup":
            merged = collections.namedtuple("Merged", "class_rep")([0] * len(sgp))
            monkeypatch.setattr(complexity, "gm_quotient", lambda *_: merged)
        else:
            monkeypatch.setattr(
                semilocal.JClassRef, "contains_nontrivial_subgroup", lambda _: False
            )
        with pytest.raises(VerificationError, match=f"^{message}$"):
            gm_reduction(sgp)


class TestCertificateJson:
    """`certificate_json` writes `json.dumps(value, sort_keys=True,
    indent=2)` and a newline, byte for byte."""

    @staticmethod
    def reference(value):
        return json.dumps(value, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": ()}, [[], [{}], [[1, [2, []]]]],
        {"z": 1, "a": 2, "m": {"y": None, "b": True, "a": False}},
        ["quote \" backslash \\ newline \n tab \t nul \x00 \x1f del \x7f",
         "\u00e9\u20ac\U0001f600"],
        {"key with \"escapes\"\n and \u00e9": "value"},
        [None, True, False, 0, -1, 7, 2 ** 70, -(2 ** 70)], (1, (2, 3)), [1.5, -0.0, 1e300],
        "text", 12, None, True,
    ])
    def test_edge_cases(self, value):
        assert certificate_json(value) == self.reference(value)

    def test_what_json_cannot_write_it_cannot(self):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            certificate_json({"a": [{1, 2}]})

    def test_every_corpus_ladder_and_sample_certificate(self):
        roots = [classified_run(name) for name in CLASSIFIED_RUNS]
        roots += [(sgp, None) for sgp in _sample_semigroups()]
        assert len(roots) == 222
        for sgp, options in roots:
            cert = estimate(sgp, options).certificate
            assert certificate_json(cert) == self.reference(cert)


class TestDerived:
    def test_identity_morphism_aperiodic(self, b2z2_1, sym3):
        for s in (b2z2_1, sym3):
            d = derived_semigroup(RelationalMorphism.identity(s))
            assert is_aperiodic(d)

    def test_to_trivial_contains_source_copy(self, b2z2_1):
        rho = RelationalMorphism.to_trivial(b2z2_1)
        d = derived_semigroup(rho)
        # the real-object arrows of a monoid source multiply exactly like S
        tv = rho.target.elements[0]
        arrows = [k for k in d.elements if k != "0" and k[0] >= 0]
        assert len(arrows) == len(b2z2_1)
        witness = derived_division_witness(rho, d)
        assert isinstance(witness, DivisionWitness)
        assert set(witness.morphism.values()) == set(b2z2_1.elements)

    def test_division_witness_for_quotient_morphism(self, z2_rz2, z2_abs):
        rho = RelationalMorphism.from_function(
            z2_rz2, z2_abs, {v: 0 if v(1) == 1 else 1 for v in z2_rz2.elements}
        )
        d = derived_semigroup(rho)
        witness = derived_division_witness(rho, d)
        witness.verify()


    def test_fresh_object_arrows_are_labeled_by_s(self, b2z2_1):
        # arrows from the fresh object are identified on the nose: one class
        # per source element, keyed (-1, end, (s_index, None))
        rho = RelationalMorphism.to_trivial(b2z2_1)
        d = derived_semigroup(rho)
        fresh = {k for k in d.elements if k != "0" and k[0] < 0}
        assert fresh == {(-1, 0, (i, None)) for i in range(len(b2z2_1))}

    def test_derivation_bound_holds_for_a_quotient_morphism(self, z2_rz2, z2_abs):
        # c(S) <= c(T) + c(D(rho)) on the estimates' upper bounds
        rho = RelationalMorphism.from_function(
            z2_rz2, z2_abs, {v: 0 if v(1) == 1 else 1 for v in z2_rz2.elements}
        )
        t_upper = estimate(rho.target).upper
        d_upper = estimate(derived_semigroup(rho)).upper
        assert estimate(z2_rz2).upper <= t_upper + d_upper


def _arrow_identification_reference(rho):
    """Products of derived arrows do not depend on the representatives
    (proved in `derived_semigroup`'s docstring), pair by pair: the arrows
    of class k1 times those of a class k2 that starts where k1 ends land
    in one class.  None when they do, else the first pair that fails."""
    s_mul, t_mul = rho.source.mul_index, rho.target.mul_index
    members = collections.defaultdict(list)
    for obj in range(-1, len(rho.target)):
        for s, t2 in sorted(rho.graph):
            members[complexity._arrow_key(rho, obj, s, t2)].append((obj, s, t2))
    for k1, arr1 in members.items():
        for k2, arr2 in members.items():
            if k2[0] != k1[1]:
                continue
            products = {
                complexity._arrow_key(rho, obj1, s_mul(s1, s2), t_mul(t1, t2))
                for obj1, s1, t1 in arr1
                for _, s2, t2 in arr2
            }
            if len(products) > 1:
                return f"the product of {k1} and {k2} depends on the representatives"
    return None


def derived_relations(corpus):
    """The relations whose derived semigroups the division instances, demo
    07 and acceptance criterion 7 build, by name."""
    triv = FiniteSemigroup.generate([("1", T.identity(1))])
    z2 = abstract([0, 1], lambda a, b: (a + b) % 2)
    u1 = abstract([0, 1], lambda a, b: a * b)
    z2_rz2, sym3, b2 = (corpus[name][0] for name in ("z2_rz2", "sym3", "b2z2_1"))
    out = {}
    for name, phi in (("1", RelationalMorphism.identity(triv)),
                      ("Z2->1", RelationalMorphism.to_trivial(z2)),
                      ("U1->1", RelationalMorphism.to_trivial(u1))):
        out[name] = phi
        out[f"{name} then 1"] = phi.compose(RelationalMorphism.identity(phi.target))
    projection = RelationalMorphism.from_function(
        z2_rz2, z2, {v: 0 if v(1) == 1 else 1 for v in z2_rz2.elements}
    )
    for name, rho in (("Z2xRZ2->Z2", projection), ("Sym3", RelationalMorphism.identity(sym3)),
                      ("B2", RelationalMorphism.identity(b2))):
        ex, eta = rhodes_expansion(rho.target)
        out[f"{name} expanded"] = lift_through_expansion(rho, ex, eta)
    out["B2->1"] = RelationalMorphism.to_trivial(b2)
    out["B2 identity"] = RelationalMorphism.identity(b2)
    return out


def test_arrow_identification_reference(corpus):
    relations = derived_relations(corpus)
    assert len(relations) == 11
    for name, rho in relations.items():
        assert _arrow_identification_reference(rho) is None, name


class TestRelationalMorphism:
    def test_compose_through_a_separately_built_middle(self, z2_rz2, z2_abs):
        # the same middle carrier built again, in the other element order,
        # is re-indexed through its values
        proj = {v: 0 if v(1) == 1 else 1 for v in z2_rz2.elements}
        rho = RelationalMorphism.from_function(z2_rz2, z2_abs, proj)
        z2_rev = FiniteSemigroup.from_elements(
            [0, 1], lambda a, b: (a + b) % 2, sort_key=lambda v: -v
        )
        assert z2_rev.elements == [1, 0]
        one = rho.compose(RelationalMorphism.identity(z2_abs))
        two = rho.compose(RelationalMorphism.from_function(z2_rev, z2_abs, {0: 0, 1: 1}))
        assert (two.graph, two.gen_choice) == (one.graph, one.gen_choice)
        d_one, d_two = derived_semigroup(one), derived_semigroup(two)
        assert d_two.elements == d_one.elements
        assert d_two.right_columns == d_one.right_columns

    def test_compose_refuses_another_middle(self, z2_rz2, sym3):
        with pytest.raises(InputError):
            RelationalMorphism.to_trivial(z2_rz2).compose(RelationalMorphism.identity(sym3))

    @pytest.mark.parametrize("mapping", [{0: 0, 1: 2}, {0: 0}], ids=["outside", "undefined"])
    def test_from_function_outside_the_target(self, z2_abs, mapping):
        with pytest.raises(InputError):
            RelationalMorphism.from_function(z2_abs, z2_abs, mapping)


class TestRhodesExpansion:
    def test_right_zero_unchanged(self, right_zero_2):
        ex, eta = rhodes_expansion(right_zero_2)
        assert len(ex) == len(right_zero_2)

    def test_group_unchanged(self, sym3):
        ex, eta = rhodes_expansion(sym3)
        assert len(ex) == len(sym3)

    def test_semilattice_grows(self):
        u1 = abstract([0, 1], lambda a, b: a * b)
        ex, eta = rhodes_expansion(u1)
        assert len(ex) == 3

    def test_eta_surjective_morphism_corpus_wide(self, corpus):
        for name in (
            "trivial", "right_zero_2", "semilattice", "z2", "z3", "sym3",
            "klein", "zero_z2", "z2_rz2", "aperiodic_3", "b2z2_1",
        ):
            sgp, _ = corpus[name]
            ex, eta = rhodes_expansion(sgp)
            assert set(eta.values()) == set(sgp.elements)
            for a in ex.elements:
                for b in ex.elements:
                    assert eta[ex.mul(a, b)] == sgp.mul(eta[a], eta[b])


class TestAperiodicMorphisms:
    def test_projection_is_aperiodic(self, z2_rz2, z2_abs):
        rho = RelationalMorphism.from_function(
            z2_rz2, z2_abs, {v: 0 if v(1) == 1 else 1 for v in z2_rz2.elements}
        )
        assert rho.is_aperiodic_morphism()

    def test_identity_is_aperiodic_morphism(self, sym3):
        assert RelationalMorphism.identity(sym3).is_aperiodic_morphism()

    def test_to_trivial_not_aperiodic_for_groups(self, sym3):
        assert not RelationalMorphism.to_trivial(sym3).is_aperiodic_morphism()

    def test_derived_of_expanded_aperiodic(self, z2_rz2, z2_abs, sym3, b2z2_1):
        cases = [
            RelationalMorphism.from_function(
                z2_rz2, z2_abs, {v: 0 if v(1) == 1 else 1 for v in z2_rz2.elements}
            ),
            RelationalMorphism.identity(sym3),
            RelationalMorphism.identity(b2z2_1),
        ]
        for rho in cases:
            assert rho.is_aperiodic_morphism()
            ex, eta = rhodes_expansion(rho.target)
            rho_hat = lift_through_expansion(rho, ex, eta)
            assert is_aperiodic(derived_semigroup(rho_hat))


class TestEstimate:
    def test_aperiodic_members(self, corpus):
        for name in ("trivial", "right_zero_2", "semilattice", "aperiodic_3"):
            sgp, _ = corpus[name]
            iv = estimate(sgp)
            assert (iv.lower, iv.upper) == (0, 0)

    def test_groups_are_one_one(self, corpus):
        for name in ("z2", "z3", "sym3", "klein"):
            sgp, _ = corpus[name]
            iv = estimate(sgp)
            assert (iv.lower, iv.upper) == (1, 1)

    def test_b2z2_pure_route(self, b2z2_1):
        iv = estimate(b2z2_1)
        assert (iv.lower, iv.upper) == (1, 1)
        child = iv.certificate["children"][0]["sub"]
        assert child["upper"]["kind"] == "pure"
        assert child["rlm"]["rule"] == "aperiodic"

    def test_small_monoid_flow_route(self, corpus):
        sgp, _ = corpus["small_2_z2"]
        iv = estimate(sgp)
        assert (iv.lower, iv.upper) == (1, 1)
        kinds = set()

        def walk(node):
            if "upper" in node:
                kinds.add(node["upper"]["kind"])
            for ch in node.get("children", []):
                walk(ch["sub"])
            if "rlm" in node:
                walk(node["rlm"])

        walk(iv.certificate)
        assert "flow" in kinds

    def test_monotone_in_budget(self, corpus):
        sgp, _ = corpus["small_2_z2"]
        starved = estimate(sgp, EstimateOptions(automata_budget=0))
        fed = estimate(sgp, EstimateOptions())
        assert starved.lower == fed.lower
        assert starved.upper >= fed.upper  # more budget never widens

    def test_starved_flow_falls_back_to_pure(self, corpus):
        sgp, _ = corpus["small_2_z2"]
        iv = estimate(sgp, EstimateOptions(automata_budget=0))
        assert iv.lower == 1
        assert iv.upper == 2  # wreath embedding over the RLM still applies

    def test_interval_sanity(self):
        with pytest.raises(Exception):
            ComplexityInterval(2, 1, {})

    def test_a_failed_construction_is_a_verification_failure(
        self, corpus, monkeypatch, capsys, tmp_path
    ):
        """A verified flow always constructs (the proof is in the `flows`
        module docstring), so a construction that fails is raised, never
        passed over: `estimate` raises it, and `krc estimate` and `krc
        replay` of a flow certificate exit 4."""
        sgp, _ = corpus["small_2_z2"]
        file, cert = str(CORPUS_DIR / "small_2_z2.sgp"), tmp_path / "cert.json"
        assert main(["estimate", file, "--cert", str(cert)]) == EXIT_OK
        assert '"kind": "flow"' in cert.read_text(encoding="ascii")

        def broken(flow):
            raise VerificationError("construction failed")

        monkeypatch.setattr(complexity, "presentation_construct", broken)
        with pytest.raises(VerificationError, match="construction failed"):
            estimate(sgp)
        capsys.readouterr()
        assert main(["estimate", file]) == EXIT_VERIFY
        assert main(["replay", str(cert)]) == EXIT_VERIFY
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "verification failure: construction failed\n" * 2


class TestDerivedWreathDivision:
    def test_three_tiny_instances(self):
        triv = FiniteSemigroup.generate([("1", T.identity(1))])
        z2 = abstract([0, 1], lambda a, b: (a + b) % 2)
        u1 = abstract([0, 1], lambda a, b: a * b)

        results = []
        phi1 = RelationalMorphism.identity(triv)
        results.append(check_derived_wreath_division(phi1, phi1))
        phi2 = RelationalMorphism.to_trivial(z2)
        results.append(
            check_derived_wreath_division(
                phi2, RelationalMorphism.identity(phi2.target), budget=4_000_000
            )
        )
        phi3 = RelationalMorphism.to_trivial(u1)
        results.append(
            check_derived_wreath_division(
                phi3, RelationalMorphism.identity(phi3.target), budget=6_000_000
            )
        )
        for r in results:
            assert isinstance(r, (DivisionWitness, ExhaustionReport))
        assert any(isinstance(r, DivisionWitness) for r in results)
        # and in fact all three certify here
        assert all(isinstance(r, DivisionWitness) for r in results)


BUDGET_0 = EstimateOptions(automata_budget=0)


def memo_served(monkeypatch, sgp, options):
    """estimate(sgp, options) on a memo of its own; returns that memo and,
    per call the memo served, (carrier, label, interval).  The memo enters
    a GM or RLM image when it is built, before its interval is computed, so
    a served call is one after which no more entries hold an interval."""
    memo, served = {}, []
    inner = complexity.estimate

    def computed():
        return sum(entry.interval is not None for entry in memo.values())

    def tracing(sub, opts=None, _label="S", _given=None, _memo=None):
        before = computed()
        result = inner(sub, opts, _label, _given, _memo)
        if _memo is memo and computed() == before:
            served.append((sub, _label, result))
        return result

    with monkeypatch.context() as patch:
        patch.setattr(complexity, "estimate", tracing)
        tracing(sgp, options, _memo=memo)
    return memo, served


class TestMemo:
    """Each distinct carrier is computed once per estimate; every memo hit
    must equal a fresh estimate of its node at its label."""

    def check_hits(self, served, options):
        for sub, label, got in served:
            fresh = estimate(sub, options, _label=label)
            assert (got.lower, got.upper) == (fresh.lower, fresh.upper), label
            assert got.certificate == fresh.certificate, label

    @pytest.mark.parametrize("name", [e["name"] for e in load_corpus_manifest()])
    def test_corpus(self, monkeypatch, corpus, name):
        sgp, _ = corpus[name]
        _, served = memo_served(monkeypatch, sgp, None)
        self.check_hits(served, None)

    @pytest.mark.parametrize("gens,options,computed,hits", [
        (LADDER["T3"], None, 6, 2),
        (LADDER["PT3"], None, 6, 2),
        (LADDER["I3"], None, 6, 2),
        (I4_GENS, BUDGET_0, 10, 7),
        (T4_GENS, BUDGET_0, 10, 7),
    ], ids=["T3", "PT3", "I3", "I4", "T4"])
    def test_ladder(self, monkeypatch, gens, options, computed, hits):
        memo, served = memo_served(monkeypatch, ladder(gens), options)
        assert (len(memo), len(served)) == (computed, hits)
        self.check_hits(served, options)

    def test_keys_hold_the_carriers_own_columns(self):
        # the memo keeps no copy of a graph: each key's columns are the
        # very tuple its carrier holds
        memo = {}
        estimate(ladder(I4_GENS), BUDGET_0, _memo=memo)
        assert len(memo) == 10
        for key, entry in memo.items():
            assert key[0] is entry.sgp.right_columns


# fresh carriers: the session's corpus may hold classifications already
CLASSIFIED_RUNS = {e["name"]: (e["file"], None) for e in load_corpus_manifest()}
CLASSIFIED_RUNS.update({name: (LADDER[name], None) for name in ("T3", "PT3", "I3")})
CLASSIFIED_RUNS.update({"I4": (I4_GENS, BUDGET_0), "T4": (T4_GENS, BUDGET_0)})


def classified_run(name):
    """A fresh root carrier of CLASSIFIED_RUNS[name] and its options."""
    source, options = CLASSIFIED_RUNS[name]
    if isinstance(source, str):
        return load_semigroup(CORPUS_DIR / source), options
    return ladder(source), options


def reuses(monkeypatch, sgp, options, on_reuse=lambda sub: None):
    """estimate(sgp, options), recording each GM or RLM image that the memo
    gave back instead of building: (the constructor arguments, the carrier
    given back).  `on_reuse(carrier)` runs at each such call."""
    calls = []
    inner = complexity._memo_carrier

    def tracing(memo, *args):
        held = complexity._key(*args) in memo
        sub = inner(memo, *args)
        if held:
            calls.append((args, sub))
            on_reuse(sub)
        return sub

    with monkeypatch.context() as patch:
        patch.setattr(complexity, "_memo_carrier", tracing)
        estimate(sgp, options)
    return calls


class TestSharedStructure:
    """A GM or RLM image reached by a second path is the carrier the memo
    holds for its structure: each distinct structure gets one Green
    structure and one classification per estimate, no GM image an
    associativity check (it is proved, not checked: neither the graph check
    nor Light's test runs), and a reused carrier still goes through every
    check."""

    @pytest.mark.parametrize("gens,bodies,greens", [
        (LADDER["T3"], 5, 6),
        (LADDER["PT3"], 5, 6),
        (LADDER["I3"], 5, 6),
        (I4_GENS, 9, 10),
        (T4_GENS, 9, 10),
    ], ids=["T3", "PT3", "I3", "I4", "T4"])
    def test_counts(self, monkeypatch, gens, bodies, greens):
        counts = collections.Counter()

        def counting(name, fn, runs=lambda *args: True):
            def counted(*args):
                counts[name] += runs(*args)
                return fn(*args)
            return counted

        light_checked = core.FiniteSemigroup._light_checked

        def light(sub, mul, *table):  # a Light's test that runs marks its carrier checked
            light_checked(sub, mul, *table)
            counts["light"] += sub._associative
            return sub

        monkeypatch.setattr(semilocal, "_classify", counting("classify", semilocal._classify))
        monkeypatch.setattr(core, "green", counting("green", core.green))
        monkeypatch.setattr(core.FiniteSemigroup, "check_associative", counting(
            "graph", core.FiniteSemigroup.check_associative, lambda sub: not sub._associative
        ))
        monkeypatch.setattr(core.FiniteSemigroup, "_light_checked", light)
        estimate(ladder(gens), BUDGET_0)
        assert (counts["classify"], counts["green"]) == (bodies, greens)
        assert (counts["graph"], counts["light"]) == (0, 0)

    @pytest.mark.parametrize("name", list(CLASSIFIED_RUNS))
    def test_reused_carriers_match_fresh_ones(self, monkeypatch, name):
        calls = reuses(monkeypatch, *classified_run(name))
        for args, sub in calls:
            fresh = FiniteSemigroup(*args)
            assert fresh.green() == sub.green()
            assert semilocal.classify(fresh) == semilocal.classify(sub)
        if name in ("T3", "PT3", "I3", "I4", "T4"):
            # one GM image and one RLM image at least
            assert {sub.is_transformation for _, sub in calls} == {False, True}

    @pytest.mark.parametrize("gens", [LADDER["T3"], T4_GENS], ids=["T3", "T4"])
    @pytest.mark.parametrize("transformation,flag,message", [
        (False, "group_mapping", "GM image is not group mapping"),
        (True, "right_mapping", "RLM quotient is not right mapping"),
    ], ids=["gm", "rlm"])
    def test_a_reused_image_is_still_checked(
        self, monkeypatch, gens, transformation, flag, message
    ):
        spoiled = []

        def spoil(sub):
            if sub.is_transformation == transformation and not spoiled:
                cls = semilocal.classify(sub)
                sub._classification = dataclasses.replace(cls, **{flag: False})
                spoiled.append(sub)

        with pytest.raises(VerificationError, match=f"^{message}$") as err:
            reuses(monkeypatch, ladder(gens), BUDGET_0, spoil)
        # the check that failed is the one on the reused image at its
        # parent, not one on the image's own GM reduction further down
        raised = err.traceback[-1]
        assert raised.name == ("rlm_quotient" if transformation else "gm_quotient")
        local = raised.frame.f_locals
        image = local["rlm"] if transformation else vars(local["gq"]).get("quotient")
        assert image is spoiled[0] and local["sgp"] is not image


class TestProofsNotPasses:
    """The estimate/replay path runs neither whole-table check: a GM
    image's associativity (`semilocal.GmQuotient.quotient`) and the Rees
    transport law (`semilocal.rees_coordinates`) are proved there, and
    both checks are oracles of the tests."""

    @pytest.mark.parametrize("gens", [I4_GENS, T4_GENS], ids=["I4", "T4"])
    def test_estimate_and_replay_run_neither(self, monkeypatch, gens):
        counts = collections.Counter()
        graph = core.FiniteSemigroup.check_associative
        transport = semilocal.ReesCoordinates.verify_transport
        coordinates = semilocal.rees_coordinates

        def checking(sub):
            counts["graph called"] += 1
            counts["graph"] += not sub._associative  # the body runs
            graph(sub)

        def verifying(rc):
            counts["transport"] += 1
            transport(rc)

        def coordinatizing(*args):
            counts["coordinates"] += 1
            return coordinates(*args)

        monkeypatch.setattr(core.FiniteSemigroup, "check_associative", checking)
        monkeypatch.setattr(semilocal.ReesCoordinates, "verify_transport", verifying)
        monkeypatch.setattr(semilocal, "rees_coordinates", coordinatizing)
        cert = estimate(ladder(gens), BUDGET_0).certificate
        complexity.replay_certificate(json.loads(certificate_json(cert)))
        assert (counts["graph"], counts["transport"]) == (0, 0)
        # every GM image was written, and every group-mapping node coordinatized
        assert counts["graph called"] > 0 and counts["coordinates"] > 0

    @pytest.mark.parametrize("gens", [I4_GENS, T4_GENS], ids=["I4", "T4"])
    def test_wreath_embedding_closes_on_rows(self, monkeypatch, gens):
        # each group-mapping presentation's embedding is one division,
        # closed on the wreath image's action rows (`products.WreathRows`),
        # so no wreath code is multiplied
        counts = collections.Counter()
        present, divide = complexity.group_mapping_presentation, products.check_division
        multiply = products.WreathProduct.mul_code

        def presenting(*args):
            counts["presentations"] += 1
            return present(*args)

        def dividing(*args, **kwargs):
            counts["divisions"] += 1
            return divide(*args, **kwargs)

        def multiplying(*args):
            counts["wreath products"] += 1
            return multiply(*args)

        monkeypatch.setattr(complexity, "group_mapping_presentation", presenting)
        for module in (products, semilocal, complexity, flows):
            monkeypatch.setattr(module, "check_division", dividing)
        monkeypatch.setattr(products.WreathProduct, "mul_code", multiplying)
        cert = estimate(ladder(gens), BUDGET_0).certificate
        complexity.replay_certificate(json.loads(certificate_json(cert)))
        assert counts["presentations"] > 0
        assert counts["divisions"] == counts["presentations"]
        assert counts["wreath products"] == 0

    def test_no_profile_where_the_classification_proves_it_discrete(self, monkeypatch):
        # `gm_quotient` skips the GM profile at the distinguished class of a
        # carrier kept classified as generalized group mapping (the lemma in
        # its docstring); I_4 and T_4's runs reach such classes
        counts = collections.Counter()
        quotient, profile = complexity.gm_quotient, semilocal._profile_classes

        def proved(sgp, jref):
            kept = sgp._classification
            return bool(kept and kept.generalized_group_mapping
                        and kept.distinguished_j == jref.j_id)

        def quotienting(sgp, jref, *args):
            counts["proved"] += proved(sgp, jref)
            return quotient(sgp, jref, *args)

        def profiling(sgp, jref):
            counts["profiled"] += 1
            counts["profiled where proved"] += proved(sgp, jref)
            return profile(sgp, jref)

        monkeypatch.setattr(complexity, "gm_quotient", quotienting)
        monkeypatch.setattr(semilocal, "_profile_classes", profiling)
        for gens in (I4_GENS, T4_GENS):
            cert = estimate(ladder(gens), BUDGET_0).certificate
            complexity.replay_certificate(json.loads(certificate_json(cert)))
        assert counts["proved"] > 0 and counts["profiled"] > 0
        assert counts["profiled where proved"] == 0

    @pytest.mark.parametrize("gens", [I4_GENS, T4_GENS], ids=["I4", "T4"])
    def test_every_table_is_over_the_generators(self, monkeypatch, gens):
        # the only right-action tables are the left Cayley graphs, the rows
        # over the generators that each carrier builds: S's action on J is
        # read off single products, and the wreath embedding's is proved
        # (`semilocal.fasp_embedding`), so no table over an R-class (24
        # points at T_4) or over J (144) is built
        widths = []
        translations = core.FiniteSemigroup.right_translations

        def measured(sub, points):
            points = tuple(points)
            widths.append((sub, len(points)))
            return translations(sub, points)

        monkeypatch.setattr(core.FiniteSemigroup, "right_translations", measured)
        cert = estimate(ladder(gens), BUDGET_0).certificate
        complexity.replay_certificate(json.loads(certificate_json(cert)))
        monkeypatch.undo()
        for sub, width in widths:
            assert width == len(sub.gens)
        assert max(width for _, width in widths) == 3

    def test_constructions_close_no_transition_semigroup(self, monkeypatch):
        # T_A is closed once, by the search's or replay's cap check; the
        # construction takes it as partial maps coded by rows
        counts = collections.Counter()
        construct, close = complexity.presentation_construct, flows.transition_semigroup

        def constructing(flow):
            counts["constructions"] += 1
            counts["inside"] += 1
            try:
                return construct(flow)
            finally:
                counts["inside"] -= 1

        def closing(aut):
            counts["closed inside"] += counts["inside"] > 0
            return close(aut)

        monkeypatch.setattr(complexity, "presentation_construct", constructing)
        monkeypatch.setattr(flows, "transition_semigroup", closing)
        for entry in load_corpus_manifest():
            cert = estimate(load_semigroup(CORPUS_DIR / entry["file"])).certificate
            complexity.replay_certificate(json.loads(certificate_json(cert)))
        assert counts["constructions"] > 0 and counts["closed inside"] == 0


def reached(monkeypatch, sgp, options):
    """Every carrier that estimate(sgp, options) classifies, once each."""
    seen = {}
    inner = semilocal.classify

    def classifying(sub):
        seen[id(sub)] = sub
        return inner(sub)

    with monkeypatch.context() as patch:
        patch.setattr(semilocal, "classify", classifying)
        estimate(sgp, options)
    return list(seen.values())


class TestOneClassFaithfulness:
    """`classify` tests faithfulness on one R-class and one L-class of each
    0-minimal ideal; its verdicts must be the whole ideal's (the lemma in
    its docstring) on every carrier an estimate classifies."""

    @pytest.mark.parametrize("name", list(CLASSIFIED_RUNS))
    def test_every_classified_carrier(self, monkeypatch, name):
        sgp, options = classified_run(name)
        carriers = reached(monkeypatch, sgp, options)
        assert carriers or is_aperiodic(sgp)
        for sub in carriers:
            cls = semilocal.classify(sub)
            assert (cls.right_mapping, cls.left_mapping) == whole_ideal_verdicts(sub)

    def test_runs_reach_kernels_and_proper_classes(self, monkeypatch):
        # a kernel with no zero (Z_2's carriers), and a class whose R- and
        # L-classes are proper parts of J with more than one element (T_3's)
        carriers = reached(monkeypatch, ladder(LADDER["T3"]), None)
        carriers += reached(monkeypatch, load_semigroup(CORPUS_DIR / "z2.sgp"), None)
        assert any(sub.zero_index() is None for sub in carriers)

        def proper(sub):
            gs = sub.green()
            members = gs.j_classes[semilocal.classify(sub).distinguished_j]
            r, l = gs.r_classes[gs.r_of[members[0]]], gs.l_classes[gs.l_of[members[0]]]
            return 1 < len(r) < len(members) and 1 < len(l) < len(members)

        assert any(proper(sub) for sub in carriers)

    @pytest.mark.parametrize("gens,null,zero,verdicts", [
        ([T((2, 0))], [True], True, (False, False)),  # {x, 0}
        ([T((1, 0, 0)), T((0, 3, 0))], [False, True], True, (False, False)),  # {e, x, 0}
        ([T((1, 1)), T((2, 2))], [False], False, (True, False)),  # a right zero semigroup
    ], ids=["null", "regular-and-null", "right-zero"])
    def test_null_ideals_and_a_kernel(self, gens, null, zero, verdicts):
        sgp = FiniteSemigroup.generate([(f"g{k}", g) for k, g in enumerate(gens)])
        gs = sgp.green()
        assert [not gs.regular[c] for c, _ in semilocal._zero_minimal_ideals(sgp)[1]] == null
        assert (sgp.zero_index() is not None) == zero
        cls = semilocal.classify(sgp)
        assert (cls.right_mapping, cls.left_mapping) == whole_ideal_verdicts(sgp) == verdicts


def test_flow_cap_check(corpus):
    assert complexity.flow_cap_check(0, EstimateOptions()) is is_aperiodic
    within_one = complexity.flow_cap_check(1, EstimateOptions())
    assert within_one(corpus["z2"][0])  # [1, 1]
    assert not within_one(ladder(LADDER["T3"]))  # [1, 2]


def test_relational_morphism_validation(sym3):
    z2 = abstract([0, 1], lambda a, b: (a + b) % 2)
    with pytest.raises(InputError):
        RelationalMorphism(sym3, z2, {(0, 0)}, {})
