"""The acceptance gate: one test per criterion, each printing a pass line
with its measured evidence.  Run with -s (or read test_output.txt) to see
the lines; every tolerance and bound is pinned here, not configured."""

import json
import random
import time

import pytest

from krc.cli import CORPUS_DIR, corpus_report, load_corpus_manifest
from krc.complexity import (
    RelationalMorphism,
    check_derived_wreath_division,
    derived_semigroup,
    estimate,
    lift_through_expansion,
    replay_certificate,
    rhodes_expansion,
)
from krc.core import (
    FiniteGroup,
    FiniteSemigroup,
    PartialTransformation,
    check_stability,
    is_aperiodic,
)
from krc.errors import InputError, VerificationError
from krc.fileformats import load_semigroup
from krc.flows import presentation_construct, trivial_flow, verify_flow, Flow
from krc.inverse import analyze_lift, brandt_isomorphism, small_monoid
from krc.products import DivisionWitness
from krc.semilocal import (
    JClassRef,
    classify,
    fasp_embedding,
    group_mapping_presentation,
    rees_coordinates,
    rlm_quotient,
)
from krc.spc import TOP, canonicalize, enumerate_spcs, join, leq, meet

from helpers import SEED, _sample_semigroups, changed, leaf_paths, node_at

T = PartialTransformation


@pytest.fixture(scope="module")
def sample():
    return _sample_semigroups()


def test_criterion_1_green_stability_suite(sample):
    start = time.monotonic()
    assert len(sample) >= 200
    for sgp in sample:
        check_stability(sgp)
        gs = sgp.green()
        for j, members in enumerate(gs.j_classes):
            # J^2 meets J only for regular classes
            squared = any(
                gs.j_of[sgp.mul_index(u, v)] == j for u in members for v in members
            )
            if squared:
                assert gs.regular[j]
            # a class is regular iff it holds an idempotent
            has_idem = any(sgp.mul_index(u, u) == u for u in members)
            assert gs.regular[j] == has_idem
            # every (R-class, L-class) pair inside J meets
            rs = sorted({gs.r_of[i] for i in members})
            ls = sorted({gs.l_of[i] for i in members})
            for r in rs:
                for l in ls:
                    assert any(
                        gs.r_of[i] == r and gs.l_of[i] == l for i in members
                    )
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(
        f"ACCEPTANCE 1: PASS - stability and regularity over {len(sample)} "
        f"sampled semigroups in {elapsed:.1f}s"
    )


def test_criterion_2_aperiodicity_oracle(sample):
    disagreements = 0
    for sgp in sample:
        # brute force: the H-class of every idempotent, from raw products
        brute = True
        n = len(sgp.elements)
        for e in range(n):
            if sgp.mul_index(e, e) != e:
                continue
            members = []
            for x in range(n):
                if sgp.mul_index(x, e) != x or sgp.mul_index(e, x) != x:
                    continue
                if any(
                    sgp.mul_index(x, y) == e and sgp.mul_index(y, x) == e
                    and sgp.mul_index(e, y) == y and sgp.mul_index(y, e) == y
                    for y in range(n)
                ):
                    members.append(x)
            if len(members) > 1:
                brute = False
                break
        if brute != is_aperiodic(sgp):
            disagreements += 1
    assert disagreements == 0
    print(
        f"ACCEPTANCE 2: PASS - aperiodicity oracle agreement on "
        f"{len(sample)} instances, 0 disagreements"
    )


def test_criterion_3_rees_and_embedding():
    z2 = FiniteGroup.cyclic(2)
    triv = FiniteGroup.trivial()
    members = {
        "b2z2_1": load_semigroup(CORPUS_DIR / "b2z2_1.sgp"),
        "sym3": load_semigroup(CORPUS_DIR / "sym3.sgp"),
        "small_2_triv": load_semigroup(CORPUS_DIR / "small_2_triv.sgp"),
        "small_2_z2": load_semigroup(CORPUS_DIR / "small_2_z2.sgp"),
        "small_3_triv_r1": load_semigroup(CORPUS_DIR / "small_3_triv_r1.sgp"),
        "small_3_z2_r1": load_semigroup(CORPUS_DIR / "small_3_z2_r1.sgp"),
    }
    for name, sgp in members.items():
        cls = classify(sgp)
        assert cls.generalized_group_mapping, name
        jref = JClassRef(sgp, cls.distinguished_j)
        rc = rees_coordinates(sgp, jref)
        rc.verify_transport()  # exhaustive over |J|^2 products
        rc.verify_matrix_regular()
        pres = group_mapping_presentation(sgp)
        emb = fasp_embedding(pres)  # division witness + injectivity inside
        assert len(emb.rows.morphism) == len(sgp)
    print(
        f"ACCEPTANCE 3: PASS - Rees transport and wreath embedding verified "
        f"for {len(members)} generalized group mapping members"
    )


def test_criterion_4_spc_lattice():
    start = time.monotonic()
    z2 = FiniteGroup.cyclic(2)
    triv = FiniteGroup.trivial()
    six = enumerate_spcs(2, z2)
    assert len(six) == 6
    # the completed lattice adds the top: 7 elements
    assert len(six) + 1 == 7

    def glbs(x, y, group, univ):
        lbs = [z for z in univ if leq(z, x, group) and leq(z, y, group)]
        return [z for z in lbs if not any(leq(z, w, group) and z != w for w in lbs)]

    def lubs(x, y, group, univ):
        ubs = [z for z in univ if leq(x, z, group) and leq(y, z, group)]
        return [z for z in ubs if not any(leq(w, z, group) and z != w for w in ubs)]

    pairs = 0
    for group in (triv, z2):
        univ = enumerate_spcs(3, group)
        for x in univ:
            for y in univ:
                pairs += 1
                assert glbs(x, y, group, univ) == [meet(x, y, group)]
                j = join(x, y, group)
                want = lubs(x, y, group, univ)
                if j is TOP:
                    assert want == []
                    assert len(group) > 1  # never the top over the trivial group
                else:
                    assert want == [j]
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(
        f"ACCEPTANCE 4: PASS - |SPC({{1,2}},Z_2)| = 6, completed lattice 7; "
        f"meet/join match brute force on {pairs} pairs in {elapsed:.1f}s"
    )


def test_criterion_5_flow_machinery():
    rng = random.Random(SEED)
    checked = 0
    for name in ("b2z2_1", "small_2_triv", "small_2_z2", "small_3_z2_r1"):
        sgp = load_semigroup(CORPUS_DIR / f"{name}.sgp")
        pres = group_mapping_presentation(sgp)
        flow = trivial_flow(pres)
        assert verify_flow(flow) is True, name
        witness = presentation_construct(flow)
        # rho onto G x B + 0 and the division have been machine-checked in
        # the constructor; replay the division through the checker once more
        witness.division.verify()
        assert set(witness.division.morphism.values()) == set(sgp.elements)
        # verdict invariant under blockwise relabeling
        for _ in range(100):
            relabeled = []
            for spc in flow.labeling:
                mu = {}
                for blk, labs in zip(spc.blocks, spc.labels):
                    g = rng.randrange(len(pres.group))
                    for b, v in zip(blk, labs):
                        mu[b] = pres.group.mul(g, v)
                relabeled.append(canonicalize(spc.size_b, spc.blocks, mu, pres.group))
            assert verify_flow(Flow(flow.automaton, pres, tuple(relabeled))) is True
        checked += 1
    print(
        f"ACCEPTANCE 5: PASS - one-state flows verified, decompositions "
        f"re-checked, and 100 relabelings per member on {checked} members"
    )


def test_criterion_6_inverse_module():
    z2 = FiniteGroup.cyclic(2)
    triv = FiniteGroup.trivial()
    s17 = small_monoid(2, z2, 1)
    assert len(s17) == 17
    units = sum(1 for m in s17.elements if m.is_unit())
    assert units == 8 and len(s17) - units == 9
    census = analyze_lift(s17, z2)
    assert len(census.j0_members) == 8
    assert len(census.j2_members) == 8
    assert len(census.j1_members) == 16
    assert len(census.h_group) == 4  # G x (G wr Sym_{n-1})
    # J1 with zero is Brandt over H
    iso = brandt_isomorphism(census.ts, census.rees_j1)
    assert len(iso) == 16

    # RLM of the lift equals RLM of S (column-matched map sets)
    def column_rlm(sgp, jref, cols):
        rq = rlm_quotient(sgp, jref)
        out = set()
        for v in rq.rlm.elements:
            images = [0] * len(cols)
            for b in range(len(cols)):
                img = v(b + 1)
                images[cols[b] - 1] = 0 if img == 0 else cols[img - 1]
            out.add(tuple(images))
        return out

    cls = classify(s17)
    jref_s = JClassRef(s17, cls.distinguished_j)
    gss = s17.green()
    cols_s = [s17.elements[min(gss.l_classes[b])].ran()[0] for b in jref_s.b_classes]
    ts = census.ts
    j1_id = ts.green().j_of[ts.index[census.j1_members[0]]]
    jref_t = JClassRef(ts, j1_id)
    gst = ts.green()
    cols_t = [
        ts.elements[min(gst.l_classes[b])][0].ran()[0] for b in jref_t.b_classes
    ]
    assert column_rlm(s17, jref_s, cols_s) == column_rlm(ts, jref_t, cols_t)

    # rank-r case: n = 3, r = 2, trivial G
    s25 = small_monoid(3, triv, 2)
    cls25 = classify(s25)
    jref25 = JClassRef(s25, cls25.distinguished_j)
    assert len(jref25.members) + 1 == 19
    rc25 = rees_coordinates(s25, jref25)
    assert len(rc25.group) == 2  # trivial wr Sym_2
    iso25 = brandt_isomorphism(s25, rc25)
    assert len(iso25) + 1 == 19
    print(
        "ACCEPTANCE 6: PASS - small monoid 17 = 8 + 9, lift census "
        "(8, 16, 8) with |H| = 4, RLM(T(S)) = RLM(S), rank-2 ideal of order 19"
    )


def test_criterion_7_derived_and_expansion():
    corpus_names = [
        "trivial", "right_zero_2", "semilattice", "z2", "z3", "sym3",
        "klein", "zero_z2", "z2_rz2", "aperiodic_3", "b2z2_1",
    ]
    for name in corpus_names:
        sgp = load_semigroup(CORPUS_DIR / f"{name}.sgp")
        ex, eta = rhodes_expansion(sgp)
        assert set(eta.values()) == set(sgp.elements)
        for a in ex.elements:
            for b in ex.elements:
                assert eta[ex.mul(a, b)] == sgp.mul(eta[a], eta[b])

    # aperiodic relational morphisms: D of the expansion-lifted relation
    z2_rz2 = load_semigroup(CORPUS_DIR / "z2_rz2.sgp")
    z2_abs = FiniteSemigroup.from_elements(
        [0, 1], lambda a, b: (a + b) % 2, sort_key=lambda v: v
    )
    sym3 = load_semigroup(CORPUS_DIR / "sym3.sgp")
    b2 = load_semigroup(CORPUS_DIR / "b2z2_1.sgp")
    morphisms = [
        RelationalMorphism.from_function(
            z2_rz2, z2_abs, {v: 0 if v(1) == 1 else 1 for v in z2_rz2.elements}
        ),
        RelationalMorphism.identity(sym3),
        RelationalMorphism.identity(b2),
    ]
    for rho in morphisms:
        assert rho.is_aperiodic_morphism()
        ex, eta = rhodes_expansion(rho.target)
        rho_hat = lift_through_expansion(rho, ex, eta)
        assert is_aperiodic(derived_semigroup(rho_hat))

    # the wreath bound on derived semigroups of composites, by search
    triv = FiniteSemigroup.generate([("1", T.identity(1))])
    u1 = FiniteSemigroup.from_elements([0, 1], lambda a, b: a * b, sort_key=lambda v: v)
    phi1 = RelationalMorphism.identity(triv)
    phi2 = RelationalMorphism.to_trivial(z2_abs)
    phi3 = RelationalMorphism.to_trivial(u1)
    instances = [
        (phi1, phi1, 300_000),
        (phi2, RelationalMorphism.identity(phi2.target), 4_000_000),
        (phi3, RelationalMorphism.identity(phi3.target), 6_000_000),
    ]
    outcomes = []
    for phi, psi, budget in instances:
        res = check_derived_wreath_division(phi, psi, budget=budget)
        outcomes.append(isinstance(res, DivisionWitness))
    assert all(outcomes), f"witnessed on {sum(outcomes)}/3 instances"
    print(
        f"ACCEPTANCE 7: PASS - expansion morphisms on {len(corpus_names)} members, "
        f"{len(morphisms)} aperiodic relations with aperiodic derived lifts, "
        f"wreath division witnessed on {sum(outcomes)}/3 tiny instances"
    )


def test_criterion_8_complexity_pipeline():
    manifest = load_corpus_manifest()
    slow = 0.0
    checked = 0
    for entry in manifest:
        sgp = load_semigroup(CORPUS_DIR / entry["file"])
        iv = estimate(sgp)
        want = entry["expected"]["interval"][0]
        assert [iv.lower, iv.upper] == want, entry["name"]
        if entry["expected"]["aperiodic"][0]:
            assert (iv.lower, iv.upper) == (0, 0)
        start = time.monotonic()
        replay_certificate(iv.certificate)
        took = time.monotonic() - start
        assert took <= 10.0, (entry["name"], took)
        slow = max(slow, took)
        checked += 1
    # spot-check the named members once more
    b2 = load_semigroup(CORPUS_DIR / "b2z2_1.sgp")
    assert (estimate(b2).lower, estimate(b2).upper) == (1, 1)
    for name in ("z2", "z3", "sym3", "klein"):
        g = load_semigroup(CORPUS_DIR / f"{name}.sgp")
        assert (estimate(g).lower, estimate(g).upper) == (1, 1)
    for name in ("small_2_z2", "small_3_z2_r1"):
        s = load_semigroup(CORPUS_DIR / f"{name}.sgp")
        iv = estimate(s)
        assert iv.lower == 1 and iv.upper == 1
    print(
        f"ACCEPTANCE 8: PASS - intervals match on {checked} corpus members, "
        f"slowest certificate replay {slow:.1f}s"
    )


def test_sample_round_trip_and_tamper(sample):
    """Every sample certificate replays, and the same certificate with one
    leaf changed (chosen by a seeded draw) is rejected."""
    rng = random.Random(SEED)
    start = time.monotonic()
    for sgp in sample:
        cert = estimate(sgp).certificate
        replay_certificate(cert)
        path = rng.choice(list(leaf_paths(cert)))
        bad = json.loads(json.dumps(cert))
        node_at(bad, path[:-1])[path[-1]] = changed(node_at(cert, path))
        rejected = (VerificationError, InputError) if path == ("semigroup",) else VerificationError
        with pytest.raises(rejected):
            replay_certificate(bad)
    print(
        f"ACCEPTANCE 8b: PASS - {len(sample)} sample certificates replay and reject "
        f"one changed leaf each ({time.monotonic() - start:.1f}s)"
    )


def test_criterion_9_determinism():
    r1 = corpus_report()
    r2 = corpus_report()
    assert r1.encode("ascii") == r2.encode("ascii")
    print(
        f"ACCEPTANCE 9: PASS - two corpus runs byte-identical "
        f"({len(r1.encode('ascii'))} bytes)"
    )
