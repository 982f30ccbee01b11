import dataclasses
import functools
import itertools
import random

import pytest

from krc import semilocal
from krc.cli import CORPUS_DIR, load_corpus_manifest
from krc.complexity import EstimateOptions, pure_upper
from krc.core import (
    ZERO,
    FiniteSemigroup,
    PartialTransformation,
    compose,
    is_aperiodic,
)
from krc.errors import InputError, VerificationError
from krc.fileformats import load_semigroup
from krc.products import _relation_closure
from krc.inverse import (
    matrix_semigroup_as_transformations,
    rlm_matrix,
    small_monoid,
)
from krc.semilocal import (
    Classification,
    JClassRef,
    _is_congruence,
    _zero_minimal_ideals,
    classify,
    gm_quotient,
    group_mapping_presentation,
    rees_coordinates,
    rlm_quotient,
    theta_prime_representation,
)

from helpers import (
    I4_GENS,
    LADDER,
    T4_GENS,
    _fasp_action_reference,
    _sample_semigroups,
    assert_rows_close_as_codes,
    assert_wreath_rows_compose,
    brute_zero_minimal_ideals,
    census_classes,
    fasp_embedding,
    fasp_pairs,
    fasp_value,
    lclass_maps,
    ladder,
    reached_presentations,
    wreath_row,
)

T = PartialTransformation


@pytest.fixture(scope="module")
def small17_trans(z2_group):
    return matrix_semigroup_as_transformations(small_monoid(2, z2_group, 1), z2_group)


class TestClassify:
    def test_nontrivial_group_is_group_mapping(self, sym3):
        cls = classify(sym3)
        assert cls.group_mapping
        assert cls.distinguished_j == 0

    def test_right_zero_right_not_left(self, right_zero_2):
        cls = classify(right_zero_2)
        assert cls.right_mapping
        assert not cls.left_mapping
        assert not cls.generalized_group_mapping

    def test_small_monoid_group_mapping(self, small17_trans):
        assert classify(small17_trans).group_mapping

    def test_unique_regular_ideal_when_mapping(self, b2z2_1):
        cls = classify(b2z2_1)
        assert cls.group_mapping
        assert len(_zero_minimal_ideals(b2z2_1)[1]) == 1
        assert b2z2_1.green().regular[cls.distinguished_j]

    def test_trivial_group_semigroup_is_ggm_not_gm(self, trivial_group):
        s7 = matrix_semigroup_as_transformations(
            small_monoid(2, trivial_group, 1), trivial_group
        )
        cls = classify(s7)
        assert cls.generalized_group_mapping
        assert not cls.group_mapping


def _brute_classification(sgp):
    """classify() by its definitions, every product traced on its own."""
    _, ideals = brute_zero_minimal_ideals(sgp)
    n = len(sgp)
    mul = sgp.mul_index

    def faithful(product, ideal):
        return len({tuple(product(s, a) for a in ideal) for s in range(n)}) == n

    right = [c for c, ideal in ideals if faithful(lambda s, a: mul(a, s), ideal)]
    left = [c for c, ideal in ideals if faithful(lambda s, a: mul(s, a), ideal)]
    distinguished = ideals[0][0] if right or left else None
    ggm = bool(right and left)
    gm = False
    if ggm:
        # H_e = eSe n J for an idempotent e of the regular class J
        members = sgp.green().j_classes[distinguished]
        gm = any(
            sum(mul(e, x) == x == mul(x, e) for x in members) > 1
            for e in members
            if mul(e, e) == e
        )
    return Classification(bool(right), bool(left), ggm, gm, distinguished)


def test_classify_matches_brute_force(corpus):
    ladder = [
        FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(gens)])
        for gens in LADDER.values()
    ]
    verdicts = set()
    for sgp in [s for s, _ in corpus.values()] + ladder:
        cls = classify(sgp)
        assert cls == _brute_classification(sgp)
        verdicts.add((cls.right_mapping, cls.left_mapping, cls.group_mapping))
    assert len(verdicts) >= 3


def test_classify_takes_products_in_bulk(monkeypatch):
    t3 = FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(LADDER["T3"])])
    t3.green()  # Green's relations trace each idempotent's square
    calls = []
    traced = FiniteSemigroup.mul_index

    def counted(self, i, j):
        calls.append((i, j))
        return traced(self, i, j)

    monkeypatch.setattr(FiniteSemigroup, "mul_index", counted)
    cls = classify(t3)
    assert cls.right_mapping and not cls.left_mapping
    assert calls == []


class TestRlmQuotient:
    def test_group_gives_trivial(self, sym3):
        rq = rlm_quotient(sym3, JClassRef(sym3, 0))
        assert len(rq.jref.b_classes) == 1
        assert len(rq.rlm) == 1

    def test_b2z2_action_on_two_classes(self, b2z2_1):
        rq = rlm_quotient(b2z2_1, JClassRef(b2z2_1, 1))
        assert len(rq.jref.b_classes) == 2
        assert len(rq.rlm) == 6
        assert is_aperiodic(rq.rlm)
        # the nonzero ideal maps act like matrix units over the trivial group
        maps = {rq.rlm.elements[rq.code[i]].images for i in rq.jref.members}
        assert maps == {(2, 0), (0, 1), (1, 0), (0, 2)}

    def test_flattening_matches_rlm_kernel(self, z2_group):
        # "changing all non-zero entries of elements of S to 1"
        sgp = small_monoid(2, z2_group, 1)
        rq = rlm_quotient(sgp, JClassRef(sgp, classify(sgp).distinguished_j))
        for a, ca in zip(sgp.elements, rq.code):
            for b, cb in zip(sgp.elements, rq.code):
                assert (rlm_matrix(a) == rlm_matrix(b)) == (ca == cb)

    def test_well_defined_across_representatives(self, b2z2_1):
        # bs in J for one representative iff for all: rebuilt per element
        gs = b2z2_1.green()
        jref = JClassRef(b2z2_1, 1)
        for s in range(len(b2z2_1)):
            for b in jref.b_classes:
                verdicts = {
                    gs.j_of[b2z2_1.mul_index(u, s)] == 1
                    for u in gs.l_classes[b]
                }
                assert len(verdicts) == 1

    def test_rejects_irregular_class(self):
        # a null semigroup: x^2 = 0, J-class of x not regular
        s = FiniteSemigroup.generate([("x", T((2, 0)))])
        gs = s.green()
        bad = next(j for j, flag in enumerate(gs.regular) if not flag)
        with pytest.raises(InputError):
            rlm_quotient(s, JClassRef(s, bad))


def degree4_carriers():
    return {
        name: FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(gens)])
        for name, gens in (("T4", T4_GENS), ("I4", I4_GENS))
    }


class TestRlmImageReadOff:
    """The RLM image read off S against the closure of the generators'
    L-class maps."""

    def test_equals_the_closure_of_the_generators_maps(self, corpus):
        gm_members = [s for s, want in corpus.values() if want["group_mapping"][0]]
        checked = 0
        for sgp in list(degree4_carriers().values()) + gm_members:
            for j, regular in enumerate(sgp.green().regular):
                if not regular:
                    continue
                jref = JClassRef(sgp, j)
                maps = lclass_maps(sgp, jref)
                closure = FiniteSemigroup.generate(
                    [(name, maps[g]) for name, g in zip(sgp.gen_names, sgp.gens)]
                )
                rq = rlm_quotient(sgp, jref)
                assert rq.rlm.elements == closure.elements
                assert rq.rlm.right_columns == closure.right_columns
                assert rq.rlm.gens == closure.gens
                assert rq.rlm.gen_names == closure.gen_names
                assert [rq.rlm.elements[c] for c in rq.code] == maps
                assert set(rq.code) == set(range(len(closure)))
                checked += 1
        assert checked == 9 + 21  # T_4 and I_4, then the GM corpus members

    def test_each_changed_map_is_rejected(self, monkeypatch):
        # one element's map, a generator's included, replaced by another
        # element's map (so the set of maps stays the same) or by a drawn
        # map of the same degree.  On a carrier where the changed table is
        # still a morphism (the trivial semigroup sent to the empty map) no
        # check could see it; on T_4 and I_4 every change shows.
        rng = random.Random(23)
        changes = 0
        for sgp in degree4_carriers().values():
            for j, regular in enumerate(sgp.green().regular):
                if not regular:
                    continue
                jref = JClassRef(sgp, j)
                maps = lclass_maps(sgp, jref)
                degree = maps[0].degree
                for s0, old in enumerate(maps):
                    drawn = old
                    while drawn == old:
                        drawn = T(tuple(rng.randrange(degree + 1) for _ in range(degree)))
                    other = next((m for m in maps if m != old), None)
                    for new in filter(None, (other, drawn)):
                        changed = maps[:s0] + [new] + maps[s0 + 1:]
                        columns = list(zip(*(m.images for m in changed)))
                        with monkeypatch.context() as patch, pytest.raises(VerificationError) as err:
                            patch.setattr(
                                semilocal, "_lclass_columns",
                                lambda sgp, jref, columns=columns: columns,
                            )
                            rlm_quotient(sgp, jref)
                        assert str(err.value) == "quotient morphism leaves the generated image"
                        changes += 1
        # I_4's zero class gives every element one map, so no other map
        assert changes == 2 * (4 * 256 + 5 * 209) - 209


class TestGmQuotient:
    def test_group_mapping_fixed_point(self, b2z2_1):
        gq = gm_quotient(b2z2_1, JClassRef(b2z2_1, 1))
        assert len(gq.quotient) == len(b2z2_1)

    def test_direct_product_collapses_to_group(self):
        s = FiniteSemigroup.generate([("x", T((2, 1, 3, 3))), ("y", T((2, 1, 4, 4)))])
        gs = s.green()
        assert len(gs.j_classes) == 1
        gq = gm_quotient(s, JClassRef(s, 0))
        assert len(gq.quotient) == 2
        assert not is_aperiodic(gq.quotient)

    def test_injective_on_distinguished_subgroups(self, small17_trans):
        cls = classify(small17_trans)
        jref = JClassRef(small17_trans, cls.distinguished_j)
        gq = gm_quotient(small17_trans, jref)
        gs = small17_trans.green()
        for e in gs.idempotents:
            if gs.j_of[e] != jref.j_id:
                continue
            h = gs.h_classes[gs.h_of[e]]
            images = {gq.class_rep[i] for i in h}
            assert len(images) == len(h)

    def test_cayley_graph_read_off_the_parent(self, corpus):
        # [r]*g = [r*g] gives the graph that tracing class_rep[r*g] gives
        t4 = FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(T4_GENS)])
        checked = 0
        for sgp in [s for s, _ in corpus.values()] + [t4]:
            for j, regular in enumerate(sgp.green().regular):
                if not regular:
                    continue
                gq = gm_quotient(sgp, JClassRef(sgp, j))
                class_rep = gq.class_rep
                traced = FiniteSemigroup.generate(
                    [(name, class_rep[g]) for name, g in zip(sgp.gen_names, sgp.gens)],
                    mul=lambda a, b: class_rep[sgp.mul_index(a, b)],
                    sort_key=lambda v: v,
                )
                assert gq.quotient.elements == traced.elements
                assert gq.quotient.gens == traced.gens
                assert gq.quotient.right_columns == traced.right_columns
                checked += 1
        assert checked > 20

    def test_the_oracle_rejects_a_corrupted_image(self):
        # T_4's 169-element image at its rank-2 class, rebuilt with one
        # right Cayley edge off the word tree moved to an element the tree
        # reaches earlier (so the tree stays the same): `check_associative`,
        # which `gm_quotient` no longer runs, rejects it when called.  A
        # broken premise is rejected at run time, by the congruence check
        # (`test_congruence_check_rejects_a_partition_broken_on_one_side`)
        t4 = FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(T4_GENS)])
        image = gm_quotient(t4, JClassRef(t4, 2)).quotient
        assert len(image) == 169 and image._associative
        args = image.elements, image.gens, image.gen_names
        FiniteSemigroup(*args, image.right_columns).check_associative()
        s, k = next(
            (s, k) for s in image._order[1:] for k, col in enumerate(image.right_columns)
            if (image._parent[col[s]], image._letter[col[s]]) != (s, k)
            and col[s] != image._order[0]
        )
        columns = [list(col) for col in image.right_columns]
        columns[k][s] = image._order[0]
        corrupted = FiniteSemigroup(*args, tuple(map(tuple, columns)))
        assert corrupted._order == image._order
        with pytest.raises(VerificationError, match="^regular representation is not faithful$"):
            corrupted.check_associative()

    def test_aperiodic_class_flagged_generalized(self, right_zero_2):
        gq = gm_quotient(right_zero_2, JClassRef(right_zero_2, 0))
        assert gq.generalized_only

    def test_only_a_discrete_partition_skips_the_congruence_check(self, corpus, monkeypatch):
        # the identity relation is always a congruence
        checked = []
        inner = semilocal._is_congruence
        monkeypatch.setattr(
            semilocal, "_is_congruence", lambda sgp, part: checked.append(part) or inner(sgp, part)
        )
        kinds = set()
        for sgp, _ in corpus.values():
            for j, regular in enumerate(sgp.green().regular):
                if regular:
                    checked.clear()
                    gq = gm_quotient(sgp, JClassRef(sgp, j))
                    discrete = gq.class_rep == list(range(len(sgp)))
                    assert checked == ([] if discrete else [gq.class_rep])
                    kinds.add(discrete)
        assert kinds == {False, True}


def _full_profile_classes(sgp, jref):
    """The GM congruence by its definition: s ~ t iff x*s*y and x*t*y agree
    through J for all x, y in J; per element index, its least class member.
    Each product by `mul_index`; the row (u*y for y in J) of each u = x*s
    is taken once."""
    gs = sgp.green()
    members = jref.members

    @functools.cache
    def through_j(u):
        products = (sgp.mul_index(u, y) for y in members)
        return tuple(p if gs.j_of[p] == jref.j_id else -1 for p in products)

    profiles = {}
    for s in range(len(sgp.elements)):
        prof = tuple(through_j(sgp.mul_index(x, s)) for x in members)
        profiles.setdefault(prof, []).append(s)
    least = {s: min(cls) for cls in profiles.values() for s in cls}
    return [least[s] for s in range(len(sgp.elements))]


def test_gm_key_matches_full_profile(corpus):
    checked = 0
    for sgp in [s for s, _ in corpus.values()] + _sample_semigroups():
        gs = sgp.green()
        for j_id, regular in enumerate(gs.regular):
            if regular:
                jref = JClassRef(sgp, j_id)
                assert gm_quotient(sgp, jref).class_rep == _full_profile_classes(sgp, jref)
                checked += 1
    assert checked == 494


def test_profile_keys_on_degree4_match_full_profile():
    """The sandwich keys read at Q's columns on the largest classes of
    the ladder (T_4's reach 144 members), every regular class of I_4
    and T_4."""
    checked = 0
    for sgp in degree4_carriers().values():
        for j_id, regular in enumerate(sgp.green().regular):
            if regular:
                jref = JClassRef(sgp, j_id)
                assert semilocal._profile_classes(sgp, jref) == _full_profile_classes(sgp, jref)
                checked += 1
    assert checked == 9


def _estimate_roots(family):
    """Fresh root carriers and options of the estimates the lemma oracle
    covers, by family."""
    if family == "corpus":
        return [(load_semigroup(CORPUS_DIR / e["file"]), None) for e in load_corpus_manifest()]
    if family == "sample":
        return [(sgp, None) for sgp in _sample_semigroups()]
    if family == "ladder":
        return [(ladder(gens), None) for gens in LADDER.values()]
    if family == "degree4":
        return [(ladder(gens), EstimateOptions(automata_budget=0)) for gens in (I4_GENS, T4_GENS)]
    return [(sgp, None) for sgp in census_classes()]


# per family, the distinct carriers its estimates classify as generalized
# group mapping (a carrier the memo gives back counts once)
GGM_CARRIERS = {"corpus": 35, "sample": 202, "ladder": 15, "degree4": 18, "census": 209}


@pytest.mark.parametrize("family", list(GGM_CARRIERS))
def test_a_generalized_group_mapping_carrier_is_its_own_gm_image(family):
    """The lemma in `gm_quotient`'s docstring: on every carrier whose kept
    classification is generalized group mapping, the GM congruence at its
    distinguished class, by its definition, is the identity relation, so
    `gm_quotient` may skip the profile there."""
    from krc.complexity import estimate

    roots = _estimate_roots(family)  # before the patch: importing a test module estimates
    seen = {}
    inner = semilocal.classify

    def classifying(sub):
        seen[id(sub)] = sub
        return inner(sub)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semilocal, "classify", classifying)
        for sgp, options in roots:
            estimate(sgp, options)
    ggm = [sub for sub in seen.values() if sub._classification.generalized_group_mapping]
    assert len(ggm) == GGM_CARRIERS[family]
    for sub in ggm:
        jref = JClassRef(sub, sub._classification.distinguished_j)
        assert _full_profile_classes(sub, jref) == list(range(len(sub)))


def _is_congruence_by_pairs(sgp, class_rep):
    """All pairs (u, v): u*v ~ r(u)*r(v), products taken by composition."""
    els, index = sgp.elements, sgp.index
    n = len(els)
    return all(
        class_rep[index[compose(els[u], els[v])]]
        == class_rep[index[compose(els[class_rep[u]], els[class_rep[v]])]]
        for u in range(n)
        for v in range(n)
    )


def test_generator_congruence_check_matches_all_pairs(corpus):
    verdicts = []
    for sgp, _ in corpus.values():
        # L is a right congruence and R a left one, seldom two-sided
        gs = sgp.green()
        for class_of, classes in ((gs.l_of, gs.l_classes), (gs.r_of, gs.r_classes)):
            part = [min(classes[c]) for c in class_of]
            verdicts.append(_is_congruence(sgp, part))
            assert verdicts[-1] == _is_congruence_by_pairs(sgp, part)
        for j_id, regular in enumerate(gs.regular):
            if not regular:
                continue
            class_rep = gm_quotient(sgp, JClassRef(sgp, j_id)).class_rep
            partitions = [class_rep]
            for a, b in itertools.combinations(sorted(set(class_rep)), 2):
                partitions.append([a if r == b else r for r in class_rep])
            for part in partitions:
                verdict = _is_congruence(sgp, part)
                assert verdict == _is_congruence_by_pairs(sgp, part)
                verdicts.append(verdict)
    # every J-profile partition is a congruence; some merges are not
    assert verdicts.count(True) > 0 and verdicts.count(False) > 0


def _broken_sides(sgp, class_rep):
    """The Cayley graphs, "right" or "left", with an edge where s*g and r*g
    (g*s and g*r) lie in different classes, r the representative of s;
    edge by edge."""
    sides = set()
    for s, r in enumerate(class_rep):
        for side, columns in (("right", sgp.right_columns), ("left", sgp.left_columns)):
            if any(class_rep[col[s]] != class_rep[col[r]] for col in columns):
                sides.add(side)
    return sides


@pytest.mark.parametrize("side", ["left", "right"])
def test_congruence_check_rejects_a_partition_broken_on_one_side(corpus, monkeypatch, side):
    """L is a right congruence and R a left one: the L-partition can break
    only at a left edge and the R-partition only at a right edge.  Where
    one breaks, `_is_congruence` says so, and `gm_quotient` given it as its
    classes fails with its message."""
    t3 = FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(LADDER["T3"])])
    rejected = 0
    for sgp in [s for s, _ in corpus.values()] + [t3]:
        gs = sgp.green()
        class_of, classes = (gs.l_of, gs.l_classes) if side == "left" else (gs.r_of, gs.r_classes)
        part = [min(classes[c]) for c in class_of]
        broken = _broken_sides(sgp, part)
        assert broken <= {side}
        assert _is_congruence(sgp, part) == (not broken)
        if not broken:
            continue
        # a fresh copy keeps no classification, so `gm_quotient` reads its
        # classes off the (patched) profile, never off the discrete lemma
        fresh = FiniteSemigroup(sgp.elements, sgp.gens, sgp.gen_names, sgp.right_columns)
        jref = JClassRef(fresh, gs.regular.index(True))
        with monkeypatch.context() as patch:
            patch.setattr(semilocal, "_profile_classes", lambda *_: list(part))
            with pytest.raises(VerificationError, match="^J-profile relation is not a congruence$"):
                gm_quotient(fresh, jref)
        rejected += 1
    assert rejected >= 3


class TestReesCoordinates:
    def test_group_case(self, sym3):
        rc = rees_coordinates(sym3, JClassRef(sym3, 0))
        assert len(rc.a_classes) == 1
        assert len(rc.b_classes) == 1
        assert rc.matrix == [[rc.group.identity]]

    def test_b2z2_diagonal(self, b2z2_1):
        rc = rees_coordinates(b2z2_1, JClassRef(b2z2_1, 1))
        assert len(rc.a_classes) == 2 and len(rc.b_classes) == 2
        assert len(rc.group) == 2
        nonzero = [
            (b, a)
            for b in range(2)
            for a in range(2)
            if rc.matrix[b][a] >= 0
        ]
        assert len(nonzero) == 2
        assert len({b for b, _ in nonzero}) == 2
        assert len({a for _, a in nonzero}) == 2

    def test_transport_holds_corpus_wide(self, corpus):
        for name in ("b2z2_1", "sym3", "zero_z2", "small_2_z2", "small_3_triv_r1"):
            sgp, _ = corpus[name]
            cls = classify(sgp)
            rc = rees_coordinates(sgp, JClassRef(sgp, cls.distinguished_j))
            rc.verify_transport()
            rc.verify_matrix_regular()

    def test_coordinates_bijective(self, b2z2_1):
        rc = rees_coordinates(b2z2_1, JClassRef(b2z2_1, 1))
        assert len(rc.coord) == 8
        assert len(rc.uncoord) == 8

    def test_a_repeated_q_b_is_not_a_bijection(self, b2z2_1, monkeypatch):
        # q_1 replaced by q_0: the products p_a*g*q_b miss L_1
        inner = semilocal._sandwich_reps

        def repeating(sgp, jref):
            e, p_reps, q_reps = inner(sgp, jref)
            return e, p_reps, [q_reps[0]] * len(q_reps)

        monkeypatch.setattr(semilocal, "_sandwich_reps", repeating)
        with pytest.raises(VerificationError, match="^coordinates are not a bijection onto A x G x B$"):
            rees_coordinates(b2z2_1, JClassRef(b2z2_1, 1))


def _transport_reference(rc):
    """The transport law product by product through `mul_index`, in
    `verify_transport`'s order (v, then u): the first failure's message, or
    None."""
    sgp, g = rc.sgp, rc.group
    j_of = sgp.green().j_of
    for v, (a2, g2, b2) in rc.coord.items():
        for u, (a1, g1, b1) in rc.coord.items():
            p, c = sgp.mul_index(u, v), rc.matrix[b1][a2]
            if c < 0:
                if j_of[p] == rc.jref.j_id:
                    return "product stayed in J where the structure matrix is 0"
            elif p != rc.uncoord[(a1, g.mul(g.mul(g1, c), g2), b2)]:
                return "multiplication transport failed"
    return None


def _swap(rc, u, w):
    """rc with members u and w trading coordinates."""
    coord = dict(rc.coord)
    coord[u], coord[w] = coord[w], coord[u]
    return dataclasses.replace(rc, coord=coord, uncoord={c: x for x, c in coord.items()})


def _swapped(rc):
    """Two members trade coordinates: within an H-class when G is
    nontrivial, else across R- and L-classes; None when every such swap is
    an automorphism (one R- or L-class and a trivial group)."""
    same_h = len(rc.group) > 1
    for (u, cu), (w, cw) in itertools.combinations(rc.coord.items(), 2):
        if (cu[0] == cw[0] and cu[2] == cw[2]) if same_h else (cu[0] != cw[0] and cu[2] != cw[2]):
            return _swap(rc, u, w)
    return None


def _with_entry(rc, pick, value):
    """The first structure-matrix entry that `pick` accepts, set to
    `value(entry)`; None when `pick` accepts none."""
    for b, row in enumerate(rc.matrix):
        for a, c in enumerate(row):
            if pick(c):
                matrix = [list(r) for r in rc.matrix]
                matrix[b][a] = value(c)
                return dataclasses.replace(rc, matrix=matrix)
    return None


TRANSPORT_MUTATIONS = {
    "swap": (_swapped, "multiplication transport failed"),
    "move": (
        lambda rc: len(rc.group) > 1
        and _with_entry(rc, lambda c: c >= 0, lambda c: (c + 1) % len(rc.group)),
        "multiplication transport failed",
    ),
    "to_zero": (
        lambda rc: _with_entry(rc, lambda c: c >= 0, lambda c: -1),
        "product stayed in J where the structure matrix is 0",
    ),
    "from_zero": (
        lambda rc: _with_entry(rc, lambda c: c < 0, lambda c: rc.group.identity),
        "multiplication transport failed",
    ),
}


@pytest.fixture(scope="module")
def transport_cases(corpus):
    """Rees coordinates of T_4's regular J-classes and of each generalized
    group mapping corpus member's distinguished class."""
    t4 = FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(T4_GENS)])
    cases = [
        (f"T4/J{j}", rees_coordinates(t4, JClassRef(t4, j)))
        for j, regular in enumerate(t4.green().regular)
        if regular
    ]
    for name, (sgp, _) in sorted(corpus.items()):
        cls = classify(sgp)
        if cls.generalized_group_mapping:
            cases.append((name, rees_coordinates(sgp, JClassRef(sgp, cls.distinguished_j))))
    return cases


@pytest.mark.parametrize("kind", sorted(TRANSPORT_MUTATIONS))
def test_transport_rejects_each_mutation(transport_cases, kind):
    """One corrupted coordinate or matrix entry fails `verify_transport`
    with its own message, the one the product-by-product law gives for the
    first broken product: only a zeroed entry leaves a product in J where
    the matrix says 0."""
    mutate, message = TRANSPORT_MUTATIONS[kind]
    tried = []
    for name, rc in transport_cases:
        assert _transport_reference(rc) is None, name
        rc.verify_transport()
        bad = mutate(rc)
        if not bad:
            continue
        assert _transport_reference(bad) == message, name
        with pytest.raises(VerificationError, match=f"^{message}$"):
            bad.verify_transport()
        tried.append(name)
    # T_4's four classes where each applies, and corpus members
    assert sum(name.startswith("T4/") for name in tried) == {
        "swap": 3, "move": 3, "to_zero": 4, "from_zero": 2,
    }[kind]
    assert len(tried) >= 5


def test_transport_agrees_with_the_product_law_under_every_swap(transport_cases):
    """Every swap of two members' coordinates, on the classes of at most 24
    members: `verify_transport` fails exactly where the product-by-product
    law does, with the same message.  Among them are swaps that keep (a, g)
    and move only b, and swaps that are automorphisms and pass."""
    outcomes = set()
    for name, rc in transport_cases:
        if len(rc.coord) > 24:
            continue
        for u, w in itertools.combinations(rc.coord, 2):
            bad = _swap(rc, u, w)
            want = _transport_reference(bad)
            try:
                bad.verify_transport()
                got = None
            except VerificationError as err:
                got = str(err)
            assert got == want, (name, u, w)
            outcomes.add(want)
    assert outcomes == {None, *(m for _, m in TRANSPORT_MUTATIONS.values())}


class TestPresentation:
    def test_eq1_reproduction_built_in(self, b2z2_1, small17_trans):
        # construction itself replays (a,g,b)x = (a, g(b)x, bx) everywhere
        for s in (b2z2_1, small17_trans):
            pres = group_mapping_presentation(s)
            assert pres.group_mapping

    def test_labels_of_b2z2(self, b2z2_1):
        pres = group_mapping_presentation(b2z2_1)
        assert pres.rlm_of_gen["e"] == (1, 2)
        assert pres.rlm_of_gen["a"] == (2, 0)
        assert pres.rlm_of_gen["b"] == (0, 1)

    def test_arbitrary_element_labels_compose(self, b2z2_1):
        pres = group_mapping_presentation(b2z2_1)
        g = pres.group
        n = len(b2z2_1)
        for s in range(n):
            for t in range(n):
                st = b2z2_1.mul_index(s, t)
                for b in range(pres.n_b):
                    lab_s = pres.label_of(b, s)
                    via = None
                    if lab_s is not None:
                        gs_, bs = lab_s
                        lab_t = pres.label_of(bs, t)
                        if lab_t is not None:
                            via = (g.mul(gs_, lab_t[0]), lab_t[1])
                    assert via == pres.label_of(b, st)


@pytest.mark.parametrize("name", ["b2z2_1", "sym3", "zero_z2", "small_2_z2"])
def test_presentation_builds_no_action_table(monkeypatch, name):
    """Presentation and wreath embedding build no table of S's action:
    labels read single products, the wreath embedding's action is proved
    (`complexity.pure_upper`), and classify, on the regular ideal, reads the
    sandwich columns."""
    sgp = load_semigroup(CORPUS_DIR / f"{name}.sgp")
    calls = []
    inner = FiniteSemigroup.right_translations

    def counted(self, points):
        if self is sgp:
            calls.append(tuple(points))
        return inner(self, points)

    monkeypatch.setattr(FiniteSemigroup, "right_translations", counted)
    pres = group_mapping_presentation(sgp)
    fasp_embedding(pres)
    assert calls == []


class TestFaspEmbedding:
    def test_group_into_itself(self, sym3):
        pres = group_mapping_presentation(sym3)
        emb = fasp_embedding(pres)
        assert len(emb.morphism) == 6

    def test_b2z2_injective(self, b2z2_1):
        pres = group_mapping_presentation(b2z2_1)
        emb = fasp_embedding(pres)
        assert len(emb.morphism) == len(b2z2_1)

    def test_matrix_form_matches_monomial_representation(self, z2_group):
        # the wreath image of a generator reads off its matrix rows
        sgp = small_monoid(2, z2_group, 1)
        pres = group_mapping_presentation(sgp)
        emb = fasp_embedding(pres)
        gs = sgp.green()
        col_of_b = []
        for b in pres.rees.b_classes:
            rep = sgp.elements[min(gs.l_classes[b])]
            col_of_b.append(rep.ran()[0])
        for name, gi in zip(sgp.gen_names, sgp.gens):
            x = sgp.elements[gi]
            fvals, rlm_map = fasp_value(pres, emb.lifts[name])
            for b in range(pres.n_b):
                entry = x.rows[col_of_b[b] - 1]
                if entry is None:
                    assert rlm_map(b + 1) == 0
                else:
                    col, g = entry
                    assert col_of_b[rlm_map(b + 1) - 1] == col
                    assert fvals[b] == g

    @pytest.mark.parametrize("name,gen,b,point", [
        ("b2z2_1", "b", 1, "3, -1, 1, -1"),
        ("small_2_z2", "e", 0, "0, -1, 2, -1"),
    ])
    def test_corrupted_label_is_rejected(self, name, gen, b, point):
        pres = corrupted_label(name, gen, b)
        message = f"division lifts rejected: relation not functional at ({point})"
        with pytest.raises(VerificationError) as err:
            fasp_embedding(pres)
        assert str(err.value) == message


class TestCoordinateActionCheck:
    """`_verify_coordinate_action` is a premise of `complexity.pure_upper`'s
    proof: it rejects the corruptions the division oracle rejects."""

    @pytest.mark.parametrize("name,gen,b,at", [
        ("b2z2_1", "b", 1, (0, 0, 1)),
        ("small_2_z2", "e", 0, (0, 0, 0)),
    ])
    def test_corrupted_label_is_rejected(self, name, gen, b, at):
        pres = corrupted_label(name, gen, b)
        with pytest.raises(VerificationError) as err:
            semilocal._verify_coordinate_action(pres)
        assert str(err.value) == f"coordinate action fails at {at} under {gen}"

    def test_undefined_rlm_image_is_rejected(self, b2z2_1):
        # one defined image of b's RLM map set to undefined
        pres = group_mapping_presentation(b2z2_1)
        images = list(pres.rlm_of_gen["b"])
        b = next(b for b, img in enumerate(images) if img != 0)
        images[b] = 0
        pres.rlm_of_gen["b"] = tuple(images)
        with pytest.raises(VerificationError) as err:
            semilocal._verify_coordinate_action(pres)
        assert str(err.value) == "(a,g,b)b stayed in J although b.b is undefined"


def corrupted_label(name, gen, b):
    """The presentation of corpus carrier `name` with generator `gen`'s
    defined label at b moved to the other element of Z_2."""
    pres = group_mapping_presentation(load_semigroup(CORPUS_DIR / f"{name}.sgp"))
    assert pres.rlm_of_gen[gen][b] != 0
    labels = list(pres.label_of_gen[gen])
    labels[b] = 1 - labels[b]
    pres.label_of_gen[gen] = tuple(labels)
    return pres


@pytest.mark.parametrize("name", ["b2z2_1", "small_2_z2", "sym3", "zero_z2", "z3"])
def test_fasp_action_rejects_one_corrupted_label(name):
    # one defined label of one closure element moved to the next group
    # element, its S-element kept: the reference flags it
    pres = group_mapping_presentation(load_semigroup(CORPUS_DIR / f"{name}.sgp"))
    witness = fasp_embedding(pres)
    assert _fasp_action_reference(pres, witness) is None
    order, pairs = len(pres.group), fasp_pairs(pres)
    for row in witness.closure:
        f, t = fasp_value(pres, row)
        # a defined label: a group element, not the zero
        i = next((i for i, v in enumerate(f) if v != ZERO), None)
        if i is None:
            continue
        bad_row = (*wreath_row(*pairs, (f[:i] + ((f[i] + 1) % order,) + f[i + 1:], t)), -1)
        if bad_row not in witness.closure:
            break
    closure = {bad_row if r == row else r: s for r, s in witness.closure.items()}
    bad = dataclasses.replace(witness, closure=closure)
    want = _fasp_action_reference(pres, bad)
    assert want.startswith("wreath action disagrees with theta^R at ")


class RestrictedWreath:
    """(G,G) wr (B, RLM) on codes under the rule that the zero of
    `fasp_embedding` replaces: a product keeps its function part only
    inside the domain of its own RLM part, None (the identity) elsewhere.
    Codes are (tuple of G's indices or None, RLM index)."""

    def __init__(self, pres):
        self.group, self.rlm = pres.group, pres.rlmq.rlm

    def decode(self, code):
        return code

    def mul_code(self, u, v):
        (f1, t1), (f2, t2) = u, v
        t = self.rlm.mul_index(t1, t2)
        f = []
        for a, q1, qt in zip(f1, self.rlm.elements[t1].images, self.rlm.elements[t].images):
            b = f2[q1 - 1] if q1 else None
            f.append(
                None if qt == 0 else b if a is None else a if b is None else self.group.mul(a, b)
            )
        return (tuple(f), t)


ESTIMATE_SOURCES = {
    "corpus": lambda: [load_semigroup(CORPUS_DIR / e["file"]) for e in load_corpus_manifest()],
    **{name: lambda gens=gens: [ladder(gens)] for name, gens in LADDER.items()},
    "I4": lambda: [ladder(I4_GENS)],
    "T4": lambda: [ladder(T4_GENS)],
}


@functools.cache
def estimate_presentations(source):
    """The presentations that estimate reaches from `source`, at automata
    budget 0 for I_4 and T_4."""
    options = EstimateOptions(automata_budget=0) if source in ("I4", "T4") else None
    return reached_presentations(ESTIMATE_SOURCES[source](), options)


@pytest.mark.parametrize("source", list(ESTIMATE_SOURCES))
def test_rows_close_as_codes(source):
    presentations = estimate_presentations(source)
    assert presentations
    for pres in presentations:
        assert_rows_close_as_codes(pres)


@pytest.mark.parametrize("source", list(ESTIMATE_SOURCES))
def test_lifts_read_back_to_shaped_values(source):
    """Every generator's lift reads back to its labels, with G^0's zero
    exactly where its RLM map is undefined, and its RLM image."""
    presentations = estimate_presentations(source)
    assert presentations
    for pres in presentations:
        lifts, rlmq = fasp_embedding(pres).lifts, pres.rlmq
        for name, gi in zip(pres.sgp.gen_names, pres.sgp.gens):
            f, t = fasp_value(pres, lifts[name])
            assert t == rlmq.rlm.elements[rlmq.code[gi]]
            labels = pres.label_of_gen[name]
            assert f == tuple(lab if b else ZERO for lab, b in zip(labels, t.images))


@pytest.mark.parametrize("source", list(ESTIMATE_SOURCES))
def test_wreath_rows_compose_on_the_closure(source):
    presentations = estimate_presentations(source)
    assert presentations
    for pres in presentations:
        assert_wreath_rows_compose(pres)


@pytest.mark.parametrize("source", list(ESTIMATE_SOURCES))
def test_zero_is_the_removed_domain_restriction(source):
    """On every group-mapping presentation that estimate reaches, the
    embedding into (G, G^0) wr (B, RLM), its zeros read as None, closes to
    the same codes and S indices as the restricted (G,G) wr (B, RLM), so
    the certified `embedded_order` is the same; and the wreath image acts
    as S does (`_fasp_action_reference`), as `complexity.pure_upper`
    proves."""
    presentations = estimate_presentations(source)
    assert presentations
    for pres in presentations:
        witness = fasp_embedding(pres)
        assert _fasp_action_reference(pres, witness) is None
        rlm = pres.rlmq.rlm
        read = {
            (tuple(None if v == ZERO else v for v in f), rlm.index[t]): s
            for (f, t), s in zip(
                (fasp_value(pres, row) for row in witness.closure), witness.closure.values()
            )
        }
        lifts = {
            name: (
                tuple(
                    lab if img else None
                    for lab, img in zip(pres.label_of_gen[name], pres.rlm_of_gen[name])
                ),
                pres.rlmq.code[gi],
            )
            for name, gi in zip(pres.sgp.gen_names, pres.sgp.gens)
        }
        assert read == _relation_closure(pres.sgp, RestrictedWreath(pres), lifts)
        assert pure_upper(pres, 0)["embedded_order"] == len(read) == len(pres.sgp)


def test_theta_prime_representation(corpus):
    sgp, _ = corpus["small_3_triv_r2"]
    assert len(sgp) == 25
    # already a theta-prime style carrier: re-deriving it is idempotent
    rep = theta_prime_representation(sgp)
    assert len(rep) == 25
