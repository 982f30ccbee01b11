import math

import pytest

from krc import inverse
from krc.core import FiniteGroup, FiniteSemigroup
from krc.errors import InputError
from krc.inverse import (
    PartialMonomialMatrix,
    analyze_lift,
    brandt_isomorphism,
    brandt_semigroup,
    flat_kernel_matches_rlm,
    inverse_decomposition,
    lift_TS,
    matrix_semigroup_as_transformations,
    monomial_group,
    monomial_mul,
    rlm_matrix,
    small_monoid,
    validate_gm_inverse,
)
from krc.semilocal import JClassRef, classify, rees_coordinates, rlm_quotient

M = PartialMonomialMatrix


class TestMonomialMatrices:
    def test_identity_neutral(self, z2_group):
        i2 = M.identity(2)
        for m in monomial_group(2, z2_group).elements:
            assert monomial_mul(i2, m, z2_group) == m
            assert monomial_mul(m, i2, z2_group) == m

    def test_mismatched_rank_ones_vanish(self, z2_group):
        a = M.from_triple(2, 1, 0, 2)  # row 1 -> col 2
        b = M.from_triple(2, 1, 0, 1)  # row 1 -> col 1; needs row 2
        assert monomial_mul(a, b, z2_group) == M.zero(2)

    def test_triple_encoding_matches_brandt(self, z2_group):
        b2 = brandt_semigroup(2, z2_group)
        for i in (1, 2):
            for g in range(2):
                for j in (1, 2):
                    for k in (1, 2):
                        for h in range(2):
                            for l in (1, 2):
                                m1 = M.from_triple(2, i, g, j)
                                m2 = M.from_triple(2, k, h, l)
                                prod = monomial_mul(m1, m2, z2_group)
                                want = b2.mul((i, g, j), (k, h, l))
                                if want == "0":
                                    assert prod == M.zero(2)
                                else:
                                    assert prod.to_triple() == want

    def test_column_clash_rejected(self):
        with pytest.raises(InputError):
            M(2, ((1, 0), (1, 0)))

    def test_size_mismatch(self, z2_group):
        with pytest.raises(InputError):
            monomial_mul(M.identity(2), M.identity(3), z2_group)


class TestRlmMatrix:
    def test_trivial_group_fixed(self, trivial_group):
        m = M.from_triple(2, 1, 0, 2)
        assert rlm_matrix(m) == m

    def test_unit_becomes_permutation(self, z2_group):
        m = M(2, ((2, 1), (1, 0)))
        flat = rlm_matrix(m)
        assert flat.is_unit()
        assert all(e[1] == 0 for e in flat.rows)

    def test_functorial_over_brandt_and_units(self, z2_group):
        elems = [
            M.from_triple(2, i, g, j)
            for i in (1, 2)
            for g in range(2)
            for j in (1, 2)
        ] + [M.zero(2)] + list(monomial_group(2, z2_group).elements)
        for a in elems:
            for b in elems:
                assert rlm_matrix(monomial_mul(a, b, z2_group)) == monomial_mul(
                    rlm_matrix(a), rlm_matrix(b), z2_group
                )


class TestSmallMonoid:
    def test_counts_n2(self, z2_group, trivial_group):
        assert len(small_monoid(2, trivial_group, 1)) == 7
        assert len(small_monoid(2, z2_group, 1)) == 17

    def test_counts_n3_rank2(self, trivial_group):
        s = small_monoid(3, trivial_group, 2)
        assert len(s) == 25
        cls = classify(s)
        jref = JClassRef(s, cls.distinguished_j)
        # 0-minimal ideal of order 19, a Brandt structure over Sym_2
        assert len(jref.members) + 1 == 19
        rc = rees_coordinates(s, jref)
        assert len(rc.group) == 2
        assert len(rc.a_classes) == math.comb(3, 2)
        iso = brandt_isomorphism(s, rc)
        assert len(iso) == 18

    def test_rank_range_checked(self, z2_group):
        with pytest.raises(InputError):
            small_monoid(2, z2_group, 2)

    def test_inverse_axioms(self, z2_group):
        s = small_monoid(2, z2_group, 1)
        assert validate_gm_inverse(s, z2_group) == 2
        idems = [s.elements[i] for i in s.idempotent_indices()]
        for a in idems:
            for b in idems:
                assert s.mul(a, b) == s.mul(b, a)
        for m in s.elements:
            inverses = [
                v for v in s.elements
                if s.mul(s.mul(m, v), m) == m and s.mul(s.mul(v, m), v) == v
            ]
            assert len(inverses) == 1

    def test_zero_minimal_ideal_is_rank_at_most_one(self, z2_group):
        # the distinguished ideal holds exactly the matrices with at most
        # one nonzero entry, i.e. the Brandt part
        s = small_monoid(2, z2_group, 1)
        cls = classify(s)
        jref = JClassRef(s, cls.distinguished_j)
        members = {s.elements[i] for i in jref.members}
        assert members == {m for m in s.elements if m.rank == 1}

    def test_full_domain_extension_exists(self, z2_group):
        # every element is the restriction of some unit
        s = small_monoid(2, z2_group, 1)
        units = [m for m in s.elements if m.is_unit()]
        for m in s.elements:
            assert any(
                all(tau.rows[i - 1] == m.rows[i - 1] for i in m.dom())
                for tau in units
            )
        for m in s.elements:
            assert (m.dom() == (1, 2)) == m.is_unit()


def _lift_TS_reference(sgp, group):
    """T(S) by its definition: every pair (s, tau), tau a unit agreeing
    with s on dom(s), closed under the value-level componentwise product."""
    size = validate_gm_inverse(sgp, group)
    units = monomial_group(size, group)
    pairs = [
        (m, tau) for m in sgp.elements for tau in units.elements
        if all(tau.rows[i - 1] == m.rows[i - 1] for i in m.dom())
    ]

    def mul(u, v):
        return (sgp.mul(u[0], v[0]), units.elements[
            units.mul(units.index[u[1]], units.index[v[1]])
        ])

    return FiniteSemigroup.from_elements(
        pairs, mul, sort_key=lambda p: (p[0].sort_key(), p[1].sort_key()),
    )


class TestLift:
    @pytest.mark.parametrize("n, group", [
        (2, FiniteGroup.cyclic(2)), (2, FiniteGroup.trivial()),
        (3, FiniteGroup.trivial()), (3, FiniteGroup.cyclic(2)),
    ], ids=["2-Z2", "2-1", "3-1", "3-Z2"])
    def test_read_off_int_tables_as_the_reference_closes_it(self, n, group):
        s = small_monoid(n, group, 1)
        ts, want = lift_TS(s, group), _lift_TS_reference(s, group)
        assert ts.elements == want.elements
        assert (ts.gens, ts.gen_names) == (want.gens, want.gen_names)
        assert ts.right_columns == want.right_columns
        assert ts.left_columns == want.left_columns

    def test_full_domain_unique_extension(self, z2_group):
        s = small_monoid(2, z2_group, 1)
        ts = lift_TS(s, z2_group)
        for (m, tau) in ts.elements:
            if m.is_unit():
                assert tau == m

    def test_zero_pairs_with_everything(self, z2_group):
        s = small_monoid(2, z2_group, 1)
        ts = lift_TS(s, z2_group)
        zeros = [p for p in ts.elements if p[0] == M.zero(2)]
        assert len(zeros) == len(monomial_group(2, z2_group))

    def test_count_cross_checked_against_census(self, z2_group):
        s = small_monoid(2, z2_group, 1)
        ts = lift_TS(s, z2_group)
        census = analyze_lift(s, z2_group)
        assert len(ts) == 32
        assert len(census.j0_members) == 8
        assert len(census.j1_members) == 16
        assert len(census.j2_members) == 8
        assert len(census.h_group) == 4  # |G| * |G wr Sym_1|

    def test_trivial_group_lift(self, trivial_group):
        s = small_monoid(2, trivial_group, 1)
        census = analyze_lift(s, trivial_group)
        assert len(census.h_group) == 1
        assert len(census.j1_members) == 4  # B_2(trivial) nonzero part

    def test_rlm_of_lift_equals_rlm(self, z2_group):
        # RLM(T(S)) = RLM(S) as transformation semigroups, matched through
        # the column identification on both sides
        s = small_monoid(2, z2_group, 1)
        census = analyze_lift(s, z2_group)
        ts = census.ts

        def column_keyed_rlm(sgp, jref, column_of):
            rq = rlm_quotient(sgp, jref)
            relabel = {}
            for v in rq.rlm.elements:
                images = [0] * len(column_of)
                for b in range(len(column_of)):
                    img = v(b + 1)
                    images[column_of[b] - 1] = 0 if img == 0 else column_of[img - 1]
                relabel[v] = tuple(images)
            return set(relabel.values())

        cls = classify(s)
        jref_s = JClassRef(s, cls.distinguished_j)
        gs_s = s.green()
        cols_s = [
            s.elements[min(gs_s.l_classes[b])].ran()[0] for b in jref_s.b_classes
        ]
        j1_id = ts.green().j_of[ts.index[census.j1_members[0]]]
        jref_t = JClassRef(ts, j1_id)
        gs_t = ts.green()
        cols_t = [
            ts.elements[min(gs_t.l_classes[b])][0].ran()[0]
            for b in jref_t.b_classes
        ]
        assert column_keyed_rlm(s, jref_s, cols_s) == column_keyed_rlm(
            ts, jref_t, cols_t
        )

    def test_projection_kills_j0(self, z2_group):
        s = small_monoid(2, z2_group, 1)
        census = analyze_lift(s, z2_group)
        assert {p[0] for p in census.j0_members} == {M.zero(2)}


class TestDecomposition:
    def test_only_the_census_builds_the_lift(self, monkeypatch, z2_group):
        # T(S) once, by the census; the degree-n monomial group once, for
        # T(S), and one degree down for J1's group; the decomposition lists
        # the units and builds no group table
        s = small_monoid(3, z2_group, 1)
        lifts, degrees = [], []

        def refuse(sgp, group):
            raise AssertionError("built T(S)")

        monkeypatch.setattr(
            inverse, "monomial_group", lambda n, g: degrees.append(n) or monomial_group(n, g)
        )
        monkeypatch.setattr(inverse, "lift_TS", refuse)
        inverse_decomposition(s, z2_group)
        assert degrees == []
        monkeypatch.setattr(inverse, "lift_TS", lambda *a: lifts.append(a) or lift_TS(*a))
        assert len(analyze_lift(s, z2_group).ts) == 240
        assert lifts == [(s, z2_group)]
        assert degrees == [3, 2]

    def test_small_monoid_witnesses(self, z2_group):
        s = small_monoid(2, z2_group, 1)
        dec = inverse_decomposition(s, z2_group)
        assert set(dec.direct_witness.morphism.values()) == set(s.elements)
        assert len(dec.direct_witness.morphism) == 32

    def test_trivial_group_degenerate(self, trivial_group):
        s = small_monoid(2, trivial_group, 1)
        dec = inverse_decomposition(s, trivial_group)
        assert set(dec.direct_witness.morphism.values()) == set(s.elements)

    def test_flat_kernel(self, z2_group, trivial_group):
        assert flat_kernel_matches_rlm(small_monoid(2, z2_group, 1), z2_group)
        assert flat_kernel_matches_rlm(small_monoid(2, trivial_group, 1), trivial_group)


def _two_sided_generators(group):
    """Reference walk: a generator joins when the subgroup that the chosen
    ones generate, closed under products on both sides, lacks it."""
    gens = []
    reached = {group.identity}
    for i in range(len(group)):
        if i in reached:
            continue
        gens.append(i)
        frontier = reached | {i}
        while frontier:
            reached |= frontier
            frontier = {
                p for a in frontier for b in list(reached)
                for p in (group.mul(a, b), group.mul(b, a))
            } - reached
    return gens


@pytest.mark.parametrize("make", [
    FiniteGroup.trivial,
    lambda: FiniteGroup.cyclic(5),
    lambda: FiniteGroup.cyclic(12),
    lambda: FiniteGroup.symmetric(3),
    lambda: FiniteGroup.symmetric(4),
    lambda: monomial_group(2, FiniteGroup.cyclic(2)),
    lambda: monomial_group(3, FiniteGroup.trivial()),
    lambda: monomial_group(3, FiniteGroup.cyclic(2)),
    lambda: monomial_group(2, FiniteGroup.symmetric(3)),
], ids=["trivial", "Z5", "Z12", "S3", "S4", "M2(Z2)", "M3(1)", "M3(Z2)", "M2(S3)"])
def test_greedy_generators_match_the_two_sided_walk(make):
    # the right-product walk reaches the subgroup the chosen elements
    # generate, so it picks the same elements as the two-sided closure,
    # and those generate the group
    group = make()
    gens = group.greedy_generators()
    assert gens == _two_sided_generators(group)
    reached = {group.identity}
    frontier = set(reached)
    while frontier:
        frontier = {group.mul(u, g) for u in frontier for g in gens} - reached
        reached |= frontier
    assert len(reached) == len(group)


def test_brandt_semigroup_order(z2_group):
    assert len(brandt_semigroup(2, z2_group)) == 9
    assert len(brandt_semigroup(3, FiniteGroup.symmetric(2))) == 19


def test_transformation_representation_faithful(z2_group):
    s = small_monoid(2, z2_group, 1)
    trans = matrix_semigroup_as_transformations(s, z2_group)
    assert len(trans) == len(s)
    assert trans.degree == 4
