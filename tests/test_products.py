import itertools

import pytest

from krc.core import FiniteGroup, FiniteSemigroup, PartialTransformation, is_aperiodic
from krc.errors import InputError, ResourceError
from krc.products import (
    ActionPair,
    DivisionWitness,
    ExhaustionReport,
    check_division,
    direct_product_pair,
    embed_product_of_wreaths,
    semidirect,
    semigroup_wreath_oracle,
    wreath,
)

T = PartialTransformation


def group_pair(n):
    return ActionPair.of_group(FiniteGroup.cyclic(n))


def trivial_on(k):
    return ActionPair.of_transformations(
        FiniteSemigroup.generate([("1", T.identity(k))])
    )


class TestWreath:
    def test_trivial_right_factor_carrier(self):
        w = wreath(group_pair(2), ActionPair.trivial())
        full = w.full_carrier()
        assert len(full.elements) == 2

    def test_carrier_size_formula(self):
        # (Z2, Z2) wr (2 points, trivial): |S|^|Q| * |T| = 4
        w = wreath(group_pair(2), trivial_on(2))
        assert len(w.full_carrier().elements) == 2 ** 2 * 1

    def test_action_formula(self):
        # (b, q)(f, t) = (b(qf), qt) replayed point by point
        left = group_pair(3)
        right = ActionPair.of_transformations(
            FiniteSemigroup.generate([("s", T((2, 1)))])
        )
        w = wreath(left, right)
        for f in itertools.product(range(3), repeat=2):
            for t in right.sgp.elements:
                elt = w.make(list(f), t)
                for (b, q) in w.points:
                    expected_b = left.act(b, f[right.position(q)])
                    expected_q = right.act(q, t)
                    got = w.act((b, q), elt)
                    assert got == (
                        None
                        if expected_b is None or expected_q is None
                        else (expected_b, expected_q)
                    )

    def test_product_matches_composed_action(self):
        left = group_pair(2)
        right = ActionPair.of_transformations(
            FiniteSemigroup.generate([("c", T((1, 1))), ("s", T((2, 1)))])
        )
        w = wreath(left, right)
        carrier = w.full_carrier()
        for u in carrier.elements:
            for v in carrier.elements:
                uv = carrier.mul(u, v)
                for p in w.points:
                    step = w.act(p, u)
                    lhs = None if step is None else w.act(step, v)
                    assert lhs == w.act(p, uv)

    def test_faithful_on_total_instances(self):
        w = wreath(group_pair(2), trivial_on(2))
        carrier = w.full_carrier()
        tables = {w.act_table(e) for e in carrier.elements}
        assert len(tables) == len(carrier.elements)

    def test_carrier_budget(self):
        w = wreath(group_pair(3), trivial_on(4))
        with pytest.raises(ResourceError):
            w.full_carrier(budget=10)


class TestSemidirect:
    def test_trivial_action_is_direct_product(self):
        z2 = ActionPair.of_group(FiniteGroup.cyclic(2)).sgp
        z3 = ActionPair.of_group(FiniteGroup.cyclic(3)).sgp
        sd = semidirect(z2, z3, beta=lambda t, s: s)
        assert len(sd) == 6
        for (s1, t1) in sd.elements:
            for (s2, t2) in sd.elements:
                assert sd.mul((s1, t1), (s2, t2)) == (
                    z2.mul(s1, s2),
                    z3.mul(t1, t2),
                )

    def test_klein_four(self):
        z2 = ActionPair.of_group(FiniteGroup.cyclic(2)).sgp
        k = semidirect(z2, z2, beta=lambda t, s: s)
        assert len(k) == 4
        assert not is_aperiodic(k)
        gs = k.green()
        assert len(gs.h_classes) == 1
        ident = k.identity_index()
        for i in range(4):
            assert k.mul_index(i, i) == ident

    def test_wreath_carrier_is_semidirect_of_power(self):
        # S^Q x| T under the shift action agrees with the wreath table
        z2 = FiniteGroup.cyclic(2)
        left = ActionPair.of_group(z2)
        right = ActionPair.of_transformations(
            FiniteSemigroup.generate([("s", T((2, 1)))])
        )
        w = wreath(left, right)
        carrier = w.full_carrier()
        power = FiniteSemigroup.from_elements(
            list(itertools.product(range(2), repeat=2)),
            lambda f, g: tuple(z2.mul(a, b) for a, b in zip(f, g)),
            sort_key=lambda f: f,
        )

        def beta(t, f):
            # (t . f)(q) = f(qt)
            return tuple(f[right.position(right.act(q, t))] for q in right.points)

        sd = semidirect(power, right.sgp, beta)
        for (f1, t1) in sd.elements:
            for (f2, t2) in sd.elements:
                sf, st = sd.mul((f1, t1), (f2, t2))
                wf, wt = carrier.mul((f1, t1), (f2, t2))
                assert (sf, st) == (wf, wt)

    def test_invalid_beta_rejected(self):
        z2 = ActionPair.of_group(FiniteGroup.cyclic(2)).sgp
        with pytest.raises(InputError):
            semidirect(z2, z2, beta=lambda t, s: z2.mul(s, s) if t else s)


class TestDivision:
    def test_identity_lifts(self, right_zero_2):
        lifts = {
            name: right_zero_2.elements[g]
            for name, g in zip(right_zero_2.gen_names, right_zero_2.gens)
        }
        w = check_division(right_zero_2, right_zero_2, lifts=lifts)
        assert isinstance(w, DivisionWitness)
        assert len(w.morphism) == 2

    def test_z2_into_sym3_by_search(self, sym3):
        z2 = FiniteSemigroup.generate([("t", T((2, 1)))])
        w = check_division(z2, sym3)
        assert isinstance(w, DivisionWitness)
        # canonical first witness: the least transposition in element order
        assert w.lifts["t"] == T((1, 3, 2))

    def test_exhaustion_is_unknown(self, sym3, right_zero_2):
        out = check_division(sym3, right_zero_2)
        assert isinstance(out, ExhaustionReport)
        assert out.searched_all

    def test_budget_exhaustion_reported(self, sym3):
        z3 = FiniteSemigroup.generate([("c", T((2, 3, 1)))])
        out = check_division(z3, sym3, budget=0)
        assert isinstance(out, ExhaustionReport)
        assert not out.searched_all

    def test_witness_reverifies(self, sym3):
        z3 = FiniteSemigroup.generate([("c", T((2, 3, 1)))])
        w = check_division(z3, sym3)
        w.verify()

    def test_search_over_lazy_oracle_is_rejected(self):
        # a lazy target has no carrier to scan, so no exhaustion is claimed
        triv = FiniteSemigroup.generate([("1", T.identity(1))])
        _, oracle = semigroup_wreath_oracle(triv, triv)
        assert oracle.elements is None
        with pytest.raises(InputError):
            check_division(triv, oracle)
        with pytest.raises(InputError):
            check_division(triv, wreath(group_pair(2), ActionPair.trivial()))


class TestEmbeddingLemma:
    def test_all_factors_trivial(self):
        t = ActionPair.trivial()
        wit = embed_product_of_wreaths(t, t, t, t)
        assert len(wit.table) == 1

    def test_group_factors(self):
        wit = embed_product_of_wreaths(
            group_pair(2), ActionPair.trivial(), ActionPair.trivial(), group_pair(2)
        )
        assert len(wit.table) == 4

    def test_special_case_of_direct_times_wreath(self):
        # (P,T) = (1,1): (Q,S) x ((Q',S') wr (P',T')) embeds
        qs = group_pair(2)
        qs2 = group_pair(2)
        pt2 = trivial_on(2)
        wit = embed_product_of_wreaths(qs, qs2, ActionPair.trivial(), pt2)
        assert len(wit.table) == 2 * (2 ** 2)

    def test_small_transformation_factors(self):
        qs = ActionPair.of_transformations(
            FiniteSemigroup.generate([("a", T((1, 1)))])
        )
        qs2 = group_pair(2)
        pt = trivial_on(2)
        pt2 = ActionPair.trivial()
        wit = embed_product_of_wreaths(qs, qs2, pt, pt2)
        # injectivity and the pointwise action identity are asserted inside
        assert wit.table


def test_direct_product_pair_componentwise():
    a = group_pair(2)
    b = trivial_on(2)
    d = direct_product_pair(a, b)
    assert len(d.sgp) == 2
    assert len(d.points) == 4
    d.check_action()
