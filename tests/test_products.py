import hashlib
import itertools
import json
import math
import random

import pytest

from krc import complexity, products
from krc.core import FiniteGroup, FiniteSemigroup, PartialTransformation, _index_period
from krc.errors import InputError, ResourceError, VerificationError
from krc.products import (
    ActionPair,
    DivisionWitness,
    ExhaustionReport,
    _relation_closure,
    WreathProduct,
    check_division,
)

from helpers import I4_GENS, LADDER, T4_GENS, division_instance

T = PartialTransformation
BUDGET = 10**6  # above every wreath carrier built here


def group_pair(n):
    return ActionPair.of_group(FiniteGroup.cyclic(n))


def trivial_on(k):
    return ActionPair.of_transformations(
        FiniteSemigroup.generate([("1", T.identity(k))])
    )


def cyclic_sgp(n):
    return FiniteSemigroup.from_elements(
        range(n), lambda a, b: (a + b) % n, sort_key=lambda v: v
    )


def reference_semigroup_wreath_mul(s, t):
    """The product of S wr T = S^(T^1) x T written out directly: T acts on
    the positions, an identity marker and then T's elements, by right
    translation."""
    marker = ("id",)
    positions = [marker] + list(t.elements)
    pos_index = {p: i for i, p in enumerate(positions)}

    def mul(u, v):
        f1, t1 = u
        f2, t2 = v
        out = []
        for i, p in enumerate(positions):
            q = t1 if p is marker else t.mul(p, t1)
            other = f2[pos_index[q]]
            if f1[i] is None:
                out.append(other)
            elif other is None:
                out.append(f1[i])
            else:
                out.append(s.mul(f1[i], other))
        return (tuple(out), t.mul(t1, t2))

    return mul


def wreath_mul(w, u, v):
    """The product of two wreath values through their codes."""
    return w.decode(w.mul_code(w.encode(u), w.encode(v)))


def reference_row(group, value):
    """The row of (f, t) in (G,G) wr (n, T) from the factors' own
    definitions: (b, q)(f, t) = (b.f(q), q.t), b.f(q) from the group table
    and q.t from t's images, the point (b, q) at position b*n + q - 1, and
    -1 where q.t is undefined."""
    f, t = value
    n = t.degree
    return tuple(
        -1 if t(q) == 0 else group.table[b][f[q - 1]] * n + t(q) - 1
        for b in range(len(group))
        for q in range(1, n + 1)
    )


def reference_sort_key(w, element):
    """The canonical order of a wreath carrier: T's order, then the
    function part over S's order (None first)."""
    f, t = element
    li = {v: i for i, v in enumerate(w.left.sgp.elements)}
    ri = {v: i for i, v in enumerate(w.right.sgp.elements)}
    return (ri[t], tuple(-1 if v is None else li[v] for v in f))


class TestWreath:
    def test_trivial_right_factor_carrier(self):
        w = WreathProduct(group_pair(2), trivial_on(1))
        full = w.full_carrier(BUDGET)
        assert len(full.elements) == 2

    def test_carrier_size_formula(self):
        # (Z2, Z2) wr (2 points, trivial): |S|^|Q| * |T| = 4
        w = WreathProduct(group_pair(2), trivial_on(2))
        assert len(w.full_carrier(BUDGET).elements) == 2 ** 2 * 1

    def test_action_formula(self):
        # (b, q)(f, t) = (b(qf), qt) read off Z_3's table and t's images
        z3 = FiniteGroup.cyclic(3)
        right = ActionPair.of_transformations(
            FiniteSemigroup.generate([("s", T((2, 1)))])
        )
        w = WreathProduct(ActionPair.of_group(z3), right)
        for f in itertools.product(range(3), repeat=2):
            for t in right.sgp.elements:
                assert w.row(w.encode((f, t))) == reference_row(z3, (f, t))

    def test_product_matches_composed_action(self):
        # the product acts as its factors do one after the other, by the
        # reference rows
        z2 = FiniteGroup.cyclic(2)
        right = ActionPair.of_transformations(
            FiniteSemigroup.generate([("c", T((1, 1))), ("s", T((2, 1)))])
        )
        w = WreathProduct(ActionPair.of_group(z2), right)
        carrier = w.full_carrier(BUDGET)
        for u in carrier.elements:
            ru = reference_row(z2, u)
            assert w.row(carrier.encode(u)) == ru
            for v in carrier.elements:
                rv = reference_row(z2, v)
                composed = tuple(-1 if p < 0 else rv[p] for p in ru)
                assert reference_row(z2, wreath_mul(carrier, u, v)) == composed

    def test_faithful_on_total_instances(self):
        w = WreathProduct(group_pair(2), trivial_on(2))
        carrier = w.full_carrier(BUDGET)
        tables = {w.row(c) for c in carrier.codes}
        assert len(tables) == len(carrier.elements)

    def test_carrier_budget(self):
        w = WreathProduct(group_pair(3), trivial_on(4))
        assert len(w.full_carrier(3 ** 4).elements) == 3 ** 4
        with pytest.raises(ResourceError):
            w.full_carrier(3 ** 4 - 1)

    def test_full_carrier_is_in_canonical_order(self):
        s = ActionPair.of_transformations(FiniteSemigroup.generate([("s", T((2, 1)))]))
        c = ActionPair.of_transformations(
            FiniteSemigroup.generate([("c", T((1, 1))), ("s", T((2, 1)))])
        )
        for w in (
            WreathProduct(group_pair(2), trivial_on(1)),
            WreathProduct(group_pair(2), trivial_on(2)),
            WreathProduct(group_pair(3), s),
            WreathProduct(group_pair(2), c),
            WreathProduct(group_pair(3), trivial_on(4)),
        ):
            elements = w.full_carrier(BUDGET).elements
            assert elements == sorted(elements, key=lambda e: reference_sort_key(w, e))

    @pytest.mark.parametrize("pair", ["u1,z2", "z2,u1", "right_zero_2,z2"])
    def test_semigroup_wreath_is_right_translation_wreath(self, pair, right_zero_2):
        u1 = FiniteSemigroup.from_elements([0, 1], lambda a, b: a * b, sort_key=lambda v: v)
        named = {"u1": u1, "z2": cyclic_sgp(2), "right_zero_2": right_zero_2}
        s, t = (named[n] for n in pair.split(","))
        w = WreathProduct(ActionPair.right_translation(s), ActionPair.right_translation(t))
        want = reference_semigroup_wreath_mul(s, t)
        carrier = w.full_carrier(BUDGET).elements
        assert len(carrier) == len(s) ** (len(t) + 1) * len(t)
        for u in carrier:
            for v in carrier:
                assert wreath_mul(w, u, v) == want(u, v)


class TestSemidirect:
    def test_wreath_carrier_is_semidirect_of_power(self):
        # S^Q x| T under the shift action agrees with the wreath table:
        # (f1, t1)(f2, t2) = (f1 . beta(t1, f2), t1 t2)
        z2 = FiniteGroup.cyclic(2)
        left = ActionPair.of_group(z2)
        right = ActionPair.of_transformations(
            FiniteSemigroup.generate([("s", T((2, 1)))])
        )
        carrier = WreathProduct(left, right).full_carrier(BUDGET)
        assert len(carrier.elements) == 2 ** 2 * len(right.sgp)

        def beta(t, f):
            # (t . f)(q) = f(qt), qt read off t's images
            return tuple(f[t(q) - 1] for q in range(1, t.degree + 1))

        for (f1, t1) in carrier.elements:
            for (f2, t2) in carrier.elements:
                f = tuple(z2.mul(a, b) for a, b in zip(f1, beta(t1, f2)))
                assert wreath_mul(carrier, (f1, t1), (f2, t2)) == (f, right.sgp.mul(t1, t2))


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

    def test_given_lifts_close_once(self, sym3, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _relation_closure(*args)

        monkeypatch.setattr(products, "_relation_closure", counted)
        lifts = {name: sym3.elements[g] for name, g in zip(sym3.gen_names, sym3.gens)}
        w = check_division(sym3, sym3, lifts=lifts)
        assert isinstance(w, DivisionWitness)
        assert len(calls) == 1

    def test_lift_for_an_unknown_name_is_refused(self, sym3):
        z2 = FiniteSemigroup.generate([("t", T((2, 1)))])
        lifts = {"t": T((1, 3, 2)), "zz": T((1, 2, 3))}
        reason = "lift for 'zz', which is not a generator of the source"
        with pytest.raises(VerificationError, match=f"division lifts rejected: {reason}"):
            check_division(z2, sym3, lifts=lifts)
        good = check_division(z2, sym3, lifts={"t": T((1, 3, 2))})
        forged = DivisionWitness(z2, sym3, lifts, good.closure)
        with pytest.raises(VerificationError, match=f"failed to re-verify: {reason}"):
            forged.verify()

    @pytest.mark.parametrize("lift", [T((1, 1, 1)), T((2, 1))], ids=["outside", "degree"])
    def test_lift_outside_the_target_is_refused(self, sym3, lift):
        z2 = FiniteSemigroup.generate([("t", T((2, 1)))])
        message = "division lifts rejected: lift for 't' is not an element of the target"
        with pytest.raises(VerificationError, match=f"^{message}$"):
            check_division(z2, sym3, lifts={"t": lift})
        good = check_division(z2, sym3, lifts={"t": T((1, 3, 2))})
        forged = DivisionWitness(z2, sym3, {"t": lift}, good.closure)
        with pytest.raises(VerificationError, match=f"^{message}$"):
            forged.verify()

    def test_witness_reverifies(self, sym3):
        z3 = FiniteSemigroup.generate([("c", T((2, 3, 1)))])
        w = check_division(z3, sym3)
        w.verify()

    def test_search_over_lazy_oracle_is_rejected(self):
        # a lazy target has no carrier to scan, so no exhaustion is claimed
        triv = FiniteSemigroup.generate([("1", T.identity(1))])
        oracle = WreathProduct(
            ActionPair.right_translation(triv), ActionPair.right_translation(triv)
        )
        assert oracle.elements is None
        with pytest.raises(InputError):
            check_division(triv, oracle)
        with pytest.raises(InputError):
            check_division(triv, WreathProduct(group_pair(2), trivial_on(1)))


T3_GENS = [("a", T((2, 1, 3))), ("b", T((2, 3, 1))), ("e", T((1, 1, 3)))]


def viable_lifts(s, target):
    """Per generator g, the target elements whose closure with g, taken
    inside <g>, is a function onto <g>."""
    viable = []
    for name, gi in zip(s.gen_names, s.gens):
        sub = FiniteSemigroup.generate(
            [(name, s.elements[gi])], mul=s.mul, sort_key=lambda v: s.index[v]
        )
        viable.append([
            tv
            for tv in target.elements
            if isinstance(_relation_closure(sub, target, {name: target.encode(tv)}), dict)
        ])
    return viable


def scan_division(s, target, budget):
    """The exhaustive scan the search must agree with: every tuple of
    viable lifts in canonical order, one full closure each."""
    tried = 0
    for combo in itertools.product(*viable_lifts(s, target)):
        if tried >= budget:
            return ExhaustionReport(tried, budget, searched_all=False)
        tried += 1
        lifts = dict(zip(s.gen_names, combo))
        result = _relation_closure(s, target, {n: target.encode(v) for n, v in lifts.items()})
        if isinstance(result, dict):
            return DivisionWitness(s, target, lifts, result)
    return ExhaustionReport(tried, budget, searched_all=True)


@pytest.fixture(scope="module")
def division_pairs(sym3, right_zero_2):
    t3 = FiniteSemigroup.generate(T3_GENS)
    # with the idempotent first, every (e, a) prefix conflicts in Sym_3 and
    # the search cuts blocks of two tuples, the last block among them; in
    # T_3 it cuts six blocks before the first witness, the 43rd tuple
    t3_e_first = FiniteSemigroup.generate(T3_GENS[2:] + T3_GENS[:2])
    z2 = FiniteSemigroup.generate([("t", T((2, 1)))])
    z3 = FiniteSemigroup.generate([("c", T((2, 3, 1)))])
    return {
        "sym3>right_zero_2": (sym3, right_zero_2),
        "t3>sym3": (t3, sym3),
        "t3_e_first>sym3": (t3_e_first, sym3),
        "t3_e_first>t3": (t3_e_first, t3),
        "sym3>t3": (sym3, t3),
        "z2>sym3": (z2, sym3),
        "z3>sym3": (z3, sym3),
    }


class TestDivisionSearch:
    @pytest.mark.parametrize("pair", [
        "sym3>right_zero_2", "t3>sym3", "t3_e_first>sym3", "t3_e_first>t3",
        "sym3>t3", "z2>sym3", "z3>sym3",
    ])
    def test_search_matches_exhaustive_scan(self, pair, division_pairs, monkeypatch):
        s, target = division_pairs[pair]
        k = len(s.gens)
        calls = []

        def counted(*args):
            calls.append(args)
            return _relation_closure(*args)

        monkeypatch.setattr(products, "_relation_closure", counted)
        total = math.prod(len(ok) for ok in viable_lifts(s, target))
        for budget in range(total + 2):
            want = scan_division(s, target, budget)
            calls.clear()
            got = check_division(s, target, budget=budget)
            if isinstance(want, DivisionWitness):
                assert isinstance(got, DivisionWitness), budget
                assert list(got.lifts.items()) == list(want.lifts.items())
                assert got.morphism == want.morphism
            else:
                assert got == want, budget
            # the search and one re-verification of a witness; the viable
            # filter closes nothing
            verify = isinstance(got, DivisionWitness)
            assert len(calls) <= k * budget + verify

    def test_budget_inside_the_last_cut_block(self, division_pairs):
        s, target = division_pairs["t3_e_first>sym3"]
        # 6 * 3 * 2 tuples; the last cut carries the count from 34 to 36
        assert check_division(s, target, budget=35) == ExhaustionReport(35, 35, False)
        assert check_division(s, target, budget=36) == ExhaustionReport(36, 36, True)
        assert check_division(s, target, budget=37) == ExhaustionReport(36, 37, True)


def closure_viable(s, target):
    """Per generator, the target elements whose one-generator closure
    inside S is functional, one closure each."""
    return [
        [
            tv
            for tv in target.elements
            if isinstance(_relation_closure(s, target, {name: target.encode(tv)}, [name]), dict)
        ]
        for name in s.gen_names
    ]


def filtered_viable(s, target):
    """The (index, period) filter's candidates, decoded to values."""
    return [[target.decode(c) for c in ok] for ok in products._viable_lifts(s, target)]


def ladder(name):
    gens = {"T4": T4_GENS, "I4": I4_GENS}.get(name) or LADDER[name]
    return FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(gens)])


@pytest.fixture(scope="module")
def derived_wreath_divisions():
    """(source, carrier) of the acceptance suite's three derived-wreath
    divisions, as check_derived_wreath_division hands them to the search:
    carriers of 243, 1875 and 1875 elements."""
    captured = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("trivial", "z2", "u1"):
            mp.setattr(
                complexity, "check_division",
                lambda s, target, **kw: captured.setdefault(name, (s, target)),
            )
            complexity.check_derived_wreath_division(*division_instance(name))
    return captured


def morphism_digest(witness):
    pairs = sorted([str(t), str(s)] for t, s in witness.morphism.items())
    return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16]


class TestViableFilter:
    """The (index, period) test agrees with one closure per generator and
    target element."""

    @pytest.mark.parametrize("pair", [
        "sym3>right_zero_2", "t3>sym3", "t3_e_first>sym3", "t3_e_first>t3",
        "sym3>t3", "z2>sym3", "z3>sym3",
    ])
    def test_division_pairs(self, pair, division_pairs):
        s, target = division_pairs[pair]
        assert filtered_viable(s, target) == closure_viable(s, target)

    @pytest.mark.parametrize("name,order", [("trivial", 243), ("z2", 1875), ("u1", 1875)])
    def test_derived_wreath_carriers(self, name, order, derived_wreath_divisions):
        s, carrier = derived_wreath_divisions[name]
        assert len(carrier.elements) == order
        assert filtered_viable(s, carrier) == closure_viable(s, carrier)

    @pytest.mark.parametrize("target", ["PT3", "T4", "I3"])
    def test_t3_into_ladder(self, target):
        s, t = ladder("T3"), ladder(target)
        viable = filtered_viable(s, t)
        assert viable == closure_viable(s, t)
        # an idempotent generator may lift anywhere; the others may not
        assert any(len(ok) < len(t.elements) for ok in viable)


def walked_index_periods(w, codes):
    """The (index, period) of each code by walking its powers through
    `mul_code`, the oracle of `WreathProduct.index_periods`."""
    return [_index_period(c, lambda y, c=c: w.mul_code(y, c)) for c in codes]


def partial_carrier(group_order, degree, seed, zero):
    """The full carrier of (G,G) wr (n, T), or of (G,G^0) wr (n, T) with
    `zero`, T generated by a nilpotent shift (1 -> 2 -> ... -> n ->
    undefined) and two random partial transformations of degree n."""
    rng = random.Random(seed)
    shift = tuple(range(2, degree + 1)) + (0,)
    gens = [shift] + [tuple(rng.randrange(degree + 1) for _ in range(degree)) for _ in "ab"]
    t = FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(gens)])
    group = FiniteGroup.cyclic(group_order)
    left = ActionPair.of_group_with_zero(group) if zero else ActionPair.of_group(group)
    return WreathProduct(left, ActionPair.of_transformations(t)).full_carrier(BUDGET)


class TestIndexPeriods:
    """`WreathProduct.index_periods` equals the walk of each code's powers
    through `mul_code`, code for code."""

    @pytest.mark.parametrize("name", ["trivial", "z2", "u1"])
    def test_derived_wreath_carriers(self, name, derived_wreath_divisions):
        _, carrier = derived_wreath_divisions[name]
        got = carrier.index_periods(carrier.codes)
        assert got == walked_index_periods(carrier, carrier.codes)
        assert len(set(got)) > 1

    @pytest.mark.parametrize("group_order,degree", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("zero", [False, True])
    def test_partial_wreath_carriers(self, group_order, degree, seed, zero):
        w = partial_carrier(group_order, degree, seed, zero)
        # the shift: q.t is defined and q.t^n is not
        shift = w.right.sgp.encode(T(tuple(range(2, degree + 1)) + (0,)))
        assert w.right.row(shift) == (*range(1, degree), -1)
        codes = w.codes
        assert len(codes) == (group_order + zero) ** degree * len(w.right.sgp)
        assert w.index_periods(codes) == walked_index_periods(w, codes)
        # a shuffled list reads each run of one t on its own
        shuffled = random.Random(seed).sample(codes, len(codes))
        assert w.index_periods(shuffled) == walked_index_periods(w, shuffled)

    def test_zero_on_a_cycle_absorbs_the_walk(self):
        """c is a 3-cycle and Z_2^0 has code 2 for its zero.  With f =
        (1, 0, 0) the walks have period 6 and index 1; a zero anywhere on
        the cycle absorbs every walk within three steps, which leaves the
        period 3 of c and sets the index to the step that reaches it."""
        t = FiniteSemigroup.generate([("c", T((2, 3, 1)))])
        w = WreathProduct(
            ActionPair.of_group_with_zero(FiniteGroup.cyclic(2)),
            ActionPair.of_transformations(t),
        )
        c = w.right.sgp.encode(T((2, 3, 1)))
        codes = [((1, 0, 0), c), ((1, 0, 2), c), ((2, 0, 0), c), ((2, 2, 2), c)]
        got = w.index_periods(codes)
        assert got == walked_index_periods(w, codes)
        assert got == [(1, 6), (3, 3), (3, 3), (1, 3)]

    def test_coprime_periods_combine_by_lcm(self):
        """c is a 3-cycle on {1, 2, 3} fixing 4 (period 3), and g at 4 alone
        has period 2 (under c^3 = 1), so (f, c) has period 6: the lcm, not
        the max, of t's and the coordinates' periods."""
        c, one = T((2, 3, 1, 4)), T((1, 2, 3, 4))
        t = FiniteSemigroup.generate([("c", c)])
        w = WreathProduct(group_pair(2), ActionPair.of_transformations(t))
        c, one = w.right.sgp.encode(c), w.right.sgp.encode(one)
        e = FiniteGroup.cyclic(2).identity
        g = 1 - e
        codes = [((e, e, e, e), c), ((e, e, e, g), one), ((e, e, e, g), c)]
        got = w.index_periods(codes)
        assert got == walked_index_periods(w, codes)
        assert got == [(1, 3), (1, 2), (1, 6)]

    def test_t_walk_counts_where_the_action_forgets_it(self):
        """Z_2 acting trivially on one point, an action that is not
        faithful: the coordinate walk of ((0,), t) is constant, and t's own
        walk gives the period 2."""
        z2 = FiniteGroup.cyclic(2)
        idx = list(range(len(z2)))
        mute = ActionPair(1, products.MulOracle(idx, z2.mul), lambda c: (0,))
        w = WreathProduct(trivial_on(1), mute).full_carrier(BUDGET)
        got = w.index_periods(w.codes)
        assert got == walked_index_periods(w, w.codes)
        assert got == [(1, 1), (1, 2)]


class TestDivisionOutcomes:
    """Search outcomes recorded before the (index, period) filter: the same
    lifts, morphisms and exhaustion counts."""

    @pytest.mark.parametrize("name,budget,lifts,digest", [
        ("trivial", 300_000, {
            "g0": "(('0', '0', '0', '0'), '0')",
            "g1": "(('0', '0', '0', (-1, 0, (0, None))), '0')",
            "g2": "(('0', (0, 0, (0,)), '0', '0'), '0')",
        }, "3c9f29c5b32b4e3f"),
        ("z2", 4_000_000, {
            "g0": "(('0', '0', '0', '0'), '0')",
            "g1": "(('0', '0', '0', (-1, 0, (0, None))), '0')",
            "g2": "(('0', '0', '0', (-1, 0, (1, None))), '0')",
            "g3": "(('0', (0, 0, (0, 1)), '0', '0'), '0')",
            "g4": "(('0', (0, 0, (1, 0)), '0', '0'), '0')",
        }, "9f92c68cf666fc56"),
        ("u1", 6_000_000, {
            "g0": "(('0', '0', '0', '0'), '0')",
            "g1": "(('0', '0', '0', (-1, 0, (0, None))), '0')",
            "g2": "(('0', '0', '0', (-1, 0, (1, None))), '0')",
            "g3": "(('0', (0, 0, (0, 0)), '0', '0'), '0')",
            "g4": "(('0', (0, 0, (0, 1)), '0', '0'), '0')",
        }, "d6088d3e2b196e52"),
    ])
    def test_derived_wreath(self, name, budget, lifts, digest, derived_wreath_divisions):
        s, carrier = derived_wreath_divisions[name]
        w = check_division(s, carrier, budget=budget)
        assert isinstance(w, DivisionWitness)
        assert {g: str(v) for g, v in w.lifts.items()} == lifts
        assert morphism_digest(w) == digest

    @pytest.mark.parametrize("source,target,lifts,order,digest", [
        ("T3", "PT3", ("2 3 1", "1 3 2", "1 2 2"), 27, "065f60f82db500b9"),
        ("T3", "T4", ("1 3 4 2", "1 2 4 3", "1 2 3 3"), 27, "9c49c0acbcdcb650"),
        ("T4", "T4", ("2 3 4 1", "1 2 4 3", "1 2 3 3"), 256, "3129d47fa43aa834"),
    ])
    def test_ladder_witness(self, source, target, lifts, order, digest):
        w = check_division(ladder(source), ladder(target))
        assert isinstance(w, DivisionWitness)
        assert [str(w.lifts[g]) for g in ("g0", "g1", "g2")] == list(lifts)
        assert len(w.morphism) == order
        assert morphism_digest(w) == digest

    def test_t3_into_i3_exhausts(self):
        budget = products.DIVISION_SEARCH_BUDGET
        got = check_division(ladder("T3"), ladder("I3"))
        assert got == ExhaustionReport(408, budget, searched_all=True)

    def test_t3_into_i4_exhausts(self):
        budget = products.DIVISION_SEARCH_BUDGET
        got = check_division(ladder("T3"), ladder("I4"))
        assert got == ExhaustionReport(150480, budget, searched_all=True)


def test_only_multiplied_factors_build_no_carrier(monkeypatch, b2z2_1):
    from krc.inverse import inverse_decomposition, small_monoid
    from krc.semilocal import fasp_embedding, group_mapping_presentation

    z2 = FiniteGroup.cyclic(2)
    pres = group_mapping_presentation(b2z2_1)
    s = small_monoid(2, z2, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("built a FiniteSemigroup carrier")

    monkeypatch.setattr(FiniteSemigroup, "from_elements", refuse)
    assert len(fasp_embedding(pres).rows.morphism) == len(b2z2_1)
    assert len(inverse_decomposition(s, z2).direct_witness.morphism) == 32
