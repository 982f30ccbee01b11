import collections
import inspect
import itertools
import random
import re

import pytest

from krc.core import (
    FiniteGroup,
    FiniteSemigroup,
    GreenStructure,
    PartialTransformation,
    _canonical_classes,
    _index_period,
    _sccs,
    check_stability,
    compose,
    green,
    is_aperiodic,
    maximal_subgroup,
    minimal_generating_set,
    with_generators,
)
from krc.cli import CORPUS_DIR, load_corpus_manifest
from krc.complexity import EstimateOptions, RelationalMorphism, derived_semigroup, estimate
from krc.errors import InputError, ResourceError, VerificationError
from krc import core, fileformats, semilocal
from krc.fileformats import dump_semigroup, load_semigroup, parse_semigroup
from krc.inverse import brandt_semigroup
from krc.semilocal import JClassRef, _zero_minimal_ideals, gm_quotient, rees_coordinates

from helpers import (
    I4_GENS,
    LADDER,
    T4_GENS,
    _sample_semigroups,
    assert_classes_match_definitions,
    brute_zero_minimal_ideals,
)

T = PartialTransformation


def all_partials(n):
    return [T(imgs) for imgs in itertools.product(range(n + 1), repeat=n)]


class TestTransformationValues:
    def test_sort_key_reads_undefined_as_n_plus_1(self):
        for n in range(5):
            for f in all_partials(n):
                assert f.sort_key() == tuple(v if v else n + 1 for v in f.images)

    @pytest.mark.parametrize("images,bad", [
        ((3, 1), 3), ((1, -1), -1), ((0, 5, -2), 5), ((-1,), -1), ((1, 2, 4), 4),
    ])
    def test_the_first_value_out_of_range_is_named(self, images, bad):
        message = f"^image value {bad} out of range for degree {len(images)}$"
        with pytest.raises(InputError, match=message):
            T(images)


class TestCompose:
    def test_identity_neutral(self):
        e = T.identity(3)
        for g in all_partials(3)[:20]:
            assert compose(e, g) == g

    def test_stated_rule(self):
        f = T((2, 0, 1))
        g = T((1, 1, 0))
        assert compose(f, g) == T((1, 0, 1))

    def test_associativity_exhaustive_on_two_points(self):
        maps = all_partials(2)
        for f in maps:
            for g in maps:
                fg = compose(f, g)
                for h in maps:
                    assert compose(fg, h) == compose(f, compose(g, h))

    def test_degree_mismatch(self):
        with pytest.raises(InputError):
            compose(T((1,)), T((1, 2)))

    def test_undefined_absorbed(self):
        f = T((0, 1))
        g = T((2, 2))
        assert compose(f, g).images == (0, 2)


class TestGenerate:
    def test_identity_alone(self):
        s = FiniteSemigroup.generate([("e", T.identity(2))])
        assert len(s) == 1

    def test_transposition_gives_z2(self):
        s = FiniteSemigroup.generate([("t", T((2, 1)))])
        assert len(s) == 2
        assert not is_aperiodic(s)

    def test_constants_give_right_zero(self):
        # hand enumeration: {c1, c2} with ci * cj = cj
        s = FiniteSemigroup.generate([("a", T((1, 1))), ("b", T((2, 2)))])
        assert len(s) == 2
        for u in s.elements:
            for v in s.elements:
                assert s.mul(u, v) == v

    def test_budget(self):
        with pytest.raises(ResourceError) as err:
            FiniteSemigroup.generate(
                [("s", T((2, 1, 3))), ("c", T((2, 3, 1)))], max_elements=3
            )
        assert "3" in str(err.value)

    def test_canonical_order_is_generator_order_independent(self):
        a, b = T((2, 1, 3)), T((2, 3, 1))
        s1 = FiniteSemigroup.generate([("x", a), ("y", b)])
        s2 = FiniteSemigroup.generate([("y", b), ("x", a)])
        assert s1.elements == s2.elements

    def test_recorded_words_evaluate_back(self, sym3, b2z2_1):
        for s in (sym3, b2z2_1):
            words = s.words()
            for i, word in enumerate(words):
                value = s.elements[s.gens[word[0]]]
                for k in word[1:]:
                    value = s.mul(value, s.elements[s.gens[k]])
                assert value == s.elements[i]
                # reduced: no shorter word reaches the element earlier in BFS
                assert len(word) <= len(s)


@pytest.fixture
def built(monkeypatch):
    """Every carrier `generate` or `from_elements` builds while the fixture
    is active, with the multiplication callable it was built from."""
    seen = []
    for name in ("generate", "from_elements"):
        make = getattr(FiniteSemigroup, name)

        def recording(*args, make=make, signature=inspect.signature(make), **kwargs):
            sgp = make(*args, **kwargs)
            seen.append((sgp, signature.bind(*args, **kwargs).arguments.get("mul") or compose))
            return sgp

        monkeypatch.setattr(FiniteSemigroup, name, recording)
    return seen


class TestTracedProducts:
    """Products traced along words against the callable each carrier was
    built from (a GM image's: its parent's products, up to the congruence),
    and the generator-only checks against brute force."""

    def test_traced_products_match_the_callable(self, built):
        corpus = [load_semigroup(CORPUS_DIR / e["file"]) for e in load_corpus_manifest()]
        ladder = {
            name: FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(gens)])
            for name, gens in LADDER.items()
        }
        t3 = ladder["T3"]
        quotients = []
        for j, regular in enumerate(t3.green().regular):
            if regular:
                gq = gm_quotient(t3, JClassRef(t3, j))
                quotients.append(gq.quotient)
                built.append((gq.quotient, lambda a, b, rep=gq.class_rep: rep[t3.mul_index(a, b)]))
        derived = derived_semigroup(RelationalMorphism.to_trivial(corpus[0]))
        regenerated = with_generators(t3, minimal_generating_set(t3))
        built.append((regenerated, t3.mul))
        # one element under two names, and a generator that is also a product
        # of the others: the word tree roots each at its first name
        cycle, swap, merge = T((2, 3, 1)), T((2, 1, 3)), T((1, 1, 3))
        two_names = FiniteSemigroup.generate(
            [("x", swap), ("c", cycle), ("y", swap), ("e", merge)]
        )
        product = FiniteSemigroup.generate(
            [("c", cycle), ("ce", compose(cycle, merge)), ("e", merge)]
        )
        assert two_names.gens[0] == two_names.gens[2] and len(two_names) == 27
        assert product.mul_index(product.gens[0], product.gens[2]) == product.gens[1]
        assert [len(s) for s in ladder.values()] == [27, 64, 34]
        assert len(regenerated.gens) < len(regenerated)
        named = corpus + list(ladder.values()) + quotients + [derived, regenerated]
        named += [two_names, product]
        by_carrier = {id(sgp): mul for sgp, mul in built}
        assert all(id(sgp) in by_carrier for sgp in named)
        for sgp, mul in built:
            els, index = sgp.elements, sgp.index
            n = len(els)
            table = [[index[mul(u, v)] for v in els] for u in els]
            assert all(sgp.mul_index(i, j) == table[i][j] for i in range(n) for j in range(n))
            points = list(range(n))
            for i in points:
                assert sgp.right_translation(points, i) == tuple(row[i] for row in table)
                assert sgp.left_translation(i, points) == tuple(table[i])
            for i, word in enumerate(sgp.words()):
                value = els[sgp.gens[word[0]]]
                for k in word[1:]:
                    value = mul(value, els[sgp.gens[k]])
                assert value == els[i]
            ident = [i for i in range(n) if all(table[i][j] == j == table[j][i] for j in range(n))]
            zero = [i for i in range(n) if all(table[i][j] == i == table[j][i] for j in range(n))]
            assert sgp.identity_index() == (ident[0] if ident else None)
            assert sgp.zero_index() == (zero[0] if zero else None)
            assert sgp.idempotent_indices() == [i for i in range(n) if table[i][i] == i]

    def test_holds_no_product_store(self, sym3):
        assert set(vars(sym3)) == {
            "elements", "index", "gens", "gen_names", "right_columns", "left_columns",
            "_order", "_parent", "_letter", "_green", "_classification", "_associative",
        }

    def test_generators_that_do_not_generate(self):
        # 0 alone generates {0} in Z_3
        with pytest.raises(InputError, match="do not generate"):
            FiniteSemigroup([0, 1, 2], [0], ["x0"], [(0, 1, 2)])

    def test_with_generators_reads_the_graph(self, sym3):
        # the same elements and order, the columns read off sym3's graph
        swap, cycle = sym3.gens
        again = with_generators(sym3, [cycle, swap])
        assert again.elements == sym3.elements and again.gen_names == ["g0", "g1"]
        assert again.right_columns == sym3.right_columns[::-1]
        with pytest.raises(InputError, match="do not generate"):
            with_generators(sym3, [cycle])


class TestAssociativityCheck:
    @pytest.mark.parametrize("build", [
        lambda mul: FiniteSemigroup.from_elements([0, 1, 2], mul, sort_key=lambda v: v),
        lambda mul: FiniteSemigroup.generate([("x0", 1)], mul=mul, sort_key=lambda v: v),
    ], ids=["every-element", "one-generator"])
    def test_subtraction_mod_3_rejected(self, build):
        with pytest.raises(VerificationError):
            build(lambda a, b: (a - b) % 3)

    def test_addition_mod_3_accepted_from_one_generator(self):
        s = FiniteSemigroup.generate(
            [("x0", 1)], mul=lambda a, b: (a + b) % 3, sort_key=lambda v: v
        )
        assert len(s) == 3

    def test_light_only_where_it_can_fail(self, monkeypatch):
        # composing maps is associative; any other callable gets Light's
        # test, and a GM image, which comes with no callable, no check: it
        # is proved associative, neither checked when built nor when written
        tested, checked = [], []
        light, graph = FiniteSemigroup._light_checked, FiniteSemigroup.check_associative

        def counting_light(self, mul, *table):
            light(self, mul, *table)
            if self._associative:  # Light's test ran and passed
                tested.append(mul)
            return self

        def counting_graph(self):
            if not self._associative:
                checked.append(self)
            graph(self)

        monkeypatch.setattr(FiniteSemigroup, "_light_checked", counting_light)
        monkeypatch.setattr(FiniteSemigroup, "check_associative", counting_graph)
        t3 = FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(LADDER["T3"])])
        FiniteSemigroup.from_elements(t3.elements, compose)
        assert tested == [] and checked == []
        gq = gm_quotient(t3, JClassRef(t3, t3.green().j_of[t3.gens[0]]))
        assert gq.order < len(t3)
        dump_semigroup(gq.quotient)
        assert tested == [] and checked == []
        # a carrier that passed Light's test needs no graph check to be written
        u1 = FiniteSemigroup.from_elements([0, 1], lambda a, b: a * b, sort_key=lambda v: v)
        dump_semigroup(u1)
        assert len(tested) == 1 and compose not in tested and checked == []
        # any other abstract carrier gets the graph check when written
        z3 = FiniteSemigroup([0, 1, 2], [1], ["a"], [(1, 2, 0)])
        dump_semigroup(z3)
        assert checked == [z3]

    def test_from_elements_calls_its_callable_once_per_product(self):
        # Light's test reads the table that closure was checked on
        calls = []

        def mul(a, b):
            calls.append((a, b))
            return (a + b) % 40

        z40 = FiniteSemigroup.from_elements(range(40), mul, sort_key=lambda v: v)
        assert z40._associative and len(calls) == 40 * 40


class TestGreen:
    def test_group_single_class(self, sym3):
        gs = sym3.green()
        assert len(gs.j_classes) == 1
        assert len(gs.r_classes) == 1
        assert len(gs.l_classes) == 1
        assert len(gs.h_classes) == 1

    def test_right_zero_structure(self, right_zero_2):
        # xy = y: one R-class of size 2, two singleton L-classes, one J-class
        gs = right_zero_2.green()
        assert len(gs.r_classes) == 1
        assert len(gs.l_classes) == 2
        assert len(gs.j_classes) == 1
        assert gs.regular == [True]

    def test_brandt_classes(self, trivial_group):
        b2 = brandt_semigroup(2, trivial_group)
        gs = b2.green()
        sizes = sorted(len(c) for c in gs.j_classes)
        assert sizes == [1, 4]
        for j, members in enumerate(gs.j_classes):
            if len(members) == 4:
                assert gs.regular[j]

    def test_h_is_meet_of_r_and_l(self, b2z2_1):
        gs = b2z2_1.green()
        for i in range(len(b2z2_1)):
            for j in range(len(b2z2_1)):
                same_h = gs.h_of[i] == gs.h_of[j]
                assert same_h == (gs.r_of[i] == gs.r_of[j] and gs.l_of[i] == gs.l_of[j])

    def test_stability(self, b2z2_1, sym3, right_zero_2):
        for s in (b2z2_1, sym3, right_zero_2):
            check_stability(s)

    def test_rl_intersections_nonempty(self, b2z2_1):
        gs = b2z2_1.green()
        for members in gs.j_classes:
            rs = {gs.r_of[i] for i in members}
            ls = {gs.l_of[i] for i in members}
            for r in rs:
                for l in ls:
                    assert any(gs.r_of[i] == r and gs.l_of[i] == l for i in members)

    def test_squared_class_regular(self, b2z2_1):
        gs = b2z2_1.green()
        for j, members in enumerate(gs.j_classes):
            hits = any(
                gs.j_of[b2z2_1.mul_index(u, v)] == j
                for u in members
                for v in members
            )
            if hits:
                assert gs.regular[j]


class TestGreenOrder:
    def test_zero_minimal_ideals_match_brute_force(self, corpus):
        ladder = [
            FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(gens)])
            for gens in LADDER.values()
        ]
        for s in [s for s, _ in corpus.values()] + ladder:
            assert _zero_minimal_ideals(s) == brute_zero_minimal_ideals(s)

    def test_successor_sets_generate_the_j_order(self, b2z2_1):
        gs = b2z2_1.green()
        n = len(b2z2_1)
        for a in range(n):
            below = {gs.j_of[b2z2_1.mul_index(x, b2z2_1.mul_index(a, y))]
                     for x in range(n) for y in range(n)}
            reach, stack = {gs.j_of[a]}, [gs.j_of[a]]
            while stack:
                for d in gs.j_succ[stack.pop()]:
                    if d not in reach:
                        reach.add(d)
                        stack.append(d)
            # b2z2_1 is a monoid, so S a S is S^1 a S^1
            assert reach == below


@pytest.fixture(scope="module")
def translation_carriers(corpus):
    """The corpus, T_3, PT_3, I_3 and the GM images of T_4 at its regular
    J-classes."""
    ladder = [
        FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(gens)])
        for gens in LADDER.values()
    ]
    t4 = FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(T4_GENS)])
    images = [
        gm_quotient(t4, JClassRef(t4, j)).quotient
        for j, regular in enumerate(t4.green().regular)
        if regular
    ]
    assert len(t4) == 256 and len(images) == 4
    return [s for s, _ in corpus.values()] + ladder + images


class TestBulkTranslations:
    """Rows propagated along the word tree against single traced products."""

    def test_right_translations_match_traced_products(self, translation_carriers):
        for sgp in translation_carriers:
            n = len(sgp)
            rng = random.Random(n)
            # unsorted, with repeats, and the empty set
            for points in (rng.choices(range(n), k=n + 3), list(range(n))[::-1], []):
                rows = sgp.right_translations(points)
                assert rows == [tuple(sgp.mul_index(p, s) for p in points) for s in range(n)]

    def test_left_translations_on_zero_minimal_ideals(self, translation_carriers):
        checked = 0
        for sgp in translation_carriers:
            n = len(sgp)
            for _, ideal in _zero_minimal_ideals(sgp)[1]:
                points = ideal[::-1] + ideal[:1]  # unsorted, with a repeat
                rows = sgp.left_translations(points)
                assert rows == [tuple(sgp.mul_index(s, p) for p in points) for s in range(n)]
                checked += 1
        assert checked >= len(translation_carriers)

    def test_one_row_walks_the_word(self, translation_carriers):
        # right_translation(points, s) is row s of right_translations(points)
        for sgp in translation_carriers:
            n = len(sgp)
            rng = random.Random(n)
            for points in (rng.choices(range(n), k=n + 3), [n - 1], []):
                rows = sgp.right_translations(points)
                for s in rng.sample(range(n), min(n, 20)):
                    assert sgp.right_translation(points, s) == rows[s]

    def test_one_left_row_walks_the_word(self, translation_carriers):
        # left_translation(q, points) is q*p for every point, the mirror of
        # right_translation, whatever the points (no closure is needed)
        for sgp in translation_carriers:
            n = len(sgp)
            rng = random.Random(n)
            for points in (rng.choices(range(n), k=n + 3), range(n), [n - 1], []):
                for q in rng.sample(range(n), min(n, 20)):
                    want = tuple(sgp.mul_index(q, p) for p in points)
                    assert sgp.left_translation(q, points) == want

    def test_one_point_sets(self, translation_carriers):
        # a bare itemgetter returns a value, not a 1-tuple, for one position
        left_closed = 0
        for sgp in translation_carriers:
            n = len(sgp)
            for p in {0, n // 2, n - 1}:
                rows = sgp.right_translations([p])
                assert rows == [(sgp.mul_index(p, s),) for s in range(n)]
            for p in range(n):
                if all(col[p] == p for col in sgp.left_columns):  # g*p = p for every generator
                    rows = sgp.left_translations([p])
                    assert rows == [(sgp.mul_index(s, p),) for s in range(n)] == [(p,)] * n
                    left_closed += 1
        assert left_closed >= 10

    def test_one_element_carrier(self):
        one = FiniteSemigroup.generate([("e", T((1,))), ("f", T((1,)))])
        assert len(one) == 1 and one.mul_index(0, 0) == 0
        for translations in (one.right_translations, one.left_translations):
            assert translations([0]) == [(0,)]
            assert translations([0, 0]) == [(0, 0)]
            assert translations([]) == [()]

    def test_left_translations_need_a_left_closed_set(self, b2z2_1):
        gs = b2z2_1.green()
        top = gs.j_classes[gs.j_of[b2z2_1.identity_index()]]
        with pytest.raises(InputError, match="not closed under left multiplication"):
            b2z2_1.left_translations(top)


def catalan_monoid(n):
    """C_n less its identity: e_i maps i to i+1 and fixes every other point."""
    gens = []
    for i in range(1, n):
        images = list(range(1, n + 1))
        images[i - 1] = i + 1
        gens.append((f"e{i}", T(tuple(images))))
    return FiniteSemigroup.generate(gens)


class TestAperiodicity:
    def test_powers_stop_at_the_first_repeat(self, monkeypatch):
        s = catalan_monoid(6)
        assert len(s) == 131
        # x^2, ..., x^(k+1) for each x with x^(k+1) = x^k first, then one
        # square per element for the idempotents of the Green structure
        want = len(s)
        for x in s.elements:
            p = x
            want += 1
            while compose(p, x) != p:
                p = compose(p, x)
                want += 1
        calls = []
        mul_index = FiniteSemigroup.mul_index

        def counted(self, i, j):
            calls.append((i, j))
            return mul_index(self, i, j)

        monkeypatch.setattr(FiniteSemigroup, "mul_index", counted)
        assert is_aperiodic(s)
        assert len(calls) == want == 416
    def test_right_zero(self, right_zero_2):
        assert is_aperiodic(right_zero_2)

    def test_z2(self):
        assert not is_aperiodic(FiniteSemigroup.generate([("t", T((2, 1)))]))

    def test_acyclic_with_loops(self):
        s = FiniteSemigroup.generate([("a", T((2, 3, 3))), ("b", T((1, 1, 1)))])
        # power-stabilization oracle, independent of the library routine
        for i in range(len(s)):
            p = i
            for _ in range(len(s)):
                p = s.mul_index(p, i)
            assert s.mul_index(p, i) == p
        assert is_aperiodic(s)

    def test_index_period(self):
        # 0 -> 1 -> 2 -> 3 -> 4 -> 2: the 2nd term recurs after 3 steps
        assert _index_period(0, [1, 2, 3, 4, 2].__getitem__) == (3, 3)
        assert _index_period(5, lambda y: y) == (1, 1)

    def test_agrees_with_subgroup_triviality(self, b2z2_1, sym3, right_zero_2):
        for s in (b2z2_1, sym3, right_zero_2):
            trivial = all(
                len(maximal_subgroup(s, s.elements[e])) == 1
                for e in s.idempotent_indices()
            )
            assert trivial == is_aperiodic(s)


class TestMaximalSubgroup:
    def test_aperiodic_gives_trivial(self, right_zero_2):
        for e in right_zero_2.idempotent_indices():
            assert len(maximal_subgroup(right_zero_2, right_zero_2.elements[e])) == 1

    def test_int_valued_carrier_takes_values(self):
        # an int is an element value here, never an index into the carrier
        z2 = FiniteSemigroup.from_elements(
            [10, 11], lambda a, b: 10 + (a + b) % 2, sort_key=lambda v: v
        )
        g = maximal_subgroup(z2, 10)
        assert len(g) == 2
        assert set(g.elements) == {10, 11}
        with pytest.raises(InputError):
            maximal_subgroup(z2, 0)

    def test_sym3_identity(self, sym3):
        g = maximal_subgroup(sym3, T.identity(3))
        assert len(g) == 6
        g.verify()

    def test_brandt_coordinate_idempotent(self, z2_group):
        b2 = brandt_semigroup(2, z2_group)
        e = (1, z2_group.identity, 1)
        g = maximal_subgroup(b2, e)
        assert len(g) == 2

    def test_rejects_non_idempotent(self, sym3):
        with pytest.raises(InputError):
            maximal_subgroup(sym3, T((2, 1, 3)))


class TestGroups:
    def test_cyclic(self):
        z6 = FiniteGroup.cyclic(6)
        z6.verify()
        assert z6.inv(1) == 5

    def test_symmetric(self):
        s4 = FiniteGroup.symmetric(4)
        s4.verify()
        assert len(s4) == 24

    def test_bad_table_rejected(self):
        with pytest.raises(InputError):
            FiniteGroup.from_table([[0, 1], [1, 1]])

    def test_loop_rejected(self):
        # a Latin square with identity in which every element is its own
        # inverse: a loop of order 5, not a group (Z_5 has no such elements)
        loop = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(VerificationError, match="not associative"):
            FiniteGroup.from_table(loop)


    def test_klein_four_as_a_semigroup(self):
        # Z_2 x Z_2: a group, so not aperiodic and one H-class, and every
        # element squares to the identity
        k = FiniteSemigroup.from_elements(
            list(itertools.product(range(2), repeat=2)),
            lambda f, g: tuple((a + b) % 2 for a, b in zip(f, g)),
            sort_key=lambda f: f,
        )
        assert len(k) == 4
        assert not is_aperiodic(k)
        assert len(k.green().h_classes) == 1
        ident = k.identity_index()
        assert all(k.mul_index(i, i) == ident for i in range(4))


def _light_reference(table, gens):
    """Light's test, product by product: the first (x, g, y) with
    (x*g)*y != x*(g*y)."""
    for g in gens:
        for x in range(len(table)):
            for y in range(len(table)):
                if table[table[x][g]][y] != table[x][table[g][y]]:
                    return x, g, y
    return None


def _group_reference(table):
    """What `FiniteGroup` makes of a square table, entry by entry: the
    identity, the inverses and `verify`'s message (None if it passes), or
    the constructor's message."""
    n = len(table)
    points = range(n)
    ident = next((e for e in points if all(table[e][j] == j == table[j][e] for j in points)), None)
    if ident is None:
        return "no identity element: not a group table"
    inverses = []
    for i in points:
        j = next((j for j in points if table[i][j] == ident == table[j][i]), None)
        if j is None:
            return f"element {i} has no inverse: not a group table"
        inverses.append(j)
    message = None
    for i in points:
        if sorted(table[i][j] for j in points) != list(points):
            message = "table row is not a permutation"
        elif sorted(table[j][i] for j in points) != list(points):
            message = "table column is not a permutation"
        if message:
            break
    else:
        gens = FiniteGroup(list(points), table).greedy_generators()
        if _light_reference(table, gens) is not None:
            message = "group table not associative"
    return ident, inverses, message


def _reduced_latin_squares(n):
    """Every n x n Latin square whose row and column 0 are (0, ..., n-1):
    the multiplication tables of the loops of order n, groups among them."""
    square = [list(range(n))] + [[i] + [-1] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [row[:] for row in square]
            return
        i, j = divmod(cell, n)
        if square[i][j] >= 0:
            yield from fill(cell + 1)
            return
        used = set(square[i]) | {square[k][j] for k in range(n)}
        for v in range(n):
            if v not in used:
                square[i][j] = v
                yield from fill(cell + 1)
        square[i][j] = -1

    return list(fill(0))


def _group_kernel_tables():
    """Group tables, relabeled and mutated, loops and random tables (some
    with an identity forced in), each square over range(n)."""
    rng = random.Random(37)
    groups = [FiniteGroup.cyclic(n).table for n in range(1, 8)]
    groups += [FiniteGroup.symmetric(n).table for n in (3, 4)]
    k4 = FiniteSemigroup.from_elements(
        list(itertools.product(range(2), repeat=2)),
        lambda f, g: tuple((a + b) % 2 for a, b in zip(f, g)),
        sort_key=lambda f: f,
    )
    groups.append([[k4.mul_index(i, j) for j in range(4)] for i in range(4)])
    tables = []
    for table in groups:
        n = len(table)
        perm = list(range(n))
        rng.shuffle(perm)
        back = {p: i for i, p in enumerate(perm)}
        relabeled = [[perm[table[back[i]][back[j]]] for j in range(n)] for i in range(n)]
        tables += [table, relabeled]
        for _ in range(4):
            for base in (table, relabeled):
                mutated = [row[:] for row in base]
                i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                mutated[i][j] = rng.randrange(n)
                tables.append(mutated)
                swapped = [row[:] for row in base]
                swapped[i][j], swapped[i][k] = swapped[i][k], swapped[i][j]
                tables.append(swapped)
                rows = [row[:] for row in base]
                rows[i], rows[k] = rows[k], rows[i]
                tables.append(rows)
    tables += _reduced_latin_squares(4) + _reduced_latin_squares(5)
    for _ in range(300):
        n = rng.randrange(1, 7)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.7:
            e = rng.randrange(n)
            for j in range(n):
                table[e][j] = table[j][e] = j
        tables.append(table)
    return tables


class TestGroupKernels:
    """`_light_test` and `FiniteGroup`'s identity, inverses and `verify`
    read whole rows and columns; they give the entry-by-entry reference's
    triple or message on group tables, mutated ones and non-group ones."""

    def test_against_the_reference(self):
        outcomes = collections.Counter()
        for table in _group_kernel_tables():
            want = _group_reference(table)
            try:
                group = FiniteGroup(list(range(len(table))), [row[:] for row in table])
            except InputError as err:
                assert str(err) == want
                outcomes[re.sub(r"\d+", "i", want)] += 1
                continue
            ident, inverses, message = want
            assert (group.identity, group.inverse) == (ident, inverses)
            try:
                group.verify()
            except VerificationError as err:
                assert str(err) == message
                outcomes[message] += 1
            else:
                assert message is None
                outcomes["group"] += 1
        # every outcome is reached
        assert set(outcomes) == {
            "no identity element: not a group table",
            "element i has no inverse: not a group table",
            "table row is not a permutation",
            "table column is not a permutation",
            "group table not associative",
            "group",
        }

    def test_light_test_finds_the_reference_triple(self):
        rng = random.Random(41)
        tables = [row for row in _group_kernel_tables() if len(row) > 1]
        t3 = FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(LADDER["T3"])])
        tables.append([[t3.mul_index(i, j) for j in range(len(t3))] for i in range(len(t3))])
        found = collections.Counter()
        for table in tables:
            n = len(table)
            for gens in (range(n), sorted(rng.sample(range(n), rng.randrange(1, n)))):
                want = _light_reference(table, gens)
                assert core._light_test(table, gens) == want
                found[want is None] += 1
        assert found[True] > 0 and found[False] > 0

    def test_maximal_subgroup_tables(self, corpus):
        # each H-class group's table is S's product on the H-class, by
        # element positions, read entry by entry
        checked = 0
        for sgp, _ in corpus.values():
            for e in sgp.idempotent_indices():
                group = maximal_subgroup(sgp, sgp.elements[e])
                pos = {sgp.index[v]: k for k, v in enumerate(group.elements)}
                assert group.table == [
                    [pos[sgp.mul_index(u, v)] for v in pos] for u in pos
                ]
                checked += 1
        assert checked > 20


def test_minimal_generating_set(sym3):
    gens = minimal_generating_set(sym3)
    assert len(gens) <= 3
    reached = {g: None for g in gens}
    frontier = list(reached)
    while frontier:
        new = []
        for u in frontier:
            for g in gens:
                for p in (sym3.mul_index(u, g), sym3.mul_index(g, u)):
                    if p not in reached:
                        reached[p] = None
                        new.append(p)
        frontier = new
    assert len(reached) == len(sym3)


def reference_regular_representation(sgp):
    """The right regular representation as a closure of transformations:
    each generator's right translation, plus an adjoined identity point
    when S is not a monoid; faithful when the closure has |S| elements."""
    n = len(sgp.elements)
    ident = sgp.identity_index()
    named = []
    for name, gi in zip(sgp.gen_names, sgp.gens):
        images = [sgp.mul_index(i, gi) + 1 for i in range(n)]
        if ident is None:
            images.append(gi + 1)
        named.append((name, T(tuple(images))))
    rep = FiniteSemigroup.generate(named, max_elements=n + 1)
    if len(rep) != n:
        raise VerificationError("regular representation is not faithful")
    return rep


@pytest.fixture(scope="module")
def estimate_runs(corpus):
    """What `estimate` writes and coordinatizes, at default options on the
    corpus, T_3, PT_3, I_3 and the acceptance sample, and at automata
    budget 0 on I_4 and T_4: every distinct abstract carrier it writes,
    and every `ReesCoordinates` it builds."""
    def generated(gens):
        return FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(gens)])

    runs = [(s, EstimateOptions()) for s, _ in corpus.values()]
    runs += [(generated(gens), EstimateOptions()) for gens in LADDER.values()]
    runs += [(generated(gens), EstimateOptions(automata_budget=0)) for gens in (I4_GENS, T4_GENS)]
    runs += [(s, EstimateOptions()) for s in _sample_semigroups()]
    seen, coordinates = {}, []
    dump, coordinatize = fileformats.dump_semigroup, semilocal.rees_coordinates

    def recording(sgp):
        if not sgp.is_transformation:
            seen[sgp.right_columns, tuple(sgp.gens), tuple(sgp.gen_names)] = sgp
        return dump(sgp)

    def coordinatizing(sgp, jref):
        coordinates.append(coordinatize(sgp, jref))
        return coordinates[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileformats, "dump_semigroup", recording)
        mp.setattr(semilocal, "rees_coordinates", coordinatizing)
        for sgp, options in runs:
            estimate(sgp, options)
    return list(seen.values()), coordinates


@pytest.fixture(scope="module")
def written_abstract_carriers(estimate_runs):
    """Every distinct abstract carrier that `estimate_runs` writes."""
    return estimate_runs[0]


class TestOracles:
    """The two whole-table checks that the run path leaves to proofs, a GM
    image's associativity (`semilocal.GmQuotient.quotient`) and the Rees
    transport law (`semilocal.rees_coordinates`), hold wherever the runs
    of `estimate_runs` reach."""

    def test_every_written_carrier_rebuilt_is_associative(self, written_abstract_carriers):
        for sgp in written_abstract_carriers:
            fresh = FiniteSemigroup(sgp.elements, sgp.gens, sgp.gen_names, sgp.right_columns)
            assert not fresh._associative
            fresh.check_associative()
            assert fresh._associative

    def test_transport_on_every_regular_class_of_a_written_carrier(
        self, written_abstract_carriers
    ):
        classes = 0
        for sgp in written_abstract_carriers:
            for j, regular in enumerate(sgp.green().regular):
                if regular:
                    rees_coordinates(sgp, JClassRef(sgp, j)).verify_transport()
                    classes += 1
        assert classes > len(written_abstract_carriers)

    def test_transport_on_every_class_the_runs_coordinatize(self, estimate_runs):
        _, coordinates = estimate_runs
        for rc in coordinates:
            rc.verify_transport()
        assert {rc.sgp.is_transformation for rc in coordinates} == {False, True}

    def test_rlm_maps_and_coordinates_by_definition(self, estimate_runs):
        """On every regular J-class of every carrier the runs write or
        coordinatize, the RLM map read off one R-class and the Rees
        coordinates read off p_a*g*q_b are those of the definitions."""
        written, coordinates = estimate_runs
        carriers = {id(sgp): sgp for sgp in written + [rc.sgp for rc in coordinates]}
        assert assert_classes_match_definitions(carriers.values()) > len(carriers)


class TestRegularRepresentation:
    """An abstract carrier's text, read off its right Cayley graph, against
    the closure of its generators' right translations."""

    def test_text_equals_the_closure_form(self, written_abstract_carriers):
        monoids = 0
        for sgp in written_abstract_carriers:
            assert dump_semigroup(sgp) == dump_semigroup(reference_regular_representation(sgp))
            monoids += sgp.identity_index() is not None
        assert monoids >= 50 and len(written_abstract_carriers) - monoids >= 15

    def test_faithful_on_a_gm_image(self, b2z2_1):
        gq = gm_quotient(b2z2_1, JClassRef(b2z2_1, 1))
        text = dump_semigroup(gq.quotient)
        rep = parse_semigroup(text)
        assert len(rep) == len(gq.quotient)
        assert rep.gen_names == gq.quotient.gen_names
        assert text == dump_semigroup(reference_regular_representation(gq.quotient))

    @pytest.mark.parametrize("values,step", [
        (range(41), lambda v, g: (v + g) % 41),
        (range(1, 43), lambda v, g: min(v + g, 42)),
    ], ids=["Z41", "truncated"])
    def test_broken_edge_off_the_word_tree_is_rejected(self, values, step):
        # one right Cayley edge moved, off the word tree the rows are built
        # along: the check skips tree edges only, so it compares this one;
        # truncated addition has no identity, so the adjoined point is in play
        values = list(values)
        index = {v: i for i, v in enumerate(values)}
        right = [[index[step(v, g)] for g in (1, 2)] for v in values]
        s = 10
        right[s][0] -= 7  # an element the tree reaches before s
        sgp = FiniteSemigroup(values, [index[1], index[2]], ["a", "b"], tuple(zip(*right)))
        t = right[s][0]
        assert (sgp._parent[t], sgp._letter[t]) != (s, 0)
        assert (sgp.identity_index() is None) == (values[0] == 1)
        with pytest.raises(VerificationError, match="not faithful"):
            dump_semigroup(sgp)

    def test_unfaithful_carrier_is_rejected(self):
        # Z_41 over 1 and 2 with one right Cayley edge moved; the carrier
        # takes no callable, so only the graph check, run by the text, sees it
        right = [[(i + 1) % 41, (i + 2) % 41] for i in range(41)]
        right[5][1] = (right[5][1] + 7) % 41
        sgp = FiniteSemigroup(list(range(41)), [1, 2], ["a", "b"], tuple(zip(*right)))
        with pytest.raises(VerificationError, match="not faithful"):
            dump_semigroup(sgp)


def seed2_sample():
    """The generator sets of the benchmark's 60-draw sample (seed 2): degree
    2-4, 1-3 random partial maps, closures of at most 90 elements."""
    rng = random.Random(2)
    out, seen = [], set()
    while len(out) < 60:
        degree = rng.choice([2, 3, 4])
        k = rng.choice([1, 2, 3])
        gens = tuple(tuple(rng.randrange(0, degree + 1) for _ in range(degree)) for _ in range(k))
        if (degree, gens) in seen:
            continue
        seen.add((degree, gens))
        try:
            FiniteSemigroup.generate([(f"g{i}", T(g)) for i, g in enumerate(gens)], max_elements=90)
        except ResourceError:
            continue
        out.append(gens)
    return out


@pytest.fixture(scope="module")
def closure_cases(corpus):
    """name -> named generators: every corpus member, the five ladder
    semigroups, the seed-2 sample, degree-1 inputs and one map under two
    names."""
    cases = {
        name: [(nm, s.elements[g]) for nm, g in zip(s.gen_names, s.gens)]
        for name, (s, _) in corpus.items()
    }
    ladder = dict(LADDER, T4=T4_GENS, I4=I4_GENS)
    draws = {f"sample{k}": gens for k, gens in enumerate(seed2_sample())}
    for name, gens in {**ladder, **draws}.items():
        cases[name] = [(f"g{k}", T(g)) for k, g in enumerate(gens)]
    cases["one"] = [("a", T((1,)))]
    cases["undefined"] = [("z", T((0,)))]
    cases["one_and_undefined"] = [("a", T((1,))), ("z", T((0,)))]
    cases["two_names"] = [("x", T((2, 1, 3))), ("c", T((2, 3, 1))), ("y", T((2, 1, 3)))]
    assert len(cases) == 17 + 5 + 60 + 4
    return cases


class TestClosure:
    """The closure on image tuples against the same loop driven by a
    callable that is not `compose`, so it calls it for every product."""

    def test_matches_the_callable_loop(self, closure_cases):
        for name, named in closure_cases.items():
            got = FiniteSemigroup.generate(named)
            want = FiniteSemigroup.generate(named, mul=lambda f, g: compose(f, g))
            assert got.elements == want.elements, name
            assert all(type(v) is T for v in got.elements), name
            assert got.right_columns == want.right_columns, name
            assert got.gens == want.gens, name
            assert got.gen_names == want.gen_names == [nm for nm, _ in named]

    def test_budget_boundary(self, closure_cases):
        raised = 0
        for name, named in closure_cases.items():
            order = len(FiniteSemigroup.generate(named))
            assert len(FiniteSemigroup.generate(named, max_elements=order)) == order
            messages = []
            for mul in (None, lambda f, g: compose(f, g)):
                try:
                    FiniteSemigroup.generate(named, mul=mul, max_elements=order - 1)
                    messages.append(None)
                except ResourceError as err:
                    messages.append(str(err))
            assert messages[0] == messages[1], name
            # the budget counts the elements the closure adds to the generators
            if order > len({v for _, v in named}):
                assert messages[0] == (
                    f"element budget exceeded: more than {order - 1} elements in the closure"
                )
                raised += 1
        assert raised == 71


def _sccs_three_pass(n, succ):
    """Tarjan over a successor callable, as `core.green` ran it three times."""
    ids = [-1] * n
    low = [0] * n
    order = [0] * n
    on_stack = [False] * n
    stack = []
    counter = itertools.count()
    comp = itertools.count()
    for root in range(n):
        if ids[root] != -1 or order[root]:
            continue
        work = [(root, iter(succ(root)))]
        order[root] = low[root] = next(counter) + 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not order[w]:
                    order[w] = low[w] = next(counter) + 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ(w))))
                    advanced = True
                    break
                elif on_stack[w]:
                    low[v] = min(low[v], order[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == order[v]:
                cid = next(comp)
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    ids[w] = cid
                    if w == v:
                        break
    return ids


def green_three_pass(sgp):
    """The Green structure with R, L and J each found by Tarjan (J over both
    Cayley graphs) and the class orders built element by element."""
    n = len(sgp.elements)
    right, left = list(zip(*sgp.right_columns)), list(zip(*sgp.left_columns))  # rows
    r_of, r_classes = _canonical_classes(_sccs_three_pass(n, lambda i: right[i]))
    l_of, l_classes = _canonical_classes(_sccs_three_pass(n, lambda i: left[i]))
    j_of, j_classes = _canonical_classes(
        _sccs_three_pass(n, lambda i: itertools.chain(right[i], left[i]))
    )
    h_of, h_classes = _canonical_classes([r_of[i] * len(l_classes) + l_of[i] for i in range(n)])

    def successors(class_of, classes, both):
        succ = [set() for _ in classes]
        for i in range(n):
            succ[class_of[i]].update(class_of[j] for j in left[i])
            if both:
                succ[class_of[i]].update(class_of[j] for j in right[i])
        return succ

    idempotents = sgp.idempotent_indices()
    regular = [False] * len(j_classes)
    for e in idempotents:
        regular[j_of[e]] = True
    return GreenStructure(
        r_of, l_of, j_of, h_of, r_classes, l_classes, j_classes, h_classes,
        successors(j_of, j_classes, True), successors(l_of, l_classes, False),
        regular, idempotents,
    )


class TestGreenAgainstThreePasses:
    """J read off R and L by union-find (J = D = R v L in a finite
    semigroup) against a third Tarjan pass, field by field."""

    def test_every_field_equal(self, closure_cases, trivial_group, z2_group):
        carriers = [FiniteSemigroup.generate(named) for named in closure_cases.values()]
        t4 = carriers[list(closure_cases).index("T4")]
        carriers += [
            gm_quotient(t4, JClassRef(t4, j)).quotient
            for j, regular in enumerate(t4.green().regular)
            if regular
        ]
        carriers += [
            FiniteSemigroup.from_elements([0], lambda a, b: 0, sort_key=lambda v: v),
            FiniteSemigroup.generate([("z", T((0, 0)))]),  # zero only
            FiniteSemigroup.generate([("a", T((1, 1))), ("b", T((2, 2)))]),  # right zero
            FiniteSemigroup.from_elements(range(5), lambda a, b: (a + b) % 5, sort_key=lambda v: v),
            brandt_semigroup(2, trivial_group),
            brandt_semigroup(3, z2_group),
            catalan_monoid(5),
        ]
        for sgp in carriers:
            assert green(sgp) == green_three_pass(sgp)

    def test_sccs_on_int_columns(self):
        # a cycle with a tail, and two vertices with self-loops only
        columns = [(1, 2, 0, 3, 4, 4), (1, 2, 3, 3, 4, 0)]
        rows = list(zip(*columns))
        ids = _sccs(columns)
        assert ids[0] == ids[1] == ids[2]
        assert len({ids[0], ids[3], ids[4], ids[5]}) == 4
        assert _canonical_classes(ids)[1] == _canonical_classes(
            _sccs_three_pass(len(rows), lambda i: rows[i])
        )[1]
