"""Helpers that several test modules share: the acceptance sample, the
ladder's generators, the degree-3 census classes, the presentations an
estimate reaches, certificate tree walks, the derived-wreath division
instances, and the definitions that RLM maps, Rees coordinates,
classification, 0-minimal ideals and the wreath embedding are checked
against: the embedding's division closure and a flow construction's Qbar
and rho, which the code proves instead of building, with the reference
constructors of action pairs, the wreath row by its point definition and
its read-back to a wreath value, and the checks and translations no
command reaches.  Importing this module builds no carrier and runs no
estimate, so a test module imports it at the top and no test imports
another test module."""

import itertools
import random

from krc import fileformats, semilocal
from krc.complexity import RelationalMorphism, estimate
from krc.core import ZERO, FiniteSemigroup, PartialTransformation, maximal_subgroup, row_getter
from krc.errors import InputError, ResourceError, VerificationError
from krc.fileformats import parse_semigroup
from krc.inverse import rlm_matrix
from krc.products import ActionPair, PartialMaps, WreathProduct, check_division, induced_row
from krc.semilocal import (
    JClassRef,
    classify,
    group_mapping_presentation,
    rees_coordinates,
    rlm_quotient,
)

T = PartialTransformation

SEED = 20250811

LADDER = {
    "T3": ((2, 3, 1), (2, 1, 3), (1, 1, 3)),
    "PT3": ((2, 3, 1), (2, 1, 3), (1, 1, 3), (0, 2, 3)),
    "I3": ((2, 3, 1), (2, 1, 3), (0, 2, 3)),
}
T4_GENS = ((2, 3, 4, 1), (2, 1, 3, 4), (1, 1, 3, 4))
I4_GENS = ((2, 3, 4, 1), (2, 1, 3, 4), (0, 2, 3, 4))


def ladder(gens):
    return FiniteSemigroup.generate([(f"g{k}", T(g)) for k, g in enumerate(gens)])


def _sample_semigroups(count=200, max_order=120):
    """Deterministic sample of semigroups generated by at most 3 partial
    transformations on at most 4 points."""
    rng = random.Random(SEED)
    out = []
    seen = set()
    while len(out) < count:
        degree = rng.choice([2, 3, 4])
        k = rng.choice([1, 2, 3])
        gens = []
        for i in range(k):
            images = tuple(rng.randrange(0, degree + 1) for _ in range(degree))
            gens.append((f"g{i}", T(images)))
        key = (degree, tuple(g.images for _, g in gens))
        if key in seen:
            continue
        seen.add(key)
        try:
            sgp = FiniteSemigroup.generate(gens, max_elements=max_order)
        except ResourceError:
            continue  # oversize closures are skipped, nothing else is
        out.append(sgp)
    return out


DEGREE = 3
MAPS = list(itertools.product(range(1, DEGREE + 1), repeat=DEGREE))  # the 27 full maps
SYMMETRIC = list(itertools.permutations(range(1, DEGREE + 1)))


def conjugate(images, sigma):
    """The map sigma(q) -> sigma(f(q)) of the map f given by its images."""
    out = [0] * len(images)
    for q, fq in enumerate(images, 1):
        out[sigma[q - 1] - 1] = sigma[fq - 1]
    return tuple(out)


def census_classes():
    """One closure per class, the first reached in generator-tuple order."""
    classes = {}
    for k in range(1, 4):
        for gens in itertools.combinations(MAPS, k):
            sgp = FiniteSemigroup.generate([(f"g{i}", T(g)) for i, g in enumerate(gens)])
            elements = [s.images for s in sgp.elements]
            key = min(tuple(sorted(conjugate(f, sigma) for f in elements)) for sigma in SYMMETRIC)
            classes.setdefault(key, sgp)
    return list(classes.values())


def node_at(node, path):
    for key in path:
        node = node[key]
    return node


def leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def changed(leaf):
    """A leaf no certificate could hold in its place: text gains a comment
    line, a number grows by one, null becomes 0."""
    if isinstance(leaf, str):
        return leaf + "# tampered\n"
    return 0 if leaf is None else leaf + 1


def lclass_maps(sgp, jref):
    """Each element's map on B, read off `_lclass_columns` (one column per
    L-class, one entry per element)."""
    return [T(images) for images in zip(*semilocal._lclass_columns(sgp, jref))]


def _lclass_action_reference(sgp, jref):
    """`_lclass_columns` by its definition: s sends b to the L-class of
    u*s (0 below J), which must be the same for every member u of J in
    L_b; products by `mul_index`."""
    gs = sgp.green()
    b_pos = {b: k + 1 for k, b in enumerate(jref.b_classes)}

    def action(s):
        images = []
        for b in jref.b_classes:
            products = (sgp.mul_index(u, s) for u in jref.members if gs.l_of[u] == b)
            targets = {b_pos[gs.l_of[p]] if gs.j_of[p] == jref.j_id else 0 for p in products}
            assert len(targets) == 1, (b, s)
            images.append(targets.pop())
        return T(tuple(images))

    return action


def _rees_reference(sgp, jref):
    """`rees_coordinates`' coordinates and matrix by their definition:
    each member u, in member order, gets its R- and L-class positions a and
    b and the unique g with (p_a*g)*q_b = u; C(b, a) is q_b*p_a's position
    in G, or -1 below J.  Products by `mul_index`."""
    gs = sgp.green()
    mul = sgp.mul_index
    e, p_reps, q_reps = semilocal._sandwich_reps(sgp, jref)
    g_members = [sgp.index[v] for v in maximal_subgroup(sgp, sgp.elements[e]).elements]
    a_pos = {a: k for k, a in enumerate(jref.a_classes)}
    b_pos = {b: k for k, b in enumerate(jref.b_classes)}
    coord = {}
    for u in jref.members:
        a, b = a_pos[gs.r_of[u]], b_pos[gs.l_of[u]]
        hits = [k for k, x in enumerate(g_members) if mul(mul(p_reps[a], x), q_reps[b]) == u]
        assert len(hits) == 1, u
        coord[u] = (a, hits[0], b)
    matrix = [
        [
            g_members.index(p) if gs.j_of[p] == jref.j_id else -1
            for p in (mul(q, pa) for pa in p_reps)
        ]
        for q in q_reps
    ]
    return coord, matrix


def assert_classes_match_definitions(carriers):
    """On every regular J-class of each carrier: the RLM map read off R is
    `_lclass_action_reference`, and the Rees coordinates (values and member
    order) and matrix are `_rees_reference`'s.  Gives the classes checked."""
    classes = 0
    for sgp in carriers:
        for j, regular in enumerate(sgp.green().regular):
            if not regular:
                continue
            jref = JClassRef(sgp, j)
            reference = _lclass_action_reference(sgp, jref)
            assert lclass_maps(sgp, jref) == [reference(s) for s in range(len(sgp))]
            rc = rees_coordinates(sgp, jref)
            coord, matrix = _rees_reference(sgp, jref)
            assert list(rc.coord.items()) == list(coord.items())
            assert rc.matrix == matrix
            classes += 1
    return classes


def reached_presentations(sgps, options=None):
    """The presentations of the distinct group-mapping nodes that estimate
    reaches from `sgps`, in the order first reached."""
    texts: dict[str, None] = {}

    def walk(node):
        if isinstance(node, dict):
            if node.get("rule") == "group-mapping":
                texts.setdefault(node["semigroup"])
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    for sgp in sgps:
        walk(estimate(sgp, options).certificate)
    return [group_mapping_presentation(parse_semigroup(text)) for text in texts]


def division_instance(name: str):
    """(phi, psi) of the acceptance suite's derived-wreath division `name`."""
    if name == "trivial":
        phi = RelationalMorphism.identity(
            FiniteSemigroup.generate([("1", PartialTransformation.identity(1))])
        )
        return phi, phi
    mul = {"z2": lambda a, b: (a + b) % 2, "u1": lambda a, b: a * b}[name]
    phi = RelationalMorphism.to_trivial(
        FiniteSemigroup.from_elements([0, 1], mul, sort_key=lambda v: v)
    )
    return phi, RelationalMorphism.identity(phi.target)


def brute_zero_minimal_ideals(sgp):
    """The 0-minimal ideals (the kernel if there is no zero), read off the
    principal ideals S^1 a S^1 computed from all products."""
    n = len(sgp.elements)
    mul = sgp.mul_index

    def principal(a):
        left = {a} | {mul(x, a) for x in range(n)}
        return frozenset(left | {mul(u, y) for u in left for y in range(n)})

    ideal = [principal(a) for a in range(n)]
    zeros = [z for z in range(n) if ideal[z] == {z} and all(mul(z, x) == z for x in range(n))]
    z = zeros[0] if zeros and n > 1 else None
    out = []
    for c, members in enumerate(sgp.green().j_classes):
        a = members[0]
        smaller = {b for b in ideal[a] if ideal[b] != ideal[a]}
        if z is None and not smaller:
            out.append((c, list(members)))
        elif z is not None and a != z and smaller <= {z}:
            out.append((c, list(members) + [z]))
    return z, out


def whole_ideal_verdicts(sgp):
    """The right and left mapping flags by the rule `classify` replaced:
    faithfulness on the whole of each 0-minimal ideal, zero included."""
    _, ideals = semilocal._zero_minimal_ideals(sgp)
    n = len(sgp)
    right = any(len(set(sgp.right_translations(ideal))) == n for _, ideal in ideals)
    left = any(len(set(left_translations(sgp, ideal))) == n for _, ideal in ideals)
    return right, left


class MulOracle:
    """A value oracle on an element list, its codes the list's indices:
    the factor that the reference action pairs multiply by value."""

    def __init__(self, elements, mul):
        self.elements = elements
        self.mul = mul
        self.codes = range(len(elements))
        self._codes = {v: i for i, v in enumerate(elements)}

    def encode(self, value):
        return self._codes[value]

    def decode(self, code):
        return self.elements[code]

    def mul_code(self, a, b):
        return self._codes[self.mul(self.elements[a], self.elements[b])]


def of_transformations(sgp):
    """(n, S) for partial transformations of {1..n}: point q at q - 1."""
    return ActionPair(sgp.degree, sgp, lambda c: tuple([v - 1 for v in sgp.elements[c].images]))


def of_group(group):
    """(G, G): the right regular action, with elements 0..|G|-1, by the
    columns of the group table."""
    idx = list(range(len(group)))
    return ActionPair(len(idx), MulOracle(idx, group.mul), list(zip(*group.table)).__getitem__)


def of_group_with_zero(group):
    """(G, G^0): (G, G) with a zero adjoined, value `ZERO` and code |G|,
    whose row is undefined at every point."""
    n = len(group)

    def mul(a, b):
        return ZERO if ZERO in (a, b) else group.mul(a, b)

    columns = list(zip(*group.table)) + [(-1,) * n]
    return ActionPair(n, MulOracle([*range(n), ZERO], mul), columns.__getitem__)


def factor_row(pair, value):
    """The row of `value` read off its factor's own definition: a partial
    map's row is its value, a transformation's its images (point q at
    position q - 1), a group element's its column of the group table (g.x
    for every g, by the oracle's value product), the zero undefined
    everywhere."""
    if isinstance(pair, PartialMaps):
        return value
    if isinstance(value, PartialTransformation):
        return tuple(v - 1 for v in value.images)
    if value == ZERO:
        return (-1,) * pair.size
    return tuple(pair.sgp.mul(g, value) for g in range(pair.size))


def wreath_row(left, right, value):
    """The action of a wreath value (f, t) on B x Q, the left factor S
    acting on B by the action pair `left`, by its definition, point by
    point: (b, q)(f, t) = (b(qf), qt) at position b*|Q| + q, b running
    slowest, -1 where qt or b(qf) is undefined, and a None entry of f
    acting as the identity; the factors act by `factor_row`."""
    f, t = value
    nq = right.size
    return tuple(
        -1 if b2 < 0 or j < 0 else b2 * nq + j
        for b in range(left.size)
        for v, j in zip(f, factor_row(right, t))
        for b2 in (b if v is None else factor_row(left, v)[b],)
    )


def then(ru, rv):
    """The row of acting by ru and then by rv, -1 absorbing."""
    return tuple(-1 if p < 0 else rv[p] for p in ru)


def fasp_embedding(pres):
    """S embedded in (G, G^0) wr (B, RLM_J(S)) via x -> ((b)x, RLM(x)),
    (b)x being G^0's zero where b.x is undefined, as a division witness:
    each lift is the partial map of G x B it induces
    (`products.induced_row`), closed on `PartialMaps` by `check_division`
    (the relation is a function onto S), and |closure| = |S| (it is
    injective).  The oracle of `complexity.pure_upper`, which proves all
    of this instead: by its facts (2) and (3) the row is injective on
    everything the closure reaches and turns each product into a gather,
    so the closure on rows is the one in the wreath product, in the same
    order with the same S indices, and stops at the same first conflict."""
    rows = {
        name: induced_row(
            pres.group, pres.label_of_gen[name], [b - 1 for b in pres.rlm_of_gen[name]]
        )
        for name in pres.sgp.gen_names
    }
    witness = check_division(pres.sgp, PartialMaps(len(pres.group) * pres.n_b), lifts=rows)
    if len(witness.closure) != len(pres.sgp.elements):
        raise VerificationError("wreath embedding is not injective")
    return witness


def fasp_pairs(pres):
    """The action pairs (G, G^0) and (B, RLM) of the wreath embedding."""
    return of_group_with_zero(pres.group), of_transformations(pres.rlmq.rlm)


def fasp_wreath(pres):
    """(G, G^0) wr (B, RLM) on wreath codes: the product whose shaped
    values `fasp_embedding` codes by their action rows."""
    left, right = fasp_pairs(pres)
    return WreathProduct(left.sgp, right)


def fasp_value(pres, row):
    """The value (f, t) of (G, G^0) wr (B, RLM) whose row `row` is, read
    off the images of (1_G, b): (f[b], b.t), f[b] the zero where the image
    is -1 and t a partial transformation of {1..|B|}.  A trailing -1
    sentinel is ignored."""
    nb = pres.n_b
    unit = pres.group.identity * nb  # the position of (1_G, 0)
    images = row[unit : unit + nb]
    f = tuple(ZERO if p < 0 else p // nb for p in images)
    return f, T(tuple(p % nb + 1 if p >= 0 else 0 for p in images))


def _fasp_action_reference(pres, witness):
    """The wreath image acts on G x B + 0 as S acts on R u {0}, R the a = 0
    R-class, point by point on the witness's values, each acting by its
    `wreath_row`: the first failure's message, or None.
    `complexity.pure_upper` proves this; the tests check it."""
    sgp, rc, pairs = pres.sgp, pres.rees, fasp_pairs(pres)
    j_of = sgp.green().j_of
    r = [(u, g, b) for u, (a, g, b) in rc.coord.items() if a == 0]
    for wv, sv in witness.morphism.items():
        wrow = wreath_row(*pairs, fasp_value(pres, wv))
        for u, g, b in r:
            p, img = sgp.mul_index(u, sgp.index[sv]), wrow[g * pres.n_b + b]
            if j_of[p] != pres.jref.j_id:
                if img >= 0:
                    return "wreath action defined where theta^R is not"
            elif img != rc.coord[p][1] * pres.n_b + rc.coord[p][2]:
                return f"wreath action disagrees with theta^R at {(g, b)} under {sv!r}"
    return None


def assert_wreath_rows_compose(pres):
    """The law `complexity.pure_upper`'s proof reads off the wreath
    formula: on the division closure on wreath codes, the row of u*v is the
    row of u followed by the row of v, -1 absorbing, for every closure code
    u and generator-lift code v, each row by `wreath_row`."""
    w, pairs = fasp_wreath(pres), fasp_pairs(pres)
    lifts = {name: fasp_value(pres, row) for name, row in fasp_embedding(pres).lifts.items()}
    witness = check_division(pres.sgp, w, lifts=lifts)
    lifts = [w.encode(v) for v in witness.lifts.values()]
    for u in witness.closure:
        ru = wreath_row(*pairs, w.decode(u))
        for v in lifts:
            want = then(ru, wreath_row(*pairs, w.decode(v)))
            assert wreath_row(*pairs, w.decode(w.mul_code(u, v))) == want


def assert_rows_close_as_codes(pres):
    """`fasp_embedding` closes on the wreath image's action rows; its
    closure is the closure on wreath codes item for item and in order, each
    row the code's `wreath_row` followed by the -1 sentinel and reading
    back to the code's value, of size |S| (`complexity.pure_upper` proves
    it)."""
    witness = fasp_embedding(pres)
    w, pairs = fasp_wreath(pres), fasp_pairs(pres)
    lifts = {name: fasp_value(pres, row) for name, row in witness.lifts.items()}
    codes = check_division(pres.sgp, w, lifts=lifts).closure
    assert list(witness.closure.values()) == list(codes.values())
    assert list(witness.closure) == [(*wreath_row(*pairs, w.decode(c)), -1) for c in codes]
    assert [fasp_value(pres, row) for row in witness.morphism] == [w.decode(c) for c in codes]
    assert len(witness.closure) == len(pres.sgp)
    witness.verify()


def qbar_rho(w):
    """Qbar and rho of construction `w` (the `flows` docstring): each point
    ((g, j), q) of the wreath, by its position ((g*b_bar + j)*nq + q) from
    0, paired with 0 and sent to 0, then paired with every b in block j of
    q's label and sent to (g*lab_q(b), b)."""
    flow, b_bar, group = w.flow, w.b_bar, w.flow.presentation.group
    nq = flow.automaton.n_states
    qbar = [(point, ZERO) for point in range(len(group) * b_bar * nq)]
    rho = dict.fromkeys(qbar, ZERO)
    for q, spc in enumerate(flow.labeling):
        lab = spc.label_of()
        for j, blk in enumerate(spc.blocks):
            for b in blk:
                for g in range(len(group)):
                    omega = ((g * b_bar + j) * nq + q, b)
                    qbar.append(omega)
                    rho[omega] = (group.mul(g, lab[b]), b)
    return qbar, rho


def check_stability(sgp):
    """xy J x <=> xy R x and xy J y <=> xy L y, over all pairs."""
    gs = sgp.green()
    n = len(sgp.elements)
    for i in range(n):
        for j in range(n):
            p = sgp.mul_index(i, j)
            if (gs.j_of[p] == gs.j_of[i]) != (gs.r_of[p] == gs.r_of[i]):
                raise VerificationError(f"stability (R side) fails at pair ({i},{j})")
            if (gs.j_of[p] == gs.j_of[j]) != (gs.l_of[p] == gs.l_of[j]):
                raise VerificationError(f"stability (L side) fails at pair ({i},{j})")


def flat_kernel_matches_rlm(sgp, group):
    """Entry flattening identifies exactly the same pairs as the L-class
    action at the distinguished class, and the images have equal size;
    this is the precise content of "RLM replaces nonzero entries by 1"."""
    cls = classify(sgp)
    rq = rlm_quotient(sgp, JClassRef(sgp, cls.distinguished_j))
    for a, ca in zip(sgp.elements, rq.code):
        for b, cb in zip(sgp.elements, rq.code):
            if (rlm_matrix(a) == rlm_matrix(b)) != (ca == cb):
                return False
    return len({rlm_matrix(a) for a in sgp.elements}) == len(rq.rlm)


def left_translations(sgp, points):
    """For every element s, the row (s*p for p in points); `points` must
    be closed under left multiplication by the generators.

    Rows are built along the word tree: s = t*g gives s*p = t*(g*p),
    and g*p is again a point, so s's row is t's row read at the
    positions of the points g*p.  Each generator's shift is one
    `row_getter`, built once (exact for zero and one point too).  Like
    tracing, this rests on associativity."""
    points = tuple(points)
    at = {p: i for i, p in enumerate(points)}
    g_rows = [row_getter(points)(col) for col in sgp.left_columns]
    try:
        shifts = [row_getter([at[q] for q in row]) for row in g_rows]
    except KeyError:
        raise InputError(
            "point set is not closed under left multiplication by the generators"
        ) from None
    rows = [None] * len(sgp.elements)
    parent, letter = sgp._parent, sgp._letter
    for s in sgp._order:
        t, k = parent[s], letter[s]
        rows[s] = g_rows[k] if t < 0 else shifts[k](rows[t])
    return rows


def words(sgp):
    """A reduced word over generator indices for every element, off the tree."""
    words = [()] * (len(sgp.elements) + 1)  # words[-1]: the root
    for s in sgp._order:  # prefix before child
        words[s] = words[sgp._parent[s]] + (sgp._letter[s],)
    return words[:-1]


def parse_automaton(text, letters):
    """An automaton file's text, read as `parse_flow` reads its first part."""
    return fileformats._parse_automaton_lines(fileformats._clean_lines(text), letters)
