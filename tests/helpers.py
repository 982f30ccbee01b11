"""Helpers that several test modules share: the acceptance sample, the
degree-3 census classes, certificate tree walks and the definitions that
RLM maps and Rees coordinates are checked against.  Importing this module
builds no carrier and runs no estimate, so a test module imports it at
the top and no test imports another test module."""

import itertools
import random

from krc import semilocal
from krc.core import FiniteSemigroup, PartialTransformation, maximal_subgroup
from krc.errors import ResourceError
from krc.semilocal import JClassRef, rees_coordinates

T = PartialTransformation

SEED = 20250811


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
