"""The degree-3 census: every closure of 1 to 3 full transformations of
3 points, deduplicated by element set up to conjugation by Sym(3), each
class estimated at default options.  Its histogram of intervals is a
regression net for exactness that no certificate digest pins, and the GM
images its estimates build are run through the associativity oracle."""

import collections
import itertools

import pytest

from krc import complexity, semilocal
from krc.complexity import estimate
from krc.core import FiniteSemigroup, PartialTransformation
from krc.semilocal import JClassRef, rees_coordinates

T = PartialTransformation

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


@pytest.fixture(scope="module")
def census():
    """Each class's (carrier, interval), and every GM image
    that its estimate made through the memo."""
    images = {}
    inner = complexity._memo_carrier

    def recording(memo, *args):
        sub = inner(memo, *args)
        if not sub.is_transformation:
            images[id(sub)] = sub
        return sub

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexity, "_memo_carrier", recording)
        runs = [(sgp, estimate(sgp)) for sgp in census_classes()]
    return runs, list(images.values())


def test_histogram(census):
    runs, _ = census
    assert len(runs) == 154
    histogram = collections.Counter((r.lower, r.upper) for _, r in runs)
    assert histogram == {(0, 0): 74, (1, 1): 77, (1, 2): 3}
    # the open classes, T_3 last
    assert sorted(len(sgp) for sgp, r in runs if r.lower < r.upper) == [23, 24, 27]


def test_gm_images_pass_the_oracles(census):
    """Each GM image, rebuilt from its graph so nothing is taken as
    proved, passes `check_associative`, and the transport law holds on
    each of its regular J-classes."""
    _, images = census
    assert len(images) >= 50
    for sgp in images:
        fresh = FiniteSemigroup(sgp.elements, sgp.gens, sgp.gen_names, sgp.right_cayley)
        fresh.check_associative()
        for j, regular in enumerate(fresh.green().regular):
            if regular:
                rees_coordinates(fresh, JClassRef(fresh, j)).verify_transport()


def test_rlm_maps_and_coordinates_by_definition(census):
    """The RLM map read off one R-class and the Rees coordinates read off
    p_a*g*q_b equal their definitions on every regular J-class of every
    class of the census and of every GM image its estimates built."""
    from test_semilocal import assert_classes_match_definitions

    runs, images = census
    carriers = [sgp for sgp, _ in runs] + images
    assert assert_classes_match_definitions(carriers) > len(carriers)


def test_classify_matches_whole_ideal_verdicts(census):
    """`classify` reads a regular ideal through its sandwich columns (the
    lemma in its docstring); its verdicts are the whole ideal's on every
    class of the census and every GM image its estimates built."""
    from test_complexity import whole_ideal_verdicts

    runs, images = census
    carriers = [sgp for sgp, _ in runs] + images
    verdicts = collections.Counter()
    for sgp in carriers:
        cls = semilocal.classify(sgp)
        verdicts[cls.right_mapping, cls.left_mapping] += 1
        assert (cls.right_mapping, cls.left_mapping) == whole_ideal_verdicts(sgp)
    assert len(carriers) > 154 and len(verdicts) == 4
