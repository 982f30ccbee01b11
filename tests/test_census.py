"""The degree-3 census: every closure of 1 to 3 full transformations of
3 points, deduplicated by element set up to conjugation by Sym(3), each
class estimated at default options.  Its histogram of intervals is a
regression net for exactness that no certificate digest pins, and the GM
images its estimates build are run through the associativity oracle."""

import collections

import pytest

from krc import complexity, semilocal
from krc.complexity import estimate
from krc.core import FiniteSemigroup
from krc.semilocal import JClassRef, rees_coordinates

from helpers import (
    _fasp_action_reference,
    assert_classes_match_definitions,
    assert_rows_close_as_codes,
    assert_wreath_rows_compose,
    census_classes,
    reached_presentations,
    whole_ideal_verdicts,
)


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


@pytest.fixture(scope="module")
def census_presentations(census):
    """The group-mapping presentations that the census's estimates reach."""
    runs, _ = census
    return reached_presentations(sgp for sgp, _ in runs)


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
        fresh = FiniteSemigroup(sgp.elements, sgp.gens, sgp.gen_names, sgp.right_columns)
        fresh.check_associative()
        for j, regular in enumerate(fresh.green().regular):
            if regular:
                rees_coordinates(fresh, JClassRef(fresh, j)).verify_transport()


def test_rlm_maps_and_coordinates_by_definition(census):
    """The RLM map read off one R-class and the Rees coordinates read off
    p_a*g*q_b equal their definitions on every regular J-class of every
    class of the census and of every GM image its estimates built."""
    runs, images = census
    carriers = [sgp for sgp, _ in runs] + images
    assert assert_classes_match_definitions(carriers) > len(carriers)


def test_wreath_embedding_acts_as_proved(census_presentations):
    """On every group-mapping presentation that the census's estimates
    reach, the wreath image acts on G x B + 0 as S acts on R u {0}, and
    wreath rows compose on the division closure: what `fasp_embedding`'s
    docstring proves, checked point by point."""
    assert len(census_presentations) == 32
    for pres in census_presentations:
        assert _fasp_action_reference(pres, semilocal.fasp_embedding(pres).rows) is None
        assert_wreath_rows_compose(pres)


def test_rows_close_as_codes(census_presentations):
    """The embedding's closure on action rows is its closure on wreath
    codes, on every presentation the census reaches."""
    for pres in census_presentations:
        assert_rows_close_as_codes(pres)


def test_classify_matches_whole_ideal_verdicts(census):
    """`classify` reads a regular ideal through its sandwich columns (the
    lemma in its docstring); its verdicts are the whole ideal's on every
    class of the census and every GM image its estimates built."""
    runs, images = census
    carriers = [sgp for sgp, _ in runs] + images
    verdicts = collections.Counter()
    for sgp in carriers:
        cls = semilocal.classify(sgp)
        verdicts[cls.right_mapping, cls.left_mapping] += 1
        assert (cls.right_mapping, cls.left_mapping) == whole_ideal_verdicts(sgp)
    assert len(carriers) > 154 and len(verdicts) == 4
