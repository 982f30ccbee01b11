import pytest

# the shared helpers' asserts report their operands, as a test module's do
pytest.register_assert_rewrite("helpers")

from krc.core import FiniteGroup, FiniteSemigroup, PartialTransformation
from krc.cli import CORPUS_DIR, load_corpus_manifest
from krc.fileformats import load_semigroup

T = PartialTransformation


@pytest.fixture(scope="session")
def corpus():
    """name -> (semigroup, expected dict) for every corpus entry."""
    out = {}
    for entry in load_corpus_manifest():
        out[entry["name"]] = (
            load_semigroup(CORPUS_DIR / entry["file"]),
            entry["expected"],
        )
    return out


@pytest.fixture(scope="session")
def b2z2_1():
    return FiniteSemigroup.generate(
        [("e", T((1, 2, 3, 4))), ("a", T((4, 3, 0, 0))), ("b", T((0, 0, 1, 2)))]
    )


@pytest.fixture(scope="session")
def right_zero_2():
    return FiniteSemigroup.generate([("a", T((1, 1))), ("b", T((2, 2)))])


@pytest.fixture(scope="session")
def sym3():
    return FiniteSemigroup.generate([("s", T((2, 1, 3))), ("c", T((2, 3, 1)))])


@pytest.fixture(scope="session")
def z2_group():
    return FiniteGroup.cyclic(2)


@pytest.fixture(scope="session")
def trivial_group():
    return FiniteGroup.trivial()
