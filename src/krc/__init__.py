"""Finite transformation semigroups: Green structure, semilocal
coordinates, flows, and Krohn-Rhodes complexity bounds with replayable
certificates."""

from .core import (
    FiniteGroup,
    FiniteSemigroup,
    GreenStructure,
    PartialTransformation,
    compose,
    green,
    is_aperiodic,
    maximal_subgroup,
)
from .semilocal import (
    Classification,
    GroupMappingPresentation,
    JClassRef,
    ReesCoordinates,
    classify,
    fasp_embedding,
    gm_quotient,
    group_mapping_presentation,
    rees_coordinates,
    rlm_quotient,
)
from .spc import SPC, TOP, canonicalize, enumerate_spcs, join, leq, meet, mu_action
from .products import (
    ActionPair,
    DivisionWitness,
    ExhaustionReport,
    WreathProduct,
    check_division,
)
from .flows import (
    Automaton,
    Flow,
    flow_search,
    presentation_construct,
    transition_semigroup,
    trivial_flow,
    verify_flow,
)
from .complexity import (
    ComplexityInterval,
    RelationalMorphism,
    derived_semigroup,
    estimate,
    gm_reduction,
    pure_upper,
    rhodes_expansion,
)
from .errors import InputError, ResourceError, VerificationError

# the inverse-monoid names, imported from `inverse` on first use (PEP 562),
# so that commands which never reach them do not load that module
_INVERSE_NAMES = (
    "PartialMonomialMatrix",
    "analyze_lift",
    "brandt_semigroup",
    "inverse_decomposition",
    "lift_TS",
    "monomial_group",
    "monomial_mul",
    "rlm_matrix",
    "small_monoid",
)


def __getattr__(name: str):
    if name in _INVERSE_NAMES:
        from . import inverse

        return getattr(inverse, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + ["inverse", *_INVERSE_NAMES]
)
