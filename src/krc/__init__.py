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
from .inverse import (
    PartialMonomialMatrix,
    analyze_lift,
    brandt_semigroup,
    inverse_decomposition,
    lift_TS,
    monomial_group,
    monomial_mul,
    rlm_matrix,
    small_monoid,
)
from .errors import InputError, ResourceError, VerificationError

__all__ = [name for name in dir() if not name.startswith("_")]
