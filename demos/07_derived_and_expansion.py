#!/usr/bin/env python3
"""Relational morphisms, derived semigroups, and L-chain expansions.

Run:  python demos/07_derived_and_expansion.py
"""

from krc import (
    FiniteSemigroup,
    PartialTransformation,
    RelationalMorphism,
    derived_semigroup,
    is_aperiodic,
    rhodes_expansion,
)
from krc.complexity import (
    check_derived_wreath_division,
    derived_division_witness,
    lift_through_expansion,
)
from krc.products import DivisionWitness

T = PartialTransformation

b2 = FiniteSemigroup.generate(
    [("e", T((1, 2, 3, 4))), ("a", T((4, 3, 0, 0))), ("b", T((0, 0, 1, 2)))]
)

# The derived semigroup of the identity morphism is locally trivial.
d_id = derived_semigroup(RelationalMorphism.identity(b2))
print(f"derived of the identity morphism: order {len(d_id)}, "
      f"aperiodic: {is_aperiodic(d_id)}")

# Collapsing everything to the trivial semigroup keeps a full copy of the
# source among the arrows; the wreath division re-certifies it.
rho = RelationalMorphism.to_trivial(b2)
d = derived_semigroup(rho)
w = derived_division_witness(rho, d)
print(f"derived of the collapse-to-trivial: order {len(d)}; "
      f"wreath division onto all {len(set(w.morphism.values()))} elements")
print()

# Expansions: stacks of strictly L-decreasing history chains.  Groups and
# right-zero semigroups have flat L-orders, so nothing grows; a
# two-element semilattice already picks up a third chain.
u1 = FiniteSemigroup.from_elements([0, 1], lambda a, b: a * b, sort_key=lambda v: v)
for name, sgp in (("right-zero", FiniteSemigroup.generate(
        [("a", T((1, 1))), ("b", T((2, 2)))])), ("semilattice", u1), ("brandt+1", b2)):
    ex, eta = rhodes_expansion(sgp)
    print(f"{name:11s}: order {len(sgp):2d} expands to {len(ex):2d} chains "
          f"(projection is a morphism by proof, not checked)")
print()

# An aperiodic relation (idempotent preimages aperiodic) lifted through
# the expansion of its target has an aperiodic derived semigroup.
z2_rz2 = FiniteSemigroup.generate([("x", T((2, 1, 3, 3))), ("y", T((2, 1, 4, 4)))])
z2 = FiniteSemigroup.from_elements([0, 1], lambda a, b: (a + b) % 2, sort_key=lambda v: v)
proj = RelationalMorphism.from_function(
    z2_rz2, z2, {v: 0 if v(1) == 1 else 1 for v in z2_rz2.elements}
)
print("projection of Z_2 x (right zero) onto Z_2 is an aperiodic relation:",
      proj.is_aperiodic_morphism())
ex, eta = rhodes_expansion(z2)
lifted = lift_through_expansion(proj, ex, eta)
print("derived semigroup of the lifted relation is aperiodic:",
      is_aperiodic(derived_semigroup(lifted)))
print()

# Derived semigroups of composites divide the wreath of the factors'
# derived semigroups; tiny instances admit searched witnesses.
triv = FiniteSemigroup.generate([("1", T.identity(1))])
phi = RelationalMorphism.identity(triv)
res = check_derived_wreath_division(phi, phi)
print("wreath bound on a composite over trivial factors:",
      "witnessed" if isinstance(res, DivisionWitness) else "exhausted")
