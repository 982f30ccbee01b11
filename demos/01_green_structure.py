#!/usr/bin/env python3
"""Tour of the core layer: partial transformations, enumeration from
generators, Green's relations and aperiodicity.

Run:  python demos/01_green_structure.py
"""

from krc import FiniteSemigroup, PartialTransformation, compose, is_aperiodic, maximal_subgroup

T = PartialTransformation

# A partial transformation maps 1..n into itself, with 0 marking an
# undefined image.  Composition applies the left factor first.
f = T((2, 0, 1))
g = T((1, 1, 0))
print("f      =", f)
print("g      =", g)
print("f * g  =", compose(f, g))   # (qf)g, undefined stays undefined
print()

# The two constant maps on two points close into the right-zero
# semigroup: every product equals its right factor.
rz = FiniteSemigroup.generate([("a", T((1, 1))), ("b", T((2, 2)))])
print("right-zero semigroup, order", len(rz))
gs = rz.green()
print("R-classes:", gs.r_classes, " L-classes:", gs.l_classes)
print("aperiodic:", is_aperiodic(rz))
print()

# A transposition generates the two-element group; the full symmetric
# group on three points comes from a transposition and a 3-cycle.
s3 = FiniteSemigroup.generate([("s", T((2, 1, 3))), ("c", T((2, 3, 1)))])
print("Sym_3: order", len(s3), "- one J-class:", len(s3.green().j_classes) == 1)
G = maximal_subgroup(s3, T.identity(3))
print("maximal subgroup at the identity has order", len(G))
print()

# A ten-element monoid: the 2x2 Brandt semigroup over Z_2 with an
# adjoined identity, acting on the four points of its group-cross-columns
# coordinates.  Its egg-box has three J-classes.
b2 = FiniteSemigroup.generate(
    [("e", T((1, 2, 3, 4))), ("a", T((4, 3, 0, 0))), ("b", T((0, 0, 1, 2)))]
)
gs = b2.green()
print("Brandt-with-identity: order", len(b2))
for j, members in enumerate(gs.j_classes):
    tag = "regular" if gs.regular[j] else "null"
    print(f"  J{j}: {len(members)} elements ({tag})")
print("aperiodic:", is_aperiodic(b2))
