#!/usr/bin/env python3
"""Semilocal analysis at a J-class: classification, the RLM and GM
quotients, and Rees coordinates with the label action.

Run:  python demos/02_semilocal_coordinates.py
"""

from krc import (
    FiniteSemigroup,
    JClassRef,
    PartialTransformation,
    classify,
    gm_quotient,
    group_mapping_presentation,
    is_aperiodic,
    rees_coordinates,
    rlm_quotient,
)
from krc.products import PartialMaps, check_division, induced_row

T = PartialTransformation

b2 = FiniteSemigroup.generate(
    [("e", T((1, 2, 3, 4))), ("a", T((4, 3, 0, 0))), ("b", T((0, 0, 1, 2)))]
)
cls = classify(b2)
print("classification flags:")
print("  right mapping:", cls.right_mapping)
print("  left mapping: ", cls.left_mapping)
print("  group mapping:", cls.group_mapping)
print("  distinguished J-class id:", cls.distinguished_j)
print()

jref = JClassRef(b2, cls.distinguished_j)
rc = rees_coordinates(b2, jref)
print(f"Rees coordinates: |A| = {len(rc.a_classes)}, |B| = {len(rc.b_classes)}, "
      f"|G| = {len(rc.group)}")
print("structure matrix (-1 encodes 0):", rc.matrix)
print("every element of the class is p_a * g * q_b for a unique g;")
rc.verify_transport()  # the law is proved at construction; this checks it
print("the transport law holds over all products (checked by verify_transport).")
print()

rq = rlm_quotient(b2, jref)
print("RLM quotient: partial maps on the", len(jref.b_classes), "L-classes,")
print("order", len(rq.rlm), "- aperiodic:", is_aperiodic(rq.rlm))
print()

gq = gm_quotient(b2, jref)
print("GM quotient has order", len(gq.quotient),
      "(the monoid is already group mapping, so nothing collapses)")
print()

# The coordinate action: (a, g, b)x = (a, g*(b)x, b.x).  Each generator
# carries its partial map on B and its group labels, and together they
# embed the semigroup into the wreath product over the RLM image
# (proved in `complexity.pure_upper`).  The division below checks it: each
# generator lifts to the partial map it induces on G x B.
pres = group_mapping_presentation(b2)
for name in b2.gen_names:
    print(f"generator {name}: b.x = {pres.rlm_of_gen[name]}, "
          f"(b)x = {pres.label_of_gen[name]}")
rows = {x: induced_row(pres.group, pres.label_of_gen[x], [b - 1 for b in pres.rlm_of_gen[x]])
        for x in b2.gen_names}
emb = check_division(b2, PartialMaps(len(pres.group) * pres.n_b), lifts=rows)
if len(emb.morphism) != len(b2):
    raise SystemExit("wreath embedding is not injective")
print("wreath embedding is injective on all", len(emb.morphism), "elements")
