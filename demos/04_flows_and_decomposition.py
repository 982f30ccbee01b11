#!/usr/bin/env python3
"""Flows on automata and the decomposition they induce.

A flow labels automaton states with SPCs so that every transition
transports supports, blocks and cross sections coherently (F1-F5).  From
a verified flow we build the lifted action on G x [b] x Q, and project a
carrier subset onto the coordinates G x B + 0; that projection being a
surjective morphism is what divides the semigroup into
(G wr Sym_b wr T_A) x RLM.

Run:  python demos/04_flows_and_decomposition.py
"""

from krc import (
    FiniteGroup,
    flow_search,
    group_mapping_presentation,
    presentation_construct,
    trivial_flow,
    verify_flow,
)
from krc.fileformats import dump_flow
from krc.inverse import matrix_semigroup_as_transformations, small_monoid

Z2 = FiniteGroup.cyclic(2)
sgp = matrix_semigroup_as_transformations(small_monoid(2, Z2, 1), Z2)
pres = group_mapping_presentation(sgp)
print(f"the 17-element inverse monoid: |B| = {pres.n_b}, |G| = {len(pres.group)}")
print()

# For inverse semigroups the one-state automaton with the full-support,
# all-singleton labeling is already a flow: generators act on B by
# partial injections, so nothing ever collides.
flow = trivial_flow(pres)
print("the one-state flow:")
print(dump_flow(flow))
print("verifies:", verify_flow(flow) is True)
print()

witness = presentation_construct(flow)
print("decomposition data:")
print("  blocks padded to b =", witness.b_bar)
# Qbar pairs each wreath point ((g, j), q) with 0, and with each b of its
# block j of W_q: |G|*b*|Q| + |G|*sum_q |W_q| points
supports = sum(len(b) for spc in flow.labeling for b in spc.blocks)
qbar = len(pres.group) * (witness.b_bar * flow.automaton.n_states + supports)
print("  carrier size |Qbar| =", qbar)
print("  lifted semigroup order:", len(witness.division.morphism))
print("  divides onto all", len(set(witness.division.morphism.values())),
      "elements of the monoid")
print()

# Searching blind finds the same flow first: the canonical order tries
# large supports and fine partitions before anything degenerate.
found = flow_search(pres, max_states=1)
print("first flow found by search:", found.labeling[0])
