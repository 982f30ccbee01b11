#!/usr/bin/env python3
"""Complexity intervals with replayable certificates.

The estimator recurses: aperiodic semigroups sit at level zero; otherwise
the group-mapping images at classes with nontrivial subgroups carry the
complexity (max rule), and each image is bounded from below by its RLM
quotient and from above either by a verified flow (matching the RLM
upper) or by the wreath embedding (one more).  Every bound ships with a
certificate that replays from the embedded files alone.

Run:  python demos/05_complexity_certificates.py
"""

from krc import estimate
from krc.cli import CORPUS_DIR
from krc.complexity import replay_certificate
from krc.fileformats import load_semigroup


for name in ("right_zero_2", "sym3", "b2z2_1", "small_2_z2"):
    sgp = load_semigroup(CORPUS_DIR / f"{name}.sgp")
    iv = estimate(sgp)
    print(f"{name:14s} order {len(sgp):3d} -> {iv}")
print()

# Look inside one certificate: the 17-element inverse monoid reduces to
# two group-mapping images; the Brandt-side image needs the flow bound,
# the units-side image closes purely over its RLM tower.
sgp = load_semigroup(CORPUS_DIR / "small_2_z2.sgp")
iv = estimate(sgp)


def outline(node, depth=0):
    pad = "  " * depth
    kind = node.get("upper", {}).get("kind", "")
    extra = f" upper via {kind}" if kind else ""
    print(f"{pad}{node['rule']} (order {node['order']}){extra}")
    for child in node.get("children", []):
        outline(child["sub"], depth + 1)
    if "rlm" in node:
        outline(node["rlm"], depth + 1)


print("certificate outline for the 17-element monoid:")
outline(iv.certificate)
print()

log = replay_certificate(iv.certificate)
print("cold replay:")
for line in log:
    print(" ", line)
