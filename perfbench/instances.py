"""Benchmark inputs: the fixed ladder, the corpus and the seeded sample.

Everything here is independent of ``krc``: the sample draw closes its
generators with a small transformation closure of its own, so the program
under test only ever sees the ``.sgp`` texts produced here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Fixed semigroups of the ladder, by generator set.  Orders: T_3 27,
# PT_3 64, I_3 34, I_4 209, T_4 256.
LADDER = {
    "T3": ((2, 3, 1), (2, 1, 3), (1, 1, 3)),
    "PT3": ((2, 3, 1), (2, 1, 3), (1, 1, 3), (0, 2, 3)),
    "I3": ((2, 3, 1), (2, 1, 3), (0, 2, 3)),
    "I4": ((2, 3, 4, 1), (2, 1, 3, 4), (0, 2, 3, 4)),
    "T4": ((2, 3, 4, 1), (2, 1, 3, 4), (1, 1, 3, 4)),
}
DESK_LADDER = ("T3", "PT3", "I3")
DEGREE4_LADDER = ("I4", "T4")

# The acceptance suite's draw: degree 2-4, 1-3 random partial maps, order
# cap 90; only oversize closures are skipped.
SAMPLE_COUNT = 60
SAMPLE_MAX_ORDER = 90


def sgp_text(gens) -> str:
    """The ``.sgp`` file text for partial maps given as image tuples
    (0 = undefined), with generators named g0, g1, ..."""
    lines = [f"points: {len(gens[0])}", "gens:"]
    for i, images in enumerate(gens):
        body = " ".join(str(v) if v else "-" for v in images)
        lines.append(f"g{i}: {body}")
    return "\n".join(lines) + "\n"


def parse_sgp(text: str) -> tuple:
    """(points, generator image tuples) of an ``.sgp`` text."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    points = int(lines[0].split(":", 1)[1])
    gens = tuple(
        tuple(0 if t == "-" else int(t) for t in ln.split(":", 1)[1].split())
        for ln in lines[2:]
    )
    return points, gens


def closure_order(gens, cap: int):
    """Order of the semigroup the partial maps generate, or None once the
    closure exceeds ``cap`` elements."""
    seen = dict.fromkeys(gens)
    frontier = list(seen)
    while frontier:
        new = []
        for u in frontier:
            for g in gens:
                p = tuple(g[v - 1] if v else 0 for v in u)
                if p not in seen:
                    seen[p] = None
                    new.append(p)
                    if len(seen) > cap:
                        return None
        frontier = new
    return len(seen)


def draw_sample(seed: int, count: int = SAMPLE_COUNT, max_order: int = SAMPLE_MAX_ORDER):
    """``count`` distinct generator sets whose closures have at most
    ``max_order`` elements, drawn as the acceptance suite draws them."""
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        degree = rng.choice([2, 3, 4])
        k = rng.choice([1, 2, 3])
        gens = tuple(
            tuple(rng.randrange(0, degree + 1) for _ in range(degree)) for _ in range(k)
        )
        key = (degree, gens)
        if key in seen:
            continue
        seen.add(key)
        order = closure_order(gens, max_order)
        if order is not None:
            out.append((gens, order))
    return out


def corpus_entries(root: Path) -> list[dict]:
    """The bundled corpus manifest of the checkout at ``root``."""
    manifest = root / "src" / "krc" / "corpus" / "manifest.json"
    return json.loads(manifest.read_text(encoding="ascii"))
