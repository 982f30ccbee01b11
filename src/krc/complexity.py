"""Complexity intervals with replayable certificates.

A bound is only ever emitted together with machinery that re-verifies it
from scratch, or with a proof whose premises that machinery checks:
aperiodicity for the base case, the max rule over the group-mapping
images for the reduction step, and for a group-mapping semigroup either
the wreath embedding over its RLM image (upper bound one more than the
RLM's, proved in `pure_upper`) or a verified flow (matching the RLM's
upper bound).  Search exhaustion widens intervals; it never produces
claims.

This module is the only interpreter of the certificate format.  `estimate`
writes it; `replay_certificate` reruns `estimate` on the root semigroup,
following the certificate's stored upper-bound choices instead of
searching, and accepts only if it gets the same certificate back.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional, Sequence

from .core import (
    ZERO,
    FiniteSemigroup,
    PartialTransformation,
    _index_period,
    is_aperiodic,
    minimal_generating_set,
    row_getter,
    with_generators,
)
from .errors import InputError, ResourceError, VerificationError
from .fileformats import dump_flow, dump_semigroup, parse_flow, parse_semigroup
from .products import ActionPair, DivisionWitness, WreathProduct, check_division
from .semilocal import GmQuotient, JClassRef, gm_quotient, group_mapping_presentation
from .flows import (
    DEFAULT_AUTOMATA_BUDGET,
    FlowSearchExhausted,
    flow_search,
    presentation_construct,
    transition_semigroup,
    verify_flow,
)

DEFAULT_CHAIN_BUDGET = 50_000
DERIVED_WREATH_CARRIER_BUDGET = 10_000  # elements of D(phi) wr D(psi)


# -- relational morphisms ----------------------------------------------------


@dataclass
class RelationalMorphism:
    """A fully defined relation S -> T whose graph is a subsemigroup of
    S x T, stored enumerated on element indices.  `preimages[t]` lists the
    source indices related to target index t, in order."""

    source: FiniteSemigroup
    target: FiniteSemigroup
    graph: set[tuple[int, int]]  # (source index, target index)
    gen_choice: dict[str, int]  # per generator name, one chosen target index
    preimages: list[list[int]] = field(init=False, repr=False)

    def __post_init__(self):
        if {s for s, _ in self.graph} != set(range(len(self.source))):
            raise InputError("relational morphism is not fully defined")
        s_mul, t_mul = self.source.mul_index, self.target.mul_index
        for (s1, t1) in self.graph:
            for (s2, t2) in self.graph:
                if (s_mul(s1, s2), t_mul(t1, t2)) not in self.graph:
                    raise InputError("graph is not a subsemigroup of S x T")
        self.preimages = [[] for _ in self.target.elements]
        for s, t in sorted(self.graph):
            self.preimages[t].append(s)

    def is_aperiodic_morphism(self) -> bool:
        """Preimages of idempotents are aperiodic subsemigroups.  The preimage
        P of an idempotent e is closed, as the graph is a subsemigroup
        (`__post_init__`): (s, e)(s', e) = (ss', e).  So P is aperiodic iff
        every member's powers, which stay in P, have period 1 in S."""
        mul = self.source.mul_index
        return all(
            _index_period(s, lambda p, s=s: mul(p, s))[1] == 1
            for e in self.target.idempotent_indices()
            for s in self.preimages[e]
        )

    @classmethod
    def from_function(
        cls, source: FiniteSemigroup, target: FiniteSemigroup, mapping: dict[Any, Any]
    ) -> "RelationalMorphism":
        """The graph of a function given on values: `mapping` sends every
        element of the source to an element of the target."""
        try:
            images = [target.index[mapping[v]] for v in source.elements]
        except KeyError:
            raise InputError("mapping is not a function from the source into the target") from None
        gen_choice = {name: images[gi] for name, gi in zip(source.gen_names, source.gens)}
        return cls(source, target, set(enumerate(images)), gen_choice)

    @classmethod
    def identity(cls, sgp: FiniteSemigroup) -> "RelationalMorphism":
        return cls.from_function(sgp, sgp, {v: v for v in sgp.elements})

    @classmethod
    def to_trivial(cls, sgp: FiniteSemigroup) -> "RelationalMorphism":
        triv = FiniteSemigroup.generate([("1", PartialTransformation.identity(1))])
        return cls.from_function(sgp, triv, {v: triv.elements[0] for v in sgp.elements})

    def compose(self, other: "RelationalMorphism") -> "RelationalMorphism":
        """self then other.  A middle carrier built twice with the same
        elements is re-indexed through its values."""
        if self.target is other.source:
            middle: Sequence[int] = range(len(self.target))
        elif set(self.target.elements) == set(other.source.elements):
            middle = [other.source.index[v] for v in self.target.elements]
        else:
            raise InputError("morphisms do not compose")
        images: list[list[int]] = [[] for _ in other.source.elements]
        for t, u in sorted(other.graph):
            images[t].append(u)
        graph = {(s, u) for s, t in self.graph for u in images[middle[t]]}
        gen_choice = {name: images[middle[t]][0] for name, t in self.gen_choice.items()}
        return RelationalMorphism(self.source, other.target, graph, gen_choice)


# -- derived semigroup -------------------------------------------------------


def _arrow_key(rho: RelationalMorphism, obj: int, s: int, t2: int) -> tuple:
    """The class of the derived-category arrow (obj, (s, t2)): source and end
    objects, and a label, all by index, with -1 the fresh object.  An arrow
    from a target object is labeled by its left translation on that
    object's preimage; the fresh object labels by s on the nose."""
    if obj < 0:
        return (-1, t2, (s, None))
    s_mul = rho.source.mul_index
    label = tuple(s_mul(s1, s) for s1 in rho.preimages[obj])
    return (obj, rho.target.mul_index(obj, t2), label)


def derived_semigroup(rho: RelationalMorphism) -> FiniteSemigroup:
    """The consolidation of the derived category of rho (Tilson,
    "Categories as algebra", JPAA 48, 1987).

    Arrows are (t, (s, t')) with t an object (target elements plus a fresh
    identity object) and (s, t') in the graph, ending at t*t'; coterminal
    arrows are identified when they act the same by left translation on
    the preimage of the source object, the fresh object forcing equality
    on the nose (`_arrow_key`).  Non-composable products are 0.

    Products do not depend on the representatives.  The graph is a
    subsemigroup of S x T (`RelationalMorphism.__post_init__`) and
    `preimages[t]`, pre(t), is exact.  Take k1 = (o, s1, t1) ~
    (o, s1', t1') and k2 = (o', s2, t2) ~ (o', s2', t2'), o' k1's end.
    The product's end o*t1*t2 = o'*t2 is k2's end, which its key fixes.
    For o >= 0 and p in pre(o), p*s1 = p*s1'; (p, o) and (s1, t1) are in
    the graph, so p*s1 is in pre(o'), where s2 and s2' agree:
    p*s1*s2 = p*s1'*s2'.  From the fresh object the label is s1 on the
    nose, and s1 lies in pre(t1) = pre(o'), so s1*s2 = s1*s2'.
    """
    s_mul, t_mul = rho.source.mul_index, rho.target.mul_index
    arrows: dict[tuple, tuple] = {}  # class key -> canonical representative
    for obj in range(-1, len(rho.target)):
        for s, t2 in sorted(rho.graph):
            arrows.setdefault(_arrow_key(rho, obj, s, t2), (obj, s, t2))

    def mul(u, v):
        # composable iff the second arrow starts where the first ends
        if u == ZERO or v == ZERO or u[1] != v[0]:
            return ZERO
        (obj1, s1, t1), (_, s2, t2) = arrows[u], arrows[v]
        return _arrow_key(rho, obj1, s_mul(s1, s2), t_mul(t1, t2))

    values = [ZERO] + sorted(arrows)
    return FiniteSemigroup.from_elements(
        values, mul, sort_key=lambda v: (0,) if v == ZERO else (1,) + v
    )


def derived_division_witness(
    rho: RelationalMorphism, derived: FiniteSemigroup
) -> DivisionWitness:
    """S < D(rho) wr T with the canonical lifts f_x(t1) = [t1, (x, t_x)];
    the fresh-object component pins down the source element, which is what
    makes the relation functional.  The wreath's right points are the
    fresh object at position 0, then T's element of index i at 1 + i."""
    s_sgp, t_sgp = rho.source, rho.target
    w = WreathProduct(derived, ActionPair.right_translation(t_sgp))
    lifts = {}
    for name, gi in zip(s_sgp.gen_names, s_sgp.gens):
        tx = rho.gen_choice[name]
        fvals = []
        for obj in range(-1, len(t_sgp)):
            key = _arrow_key(rho, obj, gi, tx)
            if key not in derived.index:
                raise VerificationError("lift arrow missing from the derived semigroup")
            fvals.append(key)
        lifts[name] = (tuple(fvals), t_sgp.elements[tx])
    return check_division(s_sgp, w, lifts=lifts)


# -- Rhodes expansion --------------------------------------------------------


def rhodes_expansion(
    t_sgp: FiniteSemigroup, max_chains: int = DEFAULT_CHAIN_BUDGET
) -> tuple[FiniteSemigroup, dict[Any, Any]]:
    """Strictly L-decreasing chains over T (value end is the chain top);
    returns the expansion and the surjective morphism chain -> top."""
    gs = t_sgp.green()
    n = len(t_sgp.elements)
    succ = [set() for _ in gs.l_classes]  # one edge of the left Cayley graph
    for column in t_sgp.left_columns:
        for c, d in zip(gs.l_of, row_getter(column)(gs.l_of)):
            succ[c].add(d)
    below = []  # per L-class, the elements strictly below it in the L-order
    for c in range(len(gs.l_classes)):
        reach, stack = set(), [c]
        while stack:
            for d in succ[stack.pop()]:
                if d not in reach:
                    reach.add(d)
                    stack.append(d)
        reach.discard(c)
        below.append([i for i in range(n) if gs.l_of[i] in reach])

    chains: list[tuple[int, ...]] = []

    def extend(chain: list[int]):
        if len(chains) > max_chains:
            raise ResourceError(f"chain budget {max_chains} exceeded")
        chains.append(tuple(chain))
        for i in below[gs.l_of[chain[-1]]]:
            chain.append(i)
            extend(chain)
            chain.pop()

    for i in range(n):
        extend([i])

    def reduce(raw: list[int]) -> tuple[int, ...]:
        out: list[int] = []
        for v in raw:
            if out and gs.l_of[out[-1]] == gs.l_of[v]:
                out[-1] = v  # keep the entry nearest the new top
            else:
                out.append(v)
        return tuple(out)

    def mul(alpha: tuple[int, ...], beta: tuple[int, ...]) -> tuple[int, ...]:
        top = beta[-1]
        raw = list(beta) + [t_sgp.mul_index(a, top) for a in alpha]
        return reduce(raw)

    expansion = FiniteSemigroup.from_elements(chains, mul, sort_key=lambda c: c)
    # eta is a morphism, as `reduce` always ends with the last raw entry,
    # alpha[-1]*beta[-1], and onto T, as (t,) is a chain for every t
    eta = {c: t_sgp.elements[c[-1]] for c in expansion.elements}
    return expansion, eta


def lift_through_expansion(
    rho: RelationalMorphism,
    expansion: FiniteSemigroup,
    eta: dict[Any, Any],
) -> RelationalMorphism:
    """The induced relation S -> T-hat: relate s to every chain over a
    partner of s.  A generator's chosen chain is the first chain over its
    chosen partner."""
    top = [rho.target.index[eta[c]] for c in expansion.elements]
    graph = {(s, c) for c, t in enumerate(top) for s in rho.preimages[t]}
    gen_choice = {name: top.index(t) for name, t in rho.gen_choice.items()}
    return RelationalMorphism(rho.source, expansion, graph, gen_choice)


# -- intervals and the estimator ---------------------------------------------


@dataclass
class ComplexityInterval:
    lower: int
    upper: Optional[int]
    certificate: dict[str, Any]

    def __post_init__(self):
        if self.upper is not None and self.lower > self.upper:
            raise VerificationError("lower bound exceeds upper bound")

    def __str__(self):
        hi = "?" if self.upper is None else str(self.upper)
        return f"[{self.lower}, {hi}]"


def gm_reduction(
    sgp: FiniteSemigroup, build: Callable[..., FiniteSemigroup] = FiniteSemigroup
) -> list[tuple[JClassRef, GmQuotient]]:
    """GM images at every J-class with a nontrivial subgroup, with the
    combined-projection injectivity check of the max rule.  `build` makes
    each image (see `gm_quotient`); `estimate` passes its memo's, so every
    sibling image is in the memo before any sibling's subtree runs."""
    gs = sgp.green()
    children = []
    for j_id in range(len(gs.j_classes)):
        jref = JClassRef(sgp, j_id)
        if jref.is_regular and jref.contains_nontrivial_subgroup():
            children.append((jref, gm_quotient(sgp, jref, build)))
    # the combined projection is injective on every maximal subgroup:
    # combined[s] is s's tuple of class representatives, one per child
    combined = list(zip(*(gq.class_rep for _, gq in children)))
    for e in gs.idempotents:
        h_members = gs.h_classes[gs.h_of[e]]
        if not children:
            if len(h_members) > 1:
                raise VerificationError("nontrivial subgroup escaped the GM reduction")
        elif len(set(map(combined.__getitem__, h_members))) != len(h_members):
            raise VerificationError("combined GM projection not injective on a subgroup")
    return children


@dataclass
class EstimateOptions:
    max_flow_states: int = 1
    automata_budget: int = DEFAULT_AUTOMATA_BUDGET


def estimate(
    sgp: FiniteSemigroup,
    options: Optional[EstimateOptions] = None,
    _label: str = "S",
    _given: Optional[dict[str, Any]] = None,
    _memo: Optional[dict[tuple, _Entry]] = None,
) -> ComplexityInterval:
    """The full pipeline: aperiodicity, GM reduction with the max rule,
    and per group-mapping image the RLM recursion plus pure/flow uppers.

    `_given` (replay only) maps group-mapping labels to stored `upper`
    nodes: a stored flow is checked instead of searched for, and any other
    stored choice skips the flow search.

    Each distinct carrier is built and computed once per top-level call:
    the recursion reaches the same semigroup by several paths (S/GM[J2]
    and S/GM[J1]/GM[J2], say).  `_memo`, made fresh by every top-level call
    and passed down next to `_given`, maps a carrier's key (`_key`: its
    right Cayley graph's columns, which fix the element order that J-class
    ids are read in, its generator indices and names, and for a
    transformation carrier its generators' maps, which fix its text) to an
    `_Entry`.  The entry holds the carrier first built with that key, and
    once computed, the label it was computed at and its interval.  A hit
    returns the stored interval with its certificate relabeled: every label
    that is the stored label, or starts with it plus "/", starts with
    `_label` instead.

    GM and RLM images are made through `_memo_carrier`, which gives back
    the memo's carrier when it holds the image's key, so an image reached
    by a second path is not built, Green-structured or classified again:
    its verdict and the RLM checks read the held carrier's cached
    classification and Green structure (`semilocal.classify`).  On T_4 or
    I_4 at automata budget 0 this takes one estimate from 16
    classifications and 17 Green structures to 9 and 10, one per distinct
    structure, and on T_3, PT_3 or I_3 from 7 and 8 to 5 and 6."""
    memo = {} if _memo is None else _memo
    key = _key(sgp.elements, sgp.gens, sgp.gen_names, sgp.right_columns)
    entry = memo.setdefault(key, _Entry(sgp))
    done = entry.interval
    if done is not None:
        return ComplexityInterval(
            done.lower, done.upper, _relabeled(done.certificate, entry.label, _label)
        )
    result = _estimate_carrier(
        sgp, dump_semigroup(sgp), options or EstimateOptions(), _label, _given, memo
    )
    entry.label, entry.interval = _label, result
    return result


@dataclass
class _Entry:
    """A value of `estimate`'s memo: the carrier first built with its key,
    and once computed, the label it was computed at and its interval."""

    sgp: FiniteSemigroup
    label: str = ""
    interval: Optional[ComplexityInterval] = None


def _key(elements, gens, gen_names, right_columns) -> tuple:
    """The memo key of the carrier that `FiniteSemigroup` makes of these
    arguments, on its own column tuple.  An abstract carrier's element
    values are left out: its certificate is read off its int data alone."""
    maps = None
    if elements and isinstance(elements[0], PartialTransformation):
        maps = tuple(elements[g] for g in gens)
    return (tuple(right_columns), tuple(gens), tuple(gen_names), maps)


def _memo_carrier(memo: dict, elements, gens, gen_names, right_columns) -> FiniteSemigroup:
    """`FiniteSemigroup(elements, gens, gen_names, right_columns)`, or the
    carrier `memo` holds for its key.  A new carrier is entered at once, so
    a sibling GM image is found while the first sibling's subtree runs."""
    key = _key(elements, gens, gen_names, right_columns)
    if key not in memo:
        memo[key] = _Entry(FiniteSemigroup(elements, gens, gen_names, key[0]))
    return memo[key].sgp


def _relabeled(node: Any, old: str, new: str) -> Any:
    """A copy of a certificate with the labels at and below `old` moved
    under `new`; labels appear only under `label` keys."""
    if isinstance(node, list):
        return [_relabeled(v, old, new) for v in node]
    if not isinstance(node, dict):
        return node
    out = {k: _relabeled(v, old, new) for k, v in node.items()}
    label = node.get("label", "")
    if label == old or label.startswith(old + "/"):
        out["label"] = new + label[len(old):]
    return out


def _estimate_carrier(
    sgp: FiniteSemigroup,
    text: str,
    options: EstimateOptions,
    label: str,
    given: Optional[dict[str, Any]],
    memo: dict,
) -> ComplexityInterval:
    """`estimate` on a carrier the memo does not hold; `text` is its
    serialized form."""
    if is_aperiodic(sgp):
        return ComplexityInterval(
            0,
            0,
            {
                "label": label,
                "rule": "aperiodic",
                "order": len(sgp),
                "semigroup": text,
                "interval": [0, 0],
            },
        )
    child_intervals: list[ComplexityInterval] = []
    child_certs = []
    for jref, gq in gm_reduction(sgp, functools.partial(_memo_carrier, memo)):
        if gq.order < len(sgp.elements):
            sub = estimate(gq.quotient, options, f"{label}/GM[J{jref.j_id}]", given, memo)
            child_intervals.append(sub)
            child_certs.append(
                {
                    "jclass": jref.j_id,
                    "kind": "smaller-gm-image",
                    "image": sub.certificate["semigroup"],
                    "sub": sub.certificate,
                }
            )
        else:
            sub = _estimate_group_mapping(sgp, text, jref, options, label, given, memo)
            child_intervals.append(sub)
            child_certs.append(
                {"jclass": jref.j_id, "kind": "self-group-mapping", "sub": sub.certificate}
            )
    lower = max(ci.lower for ci in child_intervals)
    uppers = [ci.upper for ci in child_intervals]
    upper = None if any(u is None for u in uppers) else max(uppers)
    return ComplexityInterval(
        lower,
        upper,
        {
            "label": label,
            "rule": "gm-max",
            "order": len(sgp),
            "semigroup": text,
            "interval": [lower, upper],
            "children": child_certs,
        },
    )


def _estimate_group_mapping(
    sgp: FiniteSemigroup,
    text: str,
    jref: JClassRef,
    options: EstimateOptions,
    label: str,
    given: Optional[dict[str, Any]],
    memo: dict,
) -> ComplexityInterval:
    """`text` is the serialized form of sgp, which the caller already has."""
    pres = group_mapping_presentation(sgp, functools.partial(_memo_carrier, memo))
    if pres.jref.j_id != jref.j_id:
        raise VerificationError(
            "trivial GM congruence at a class that is not distinguished"
        )
    rlm_int = estimate(pres.rlmq.rlm, options, f"{label}/RLM", given, memo)
    lower = max(1, rlm_int.lower)
    cert: dict[str, Any] = {
        "label": label,
        "rule": "group-mapping",
        "order": len(sgp),
        "semigroup": text,
        "jclass": jref.j_id,
        "rlm": rlm_int.certificate,
        "lower": {
            "value": lower,
            "reasons": ["nontrivial-subgroup", "rlm-lower-bound"],
        },
    }
    if rlm_int.upper is None:
        cert["upper"] = {"kind": "unknown"}
        cert["interval"] = [lower, None]
        return ComplexityInterval(lower, None, cert)

    # a flow certificate matches the RLM upper; the wreath embedding
    # always gives one more
    if rlm_int.upper >= 1:
        stored = None if given is None else given.get(label, {})
        flow_result = flow_upper(pres, rlm_int.upper, options, stored)
        if isinstance(flow_result, dict):
            cert["upper"] = flow_result
            cert["interval"] = [lower, rlm_int.upper]
            return ComplexityInterval(lower, rlm_int.upper, cert)
    cert["upper"] = pure_upper(pres, rlm_int.upper)
    cert["interval"] = [lower, rlm_int.upper + 1]
    return ComplexityInterval(lower, rlm_int.upper + 1, cert)


def pure_upper(pres, rlm_upper: int) -> dict[str, Any]:
    """The bound that is tight exactly for pure semigroups: S embeds in
    (G, G^0) wr (B, RLM), so its complexity is at most the RLM's upper plus
    one.  The embedding is proved here, not closed, and its order is |S|.
    The proof's premises are checked at run time: `classify`'s verdict that
    S is right mapping, which `group_mapping_presentation` requires, and
    `_verify_coordinate_action` over every member of J and every generator.
    The tests close the division as the proof's oracle.

    A generator x lifts to (f_x, RLM(x)), f_x[b] = (b)x, or G^0's zero
    where b.x is undefined.  The row of (f, t) is its action on G x B:
    (g, b) goes to (g.f[b], b.t), undefined where b.t is or f[b] is the
    zero (`products.induced_row`).  Call (f, t) shaped when its zero lies
    exactly where b.t is undefined; every lift is shaped by construction.
    (1) Shaped values are closed under products: f[b] = f1[b].f2[b.t1] is
    the zero exactly when b.t1 or (b.t1).t2 is undefined, since the zero
    absorbs and G holds no zero.  So an element's zero lies where the
    embedding into (G,G) wr (B, RLM) leaves its entry undefined.
    (2) The row determines a shaped value: the image of (1_G, b) is
    (f[b], b.t), or undefined exactly where b.t is, which is where f[b] is
    the zero.  (3) Rows compose as values multiply: by the wreath formula
    (in the `products` docstring) (g,b)(u*v) = (g.f1[b].f2[b.t1], b.t1.t2)
    = ((g,b)u)v, each side undefined exactly when (g,b)u = (g.f1[b], b.t1)
    or its image under v is.

    Identify G x B + 0 with R u {0}, R the a = 0 R-class: the point (g, b)
    is uncoord(0, g, b), and 0 is every element below J.  The lift of a
    generator x sends (g, b) to (g*(b)x, b.x), and to 0 where b.x is
    undefined.  `_verify_coordinate_action` has checked, at a = 0, that
    uncoord(0, g, b)*x is uncoord(0, g*(b)x, b.x), or leaves J where b.x
    is undefined.  So the generators' lifts act on G x B + 0 as the
    generators act on R u {0}.  Both sides are right actions, 0 absorbing:
    rows compose by (3); for r in R, r*s either stays in R or drops below
    J, by stability (r*s J r gives r*s R r), and below J is absorbing
    (t <_J J gives t*s <_J J).  The relation the lifts generate holds
    (lift(x), x) and, with each pair (w, s), (w*lift(x), s*x), and nothing
    else.  So, by induction, w acts on G x B + 0 as s acts on R u {0} for
    every pair (w, s) of the relation.

    The relation is a function: if it holds (w, s) and (w, s'), then s and
    s' act alike on R u {0}, and S, being right mapping, acts faithfully
    there by the one-R-class lemma in `classify`, so s = s'.  It is
    injective: if it holds (w, s) and (w', s), then w and w' have the same
    row and are shaped by (1), so w = w' by (2).  It is onto S, as every
    generator is lifted.  So its wreath side is a subsemigroup of
    (G, G^0) wr (B, RLM) isomorphic to S, of order |S|."""
    return {
        "kind": "pure",
        "value": rlm_upper + 1,
        "witness": "wreath-embedding-over-rlm",
        "embedded_order": len(pres.sgp),
    }


def flow_cap_check(cap: int, options: EstimateOptions) -> Callable[[FiniteSemigroup], bool]:
    """Whether a flow automaton's transition semigroup T_A is within `cap`:
    aperiodic at cap 0, else `estimate(T_A)` under `options` (a top-level
    call: its own memo, never replayed choices) has an upper of at most cap."""
    if cap == 0:
        return is_aperiodic

    def within_cap(tsg: FiniteSemigroup) -> bool:
        sub = estimate(tsg, options, _label="T_A")
        return sub.upper is not None and sub.upper <= cap

    return within_cap


def flow_upper(
    pres, rlm_upper: int, options: EstimateOptions, stored: Optional[dict] = None
):
    """Search for a flow whose transition semigroup stays below rlm_upper-1
    and return the certificate dict of the decomposition it induces, or
    the search's exhaustion report.  A verified flow always constructs
    (the proof is in the `flows` module docstring), so a construction that
    fails raises its VerificationError.

    Replay passes the `stored` upper node instead: a stored flow is parsed,
    verified and cap-checked in place of the search (VerificationError if
    it fails), and any other stored kind returns None without searching."""
    if rlm_upper < 1:
        raise InputError("flow upper bounds need an RLM upper bound of at least 1")
    cap = rlm_upper - 1
    cap_check = flow_cap_check(cap, options)
    if stored is None:
        flow = flow_search(
            pres,
            options.max_flow_states,
            cap_check=cap_check,
            automata_budget=options.automata_budget,
        )
        if isinstance(flow, FlowSearchExhausted):
            return flow
    elif stored.get("kind") != "flow":
        return None
    else:
        flow = parse_flow(stored.get("flow"), pres)
        if verify_flow(flow) is not True:
            raise VerificationError("replay: stored flow does not verify")
        if not cap_check(transition_semigroup(flow.automaton)):
            raise VerificationError("replay: stored flow's automaton exceeds the cap")
    witness = presentation_construct(flow)
    return {
        "kind": "flow",
        "value": rlm_upper,
        "cap": cap,
        "flow": dump_flow(flow),
        "b_bar": witness.b_bar,
        "lift_semigroup_order": len(witness.division.closure),
    }


# -- certificate replay ------------------------------------------------------


def certificate_json(cert: dict[str, Any]) -> str:
    """The canonical text of a certificate, as `krc estimate --cert` writes
    it: byte for byte `json.dumps(cert, sort_keys=True, indent=2)` and a
    newline.  With an indent, `json.dumps` runs CPython's pure-Python
    encoder; `_emit` writes the same text in fewer steps.  A dict's keys
    are strings, as in every certificate and CLI sidecar."""
    out: list[str] = []
    _emit(cert, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(value: Any, newline: str, out: list[str]) -> None:
    """Append `value`'s indented JSON text to `out`, `newline` being the
    line break and indent it starts at: a non-empty dict (sorted keys) or
    list (or tuple) one member per line, two spaces deeper, separated by
    ","; a string by json's own escaper, an int by its repr, and any other
    value (None, a bool, a float, an empty dict or list) by `json.dumps`,
    which writes it on one line."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _emit(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _emit(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def replay_certificate(
    cert: Any, options: Optional[EstimateOptions] = None
) -> list[str]:
    """Re-verify a certificate from its root semigroup text alone.

    Reruns `estimate` on the root semigroup, following the stored upper of
    every group-mapping node (keyed by its label, unique in a tree) instead
    of searching, and requires the recomputed certificate to equal the
    given one as JSON values, types included.  Returns the replay log, one
    line per node, children first; raises InputError, VerificationError or
    ResourceError.

    The recomputation computes each distinct carrier once (see `estimate`),
    following the stored upper of the first node it reaches for that
    carrier; a later node for the same carrier gets a relabeled copy.  So a
    certificate whose repeats of one carrier carry different stored uppers
    is rejected, even when each upper would verify alone.  `estimate`
    never emits such a certificate."""
    if not isinstance(cert, dict) or not isinstance(cert.get("semigroup"), str):
        raise InputError("certificate has no root semigroup text")
    given: dict[str, dict] = {}
    stack = [cert]
    while stack:
        node = stack.pop()
        if not isinstance(node, dict):
            continue
        if node.get("rule") == "group-mapping" and isinstance(node.get("label"), str):
            upper = node.get("upper")
            given[node["label"]] = upper if isinstance(upper, dict) else {}
        children = node.get("children")
        if isinstance(children, list):
            stack += [c.get("sub") for c in children if isinstance(c, dict)]
        stack.append(node.get("rlm"))
    got = estimate(parse_semigroup(cert["semigroup"]), options, _given=given).certificate
    diff = _first_difference(cert, got)
    if diff is not None:
        path = ".".join(map(str, diff)) or "the root"
        raise VerificationError(f"replay: certificate differs from the recomputed one at {path}")
    return _replay_log(got)


def _first_difference(a: Any, b: Any) -> Optional[tuple]:
    """The path to the first place, in canonical key order, where two JSON
    values differ (types included, as JSON tells 1 from true)."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return (key,)
            sub = _first_difference(a[key], b[key])
            if sub is not None:
                return (key,) + sub
        return None
    if isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            sub = _first_difference(x, y)
            if sub is not None:
                return (i,) + sub
        return None if len(a) == len(b) else (min(len(a), len(b)),)
    return None if type(a) is type(b) and a == b else ()


def _replay_log(node: dict[str, Any]) -> list[str]:
    log = []
    for child in node.get("children", []):
        log += _replay_log(child["sub"])
    if "rlm" in node:
        log += _replay_log(node["rlm"])
    label = node["label"]
    if node["rule"] == "aperiodic":
        log.append(f"{label}: aperiodic, [0, 0]")
    elif node["rule"] == "gm-max":
        log.append(f"{label}: gm-max over {len(node['children'])} children")
    elif node["upper"]["kind"] == "unknown":
        log.append(f"{label}: upper unknown")
    else:
        log.append(f"{label}: {node['upper']['kind']} upper {node['upper']['value']}")
    return log


def check_derived_wreath_division(
    phi: RelationalMorphism,
    psi: RelationalMorphism,
    budget: int = 300_000,
):
    """Witness D(phi.psi) < D(phi) wr D(psi) by bounded canonical-order
    search over generator lifts; returns the witness or an explicit
    exhaustion report (never a nonexistence claim)."""
    composite = phi.compose(psi)
    d_comp = derived_semigroup(composite)
    d_phi = derived_semigroup(phi)
    d_psi = derived_semigroup(psi)
    source = with_generators(d_comp, minimal_generating_set(d_comp))
    carrier = WreathProduct(d_phi, ActionPair.right_translation(d_psi)).full_carrier(
        DERIVED_WREATH_CARRIER_BUDGET
    )
    return check_division(source, carrier, lifts=None, budget=budget)
