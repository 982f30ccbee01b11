"""Partial automata, their transition semigroups, flow verification and
the constructive decomposition a verified flow induces.

A flow labels every automaton state with an SPC over (B, G) of the
analyzed group-mapping presentation so that each transition transports
supports, blocks and cross sections coherently (conditions F1-F5, each
local to one transition), so that every undefined transition q.x sends
W_q wholly to 0, and so that the supports W_q cover B (the global cover
condition; a point no support reaches leaves the witness map below short
of G x B).

The middle one is the sink condition: an undefined q.x moves to a sink
state labeled with the empty SPC, and F1 against it reads W_q.x inside
{0}.  A point of W_q that x moves while q dies gets no wreath coordinate
in x's lift, so elements of S that differ only there share a lift.  The
condition is sufficient, not necessary: a flow may break it at a state
that no transition enters and still construct.

One transport per labeled transition serves verification and
construction alike: it checks F1-F5 in order and, when all hold, gives
each block of W_q its target block and its group shift.  From a verified
flow these transports give each generator its lift into
(G wr Sym_b wr T_A) x RLM.  The wreath's left factor is the partial maps
of G x [b_bar] (`products.PartialMaps`), an element of G wr Sym_b coded
by the map it induces, which determines it since each block map is a
permutation by (a); T_A's elements are partial maps of the states.  The
lifted action is the wreath lift's own: Qbar pairs the wreath's points
((g, j), q), read by position, with B + 0, and the witness map rho onto
G x B + 0 is a surjective morphism against the wreath row of each lift,
by (b) and (c) below.  The construction builds neither: they live in the
proof and in the tests' oracle of it.  The division of S that the lifts
generate is machine-checked through the division machinery.

A verified flow always constructs: F1-F5, the sink condition and the
cover condition make the division check of `presentation_construct`
pass.  Let lab_q be the cross section of q's SPC; Qbar holds
(((g, j), q), b) for b in block j of W_q, with rho sending it to
(g*lab_q(b), b), and ((g, j), q) paired with 0, sent to 0.  A live
q.x = t moves the wreath point ((g, j), q) to ((g*h, k), t), with k and
h the target block and shift of block j; a dead q.x leaves it undefined.
(a) F3 makes the block map of q.x injective on the blocks with a target.
    The other blocks, padding included, are as many as the targets left
    unused in [b_bar], so the completion, which pairs them in increasing
    order, is a permutation of [b_bar].  A dead q.x keeps the identity.
(b) By the cover condition each b of B lies in some W_q, and g*lab_q(b)
    runs over G with g, so rho is onto G x B + 0.
(c) Take omega = (((g, j), q), b) and a live q.x = t.  When b.x = 0,
    omega.x is paired with 0 and rho(omega).x = 0.  Otherwise c = b.x
    lies in W_t by F1 and in block k by F2, so omega.x = (((g*h, k), t),
    c) is in Qbar: F1 and F2 keep Qbar closed.  By F4 the transported label
    m(c) = lab_q(b)*(b)x is one value, and by F5 m(c) = h*lab_t(c), so
    rho(omega.x) = (g*h*lab_t(c), c) = (g*lab_q(b)*(b)x, c) = rho(omega).x.
    A point paired with 0 stays paired with 0.  The tests'
    `_rho_reference` is the oracle of (b) and (c): it checks them point
    by point, a dead q.x skipped.
(d) Let words u and v have equal lift products, and p = (h, b) in G x B.
    By (b) p = rho(omega) for some omega over a q with b in W_q.  The
    wreath parts agree, so q's state path survives u iff it survives v.
    If it survives, (c) gives rho(omega.u) = p.u, and omega.u is read off
    the lift product (its wreath part moves the point, its RLM part moves
    b), so p.u = p.v.  If it dies at the letter x after a prefix w, then
    p.w = rho(omega.w) by (c), and omega.w lies over a state whose x is
    undefined, with its b in that state's W or 0; the sink condition
    sends that b, and so p.w, to 0 under x, and 0 stays 0: p.u = 0 = p.v.
    So u and v act alike on G x B + 0, which the proof in
    `complexity.pure_upper` identifies with R u {0}, R the a = 0
    R-class of the distinguished class.  A generalized group mapping
    S is right mapping, so it acts faithfully there by the lemma in
    `semilocal.classify`, and u = v in S.  The relation closure is
    therefore a function, and onto S since every generator is lifted.
(e) No ResourceError arises: the construction enumerates no carrier.
    Both wreath factors are lazy oracles of partial maps, a product one
    gather (T_A is closed only by the search's or replay's cap check,
    once), and a division with given lifts has no budget.  One that did
    arise would end as exit 3.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .core import FiniteSemigroup, PartialTransformation, is_aperiodic
from .errors import InputError, ResourceError, VerificationError
from .products import (
    DivisionWitness,
    PairSemigroup,
    PartialMaps,
    WreathProduct,
    check_division,
    induced_row,
)
from .semilocal import GroupMappingPresentation
from .spc import SPC, CrossSectionFailure, enumerate_spcs, mu_action

DEFAULT_AUTOMATA_BUDGET = 2_000


@dataclass(frozen=True)
class Automaton:
    """Deterministic partial automaton; states are 1..n_states, letters are
    the generator names of the semigroup under analysis."""

    n_states: int
    letters: tuple[str, ...]
    delta: dict[tuple[int, str], int]

    def __post_init__(self):
        for (q, x), t in self.delta.items():
            if not (1 <= q <= self.n_states and 1 <= t <= self.n_states):
                raise InputError("transition out of state range")
            if x not in self.letters:
                raise InputError(f"unknown letter {x!r}")

    def step(self, q: int, x: str) -> Optional[int]:
        return self.delta.get((q, x))

    def letter_map(self, x: str) -> PartialTransformation:
        return PartialTransformation(
            tuple(self.delta.get((q, x), 0) for q in range(1, self.n_states + 1))
        )


def transition_semigroup(aut: Automaton) -> FiniteSemigroup:
    named = [(x, aut.letter_map(x)) for x in aut.letters]
    return FiniteSemigroup.generate(named)


@dataclass
class Flow:
    automaton: Automaton
    presentation: GroupMappingPresentation
    labeling: tuple[SPC, ...]

    def __post_init__(self):
        if len(self.labeling) != self.automaton.n_states:
            raise InputError("one SPC per state required")
        if self.automaton.letters != tuple(self.presentation.sgp.gen_names):
            raise InputError("automaton alphabet must match the generator names")


@dataclass
class FlowViolation:
    condition: str  # F1..F5, "sink" or "cover"
    state: int  # 0 for the cover condition
    letter: str  # "" for the cover condition
    detail: str

    def __bool__(self):
        return False


def _transport(
    pres: GroupMappingPresentation, spc_q: SPC, spc_t: SPC, letter: str
) -> tuple[str, str] | list[tuple[Optional[int], int]]:
    """F1-F5 on one labeled transition q.x = t, in that order.  The first
    failure comes back as (condition, detail); when all hold, per block of
    q the index of the target block it lands in and the shift g with
    moved labels = g . target labels on its image, (None, 1_G) for a
    block that x sends to 0."""
    group = pres.group
    rlm_map = pres.rlm_of_gen[letter]
    w_target = set(spc_t.subset)
    # F1: W_q x inside W_qx
    for b in spc_q.subset:
        img = rlm_map[b - 1]
        if img != 0 and img not in w_target:
            return ("F1", f"{b}.{letter} = {img} escapes the target support")
    # F2: every block lands inside a single target block
    target_block = spc_t.block_of()
    images = [sorted({rlm_map[b - 1] for b in blk} - {0}) for blk in spc_q.blocks]
    homes: list[Optional[int]] = []
    for blk, img in zip(spc_q.blocks, images):
        home = {target_block[c] for c in img}
        if len(home) > 1:
            return ("F2", f"block {blk} is split across target blocks")
        homes.append(home.pop() if home else None)
    # F3: the induced block map is injective where defined
    seen: dict[int, int] = {}
    for bi, home in enumerate(homes):
        if home is None:
            continue
        if home in seen:
            return (
                "F3",
                f"blocks {spc_q.blocks[seen[home]]} and {spc_q.blocks[bi]} collide",
            )
        seen[home] = bi
    # F4: the transported labeling is well defined
    moved = mu_action(spc_q.label_of(), rlm_map, pres.label_of_gen[letter], group)
    if isinstance(moved, CrossSectionFailure):
        return ("F4", f"cross-section condition fails at ({moved.b1}, {moved.b2})")
    # F5: per block, the transported labels lie in the target cross section
    t_label = spc_t.label_of()
    moves = []
    for blk, img, home in zip(spc_q.blocks, images, homes):
        shift = group.mul(moved[img[0]], group.inv(t_label[img[0]])) if img else group.identity
        for c in img:
            if moved[c] != group.mul(shift, t_label[c]):
                return (
                    "F5",
                    f"block {blk} transports outside the target cross section at {c}",
                )
        moves.append((home, shift))
    return moves


def _transition_check(
    pres: GroupMappingPresentation, spc_q: SPC, spc_t: SPC, letter: str
) -> Optional[tuple[str, str]]:
    """F1-F5 for a single labeled transition; None when all pass."""
    out = _transport(pres, spc_q, spc_t, letter)
    return out if isinstance(out, tuple) else None


def _sink_check(
    pres: GroupMappingPresentation, spc_q: SPC, letter: str
) -> Optional[tuple[str, str]]:
    """The sink condition for an undefined transition; None when W_q.x is
    inside {0}."""
    rlm_map = pres.rlm_of_gen[letter]
    for b in spc_q.subset:
        img = rlm_map[b - 1]
        if img != 0:
            return ("sink", f"{b}.{letter} = {img} but the transition is undefined")
    return None


def verify_flow(flow: Flow):
    """Check F1-F5 at every defined transition and the sink condition at
    every undefined one, then the cover condition; returns True or the
    first violation (a value, not an exception)."""
    aut = flow.automaton
    pres = flow.presentation
    for q in range(1, aut.n_states + 1):
        spc_q = flow.labeling[q - 1]
        for x in aut.letters:
            t = aut.step(q, x)
            if t is None:
                bad = _sink_check(pres, spc_q, x)
            else:
                bad = _transition_check(pres, spc_q, flow.labeling[t - 1], x)
            if bad is not None:
                return FlowViolation(bad[0], q, x, bad[1])
    covered = set().union(*(spc.subset for spc in flow.labeling))
    missing = [b for b in range(1, flow.presentation.n_b + 1) if b not in covered]
    if missing:
        points = ", ".join(map(str, missing))
        return FlowViolation("cover", 0, "", f"no state's support contains {points}")
    return True


def trivial_flow(pres: GroupMappingPresentation) -> Flow:
    """One state, every letter looping, labeled with full support, singleton
    blocks and trivial cross sections."""
    letters = tuple(pres.sgp.gen_names)
    aut = Automaton(1, letters, {(1, x): 1 for x in letters})
    nb = pres.n_b
    blocks = [(b,) for b in range(1, nb + 1)]
    labels = [(pres.group.identity,)] * nb
    return Flow(aut, pres, (SPC(nb, tuple(blocks), tuple(labels)),))


# -- the constructive decomposition ---------------------------------------


@dataclass
class PresentationWitness:
    """Everything the flow-based decomposition produces: the block count
    b_bar, per-state-and-letter permutations and group corrections, and the
    machine-checked division witness, whose lifts act on Qbar (the module
    docstring)."""

    flow: Flow
    b_bar: int
    perms: dict[str, list[tuple[int, ...]]]  # per letter, per state: [b]->[b]
    gbar: dict[str, list[tuple[int, ...]]]  # per letter, per state: G labels
    division: DivisionWitness = field(repr=False)


def presentation_construct(flow: Flow) -> PresentationWitness:
    ok = verify_flow(flow)
    if ok is not True:
        raise InputError(f"not a flow: {ok}")
    pres = flow.presentation
    group = pres.group
    aut = flow.automaton
    nq = aut.n_states
    b_bar = max(1, max(len(spc.blocks) for spc in flow.labeling))

    # per letter and state, the transport's block map completed to a
    # permutation of [b_bar] and its shifts; a dead q.x and the padding
    # blocks keep the identity, so the data has a fixed shape
    perms: dict[str, list[tuple[int, ...]]] = {}
    gbar: dict[str, list[tuple[int, ...]]] = {}
    for x in aut.letters:
        perms[x], gbar[x] = [], []
        for q in range(1, nq + 1):
            qx = aut.step(q, x)
            moves = [] if qx is None else _transport(
                pres, flow.labeling[q - 1], flow.labeling[qx - 1], x
            )
            moves += [(None, group.identity)] * (b_bar - len(moves))
            # unmatched sources to unmatched targets, both in increasing order
            free = iter(sorted(set(range(b_bar)).difference(j for j, _ in moves)))
            perms[x].append(tuple(next(free) if j is None else j for j, _ in moves))
            gbar[x].append(tuple(g for _, g in moves))

    # the lifts into (G wr Sym_b wr T_A) x RLM: a live q.x's entry is the
    # partial map (g, j) -> (g*gbar[j], perms[j]) of G x [b_bar]
    # (`induced_row`), and T_A's is the partial map of the states; both
    # stay lazy, as checking given lifts only multiplies
    outer = WreathProduct(PartialMaps(len(group) * b_bar), PartialMaps(nq))
    lifts = {}
    for x, gi in zip(pres.sgp.gen_names, pres.sgp.gens):
        fvals = tuple(
            None if aut.step(q, x) is None
            else induced_row(group, gbar[x][q - 1], perms[x][q - 1])
            for q in range(1, nq + 1)
        )
        t = tuple(v - 1 for v in aut.letter_map(x).images)
        lifts[x] = ((fvals, t), pres.rlmq.rlm.elements[pres.rlmq.code[gi]])

    division = check_division(pres.sgp, PairSemigroup(outer, pres.rlmq.rlm), lifts=lifts)
    return PresentationWitness(flow, b_bar, perms, gbar, division)


# -- flow search -----------------------------------------------------------


@dataclass
class FlowSearchExhausted:
    max_states: int
    automata_tried: int
    budget: int

    def __bool__(self):
        return False


def _enumerate_automata(
    n_states: int, letters: tuple[str, ...]
) -> Iterator[Automaton]:
    """All partial automata in canonical order: targets 1..n then undefined,
    lexicographic over (state, letter) slots."""
    slots = [(q, x) for q in range(1, n_states + 1) for x in letters]
    for combo in itertools.product(range(1, n_states + 2), repeat=len(slots)):
        delta = {
            slot: t for slot, t in zip(slots, combo) if t <= n_states
        }
        yield Automaton(n_states, letters, delta)


def flow_search(
    pres: GroupMappingPresentation,
    max_states: int,
    cap_check: Callable[[FiniteSemigroup], bool] = is_aperiodic,
    automata_budget: int = DEFAULT_AUTOMATA_BUDGET,
):
    """The first verified flow over automata with at most max_states
    states whose transition semigroup passes `cap_check` (aperiodicity,
    that is cap 0, unless `complexity.flow_cap_check` gives another), or
    FlowSearchExhausted.

    Automata come in canonical order, and per automaton its consistent
    covering labelings that keep the sink condition, with transitions
    checked through one `_successor_index` and one `_sink_index` per
    search.  The first labeling found is verified again and returned; it
    constructs, by the proof in the module docstring.  The sink condition
    is sufficient, not necessary, so a labeling that breaks it is passed
    over even where it would construct.  Exhaustion is explicit and never
    a nonexistence claim."""
    letters = tuple(pres.sgp.gen_names)
    spcs = None  # enumerated once an automaton passes the cap

    tried = 0
    for m in range(1, max_states + 1):
        for aut in _enumerate_automata(m, letters):
            if tried >= automata_budget:
                return FlowSearchExhausted(max_states, tried, automata_budget)
            tried += 1
            try:
                tsg = transition_semigroup(aut)
            except ResourceError:
                continue
            if not cap_check(tsg):
                continue
            if spcs is None:
                spcs = enumerate_spcs(pres.n_b, pres.group)
                supports = [frozenset(spc.subset) for spc in spcs]
                succ = _successor_index(pres, spcs, supports)
                sinks = _sink_index(pres, supports)
            assignment = next(_iter_labelings(aut, supports, succ, sinks), None)
            if assignment is not None:
                flow = Flow(aut, pres, tuple(spcs[i] for i in assignment))
                if verify_flow(flow) is not True:
                    raise VerificationError("search produced a non-flow")
                return flow
    return FlowSearchExhausted(max_states, tried, automata_budget)


def _successor_index(
    pres: GroupMappingPresentation, spcs: list[SPC], supports: list[frozenset[int]]
) -> Callable[[int, str], frozenset[int]]:
    """succ(i, x): the k with `_transition_check(pres, spcs[i], spcs[k], x)`
    None.  That check passes exactly when F4 holds for (i, x), the images
    of i's blocks under x have their union U inside W_k, and spcs[k]
    restricted to U has exactly those images as blocks (so they are
    pairwise disjoint), with the moved labels up to a left shift per
    block.  So succ(i, x) is one bucket of the targets whose support
    contains U, keyed by the blocks on U with each block's labels shifted
    to 1_G at its least point; the buckets of a U are built when U first
    comes up."""
    group = pres.group
    buckets: dict[frozenset[int], dict[tuple, frozenset[int]]] = {}

    def key(blocks: list[dict[int, int]]) -> tuple:
        out = []
        for blk in filter(None, blocks):
            points = sorted(blk)
            shift = group.inv(blk[points[0]])
            out.append((tuple(points), tuple(group.mul(shift, blk[b]) for b in points)))
        return tuple(sorted(out))

    def bucket(u: frozenset[int]) -> dict[tuple, frozenset[int]]:
        if u not in buckets:
            members: dict[tuple, list[int]] = {}
            for k, spc in enumerate(spcs):
                if u <= supports[k]:
                    lab = spc.label_of()
                    on_u = [{b: lab[b] for b in blk if b in u} for blk in spc.blocks]
                    members.setdefault(key(on_u), []).append(k)
            buckets[u] = {kk: frozenset(ks) for kk, ks in members.items()}
        return buckets[u]

    @functools.cache
    def succ(i: int, x: str) -> frozenset[int]:
        rlm_map = pres.rlm_of_gen[x]
        moved = mu_action(spcs[i].label_of(), rlm_map, pres.label_of_gen[x], group)
        if isinstance(moved, CrossSectionFailure):
            return frozenset()
        images = [{rlm_map[b - 1] for b in blk} - {0} for blk in spcs[i].blocks]
        u = frozenset().union(*images)
        return bucket(u).get(key([{c: moved[c] for c in img} for img in images]), frozenset())

    return succ


def _sink_index(
    pres: GroupMappingPresentation, supports: list[frozenset[int]]
) -> dict[str, frozenset[int]]:
    """Per letter x, the indices of the SPCs whose support x sends wholly
    to 0: the labels the sink condition leaves a state whose x is
    undefined."""
    out = {}
    for x, rlm_map in pres.rlm_of_gen.items():
        zeros = {b for b, img in enumerate(rlm_map, 1) if img == 0}
        out[x] = frozenset(k for k, w in enumerate(supports) if w <= zeros)
    return out


def _iter_labelings(
    aut: Automaton,
    supports: list[frozenset[int]],
    succ: Callable[[int, str], frozenset[int]],
    sinks: dict[str, frozenset[int]],
) -> Iterator[list[int]]:
    """All consistent labelings that keep the sink condition and whose
    supports cover B, by backtracking over domains of SPC indices in
    canonical order, so solutions come out canonically ordered.  The sink
    condition is unary, so D_q starts as the indices in sinks[x] for every
    undefined q.x.  Two rules then prune the domains until neither removes
    anything, each only indices in no covering solution: arc consistency
    on the successor sets (keep i in D_q when succ(i, x) meets D_t, and k
    in D_t when it is in some succ(i, x) over D_q), and the cover filter
    (W_q contains every point of B that no other state's domain reaches;
    with one state, W = B)."""
    m = aut.n_states
    arcs = [(q - 1, t - 1, x) for (q, x), t in aut.delta.items()]
    domains: list[list[int]] = [
        [
            i for i in range(len(supports))
            if all(i in sinks[x] for x in aut.letters if (q, x) not in aut.delta)
        ]
        for q in range(1, m + 1)
    ]
    full = supports[0]  # canonical order puts W = B first

    changed = True
    while changed:
        changed = False
        for q in range(m):
            need = full.difference(
                *(supports[k] for p in range(m) if p != q for k in domains[p])
            )
            keep = [k for k in domains[q] if need <= supports[k]]
            if len(keep) != len(domains[q]):
                domains[q] = keep
                changed = True
        for q, t, x in arcs:
            dq, dt = domains[q], set(domains[t])
            keep = [i for i in dq if not succ(i, x).isdisjoint(dt)]
            if len(keep) != len(dq):
                domains[q] = keep
                changed = True
            targets = set().union(*{succ(i, x) for i in keep})
            keep_t = [k for k in domains[t] if k in targets]
            if len(keep_t) != len(domains[t]):
                domains[t] = keep_t
                changed = True
        if not all(domains):
            return

    # each arc is checked once, when the later of its two states is labeled
    closing = [[(q, t, x) for q, t, x in arcs if max(q, t) == s] for s in range(m)]
    assignment = [0] * m

    def backtrack(state: int) -> Iterator[list[int]]:
        if state == m:
            if frozenset().union(*(supports[k] for k in assignment)) == full:
                yield list(assignment)
            return
        for idx in domains[state]:
            assignment[state] = idx
            if all(assignment[t] in succ(assignment[q], x) for q, t, x in closing[state]):
                yield from backtrack(state + 1)

    yield from backtrack(0)
