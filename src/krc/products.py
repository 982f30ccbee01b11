"""Products of transformation semigroups and division certificates.

The wreath product here follows the convention that the left factor's
functions are post-composed through the right factor's action:
(b,q)(f,t) = (b(qf), qt) and (f,t)(f',t') = (f.(t o f'), tt').  Function
parts may carry None entries, read as an adjoined identity of the left
semigroup; the skip convention keeps the product associative on partial
right actions.

Division S < T is always handled as a checkable certificate: generator
lifts whose generated relation inside T x S is a surjective function onto
S.  Search mode assigns lifts depth first in canonical order, cuts every
prefix whose generated relation is already not a function, and returns
the first witness of the canonical order.  Its budget counts lift tuples
ruled out, a cut prefix counting all the tuples below it; the search never
claims nonexistence.

A search first keeps, per generator x, the target elements t that x may
lift to on its own, with no closure.  Lifting x to t closes to
{(t^n, x^n)}, a function exactly when index(t) >= index(x) and period(x)
divides period(t), where the index i and period p of y are the least
i, p >= 1 with y^i = y^(i+p).  Proof: for a < b, y^a = y^b exactly when
a >= index(y) and period(y) divides b - a, so t^a = t^b forces
x^a = x^b for all a < b exactly when it does for a = index(t),
b = a + period(t).

Every division target and every `ActionPair.sgp` is a multiplication
oracle: it has `mul(u, v)` and `elements`, the carrier list when it is
enumerated (`FiniteSemigroup`, `MulOracle`) and None when it is lazy
(`PairSemigroup`, `WreathProduct`).  Checking given lifts only multiplies;
a search needs `elements`.  A factor that is only multiplied is a
`MulOracle`, not a `FiniteSemigroup`.

The semigroup wreath product S wr T = S^(T^1) x T is the wreath product
(S^1,S) wr (T^1,T) of the right translation actions
(`ActionPair.right_translation`), so it has no product of its own.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from .core import FiniteGroup, FiniteSemigroup, _index_period
from .errors import InputError, ResourceError, VerificationError

DIVISION_SEARCH_BUDGET = 2_000_000


class MulOracle:
    """A bare multiplication oracle (no Cayley machinery), for a factor
    that is only multiplied or a carrier too large to wrap in a
    FiniteSemigroup."""

    def __init__(self, elements: Optional[list[Any]], mul: Callable[[Any, Any], Any]):
        self.elements = elements
        self.mul = mul


class PairSemigroup:
    """Componentwise product of two multiplication oracles (lazy)."""

    elements = None

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def mul(self, u, v):
        return (self.left.mul(u[0], v[0]), self.right.mul(u[1], v[1]))


# -- actions -------------------------------------------------------------


@dataclass
class ActionPair:
    """A transformation semigroup (Q, S): S with a faithful partial right
    action on the ordered point set Q.  S may be a lazy oracle; `_pos`
    maps each point to its position in Q."""

    points: list[Any]
    sgp: Any  # a multiplication oracle
    act: Callable[[Any, Any], Optional[Any]]

    def __post_init__(self):
        self._pos = {p: i for i, p in enumerate(self.points)}

    @classmethod
    def of_transformations(cls, sgp: FiniteSemigroup) -> "ActionPair":
        n = sgp.degree

        def act(q, f):
            img = f(q)
            return img if img else None

        return cls(list(range(1, n + 1)), sgp, act)

    @classmethod
    def of_group(cls, group: FiniteGroup) -> "ActionPair":
        """(G, G): the right regular action, with elements 0..|G|-1."""
        idx = list(range(len(group)))
        return cls(idx, MulOracle(idx, group.mul), group.mul)

    @classmethod
    def right_translation(cls, sgp) -> "ActionPair":
        """(S^1, S): S acting on itself by right translation.  The points
        are a fresh marker, standing for the adjoined identity, followed
        by S's elements."""
        marker = object()

        def act(p, t):
            return t if p is marker else sgp.mul(p, t)

        return cls([marker] + list(sgp.elements), sgp, act)


# -- wreath products ------------------------------------------------------


class WreathProduct:
    """(B,S) wr (Q,T) as a lazy carrier on pairs (f, t).

    f is a tuple over Q-positions with values in S (or None for the
    adjoined identity), t is an element of T.  Elements multiply by the
    wreath formula and act on B x Q points; the full carrier S^Q x T is
    materialized only under the given budget.  It is itself the action
    pair (B x Q, S wr T): it has `points`, `_pos`, `sgp` and `act`, so it
    nests as either factor of another wreath product.
    """

    elements = None  # a lazy oracle; full_carrier() enumerates

    def __init__(self, left: ActionPair, right: ActionPair, restrict_to_domain: bool = False):
        self.left = left
        self.right = right
        self.points = [(b, q) for b in left.points for q in right.points]
        self._pos = {p: i for i, p in enumerate(self.points)}
        # with restrict_to_domain, function parts carry None outside the
        # domain of their own t-component; this keeps s -> (f_s, t_s) maps
        # structurally injective over partial right actions
        self.restrict_to_domain = restrict_to_domain
        # a division closure multiplies the same pairs many times
        self.mul = functools.lru_cache(maxsize=None)(self._product)

    @property
    def sgp(self) -> "WreathProduct":
        return self

    def make(self, fvals: Sequence[Any], t) -> tuple[tuple, Any]:
        if len(fvals) != len(self.right.points):
            raise InputError("function part has wrong arity")
        if self.restrict_to_domain:
            fvals = [
                None if self.right.act(q, t) is None else v
                for v, q in zip(fvals, self.right.points)
            ]
        return (tuple(fvals), t)

    def _product(self, u, v):
        """The wreath formula; `mul` is its cached form."""
        f1, t1 = u
        f2, t2 = v
        right, left_mul = self.right, self.left.sgp.mul
        out = []
        for i, q in enumerate(right.points):
            qi = right.act(q, t1)
            if qi is None:
                out.append(f1[i])
                continue
            other = f2[right._pos[qi]]
            if f1[i] is None:
                out.append(other)
            elif other is None:
                out.append(f1[i])
            else:
                out.append(left_mul(f1[i], other))
        t12 = right.sgp.mul(t1, t2)
        if self.restrict_to_domain:
            out = [
                None if right.act(q, t12) is None else w
                for w, q in zip(out, right.points)
            ]
        return (tuple(out), t12)

    def act(self, point, w):
        (b, q), (f, t) = point, w
        fq = f[self.right._pos[q]]
        b2 = b if fq is None else self.left.act(b, fq)
        q2 = self.right.act(q, t)
        if b2 is None or q2 is None:
            return None
        return (b2, q2)

    def full_carrier(self, budget: int) -> MulOracle:
        """S^Q x T, in the order of T's carrier and then of the function
        parts over S's carrier, lexicographically."""
        left, right = self.left.sgp.elements, self.right.sgp.elements
        size = len(left) ** len(self.right.points) * len(right)
        if size > budget:
            raise ResourceError(
                f"wreath carrier of size {size} exceeds the budget of {budget}"
            )
        elements = [
            (f, t)
            for t in right
            for f in itertools.product(left, repeat=len(self.right.points))
        ]
        return MulOracle(elements, self.mul)


# -- division certificates -------------------------------------------------


@dataclass
class DivisionWitness:
    """Generator lifts realizing S < T, with the verified graph closure."""

    source: FiniteSemigroup
    target: Any
    lifts: dict[str, Any]
    morphism: dict[Any, Any] = field(repr=False)

    def verify(self) -> None:
        result = _relation_closure(self.source, self.target, self.lifts)
        if not isinstance(result, dict):
            raise VerificationError(f"division witness failed to re-verify: {result}")
        if result != self.morphism:
            raise VerificationError("division witness morphism table mismatch")


@dataclass
class ExhaustionReport:
    """Search gave up; explicitly not a nonexistence claim.

    `tried` counts the lift tuples of the canonical order that the search
    ruled out, at most `budget`; `searched_all` says that every tuple was
    ruled out within the budget.
    """

    tried: int
    budget: int
    searched_all: bool

    def __bool__(self):
        return False


def _relation_closure(
    s: FiniteSemigroup,
    target,
    lifts: dict[str, Any],
    names: Optional[Sequence[str]] = None,
):
    """Close {(lift(x), x)} under multiplication, x running over the
    generators `names` (all of S's by default); return the t -> s map if it
    stays functional, else a description of the first conflict.

    Over all generators the map must also be onto S.  Over some of them it
    is onto the subsemigroup they generate by construction, so only
    functionality is checked.  A lift for a name that is not a generator
    of S is refused.
    """
    gen_values = dict(zip(s.gen_names, (s.elements[gi] for gi in s.gens)))
    for name in lifts:
        if name not in gen_values:
            return f"lift for {name!r}, which is not a generator of the source"
    gen_pairs = []
    for name in s.gen_names if names is None else names:
        if name not in lifts:
            return f"no lift for generator {name!r}"
        gen_pairs.append((lifts[name], gen_values[name]))
    mapping: dict[Any, Any] = {}
    frontier = []
    for tv, sv in gen_pairs:
        if tv in mapping:
            if mapping[tv] != sv:
                return f"conflict at generator lift {tv!r}"
        else:
            mapping[tv] = sv
            frontier.append(tv)
    while frontier:
        new = []
        for tv in frontier:
            sv = mapping[tv]
            for tg, sg in gen_pairs:
                t2 = target.mul(tv, tg)
                s2 = s.mul(sv, sg)
                prev = mapping.get(t2)
                if prev is None:
                    mapping[t2] = s2
                    new.append(t2)
                elif prev != s2:
                    return f"relation not functional at {t2!r}"
        frontier = new
    if names is None and len(set(mapping.values())) != len(s.elements):
        return "relation not surjective onto the source"
    return mapping


def _viable_lifts(s: FiniteSemigroup, target) -> list[list[Any]]:
    """Per generator of S, the target elements whose one-generator closure
    is functional, by the (index, period) test, in the target's order."""
    right = s.right_cayley
    gen_shapes = [
        _index_period(gi, lambda i, k=k: right[i][k]) for k, gi in enumerate(s.gens)
    ]
    shapes = [
        _index_period(tv, lambda y, tv=tv: target.mul(y, tv)) for tv in target.elements
    ]
    return [
        [
            tv
            for tv, (ti, tp) in zip(target.elements, shapes)
            if ti >= xi and tp % xp == 0
        ]
        for xi, xp in gen_shapes
    ]


def check_division(
    s: FiniteSemigroup,
    target,
    lifts: Optional[dict[str, Any]] = None,
    budget: int = DIVISION_SEARCH_BUDGET,
):
    """Certify S < target.

    With lifts: verify them (VerificationError on failure).  Without:
    search lift tuples in canonical order, returning the first witness or
    an ExhaustionReport; exhaustion is an explicit "unknown".

    Lift candidates for a generator x are the target elements t whose
    one-generator closure {(t^n, x^n)} is functional, in the target's
    element order.  That holds exactly when index(t) >= index(x) and
    period(x) divides period(t) (see the module docstring), so the filter
    closes nothing: it walks the powers of each target element once through
    `target.mul`, and of each generator once along its column of
    `s.right_cayley`.  The search assigns generators depth first in
    canonical order and closes the relation of each prefix of two or more
    lifts; a prefix whose closure is not functional is cut with its whole
    subtree, since every extension's relation contains it.  Surjectivity
    is checked on full tuples only.  The first witness is thus the first
    in the canonical order of all tuples, and a cut subtree counts all its
    tuples as tried.  The search stops when `budget` tuples are ruled out,
    so for S with k generators it costs one power walk per target element
    and per generator, then at most k closures per tuple of the budget and
    one to re-verify a witness.
    """
    if lifts is not None:
        result = _relation_closure(s, target, lifts)
        if not isinstance(result, dict):
            raise VerificationError(f"division lifts rejected: {result}")
        # built from the closure just checked, so not re-verified
        return DivisionWitness(s, target, dict(lifts), result)

    if target.elements is None:
        raise InputError("division search needs an enumerated target")
    names = list(s.gen_names)
    k = len(names)
    viable = _viable_lifts(s, target)
    # block[d]: the number of full tuples below a prefix of length d
    block = [1] * (k + 1)
    for d in range(k - 1, -1, -1):
        block[d] = block[d + 1] * len(viable[d])
    tried = 0
    chosen: dict[str, Any] = {}  # entries past the current depth are stale

    def first_witness(depth: int):
        """The closure of the first witness extending `chosen`, or None;
        `tried` moves past every tuple ruled out."""
        nonlocal tried
        name = names[depth]
        for tv in viable[depth]:
            if tried >= budget:
                return None
            chosen[name] = tv
            if depth + 1 == k:
                result = _relation_closure(s, target, chosen)
                if isinstance(result, dict):
                    return result
                tried += 1
            # a one-lift prefix passed the viable filter already
            elif depth and not isinstance(
                _relation_closure(s, target, chosen, names[: depth + 1]), dict
            ):
                tried += block[depth + 1]
            else:
                result = first_witness(depth + 1)
                if result is not None:
                    return result
        return None

    result = first_witness(0) if block[0] else None
    if result is None:
        total = block[0]
        return ExhaustionReport(min(total, budget), budget, searched_all=total <= budget)
    witness = DivisionWitness(s, target, {name: chosen[name] for name in names}, result)
    witness.verify()
    return witness
