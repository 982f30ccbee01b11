"""Products of transformation semigroups and division certificates.

Every division target is a multiplication oracle on codes: `encode(v)`
(KeyError when v is not an element), `decode(c)`, `mul_code(a, b)` and
`codes`, every code in order on an enumerated oracle and None on a lazy
one (`PairSemigroup`, `WreathProduct`, `PartialMaps`).  Codes are a
`FiniteSemigroup`'s indices, a `PairSemigroup`'s pairs, a wreath
product's (tuple of left-factor codes or None, right-factor code), and a
`PartialMaps`'s action rows.

The wreath product S wr (Q, T) has the pairs (f, t), f a tuple over Q's
points with values in S and t in T, and (f,t)(f',t') = (f.(t o f'), tt')
with (t o f')[q] = f'[q.t].  An entry of f may be None, read as an
adjoined identity of S, and so is f'[q.t] where q.t is undefined; this
skip convention keeps the product associative on partial right actions.
S is only multiplied, so the left factor is an oracle.  The right factor
(Q, T) is an action pair: an oracle T (`sgp`) acting faithfully on the
points 0..size-1 by `row(c)`, per point its image's position, -1 where
undefined.  The semigroup wreath product S wr T = S^(T^1) x T is
S wr (T^1, T), T acting by right translation
(`ActionPair.right_translation`), so it has no product of its own.
`PartialMaps(n)`, all partial maps of n points, is an oracle and its own
action pair: a map's code is its row with a -1 sentinel, and a product
is one gather.

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

On a wreath carrier the (index, period) of every element is read
coordinatewise (`WreathProduct.index_periods`).  (f,t)^n = (f_n, t^n) with
f_n[q] = f[q].f[q.t]...f[q.t^(n-1)], a factor at an undefined point being
the identity.  So per position q the pairs s_n(q) = (f_n[q], q.t^n) form a
deterministic walk, s_(n+1)(q) = (f_n[q].f[q.t^n], q.t^(n+1)), that depends
only on t, q and f along q's orbit under t; an undefined point (-1) is
absorbing.  Two powers of (f,t) are equal exactly when t's powers and
every coordinate's walk are equal (equal t^a, t^b give equal q.t^a,
q.t^b).  Each of these sequences is a deterministic walk on a finite set,
so, as for powers above, s_a = s_b for a < b exactly when a >= its index
and its period divides b - a, the least i, p >= 1 with s_i = s_(i+p); all
of them do exactly when a >= the greatest index and the lcm of the
periods divides b - a.  So (f,t) has index the max and period the lcm
over t's walk and the coordinate walks.

Divisions run on codes; the source steps along its right Cayley graph by
index.  Values appear only at the boundary: given lifts are encoded once,
and one that is not an element of the target is refused there; a
witness's lifts and every rejection message are decoded, and its morphism
table when first read, so a witness's `target` and `lifts` go back into
`check_division`.  Checking given lifts only multiplies, so a lazy oracle
serves; a search needs `codes`.

`induced_row(group, labels, targets)` is the row of the partial map of
G x [n], (g, i) at g*n + i, that sends (g, i) to (g.labels[i],
targets[i]), undefined (-1) where targets[i] is -1: the action of the
wreath value over (G, G^0) whose entry at i is labels[i], or the zero
where the target is undefined.  A flow's G wr Sym_b entries and the
inverse decomposition's units lift to such rows and multiply as
`PartialMaps`.  The wreath embedding of a group-mapping semigroup has such
rows too, but it is proved, not closed (`complexity.pure_upper`).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from .core import FiniteGroup, FiniteSemigroup, _index_period
from .errors import InputError, ResourceError, VerificationError

DIVISION_SEARCH_BUDGET = 2_000_000


class PairSemigroup:
    """Componentwise product of two multiplication oracles (lazy)."""

    codes = None

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def encode(self, value) -> tuple:
        return (self.left.encode(value[0]), self.right.encode(value[1]))

    def decode(self, code) -> tuple:
        return (self.left.decode(code[0]), self.right.decode(code[1]))

    def mul_code(self, u, v) -> tuple:
        return (self.left.mul_code(u[0], v[0]), self.right.mul_code(u[1], v[1]))


# -- actions -------------------------------------------------------------


@dataclass
class ActionPair:
    """A transformation semigroup (Q, S): S, a multiplication oracle that
    may be lazy, with a faithful partial right action on the points
    0..size-1.  `row(code)` is the action of the element with this code:
    per point, the position of its image, -1 where undefined; rows are
    cached."""

    size: int
    sgp: Any
    row: Callable[[Any], tuple]

    def __post_init__(self):
        self.row = functools.lru_cache(maxsize=None)(self.row)

    @classmethod
    def right_translation(cls, sgp: FiniteSemigroup) -> "ActionPair":
        """(S^1, S): S acting on itself by right translation.  Point 0
        stands for the adjoined identity, and point 1 + i for S's element
        of index i."""
        points = range(len(sgp.elements))

        def row(c):
            return (c + 1, *[p + 1 for p in sgp.right_translation(points, c)])

        return cls(len(points) + 1, sgp, row)


class PartialMaps:
    """The partial maps of the points 0..size-1 as a lazy oracle that is
    its own action pair.  A map's value is its row, per point its image,
    -1 where undefined; its code is the row followed by a -1 sentinel, so
    a*b is b's code gathered at a's positions, one C call: a gathered -1
    reads the sentinel, which carries itself."""

    codes = None

    def __init__(self, size: int):
        self.size = size

    @property
    def sgp(self) -> "PartialMaps":
        return self

    def encode(self, row) -> tuple:
        if len(row) != self.size or not all(-1 <= p < self.size for p in row):
            raise KeyError(row)
        return (*row, -1)

    def row(self, code) -> tuple:
        return code[:-1]

    decode = row

    @staticmethod
    def mul_code(a: tuple, b: tuple) -> tuple:
        return operator.itemgetter(*a)(b)


def induced_row(group: FiniteGroup, labels: Sequence[int], targets: Sequence[int]) -> tuple:
    """The row of the partial map of G x [n] that sends (g, i), at
    g*n + i, to (g.labels[i], targets[i]), -1 where targets[i] is -1 (see
    the module docstring)."""
    n = len(targets)
    return tuple(
        -1 if j < 0 else group.mul(g, h) * n + j
        for g in range(len(group))
        for h, j in zip(labels, targets)
    )


# -- wreath products ------------------------------------------------------


class WreathProduct:
    """S wr (Q, T) as a lazy carrier on pairs (f, t) (see the module
    docstring), given the oracle S and the action pair (Q, T).

    f is a tuple over Q's points with values in S (or None for the
    adjoined identity), t is an element of T; its code is f's tuple of S's
    codes with t's code.  Codes multiply by the wreath formula, reading
    T's action rows; the full carrier S^Q x T is enumerated only under the
    given budget.
    """

    codes = None

    def __init__(self, left, right):
        self.left = left
        self.right = right
        # the factors' products by code pair, with None for the left
        # identity: a search takes a few of them many times
        mul = left.mul_code
        self._left_mul = functools.lru_cache(maxsize=None)(
            lambda a, b: b if a is None else a if b is None else mul(a, b)
        )
        self._right_mul = functools.lru_cache(maxsize=None)(right.sgp.mul_code)
        # index_periods: per t its walks, per orbit shape (length m, the
        # last position stepping to -1 or back to position end) the memo
        # of walk shapes, and (index, period) by the walk shapes of a code
        self._power_walks = functools.lru_cache(maxsize=None)(self._power_walks_of)
        self._walk_memo = functools.lru_cache(maxsize=None)(
            lambda m, end: _Memo(functools.partial(self._walk_shape, [*range(1, m), end]))
        )
        self._combined = _Memo(_max_lcm)

    def encode(self, value) -> tuple:
        f, t = value
        if len(f) != self.right.size:
            raise KeyError(value)
        enc = self.left.encode
        return (tuple(None if v is None else enc(v) for v in f), self.right.sgp.encode(t))

    def decode(self, code) -> tuple:
        f, t = code
        dec = self.left.decode
        return (tuple(None if c is None else dec(c) for c in f), self.right.sgp.decode(t))

    def mul_code(self, u, v) -> tuple:
        """The wreath formula on codes; where q.t1 is undefined (-1), q
        reads the identity None appended to f2."""
        (f1, t1), (f2, t2) = u, v
        f = tuple(map(self._left_mul, f1, map((f2 + (None,)).__getitem__, self.right.row(t1))))
        return (f, self._right_mul(t1, t2))

    def index_periods(self, codes) -> list[tuple[int, int]]:
        """Per code, the (index, period) of its powers, read coordinatewise
        (see the module docstring): the max of the indices and the lcm of
        the periods of t's walk and of every position's walk.  Each run of
        codes with one t reads t's orbits once; a position's walk is looked
        up by f's codes along its orbit, and a code's (index, period) by
        the tuple of its walks' (index, period)."""
        shapes = []
        for t, run in itertools.groupby(codes, key=operator.itemgetter(1)):
            fs = [f for f, _ in run]
            t_shape, walks = self._power_walks(t)
            columns = [map(memo.__getitem__, map(getter, fs)) for getter, memo in walks]
            shapes += map(self._combined.__getitem__, zip(itertools.repeat(t_shape), *columns))
        return shapes

    def _power_walks_of(self, t) -> tuple[tuple[int, int], list]:
        """t's (index, period) in T and, per position q of Q, a getter of
        f's codes along q's orbit under t with the memo of walks along
        orbits of that shape."""
        right_mul = self._right_mul
        shape = _index_period(t, lambda y: right_mul(y, t))
        row = self.right.row(t)
        walks = []
        for q in range(len(row)):
            orbit, seen = [q], {q: 0}
            j = row[q]
            while j >= 0 and j not in seen:
                seen[j] = len(orbit)
                orbit.append(j)
                j = row[j]
            memo = self._walk_memo(len(orbit), -1 if j < 0 else seen[j])
            walks.append((operator.itemgetter(*orbit), memo))
        return shape, walks

    def _walk_shape(self, nxt: list[int], key) -> tuple[int, int]:
        """(index, period) of a position's walk along an orbit whose k-th
        position steps to its nxt[k]-th, -1 where undefined; `key` is f's
        codes along the orbit, a lone code on a one-position orbit."""
        vals = key if len(nxt) > 1 else (key,)
        mul = self._left_mul

        def step(state):
            v, k = state
            return state if k < 0 else (mul(v, vals[k]), nxt[k])

        return _index_period((vals[0], nxt[0]), step)

    def full_carrier(self, budget: int) -> "WreathProduct":
        """S^Q x T enumerated as `codes`, in the order of T's carrier and
        then of the function parts over S's carrier, lexicographically."""
        left, right = self.left, self.right.sgp
        nq = self.right.size
        size = len(left.codes) ** nq * len(right.codes)
        if size > budget:
            raise ResourceError(
                f"wreath carrier of size {size} exceeds the budget of {budget}"
            )
        carrier = WreathProduct(left, self.right)
        carrier.codes = [
            (f, t) for t in right.codes for f in itertools.product(left.codes, repeat=nq)
        ]
        return carrier


class _Memo(dict):
    """A dict that computes a missing value as fn(key) and keeps it."""

    def __init__(self, fn: Callable[[Any], Any]):
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def _max_lcm(shapes) -> tuple[int, int]:
    """(index, period) of walks taken together: the max of the indices and
    the lcm of the periods."""
    indices, periods = zip(*shapes)
    return max(indices), math.lcm(*periods)


# -- division certificates -------------------------------------------------


def _encode_lifts(target, lifts: dict[str, Any]) -> dict[str, Any]:
    """The target's codes of the given lifts."""
    codes = {}
    for name, v in lifts.items():
        try:
            codes[name] = target.encode(v)
        except (KeyError, TypeError, ValueError):
            raise VerificationError(
                f"division lifts rejected: lift for {name!r} is not an element of the target"
            ) from None
    return codes


@dataclass
class DivisionWitness:
    """Generator lifts realizing S < T, in value form, with the verified
    graph closure on codes: `closure` maps each target code to S's index.
    `morphism`, the closure in value form, is decoded when first read;
    a certificate records only the closure's size."""

    source: FiniteSemigroup
    target: Any
    lifts: dict[str, Any]
    closure: dict[Any, int] = field(repr=False)

    @functools.cached_property
    def morphism(self) -> dict[Any, Any]:
        elements, decode = self.source.elements, self.target.decode
        return {decode(t): elements[i] for t, i in self.closure.items()}

    def verify(self) -> None:
        result = _relation_closure(
            self.source, self.target, _encode_lifts(self.target, self.lifts)
        )
        if not isinstance(result, dict):
            raise VerificationError(f"division witness failed to re-verify: {result}")
        # a value has one code, so equal closures are equal morphisms
        if result != self.closure:
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
    generators `names` (all of S's by default); return the map from
    target codes to S's indices if it stays functional, else a description
    of the first conflict, its target element decoded.  `lifts` holds
    target codes; S steps along its right Cayley graph, each generator's
    column carried next to its lift.

    Over all generators the map must also be onto S.  Over some of them it
    is onto the subsemigroup they generate by construction, so only
    functionality is checked.  A lift for a name that is not a generator
    of S is refused.
    """
    letter = {name: k for k, name in enumerate(s.gen_names)}
    for name in lifts:
        if name not in letter:
            return f"lift for {name!r}, which is not a generator of the source"
    gen_pairs = []  # (lift, generator, its column)
    for name in s.gen_names if names is None else names:
        if name not in lifts:
            return f"no lift for generator {name!r}"
        k = letter[name]
        gen_pairs.append((lifts[name], s.gens[k], s.right_columns[k]))
    mul = target.mul_code
    mapping: dict[Any, int] = {}
    frontier = []
    for tc, si, _ in gen_pairs:
        if tc in mapping:
            if mapping[tc] != si:
                return f"conflict at generator lift {target.decode(tc)!r}"
        else:
            mapping[tc] = si
            frontier.append(tc)
    while frontier:
        new = []
        for tc in frontier:
            si = mapping[tc]
            for tg, _, col in gen_pairs:
                t2 = mul(tc, tg)
                prev = mapping.get(t2)
                if prev is None:
                    mapping[t2] = col[si]
                    new.append(t2)
                elif prev != col[si]:
                    return f"relation not functional at {target.decode(t2)!r}"
        frontier = new
    if names is None and len(set(mapping.values())) != len(s.elements):
        return "relation not surjective onto the source"
    return mapping


def _viable_lifts(s: FiniteSemigroup, target) -> list[list[Any]]:
    """Per generator of S, the codes of the target elements whose
    one-generator closure is functional, in the target's order, by the
    (index, period) test of the module docstring.  Each generator of S
    walks its powers along its column of `s.right_columns`; a wreath
    carrier reads its codes' (index, period) by `index_periods`, any other
    target walks each code's powers through `mul_code`.  The test runs
    once per distinct (index, period) and generator."""
    gen_shapes = [_index_period(gi, col.__getitem__) for gi, col in zip(s.gens, s.right_columns)]
    codes = target.codes
    if isinstance(target, WreathProduct):
        shapes = target.index_periods(codes)
    else:
        mul = target.mul_code
        shapes = [_index_period(tc, lambda y, tc=tc: mul(y, tc)) for tc in codes]
    distinct = set(shapes)
    viable = []
    for xi, xp in gen_shapes:
        ok = {(ti, tp): ti >= xi and tp % xp == 0 for ti, tp in distinct}
        viable.append(list(itertools.compress(codes, map(ok.__getitem__, shapes))))
    return viable


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

    Lift candidates for a generator x are the target elements whose
    one-generator closure is functional (`_viable_lifts`), in the target's
    element order; the filter closes nothing.  The search assigns
    generators depth first in canonical order and closes the relation of
    each prefix of two or more lifts; a prefix whose closure is not
    functional is cut with its whole subtree, since every extension's
    relation contains it.  Surjectivity is checked on full tuples only.
    The first witness is thus the first in the canonical order of all
    tuples, and a cut subtree counts all its tuples as tried.  The search
    stops when `budget` tuples are ruled out, so for S with k generators
    it costs the (index, period) of every target element and generator,
    then at most k closures per tuple of the budget and one to re-verify a
    witness.
    """
    if lifts is not None:
        result = _relation_closure(s, target, _encode_lifts(target, lifts))
        if not isinstance(result, dict):
            raise VerificationError(f"division lifts rejected: {result}")
        # built from the closure just checked, so not re-verified
        return DivisionWitness(s, target, dict(lifts), result)

    if target.codes is None:
        raise InputError("division search needs an enumerated target")
    names = list(s.gen_names)
    k = len(names)
    viable = _viable_lifts(s, target)
    # block[d]: the number of full tuples below a prefix of length d
    block = [1] * (k + 1)
    for d in range(k - 1, -1, -1):
        block[d] = block[d + 1] * len(viable[d])
    tried = 0
    chosen: dict[str, Any] = {}  # codes; entries past the current depth are stale

    def first_witness(depth: int):
        """The closure of the first witness extending `chosen`, or None;
        `tried` moves past every tuple ruled out."""
        nonlocal tried
        name = names[depth]
        for tc in viable[depth]:
            if tried >= budget:
                return None
            chosen[name] = tc
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
    lifts = {name: target.decode(chosen[name]) for name in names}
    witness = DivisionWitness(s, target, lifts, result)
    witness.verify()
    return witness
