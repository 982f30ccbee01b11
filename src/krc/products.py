"""Products of transformation semigroups and division certificates.

The wreath product here follows the convention that the left factor's
functions are post-composed through the right factor's action:
(b,q)(f,t) = (b(qf), qt) and (f,t)(f',t') = (f.(t o f'), tt').  Function
parts may carry None entries, read as an adjoined identity of the left
semigroup; the skip convention keeps the product associative on partial
right actions.  A left factor may instead be (G, G^0), whose zero is
undefined at every point (`ActionPair.of_group_with_zero`).  If two
elements carry the zero exactly where q.t is undefined, so does their
product: f[q] = f1[q].f2[q.t1] is the zero exactly when q.t1 or (q.t1).t2
is undefined, since the zero absorbs and G holds no zero.

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

Every division target and every `ActionPair.sgp` is a multiplication
oracle on codes: `encode(v)` (KeyError when v is not an element of an
enumerated carrier), `decode(c)` and `mul_code(a, b)`.  An enumerated
oracle lists its `elements` and their `codes` in one order (a wreath
product's full carrier decodes its `elements` when first read); a lazy
one (`PairSemigroup`, `WreathProduct`, a `MulOracle` without a carrier)
has `elements` and `codes` None.  Codes are a `FiniteSemigroup`'s
indices, a `MulOracle`'s numbering on first sight, a `PairSemigroup`'s
pairs, and a wreath product's (tuple of left-factor codes or None,
right-factor code).

An action pair (Q, S) has points 0..size-1 and acts on S's codes by
`row(c)`: per point, its image's position, -1 where undefined.  A wreath
product (B,S) wr (Q,T) is itself an action pair on B x Q, the point (b,q)
at position b*|Q| + q, so wreath products nest.

Divisions run on codes; the source steps along its right Cayley graph by
index.  Values appear only at the boundary: given lifts are encoded once,
and one that is not an element of the target is refused there; a
witness's lifts and every rejection message are decoded, and its morphism
table when first read, so a witness's `target` and `lifts` go back into
`check_division`.  Checking given lifts only multiplies; a search needs
`codes`.  A factor that is only multiplied is a `MulOracle`, not a
`FiniteSemigroup`.

The semigroup wreath product S wr T = S^(T^1) x T is the wreath product
(S^1,S) wr (T^1,T) of the right translation actions
(`ActionPair.right_translation`), so it has no product of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from .core import ZERO, FiniteGroup, FiniteSemigroup, _index_period
from .errors import InputError, ResourceError, VerificationError

DIVISION_SEARCH_BUDGET = 2_000_000


class MulOracle:
    """A bare multiplication oracle on values (no Cayley machinery), for a
    factor that is only multiplied.  Its codes are ints given on first
    sight, in carrier order when it has a carrier."""

    def __init__(self, elements: Optional[list[Any]], mul: Callable[[Any, Any], Any]):
        self.elements = elements
        self.mul = mul
        self._values = list(elements or ())
        self._codes = {v: i for i, v in enumerate(self._values)}

    @property
    def codes(self) -> Optional[range]:
        return None if self.elements is None else range(len(self.elements))

    def encode(self, value) -> int:
        code = self._codes.get(value)
        if code is None:
            if self.elements is not None:
                raise KeyError(value)
            code = self._codes[value] = len(self._values)
            self._values.append(value)
        return code

    def decode(self, code: int):
        return self._values[code]

    def mul_code(self, a: int, b: int) -> int:
        return self.encode(self.mul(self._values[a], self._values[b]))


class PairSemigroup:
    """Componentwise product of two multiplication oracles (lazy)."""

    elements = codes = None

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
    def of_transformations(cls, sgp: FiniteSemigroup) -> "ActionPair":
        """(n, S) for partial transformations of {1..n}: point q at q - 1."""
        return cls(sgp.degree, sgp, lambda c: tuple([v - 1 for v in sgp.elements[c].images]))

    @classmethod
    def of_group(cls, group: FiniteGroup) -> "ActionPair":
        """(G, G): the right regular action, with elements 0..|G|-1, by the
        columns of the group table."""
        idx = list(range(len(group)))
        return cls(len(idx), MulOracle(idx, group.mul), list(zip(*group.table)).__getitem__)

    @classmethod
    def of_group_with_zero(cls, group: FiniteGroup) -> "ActionPair":
        """(G, G^0): (G, G) with a zero adjoined, value `ZERO` and code |G|,
        whose row is undefined at every point."""
        n = len(group)

        def mul(a, b):
            return ZERO if ZERO in (a, b) else group.mul(a, b)

        columns = list(zip(*group.table)) + [(-1,) * n]
        return cls(n, MulOracle([*range(n), ZERO], mul), columns.__getitem__)

    @classmethod
    def right_translation(cls, sgp: FiniteSemigroup) -> "ActionPair":
        """(S^1, S): S acting on itself by right translation.  Point 0
        stands for the adjoined identity, and point 1 + i for S's element
        of index i."""
        points = range(len(sgp.elements))

        def row(c):
            return (c + 1, *[p + 1 for p in sgp.right_translation(points, c)])

        return cls(len(points) + 1, sgp, row)


# -- wreath products ------------------------------------------------------


class WreathProduct:
    """(B,S) wr (Q,T) as a lazy carrier on pairs (f, t).

    f is a tuple over Q's points with values in S (or None for the
    adjoined identity), t is an element of T; its code is f's tuple of S's
    codes with t's code.  Codes multiply by the wreath formula, reading
    T's action rows; the full carrier S^Q x T is materialized only under
    the given budget.  It is itself the action pair (B x Q, S wr T), the
    point (b, q) at position b*|Q| + q: it has `size`, `sgp` and `row`, so
    it nests as either factor of another wreath product.
    """

    codes = None

    def __init__(self, left: ActionPair, right: ActionPair):
        self.left = left
        self.right = right
        self.size = left.size * right.size
        self.row = functools.lru_cache(maxsize=None)(self.row_uncached)
        self._column = functools.lru_cache(maxsize=None)(self._column_of)
        # the factors' products by code pair, with None for the left
        # identity: a search takes a few of them many times
        mul = left.sgp.mul_code
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

    @property
    def sgp(self) -> "WreathProduct":
        return self

    @functools.cached_property
    def elements(self) -> Optional[list]:
        """The values of `codes`, in order, decoded when first read; None
        on a lazy product."""
        return None if self.codes is None else [self.decode(c) for c in self.codes]

    def encode(self, value) -> tuple:
        f, t = value
        if len(f) != self.right.size:
            raise KeyError(value)
        enc = self.left.sgp.encode
        return (tuple(None if v is None else enc(v) for v in f), self.right.sgp.encode(t))

    def decode(self, code) -> tuple:
        f, t = code
        dec = self.left.sgp.decode
        return (tuple(None if c is None else dec(c) for c in f), self.right.sgp.decode(t))

    def mul_code(self, u, v) -> tuple:
        """The wreath formula on codes; where q.t1 is undefined (-1), q
        reads the identity None appended to f2."""
        (f1, t1), (f2, t2) = u, v
        f = tuple(map(self._left_mul, f1, map((f2 + (None,)).__getitem__, self.right.row(t1))))
        return (f, self._right_mul(t1, t2))

    def row_uncached(self, code) -> tuple:
        """`row(code)` without its cache, for a reader that takes each row
        once: (b, q)(f, t) = (b(qf), qt) by positions, b running slowest.
        The points (b, q) at one position of Q form one column over b,
        which depends only on q's left code qf and the position of qt; the
        row interleaves those cached columns."""
        f, t = code
        columns = map(self._column, f, self.right.row(t))
        return tuple(itertools.chain.from_iterable(zip(*columns)))

    def _column_of(self, c, j: int) -> tuple:
        """Per b, the position of (b.c, q') where q' is the point at
        position j: -1 where j or b.c is undefined, and c None acts as the
        identity."""
        nb, nq = self.left.size, self.right.size
        if j < 0:
            return (-1,) * nb
        images = range(nb) if c is None else self.left.row(c)
        return tuple([-1 if b2 < 0 else b2 * nq + j for b2 in images])

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
        left, right = self.left.sgp, self.right.sgp
        nq = self.right.size
        size = len(left.codes) ** nq * len(right.codes)
        if size > budget:
            raise ResourceError(
                f"wreath carrier of size {size} exceeds the budget of {budget}"
            )
        carrier = WreathProduct(self.left, self.right)
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
    `morphism`, the closure in value form, is decoded when first read; a
    check that reads the closure (`semilocal._verify_fasp_action`) or only
    its size decodes nothing."""

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
    target codes; S steps along its right Cayley graph.

    Over all generators the map must also be onto S.  Over some of them it
    is onto the subsemigroup they generate by construction, so only
    functionality is checked.  A lift for a name that is not a generator
    of S is refused.
    """
    letter = {name: k for k, name in enumerate(s.gen_names)}
    for name in lifts:
        if name not in letter:
            return f"lift for {name!r}, which is not a generator of the source"
    gen_pairs = []
    for name in s.gen_names if names is None else names:
        if name not in lifts:
            return f"no lift for generator {name!r}"
        gen_pairs.append((lifts[name], letter[name]))
    right, mul = s.right_cayley, target.mul_code
    mapping: dict[Any, int] = {}
    frontier = []
    for tc, k in gen_pairs:
        si = s.gens[k]
        if tc in mapping:
            if mapping[tc] != si:
                return f"conflict at generator lift {target.decode(tc)!r}"
        else:
            mapping[tc] = si
            frontier.append(tc)
    while frontier:
        new = []
        for tc in frontier:
            row = right[mapping[tc]]
            for tg, k in gen_pairs:
                t2 = mul(tc, tg)
                prev = mapping.get(t2)
                if prev is None:
                    mapping[t2] = row[k]
                    new.append(t2)
                elif prev != row[k]:
                    return f"relation not functional at {target.decode(t2)!r}"
        frontier = new
    if names is None and len(set(mapping.values())) != len(s.elements):
        return "relation not surjective onto the source"
    return mapping


def _viable_lifts(s: FiniteSemigroup, target) -> list[list[Any]]:
    """Per generator of S, the codes of the target elements whose
    one-generator closure is functional, by the (index, period) test, in
    the target's order.  A wreath carrier reads its elements' (index,
    period) coordinatewise; any other target walks each element's powers.
    The test runs once per distinct (index, period) and generator."""
    right = s.right_cayley
    gen_shapes = [
        _index_period(gi, lambda i, k=k: right[i][k]) for k, gi in enumerate(s.gens)
    ]
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

    Lift candidates for a generator x are the target elements t whose
    one-generator closure {(t^n, x^n)} is functional, in the target's
    element order.  That holds exactly when index(t) >= index(x) and
    period(x) divides period(t) (see the module docstring), so the filter
    closes nothing.  It walks the powers of each generator once along its
    column of `s.right_cayley`.  A wreath carrier gives its codes' (index,
    period) by `WreathProduct.index_periods`, which walks t's powers once
    per distinct t and each position's walk once per distinct orbit shape
    and f's codes along it; any other target walks the powers of each
    target code once through `target.mul_code`.  The search assigns
    generators depth first in canonical order and closes the relation of
    each prefix of two or more lifts; a prefix whose closure is not
    functional is cut with its whole subtree, since every extension's
    relation contains it.  Surjectivity is checked on full tuples only.  The first witness is thus the first
    in the canonical order of all tuples, and a cut subtree counts all its
    tuples as tried.  The search stops when `budget` tuples are ruled out,
    so for S with k generators it costs the (index, period) of every
    target element and generator, then at most k closures per tuple of the
    budget and one to re-verify a witness.
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
