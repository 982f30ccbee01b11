"""Partial transformations, semigroup enumeration and Green's relations.

Everything downstream works on two carriers: `PartialTransformation`
(a partial self-map of {1..n}, with 0 playing the role of the undefined
mark) and `FiniteSemigroup` (an enumerated semigroup on arbitrary hashable
values, held as its two Cayley graphs' columns and one word tree over
their indices).  `generate` and `from_elements` read a multiplication
callable (`compose`, the default, is replaced by whole-row gathers) only
to build the right Cayley graph and, on small abstract carriers, for
Light's associativity test; a GM or RLM image, read off its parent's
graph, takes none.  A product is then traced: i*j follows i's tree path
through the left graph's columns, sound because the operation is
associative.  That is proved for transformation carriers and GM images,
and checked on any other abstract carrier (see `FiniteSemigroup`).  An
abstract carrier's file form is read off the right graph (`fileformats`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import InputError, ResourceError, VerificationError

DEFAULT_ELEMENT_BUDGET = 100_000

ZERO = "0"  # the adjoined zero of abstract carriers (Brandt, derived, flow points)

# Light's test checks a callable's products on carriers up to this order.
_ASSOC_CHECK_LIMIT = 40


def _light_test(table: list[list[int]], gens: Sequence[int]) -> Optional[tuple[int, int, int]]:
    """Light's associativity test on a multiplication table: the first
    (x, g, y) with (x*g)*y != x*(g*y), g running over `gens`, or None.
    The elements that associate in the middle position are closed under
    the table's product ((x*(ab))*y = x*((ab)*y) follows from a and b
    associating there), so this is complete once products of `gens`
    reach every element.

    Per g and x the whole row is compared: ((x*g)*y for every y) is the
    row of x*g, and (x*(g*y) for every y) is x's row gathered at g's row,
    in C.  Only a mismatching row is scanned for its first y."""
    rows = [tuple(row) for row in table]
    for g in gens:
        at_g = row_getter(rows[g])
        for x, x_row in enumerate(rows):
            xg_row, want = rows[x_row[g]], at_g(x_row)
            if xg_row != want:
                return x, g, next(y for y, (u, v) in enumerate(zip(xg_row, want)) if u != v)
    return None


def row_getter(positions: Sequence[int]) -> Callable[[Sequence[Any]], tuple[Any, ...]]:
    """row -> tuple(row[p] for p in positions), gathered in C by
    `operator.itemgetter`.  A bare itemgetter returns the value itself for
    one position and cannot be built for none, so those two cases get a
    tuple-valued getter of their own."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda row: (row[p],)
    return lambda row: ()


@dataclass(frozen=True)
class PartialTransformation:
    """A partial self-map of the point set {1..n}; images[q-1] == 0 means undefined.

    Composition applies the left factor first: q(f*g) = (qf)g, and an
    undefined intermediate value stays undefined.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        images = self.images
        n = len(images)
        if images and (min(images) < 0 or max(images) > n):
            v = next(v for v in images if not 0 <= v <= n)
            raise InputError(f"image value {v} out of range for degree {n}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "PartialTransformation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, q: int) -> int:
        """Image of point q (1-based); 0 for undefined, and 0 maps to 0."""
        if q == 0:
            return 0
        return self.images[q - 1]

    def sort_key(self) -> tuple[int, ...]:
        """The images with undefined (0) read as n + 1, so it sorts after
        every real point: one gather of the remap (n+1, 1, ..., n)."""
        return row_getter(self.images)(_undefined_last(self.degree))

    def __str__(self) -> str:
        return " ".join(str(v) if v else "-" for v in self.images)


@functools.cache
def _undefined_last(n: int) -> tuple[int, ...]:
    """The remap of `PartialTransformation.sort_key` at degree n."""
    return (n + 1,) + tuple(range(1, n + 1))


def compose(f: PartialTransformation, g: PartialTransformation) -> PartialTransformation:
    """q(f*g) = (qf)g with the undefined mark absorbed."""
    if f.degree != g.degree:
        raise InputError(f"degree mismatch: {f.degree} vs {g.degree}")
    gi = g.images
    return PartialTransformation(tuple(gi[v - 1] if v else 0 for v in f.images))


def _transformation_key(x: Any) -> Any:
    if isinstance(x, PartialTransformation):
        return x.sort_key()
    return x


class FiniteSemigroup:
    """An enumerated finite semigroup, held as its Cayley graphs' columns.

    Elements are hashable values in a canonical order.  Everything else is
    int data over their indices: the named generators, the columns of the
    right and left Cayley graphs (`right_columns[k]` is (x*g_k for every
    x), `left_columns[k]` is (g_k*x for every x), read off as the
    generators' right translations), each graph stored in this one
    orientation only, and the breadth-first word tree (`_word_tree`).  The
    product i*j is traced along i's tree path through the left columns:
    i = t*g gives i*j = t*(g*j), so j steps to g*j and i to its parent t,
    the tree form of Froidure & Pin, "Algorithms for computing finite
    semigroups" (1997).  No product and no word is stored.

    Tracing is sound because the operation is associative: with
    i = g1*...*gk, i*j = g1*(g2*(...(gk*j)...)).  Maps compose
    associatively, so a transformation carrier needs no check once it is
    closed (`generate` closes, `from_elements` checks closure, and an RLM
    image is checked to be the closure of its generators' maps,
    `semilocal.rlm_quotient`).  A graph that `generate` or `from_elements`
    reads off any other callable gets Light's test on the callable's own
    products up to `_ASSOC_CHECK_LIMIT` elements (`_light_checked`).  A GM
    image, read off its parent's graph through a congruence, and T(S) are
    proved associative and marked so when built (`inverse.lift_TS`,
    `semilocal.GmQuotient.quotient`); there `check_associative` is a test
    oracle.  Any other abstract carrier gets `check_associative` on its
    graph when it is written (`fileformats.dump_semigroup`).

    Products that come as whole rows are taken in bulk.
    `right_translations(points)` gives p*s for every point p and every
    element s.  Each row is built from the row of s's tree parent t
    (s = t*g), gathered in C by one `row_getter` call: p*(t*g) = (p*t)*g,
    which is associativity, the same assumption that tracing makes.
    `right_translation(points, s)` is one such row on its own, walked along
    s's tree path one whole-column gather per letter, and
    `left_translation(q, points)` its mirror, q*p for every point p.
    `mul_index` is the way to get a single scattered product.
    """

    def __init__(
        self,
        elements: list[Any],
        gen_indices: list[int],
        gen_names: list[str],
        right_columns: Sequence[tuple[int, ...]],
    ):
        """`right_columns[k][i]` is the index of elements[i] * generator k;
        the tuple is held, not copied (`complexity._key` keys on it)."""
        self.elements = elements
        self.index = {v: i for i, v in enumerate(elements)}
        if len(self.index) != len(elements):
            raise InputError("duplicate elements in semigroup carrier")
        self.gens = list(gen_indices)
        self.gen_names = gen_names
        self.right_columns = tuple(right_columns)  # the same tuple if given one
        self._word_tree()
        self.left_columns = tuple(zip(*self.right_translations(self.gens)))
        self._green: Optional[GreenStructure] = None
        self._classification = None  # filled by semilocal.classify
        self._associative = False  # set once the traced product is checked or proved

    def _word_tree(self) -> None:
        """The word tree, breadth first along the right Cayley graph: `_order`
        lists the elements prefix before child, `_parent[i]` is i's word less
        its last letter (-1 for a generator) and `_letter[i]` that letter."""
        columns, gens = self.right_columns, self.gens
        n = len(self.elements)
        parent = [-1] * n
        letter = [-1] * n
        order = []
        for k, gi in enumerate(gens):
            if letter[gi] < 0:
                letter[gi] = k
                order.append(gi)
        for i in order:  # grows while iterating: breadth first
            for k, col in enumerate(columns):
                j = col[i]
                if letter[j] < 0:
                    parent[j] = i
                    letter[j] = k
                    order.append(j)
        if len(order) != n:
            raise InputError("given generators do not generate the carrier")
        self._order, self._parent, self._letter = order, parent, letter

    # -- construction -------------------------------------------------

    @classmethod
    def generate(
        cls,
        named_gens: Sequence[tuple[str, Any]],
        mul: Callable[[Any, Any], Any] = None,
        sort_key: Callable[[Any], Any] = _transformation_key,
        max_elements: int = DEFAULT_ELEMENT_BUDGET,
    ) -> "FiniteSemigroup":
        """Breadth-first closure of the generators under right multiplication;
        its edges are the right Cayley graph.

        Each element u gets one step function, read once per generator g
        for u*g.  Under `compose` the closure runs on image tuples: u*g is
        u's images read as positions into g's images with a 0 in front
        (0 stays undefined), one `row_getter` gather in C, and each
        element's `PartialTransformation` (range check included) is built
        once the closure is done.  Any other callable steps through
        `functools.partial(mul, u)`.

        The element list is re-sorted into canonical order afterwards, so
        output is independent of generator order up to naming.
        """
        if not named_gens:
            raise InputError("empty generator list")
        if mul is None:
            mul = compose
        degrees = {
            g.degree for _, g in named_gens if isinstance(g, PartialTransformation)
        }
        if len(degrees) > 1:
            raise InputError(f"generators of unequal degree: {sorted(degrees)}")
        gen_values = [g for _, g in named_gens]
        if mul is compose:
            gen_values = [g.images for g in gen_values]
            operands = [(0,) + g for g in gen_values]
            stepper = row_getter
        else:
            operands = gen_values
            stepper = functools.partial(functools.partial, mul)  # u -> partial(mul, u)
        values = list(dict.fromkeys(gen_values))  # in breadth-first order
        found = {g: b for b, g in enumerate(values)}  # value -> position in values
        columns = [[] for _ in operands]  # the graph's columns, in closure order
        for u in values:  # grows while iterating: breadth first
            step = stepper(u)
            for g, column in zip(operands, columns):
                p = step(g)
                b = found.get(p)
                if b is None:
                    b = found[p] = len(values)
                    values.append(p)
                    if len(values) > max_elements:
                        raise ResourceError(
                            f"element budget exceeded: more than {max_elements} "
                            "elements in the closure"
                        )
                column.append(b)
        if mul is compose:
            values = [PartialTransformation(v) for v in values]
        order = sorted(range(len(values)), key=lambda b: sort_key(values[b]))
        rank = {b: i for i, b in enumerate(order)}
        columns = tuple(row_getter(row_getter(order)(col))(rank) for col in columns)
        gens = [rank[found[g]] for g in gen_values]
        out = cls([values[b] for b in order], gens, [n for n, _ in named_gens], columns)
        return out._light_checked(mul)

    @classmethod
    def from_elements(
        cls,
        values: Iterable[Any],
        mul: Callable[[Any, Any], Any],
        sort_key: Callable[[Any], Any] = _transformation_key,
    ) -> "FiniteSemigroup":
        """Wrap an explicitly enumerated carrier; verifies closure under
        multiplication.  Every element is taken as a generator (harmless
        at desk scale, and it keeps the Cayley graphs honest)."""
        elements = sorted(set(values), key=sort_key)
        index = {v: i for i, v in enumerate(elements)}
        table = [[index.get(mul(u, g)) for g in elements] for u in elements]
        if any(None in row for row in table):
            raise InputError("carrier is not closed under multiplication")
        n = len(elements)
        out = cls(elements, list(range(n)), [f"e{i}" for i in range(n)], tuple(zip(*table)))
        return out._light_checked(mul, table)  # every element is a generator

    def _light_checked(
        self, mul: Callable[[Any, Any], Any], table: Optional[list[list[int]]] = None
    ) -> "FiniteSemigroup":
        """self, after Light's test on the callable's own products (traced
        ones would take associativity for granted) over the generators,
        which reach every element, where it can fail (see the class).  The
        traced products are then the callable's: `check_associative` holds.
        `table` is the callable's table over the elements, if the caller
        has it."""
        if len(self) > _ASSOC_CHECK_LIMIT or mul is compose:
            return self
        els, index = self.elements, self.index
        if table is None:
            table = [[index.get(mul(u, v)) for v in els] for u in els]
            if any(None in row for row in table):
                raise InputError("carrier is not closed under multiplication")
        bad = _light_test(table, self.gens)
        if bad is not None:
            x, g, y = bad
            raise VerificationError(
                f"multiplication not associative at ({els[x]}, {els[g]}, {els[y]})"
            )
        self._associative = True
        return self

    def check_associative(self) -> None:
        """Check once that the traced product is associative, on the right
        Cayley graph alone.  Lemma: it is if (x*s)*g = x*(s*g) for all
        elements x, s and generators g.  By induction along the word tree:
        for a generator z, x*(y*z) = (x*y)*z is the hypothesis; for z = t*g,
        g the last letter of z's word, y*z = (y*t)*g by tracing, so
        x*(y*z) = (x*(y*t))*g = ((x*y)*t)*g = (x*y)*z.

        x*s for every x is s's row of `right_translations`, so the check
        moves that row along g's column and compares it with s*g's row.  A
        tree edge (s the parent of s*g, g its letter) holds by construction:
        its row is that very gather."""
        if self._associative:
            return
        columns = self.right_columns
        rows = self.right_translations(range(len(self)))
        for s, (row, edges) in enumerate(zip(rows, zip(*columns))):
            image = row_getter(row)  # col -> (col[x] for x in row)
            for k, (col, t) in enumerate(zip(columns, edges)):
                if (self._parent[t], self._letter[t]) != (s, k) and image(col) != rows[t]:
                    raise VerificationError("regular representation is not faithful")
        self._associative = True

    # -- basic structure ----------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, u: Any, v: Any) -> Any:
        return self.elements[self.mul_index(self.index[u], self.index[v])]

    def mul_index(self, i: int, j: int) -> int:
        """i*j: while i = t*g, i*j = t*(g*j), so j steps to g*j and i to t."""
        left, parent, letter = self.left_columns, self._parent, self._letter
        while i >= 0:
            j = left[letter[i]][j]
            i = parent[i]
        return j

    # the multiplication-oracle protocol of `products`: codes are indices
    mul_code = mul_index

    def encode(self, v: Any) -> int:
        return self.index[v]

    def decode(self, i: int) -> Any:
        return self.elements[i]

    @property
    def codes(self) -> range:
        return range(len(self.elements))

    def right_translations(self, points: Sequence[int]) -> list[tuple[int, ...]]:
        """For every element s, the row (p*s for p in points).

        Rows are built along the word tree, prefix before child: s = t*g
        with g the last letter of s's word gives p*s = (p*t)*g, so s's row
        is t's row moved one step along the right Cayley graph, gathered
        from g's column in one `row_getter` call (exact for zero and one
        point too).  Like tracing, this rests on associativity."""
        points = tuple(points)
        columns = self.right_columns
        rows: list[tuple[int, ...]] = [None] * len(self.elements)
        parent, letter = self._parent, self._letter
        for s in self._order:
            prev = points if parent[s] < 0 else rows[parent[s]]
            rows[s] = row_getter(prev)(columns[letter[s]])
        return rows

    def right_translation(self, points: Sequence[int], s: int) -> tuple[int, ...]:
        """The row (p*s for p in points) of `right_translations` on its own:
        p*(g1*...*gk) = (...(p*g1)...)*gk, s's tree path read back, each
        step a gather of the letter's column of the right Cayley graph at
        the current points, in C.  Like tracing, this rests on associativity."""
        path = []  # the columns of s's letters, last letter first
        while s >= 0:
            path.append(self.right_columns[self._letter[s]])
            s = self._parent[s]
        row = tuple(points)
        for column in reversed(path):
            row = row_getter(row)(column)
        return row

    def left_translation(self, q: int, points: Sequence[int]) -> tuple[int, ...]:
        """The row (q*p for p in points), the mirror of `right_translation`:
        (g1*...*gk)*p = g1*(...(gk*p)...), one step per letter along q's
        tree path, last letter first, each a gather of the letter's column
        of the left Cayley graph at the current points.  Like tracing, this
        rests on associativity."""
        row = tuple(points)
        columns, parent, letter = self.left_columns, self._parent, self._letter
        while q >= 0:
            row = row_getter(row)(columns[letter[q]])
            q = parent[q]
        return row

    @property
    def is_transformation(self) -> bool:
        return bool(self.elements) and isinstance(
            self.elements[0], PartialTransformation
        )

    @property
    def degree(self) -> int:
        if not self.is_transformation:
            raise InputError("not a transformation semigroup")
        return self.elements[0].degree

    def identity_index(self) -> Optional[int]:
        """e with e*g = g*e = g for every generator g, which makes e an
        identity since the generators generate."""
        gens = tuple(self.gens)
        for i, (r, l) in enumerate(zip(zip(*self.right_columns), zip(*self.left_columns))):
            if r == gens == l:
                return i
        return None

    def zero_index(self) -> Optional[int]:
        """z with z*g = g*z = z for every generator g (a zero, as above)."""
        for i, (r, l) in enumerate(zip(zip(*self.right_columns), zip(*self.left_columns))):
            if set(r) | set(l) == {i}:
                return i
        return None

    def idempotent_indices(self) -> list[int]:
        return [i for i in range(len(self.elements)) if self.mul_index(i, i) == i]

    def green(self) -> "GreenStructure":
        if self._green is None:
            self._green = green(self)
        return self._green

    def __repr__(self) -> str:
        return f"<FiniteSemigroup of order {len(self.elements)}>"


# -- Green's relations ------------------------------------------------


def _sccs(columns: Sequence[Sequence[int]]) -> list[int]:
    """Strongly connected components of the graph i -> col[i], col running
    over the columns, by Tarjan's algorithm run iteratively: `path` holds
    the depth-first path and `edge` each path vertex's next column.  A
    visited vertex is on Tarjan's stack exactly while it has no class id.
    Returns a class id per vertex (ids are arbitrary)."""
    n, degree = len(columns[0]), len(columns)
    ids = [-1] * n
    low = [0] * n
    order = [0] * n  # discovery number, from 1; 0 while unvisited
    stack: list[int] = []
    count = comp = 0
    for root in range(n):
        if order[root]:
            continue
        count += 1
        order[root] = low[root] = count
        stack.append(root)
        path, edge = [root], [0]
        while path:
            v = path[-1]
            k = edge[-1]
            while k < degree:
                w = columns[k][v]
                k += 1
                if not order[w]:
                    edge[-1] = k
                    count += 1
                    order[w] = low[w] = count
                    stack.append(w)
                    path.append(w)
                    edge.append(0)
                    break
                if ids[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                path.pop()
                edge.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] == order[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        ids[w] = comp
                    comp += 1
    return ids


def _canonical_classes(raw_ids: list[int]) -> tuple[list[int], list[list[int]]]:
    """Renumber class ids by first appearance, which is least-member order."""
    members: dict[int, list[int]] = {}
    for i, c in enumerate(raw_ids):
        members.setdefault(c, []).append(i)
    remap = {c: k for k, c in enumerate(members)}
    return [remap[c] for c in raw_ids], list(members.values())


@dataclass
class GreenStructure:
    """Green class data of a finite semigroup.

    Class ids are canonical (ordered by least element index).  The J-order
    on classes is kept as the one-step successor sets of the condensation
    of both Cayley graphs: j_succ[c] holds the classes reached from class
    c by one edge (c itself included when an edge stays inside it).  Its
    reflexive-transitive closure is the order, which is exactly the
    S^1-definition of the relation.
    """

    r_of: list[int]
    l_of: list[int]
    j_of: list[int]
    h_of: list[int]
    r_classes: list[list[int]]
    l_classes: list[list[int]]
    j_classes: list[list[int]]
    h_classes: list[list[int]]
    j_succ: list[set[int]]  # one edge of either Cayley graph
    regular: list[bool]
    idempotents: list[int]


def green(sgp: FiniteSemigroup) -> GreenStructure:
    """Compute R, L, J, H partitions plus regularity and idempotents.

    R and L are the strongly connected components of the right and left
    Cayley graphs.  J is not searched for: in a finite semigroup J = D,
    and D = R v L, the join of the two partitions (Rhodes & Steinberg,
    *The q-theory of Finite Semigroups*, 2009, App. A).  So the J-classes
    are the R-classes joined, by union-find, whenever two of them meet
    one L-class.  Tarjan and the class orders read the Cayley graphs'
    columns: each generator's column, mapped to class ids, gives the
    one-step edges between classes."""
    r_of, r_classes = _canonical_classes(_sccs(sgp.right_columns))
    l_of, l_classes = _canonical_classes(_sccs(sgp.left_columns))

    parent = list(range(len(r_classes)))  # union-find over R-class ids

    def root(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for members in l_classes:
        a = root(r_of[members[0]])
        for i in members[1:]:
            parent[root(r_of[i])] = a
    j_of, j_classes = _canonical_classes([root(c) for c in r_of])

    h_raw = [r * len(l_classes) + l for r, l in zip(r_of, l_of)]
    h_of, h_classes = _canonical_classes(h_raw)

    # the J-order: one-step successors in the condensation of both Cayley
    # graphs, whose reflexive-transitive closure is the order
    edges = set()
    for column in sgp.right_columns + sgp.left_columns:
        edges.update(zip(j_of, row_getter(column)(j_of)))
    j_succ: list[set[int]] = [set() for _ in j_classes]
    for c, d in edges:
        j_succ[c].add(d)

    idempotents = sgp.idempotent_indices()
    regular = [False] * len(j_classes)
    for e in idempotents:
        regular[j_of[e]] = True

    return GreenStructure(
        r_of, l_of, j_of, h_of,
        r_classes, l_classes, j_classes, h_classes,
        j_succ, regular, idempotents,
    )


def _index_period(x, step: Callable[[Any], Any]) -> tuple[int, int]:
    """(index, period) of the orbit x, step(x), step(step(x)), ...: the
    least i, p >= 1 whose i-th and (i+p)-th terms are equal."""
    seen = {}
    n = 1
    while x not in seen:
        seen[x] = n
        x = step(x)
        n += 1
    return seen[x], n - seen[x]


def is_aperiodic(sgp: FiniteSemigroup) -> bool:
    """True iff every subgroup is trivial.

    Computed once by power stabilisation and once through the Green
    structure (H-classes containing an idempotent are singletons); the two
    verdicts are asserted equal.  s is aperiodic exactly when its powers
    have period 1, s^{k+1} = s^k; the walk stops at the first s that is not.
    """
    by_powers = all(
        _index_period(i, lambda p, i=i: sgp.mul_index(p, i))[1] == 1
        for i in range(len(sgp.elements))
    )
    gs = sgp.green()
    by_subgroups = all(len(gs.h_classes[gs.h_of[e]]) == 1 for e in gs.idempotents)
    if by_powers != by_subgroups:
        raise VerificationError(
            "aperiodicity criteria disagree (power stabilisation vs trivial subgroups)"
        )
    return by_powers


# -- groups ------------------------------------------------------------


class FiniteGroup:
    """A finite group given by an element list and a multiplication table.

    The identity, the inverses and `verify`'s axioms are read off whole
    rows and columns, compared or scanned in C (`_light_test` likewise):
    the identity is the first e whose row and column are (0, ..., n-1),
    i's inverse the first j where i's row holds the identity and j's row
    does at i, and each row and column must sort to (0, ..., n-1)."""

    def __init__(self, elements: list[Any], table: list[list[int]]):
        self.elements = elements
        self.table = table
        self.index = {v: i for i, v in enumerate(elements)}
        n = len(elements)
        if any(len(row) != n for row in table) or len(table) != n:
            raise InputError("multiplication table is not square")
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()

    def _find_identity(self) -> int:
        table = self.table
        points = list(range(len(table)))
        for e, row in enumerate(table):
            if list(row) == points and [r[e] for r in table] == points:
                return e
        raise InputError("no identity element: not a group table")

    def _find_inverses(self) -> list[int]:
        table, e = self.table, self.identity
        inv = []
        for i, row in enumerate(table):
            # the positions j where i*j = e, in order, each tried for j*i = e
            at_e = itertools.compress(itertools.count(), map(eq, row, itertools.repeat(e)))
            j = next((j for j in at_e if table[j][i] == e), -1)
            if j < 0:
                raise InputError(f"element {i} has no inverse: not a group table")
            inv.append(j)
        return inv

    def verify(self) -> None:
        """Full table-wise group axioms: rows and columns are permutations,
        and Light's test passes over `greedy_generators`."""
        table = self.table
        points = list(range(len(table)))
        for row, column in zip(table, zip(*table)):
            if sorted(row) != points:
                raise VerificationError("table row is not a permutation")
            if sorted(column) != points:
                raise VerificationError("table column is not a permutation")
        if _light_test(table, self.greedy_generators()) is not None:
            raise VerificationError("group table not associative")

    def greedy_generators(self) -> list[int]:
        """`_greedy_generators` seeded with the identity, which associates
        in the middle position already, so Light's test needs no generator
        for it."""
        return _greedy_generators(len(self.table), self.mul, {self.identity})

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    @classmethod
    def from_table(cls, table: list[list[int]]) -> "FiniteGroup":
        g = cls(list(range(len(table))), [list(r) for r in table])
        g.verify()
        return g

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls([0], [[0]])

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        return cls(list(range(n)), [[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """Sym_n on {1..n} as total transformations, composed left-to-right."""
        perms = sorted(
            (PartialTransformation(p) for p in itertools.permutations(range(1, n + 1))),
            key=PartialTransformation.sort_key,
        )
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[compose(p, q)] for q in perms] for p in perms]
        return cls(perms, table)

    def __repr__(self) -> str:
        return f"<FiniteGroup of order {len(self.elements)}>"


def _greedy_generators(n: int, mul: Callable[[int, int], int], seed: set[int]) -> list[int]:
    """A generating set of the elements 0..n-1 chosen greedily in index
    order: i joins when the products of the chosen ones, together with
    `seed`, have not reached it yet.  Right products are enough, since
    every word is its prefix times its last letter: the reached set is
    `seed` with the subsemigroup the chosen ones generate, as a walk over
    left and right products would reach."""
    gens: list[int] = []
    reached = set(seed)
    for i in range(n):
        if i not in reached:
            gens.append(i)
            frontier = reached | {i}
            while frontier:
                reached |= frontier
                frontier = {mul(u, g) for u in frontier for g in gens} - reached
    return gens


def minimal_generating_set(sgp: FiniteSemigroup) -> list[int]:
    """A small generating set, greedily in canonical element order."""
    return _greedy_generators(len(sgp.elements), sgp.mul_index, set())


def with_generators(sgp: FiniteSemigroup, gen_indices: list[int]) -> FiniteSemigroup:
    """The same semigroup, its elements in the same order, re-presented
    over the given generating subset: each new generator's column of the
    right Cayley graph is its right translation of every element.  The
    product is sgp's, so sgp's associativity carries over."""
    points = range(len(sgp))
    columns = [sgp.right_translation(points, g) for g in gen_indices]
    names = [f"g{k}" for k in range(len(gen_indices))]
    out = FiniteSemigroup(sgp.elements, gen_indices, names, columns)
    out._associative = sgp._associative
    return out


def maximal_subgroup(sgp: FiniteSemigroup, e: Any) -> FiniteGroup:
    """The H-class of the idempotent e (an element value, never an index)
    with the induced multiplication."""
    if e not in sgp.index:
        raise InputError(f"{e!r} is not an element of the semigroup")
    ei = sgp.index[e]
    if sgp.mul_index(ei, ei) != ei:
        raise InputError("element is not idempotent")
    gs = sgp.green()
    members = gs.h_classes[gs.h_of[ei]]
    values = [sgp.elements[i] for i in members]
    pos = [-1] * len(sgp)  # each member's position in the H-class, -1 outside it
    for k, i in enumerate(members):
        pos[i] = k
    table = [list(row_getter(sgp.left_translation(i, members))(pos)) for i in members]
    if any(-1 in row for row in table):
        raise VerificationError("H-class of idempotent not closed")
    g = FiniteGroup(values, table)
    g.verify()
    return g
