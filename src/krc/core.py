"""Partial transformations, semigroup enumeration and Green's relations.

Everything downstream works on two carriers: `PartialTransformation`
(a partial self-map of {1..n}, with 0 playing the role of the undefined
mark) and `FiniteSemigroup` (an enumerated semigroup on arbitrary hashable
values, held as int tables over their indices).  `generate` and
`from_elements` read a multiplication callable (`compose`, the default, is
replaced by whole-row gathers) only to build the right Cayley graph and,
on small abstract carriers, for Light's associativity test; a GM or RLM
image, read off its parent's graph, takes none.  A product is then
traced: i*j follows a word of j through the right Cayley graph from i,
sound because the operation is associative.  That is proved for
transformation carriers and GM images, and checked on any other abstract
carrier (see `FiniteSemigroup`).  An abstract carrier's file form is read
off that graph too (`fileformats`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
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
    reach every element."""
    for g in gens:
        g_row = table[g]
        for x, x_row in enumerate(table):
            xg_row = table[x_row[g]]
            for y, gy in enumerate(g_row):
                if xg_row[y] != x_row[gy]:
                    return x, g, y
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
        n = len(self.images)
        for v in self.images:
            if not 0 <= v <= n:
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
        # undefined sorts after every real point
        n = self.degree
        return tuple(v if v else n + 1 for v in self.images)

    def __str__(self) -> str:
        return " ".join(str(v) if v else "-" for v in self.images)


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
    """An enumerated finite semigroup, held as its Cayley graphs.

    Elements are hashable values in a canonical order.  Everything else is
    int data over their indices: the named generators, the right Cayley
    graph over them, the left one (read off as the generators' right
    translations), both also transposed once into columns (`right_columns[k]`
    is (x*g_k for every x), `left_columns[k]` is (g_k*x for every x)), and
    one word over the generators per element (the breadth-first tree of
    `words()`).  The product i*j is traced: it follows j's word through the
    right Cayley graph from i, as in Froidure & Pin, "Algorithms for
    computing finite semigroups" (1997).  No product is stored.

    Tracing is sound because the operation is associative: with
    j = g1*...*gk, i*j = (...((i*g1)*g2)...)*gk.  Maps compose
    associatively, so a transformation carrier needs no check once it is
    closed (`generate` closes, `from_elements` checks closure, and an RLM
    image is checked to be the closure of its generators' maps,
    `semilocal.rlm_quotient`).  A graph that `generate` or `from_elements`
    reads off any other callable gets Light's test on the callable's own
    products up to `_ASSOC_CHECK_LIMIT` elements (`_light_checked`).  A GM
    image, read off its parent's graph through a congruence, is proved
    associative and marked so when built (`semilocal.GmQuotient.quotient`);
    there `check_associative` is a test oracle.  Any other abstract carrier
    gets `check_associative` on its graph when it is written
    (`fileformats.dump_semigroup`).

    Products that come as whole rows are taken in bulk.
    `right_translations(points)` gives p*s for every point p and every
    element s, and `left_translations(points)` gives s*p.  Each row is built
    from the row of s's word less its last letter g, gathered in C by one
    `row_getter` call: p*(t*g) = (p*t)*g, and (t*g)*p = t*(g*p) when the
    points are closed under left multiplication by the generators.  Both
    identities are associativity, the same assumption that tracing makes.
    `right_translation(points, s)` is one such row on its own, walked along
    s's word one whole-column gather per letter, and `left_translation(q,
    points)` its mirror, q*p for every point p.  `mul_index` is the way to
    get a single scattered product.
    """

    def __init__(
        self,
        elements: list[Any],
        gen_indices: list[int],
        gen_names: list[str],
        right_cayley: list[list[int]],
    ):
        """`right_cayley[i][k]` is the index of elements[i] * generator k."""
        self.elements = elements
        self.index = {v: i for i, v in enumerate(elements)}
        if len(self.index) != len(elements):
            raise InputError("duplicate elements in semigroup carrier")
        self.gens = list(gen_indices)
        self.gen_names = gen_names
        self.right_cayley = right_cayley
        self._word_tree()
        self.right_columns = list(zip(*right_cayley))
        self.left_cayley = self.right_translations(self.gens)  # g*i for each g
        self.left_columns = list(zip(*self.left_cayley))
        self._green: Optional[GreenStructure] = None
        self._classification = None  # filled by semilocal.classify
        self._associative = False  # set once the traced product is checked or proved

    def _word_tree(self) -> None:
        """A word per element, breadth first along the right Cayley graph.

        The tree is also kept as int lists: `_order` lists the elements
        prefix before child, `_parent[i]` is i's word less its last letter
        (-1 for a generator) and `_letter[i]` is that last letter."""
        right, gens = self.right_cayley, self.gens
        n = len(right)
        words: list[tuple[int, ...]] = [()] * n
        parent = [-1] * n
        letter = [-1] * n
        order = []
        for k, gi in enumerate(gens):
            if not words[gi]:
                words[gi] = (k,)
                letter[gi] = k
                order.append(gi)
        for i in order:  # grows while iterating: breadth first
            for k, j in enumerate(right[i]):
                if not words[j]:
                    words[j] = words[i] + (k,)
                    parent[j] = i
                    letter[j] = k
                    order.append(j)
        if len(order) != n:
            raise InputError("given generators do not generate the carrier")
        self._words, self._order, self._parent, self._letter = words, order, parent, letter

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
        edges = []
        for u in values:  # grows while iterating: breadth first
            step = stepper(u)
            row = []
            for g in operands:
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
                row.append(b)
            edges.append(row)
        if mul is compose:
            values = [PartialTransformation(v) for v in values]
        order = sorted(range(len(values)), key=lambda b: sort_key(values[b]))
        rank = {b: i for i, b in enumerate(order)}
        right = [[rank[c] for c in edges[b]] for b in order]
        gens = [rank[found[g]] for g in gen_values]
        out = cls([values[b] for b in order], gens, [n for n, _ in named_gens], right)
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
        right = [[index.get(mul(u, g)) for g in elements] for u in elements]
        if any(None in row for row in right):
            raise InputError("carrier is not closed under multiplication")
        n = len(elements)
        out = cls(elements, list(range(n)), [f"e{i}" for i in range(n)], right)
        return out._light_checked(mul, right)  # every element is a generator

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
        for s, (row, edges) in enumerate(zip(rows, self.right_cayley)):
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
        """i*j, tracing j's word through the right Cayley graph from i."""
        right = self.right_cayley
        for k in self._words[j]:
            i = right[i][k]
        return i

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
        rows: list[tuple[int, ...]] = [None] * len(self.right_cayley)
        parent, letter = self._parent, self._letter
        for s in self._order:
            prev = points if parent[s] < 0 else rows[parent[s]]
            rows[s] = row_getter(prev)(columns[letter[s]])
        return rows

    def right_translation(self, points: Sequence[int], s: int) -> tuple[int, ...]:
        """The row (p*s for p in points) of `right_translations` on its own:
        p*(g1*...*gk) = (...(p*g1)...)*gk, one step per letter of s's word,
        left to right.  A step gathers the letter's column of the right
        Cayley graph at the current points, in C.  Like tracing, this rests
        on associativity."""
        row = tuple(points)
        columns = self.right_columns
        for k in self._words[s]:
            row = row_getter(row)(columns[k])
        return row

    def left_translation(self, q: int, points: Sequence[int]) -> tuple[int, ...]:
        """The row (q*p for p in points), the mirror of `right_translation`:
        (g1*...*gk)*p = g1*(...(gk*p)...), one step per letter of q's word,
        right to left, each a gather of the letter's column of the left
        Cayley graph at the current points.  Like tracing, this rests on
        associativity."""
        row = tuple(points)
        columns = self.left_columns
        for k in reversed(self._words[q]):
            row = row_getter(row)(columns[k])
        return row

    def left_translations(self, points: Sequence[int]) -> list[tuple[int, ...]]:
        """For every element s, the row (s*p for p in points); `points` must
        be closed under left multiplication by the generators.

        Rows are built along the word tree: s = t*g gives s*p = t*(g*p),
        and g*p is again a point, so s's row is t's row read at the
        positions of the points g*p.  Each generator's shift is one
        `row_getter`, built once (exact for zero and one point too).  Like
        tracing, this rests on associativity."""
        points = tuple(points)
        left = self.left_cayley
        at = {p: i for i, p in enumerate(points)}
        g_rows = [tuple(left[p][k] for p in points) for k in range(len(self.gens))]
        try:
            shifts = [row_getter([at[q] for q in row]) for row in g_rows]
        except KeyError:
            raise InputError(
                "point set is not closed under left multiplication by the generators"
            ) from None
        rows: list[tuple[int, ...]] = [None] * len(left)
        parent, letter = self._parent, self._letter
        for s in self._order:
            t, k = parent[s], letter[s]
            rows[s] = g_rows[k] if t < 0 else shifts[k](rows[t])
        return rows

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

    def words(self) -> list[tuple[int, ...]]:
        """A reduced word over generator indices for every element (BFS-first)."""
        return self._words

    def identity_index(self) -> Optional[int]:
        """e with e*g = g*e = g for every generator g, which makes e an
        identity since the generators generate."""
        for i in range(len(self.elements)):
            if self.right_cayley[i] == self.gens == list(self.left_cayley[i]):
                return i
        return None

    def zero_index(self) -> Optional[int]:
        """z with z*g = g*z = z for every generator g (a zero, as above)."""
        for i in range(len(self.elements)):
            if set(self.right_cayley[i]) | set(self.left_cayley[i]) == {i}:
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


def _sccs(rows: Sequence[Sequence[int]]) -> list[int]:
    """Strongly connected components of the graph i -> rows[i], by Tarjan's
    algorithm run iteratively: `path` holds the depth-first path and
    `edge` the position of each path vertex's next edge in its row.  A
    visited vertex is on Tarjan's stack exactly while it has no class id.
    Returns a class id per vertex (ids are arbitrary)."""
    n = len(rows)
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
            row, k = rows[v], edge[-1]
            while k < len(row):
                w = row[k]
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
    """Renumber class ids so classes are ordered by least member."""
    members: dict[int, list[int]] = {}
    for i, c in enumerate(raw_ids):
        members.setdefault(c, []).append(i)
    order = sorted(members, key=lambda c: members[c][0])
    remap = {c: k for k, c in enumerate(order)}
    return [remap[c] for c in raw_ids], [members[c] for c in order]


@dataclass
class GreenStructure:
    """Green class data of a finite semigroup.

    Class ids are canonical (ordered by least element index).  The J- and
    L-orders on classes are kept as the one-step successor sets of the
    Cayley graph condensations: j_succ[c] holds the classes reached from
    class c by one edge (c itself included when an edge stays inside it).
    Their reflexive-transitive closure is the order, which is exactly the
    S^1-definition of the relations.
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
    l_succ: list[set[int]]  # one edge of the left Cayley graph
    regular: list[bool]
    idempotents: list[int]


def green(sgp: FiniteSemigroup) -> GreenStructure:
    """Compute R, L, J, H partitions plus regularity and idempotents.

    R and L are the strongly connected components of the right and left
    Cayley graphs.  J is not searched for: in a finite semigroup J = D,
    and D = R v L, the join of the two partitions (Rhodes & Steinberg,
    *The q-theory of Finite Semigroups*, 2009, App. A).  So the J-classes
    are the R-classes joined, by union-find, whenever two of them meet
    one L-class.  The class orders are read off whole columns of the
    Cayley graphs: each generator's column, mapped to class ids, gives
    the one-step edges between classes."""
    right = sgp.right_cayley
    left = sgp.left_cayley

    r_of, r_classes = _canonical_classes(_sccs(right))
    l_of, l_classes = _canonical_classes(_sccs(left))

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

    # class-level orders: one-step successors in the condensations, whose
    # reflexive-transitive closure is the order
    def _successors(class_of: list[int], count: int, columns) -> list[set[int]]:
        edges = set()
        for column in columns:
            edges.update(zip(class_of, row_getter(column)(class_of)))
        succ: list[set[int]] = [set() for _ in range(count)]
        for c, d in edges:
            succ[c].add(d)
        return succ

    idempotents = sgp.idempotent_indices()
    regular = [False] * len(j_classes)
    for e in idempotents:
        regular[j_of[e]] = True

    return GreenStructure(
        r_of, l_of, j_of, h_of,
        r_classes, l_classes, j_classes, h_classes,
        _successors(j_of, len(j_classes), sgp.right_columns + sgp.left_columns),
        _successors(l_of, len(l_classes), sgp.left_columns),
        regular, idempotents,
    )


def check_stability(sgp: FiniteSemigroup) -> None:
    """xy J x <=> xy R x and xy J y <=> xy L y, over all pairs."""
    gs = sgp.green()
    n = len(sgp.elements)
    for i in range(n):
        for j in range(n):
            p = sgp.mul_index(i, j)
            if (gs.j_of[p] == gs.j_of[i]) != (gs.r_of[p] == gs.r_of[i]):
                raise VerificationError(f"stability (R side) fails at pair ({i},{j})")
            if (gs.j_of[p] == gs.j_of[j]) != (gs.l_of[p] == gs.l_of[j]):
                raise VerificationError(f"stability (L side) fails at pair ({i},{j})")


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
    """A finite group given by an element list and a multiplication table."""

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
        n = len(self.elements)
        for e in range(n):
            if all(self.table[e][j] == j and self.table[j][e] == j for j in range(n)):
                return e
        raise InputError("no identity element: not a group table")

    def _find_inverses(self) -> list[int]:
        n = len(self.elements)
        inv = [-1] * n
        e = self.identity
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == e and self.table[j][i] == e:
                    inv[i] = j
                    break
            if inv[i] < 0:
                raise InputError(f"element {i} has no inverse: not a group table")
        return inv

    def verify(self) -> None:
        """Full table-wise group axioms: rows and columns are permutations,
        and Light's test passes over `greedy_generators`."""
        n = len(self.elements)
        table = self.table
        for i in range(n):
            if sorted(table[i]) != list(range(n)):
                raise VerificationError("table row is not a permutation")
            if sorted(row[i] for row in table) != list(range(n)):
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
    """The same semigroup re-presented over the given generating subset."""
    named = [(f"g{k}", sgp.elements[i]) for k, i in enumerate(gen_indices)]
    out = FiniteSemigroup.generate(named, mul=sgp.mul, sort_key=lambda v: sgp.index[v])
    if len(out) != len(sgp):
        raise InputError("given indices do not generate the semigroup")
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
    pos = {i: k for k, i in enumerate(members)}
    # column j holds i*j for every member i
    columns = [sgp.right_translation(members, j) for j in members]
    try:
        table = [[pos[p] for p in row] for row in zip(*columns)]
    except KeyError:
        raise VerificationError("H-class of idempotent not closed") from None
    g = FiniteGroup(values, table)
    g.verify()
    return g
