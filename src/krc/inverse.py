"""Partial monomial matrices over a group, Brandt semigroups, small
monoids, and the unit-extension lift T(S).

A GM inverse semigroup lives inside the monoid of n x n partial monomial
matrices over G (at most one nonzero entry per row and per column) and
contains every matrix with at most one nonzero entry overall, i.e. the
Brandt part.  The small monoid of rank r keeps just the monomial group
of units and the rank-r matrices, with rank-dropping products collapsing
to an adjoined zero.  Only the lift census builds the unit-extension lift
T(S), once, off int tables (`lift_TS`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import getitem
from typing import Any, Optional

from .core import ZERO, FiniteGroup, FiniteSemigroup, PartialTransformation, row_getter
from .errors import InputError, VerificationError
from .semilocal import JClassRef, rees_coordinates


@dataclass(frozen=True)
class PartialMonomialMatrix:
    """Rows hold either None or (column, group index); columns never repeat."""

    n: int
    rows: tuple[Optional[tuple[int, int]], ...]

    def __post_init__(self):
        if len(self.rows) != self.n:
            raise InputError("row count does not match size")
        cols = [c for entry in self.rows if entry for c in [entry[0]]]
        if len(set(cols)) != len(cols):
            raise InputError("a column has two nonzero entries")
        if any(not 1 <= c <= self.n for c in cols):
            raise InputError("column index out of range")

    @property
    def rank(self) -> int:
        return sum(1 for e in self.rows if e is not None)

    def dom(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, e in enumerate(self.rows) if e is not None)

    def ran(self) -> tuple[int, ...]:
        return tuple(sorted(e[0] for e in self.rows if e is not None))

    def is_unit(self) -> bool:
        return self.rank == self.n

    def sort_key(self):
        return tuple(e if e else (self.n + 1, -1) for e in self.rows)

    @classmethod
    def identity(cls, n: int) -> "PartialMonomialMatrix":
        return cls(n, tuple((i + 1, 0) for i in range(n)))

    @classmethod
    def zero(cls, n: int) -> "PartialMonomialMatrix":
        return cls(n, (None,) * n)

    @classmethod
    def from_triple(cls, n: int, i: int, g: int, j: int) -> "PartialMonomialMatrix":
        rows: list = [None] * n
        rows[i - 1] = (j, g)
        return cls(n, tuple(rows))

    def to_triple(self) -> Optional[tuple[int, int, int]]:
        if self.rank != 1:
            raise InputError("only rank-1 matrices encode Brandt triples")
        for i, e in enumerate(self.rows):
            if e is not None:
                return (i + 1, e[1], e[0])
        return None

    def transpose_inverse(self, group: FiniteGroup) -> "PartialMonomialMatrix":
        rows: list = [None] * self.n
        for i, e in enumerate(self.rows):
            if e is not None:
                rows[e[0] - 1] = (i + 1, group.inv(e[1]))
        return PartialMonomialMatrix(self.n, tuple(rows))


def monomial_mul(
    m: PartialMonomialMatrix, k: PartialMonomialMatrix, group: FiniteGroup
) -> PartialMonomialMatrix:
    """Row-vector-style matrix product with G u {0} arithmetic."""
    if m.n != k.n:
        raise InputError("size mismatch")
    rows: list = []
    for e in m.rows:
        if e is None:
            rows.append(None)
        else:
            j, g = e
            e2 = k.rows[j - 1]
            rows.append(None if e2 is None else (e2[0], group.mul(g, e2[1])))
    return PartialMonomialMatrix(m.n, tuple(rows))


def rlm_matrix(m: PartialMonomialMatrix) -> PartialMonomialMatrix:
    """Flatten every nonzero entry to the identity of the trivial group."""
    return PartialMonomialMatrix(
        m.n, tuple(None if e is None else (e[0], 0) for e in m.rows)
    )


def monomial_units(n: int, group: FiniteGroup) -> list[PartialMonomialMatrix]:
    """All full monomial n x n matrices over G, in sort-key order: the
    elements of `monomial_group`, listed without its table."""
    elements = [
        PartialMonomialMatrix(n, tuple(zip(perm, labels)))
        for perm in itertools.permutations(range(1, n + 1))
        for labels in itertools.product(range(len(group)), repeat=n)
    ]
    elements.sort(key=PartialMonomialMatrix.sort_key)
    return elements


def monomial_group(n: int, group: FiniteGroup) -> FiniteGroup:
    """G wr Sym_n in matrix form: all full monomial n x n matrices over G."""
    elements = monomial_units(n, group)
    index = {m: i for i, m in enumerate(elements)}
    table = [
        [index[monomial_mul(a, b, group)] for b in elements] for a in elements
    ]
    return FiniteGroup(elements, table)


def small_monoid(n: int, group: FiniteGroup, r: int) -> FiniteSemigroup:
    """Units G wr Sym_n plus the rank-r matrices, rank drops collapsing to 0.

    Generated from named generators (transpositions, a diagonal generator
    per group generator, and the rank-r diagonal idempotent) so that the
    alphabet stays small for flow search.
    """
    if not 1 <= r < n:
        raise InputError("rank must satisfy 1 <= r < n")

    def mul(a: PartialMonomialMatrix, b: PartialMonomialMatrix) -> PartialMonomialMatrix:
        p = monomial_mul(a, b, group)
        if p.rank < r and not p.is_unit():
            return PartialMonomialMatrix.zero(n)
        return p

    named: list[tuple[str, PartialMonomialMatrix]] = []
    ident = PartialMonomialMatrix.identity(n)
    named.append(("i", ident))
    for k in range(1, n):
        perm = list(range(1, n + 1))
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
        named.append(
            (f"s{k}", PartialMonomialMatrix(n, tuple((p, 0) for p in perm)))
        )
    for m, gi in enumerate(group.greedy_generators()):
        rows = [(1, gi)] + [(i + 1, 0) for i in range(1, n)]
        named.append((f"d{m + 1}", PartialMonomialMatrix(n, tuple(rows))))
    e_rows: list = [(i + 1, 0) if i < r else None for i in range(n)]
    named.append(("e", PartialMonomialMatrix(n, tuple(e_rows))))

    sgp = FiniteSemigroup.generate(
        named, mul=mul, sort_key=PartialMonomialMatrix.sort_key
    )
    units = sum(1 for m in sgp.elements if m.is_unit())
    rank_r = sum(1 for m in sgp.elements if m.rank == r and not m.is_unit())
    want_units = len(group) ** n * math.factorial(n)
    want_rank = math.comb(n, r) ** 2 * math.factorial(r) * len(group) ** r
    if units != want_units or rank_r != want_rank or len(sgp) != units + rank_r + 1:
        raise VerificationError(
            f"small monoid census mismatch: {units} units, {rank_r} rank-{r}, "
            f"order {len(sgp)}"
        )
    return sgp


def brandt_semigroup(n: int, group: FiniteGroup) -> FiniteSemigroup:
    """B_n(G): triples (i, g, j) with (i,g,j)(k,h,l) = (i, gh, l) iff j = k."""
    values: list[Any] = [ZERO]
    for i in range(1, n + 1):
        for g in range(len(group)):
            for j in range(1, n + 1):
                values.append((i, g, j))

    def mul(u, v):
        if u == ZERO or v == ZERO or u[2] != v[0]:
            return ZERO
        return (u[0], group.mul(u[1], v[1]), v[2])

    def key(v):
        return (0,) if v == ZERO else (1, v[0], v[2], v[1])

    return FiniteSemigroup.from_elements(values, mul, sort_key=key)


def matrix_semigroup_as_transformations(sgp: FiniteSemigroup, group: FiniteGroup) -> FiniteSemigroup:
    """The faithful action of a matrix semigroup on row vectors (g, i).

    Point (g, i) gets index (i-1)|G| + g + 1; useful for writing matrix
    corpora in the semigroup text format.
    """
    size = None
    for m in sgp.elements:
        if not isinstance(m, PartialMonomialMatrix):
            raise InputError("not a matrix semigroup")
        size = m.n
    npoints = size * len(group)

    def as_map(m: PartialMonomialMatrix) -> PartialTransformation:
        images = []
        for i in range(1, size + 1):
            for g in range(len(group)):
                e = m.rows[i - 1]
                if e is None:
                    images.append(0)
                else:
                    j, h = e
                    images.append((j - 1) * len(group) + group.mul(g, h) + 1)
        return PartialTransformation(tuple(images))

    named = [
        (name, as_map(sgp.elements[gi]))
        for name, gi in zip(sgp.gen_names, sgp.gens)
    ]
    out = FiniteSemigroup.generate(named)
    if len(out) != len(sgp):
        raise VerificationError("vector representation is not faithful")
    return out


# -- GM inverse semigroups and the lift ----------------------------------


def validate_gm_inverse(sgp: FiniteSemigroup, group: FiniteGroup) -> int:
    """Check S is an inverse matrix semigroup containing the Brandt part;
    returns the matrix size."""
    size = None
    for m in sgp.elements:
        if not isinstance(m, PartialMonomialMatrix):
            raise InputError("carrier is not made of partial monomial matrices")
        size = m.n
        mi = m.transpose_inverse(group)
        if mi not in sgp.index:
            raise InputError("carrier is not closed under inversion")
        if sgp.mul(sgp.mul(m, mi), m) != m:
            raise InputError("transpose-inverse is not an inverse")
    idems = [sgp.elements[i] for i in sgp.idempotent_indices()]
    for a in idems:
        for b in idems:
            if sgp.mul(a, b) != sgp.mul(b, a):
                raise InputError("idempotents do not commute")
    for i in range(1, size + 1):
        for g in range(len(group)):
            for j in range(1, size + 1):
                if PartialMonomialMatrix.from_triple(size, i, g, j) not in sgp.index:
                    raise InputError("Brandt part not contained in the carrier")
    if PartialMonomialMatrix.zero(size) not in sgp.index:
        raise InputError("zero matrix missing from the carrier")
    return size


def _extensions(m: PartialMonomialMatrix, units: list[PartialMonomialMatrix]) -> list[int]:
    """The indices of the units that agree with m on dom(m), in the units' order."""
    at_dom = row_getter([i - 1 for i in m.dom()])
    want = at_dom(m.rows)
    return [k for k, tau in enumerate(units) if at_dom(tau.rows) == want]


def lift_TS(sgp: FiniteSemigroup, group: FiniteGroup) -> FiniteSemigroup:
    """T(S) = {(s, tau) : tau a unit with tau|dom(s) = s}, as a subdirect
    product of S and the monomial group, in order of (s, tau)'s sort keys,
    every element a generator e{k}.  The product is componentwise, so it is
    associative (the carrier is marked so) and closed where S multiplies as
    matrices: for i in dom(s*s'), s's row i is (j, g) with j in dom(s'),
    shared by tau, and tau' shares s''s row j, so tau*tau' extends s*s'; all
    units extend a product collapsed to zero.  The right Cayley graph's
    column (s2, u2) is read off S's row s2 and the unit table's column u2."""
    units = monomial_group(validate_gm_inverse(sgp, group), group)
    pairs = [  # (S index, unit index) per element of T(S)
        (s, u) for s in sorted(sgp.codes, key=lambda s: sgp.elements[s].sort_key())
        for u in _extensions(sgp.elements[s], units.elements)
    ]
    s_of, u_of = zip(*pairs)
    at = [[-1] * len(units) for _ in sgp.elements]  # at[s][u]: (s, u)'s position
    for k, (s, u) in enumerate(pairs):
        at[s][u] = k
    s_rows = sgp.right_translations(s_of)
    u_cols = [row_getter(u_of)(col) for col in zip(*units.table)]
    columns = tuple(  # (s*s2, u*u2)'s position for every (s, u), per generator (s2, u2)
        tuple(map(getitem, map(at.__getitem__, s_rows[s2]), u_cols[u2])) for s2, u2 in pairs
    )
    if any(-1 in col for col in columns):
        raise InputError("carrier is not closed under multiplication")
    if set(s_of) != set(sgp.codes):
        raise VerificationError("lift does not project onto S")
    if set(u_of) != set(range(len(units))):
        raise VerificationError("lift does not project onto the monomial group")
    codes = range(len(pairs))
    elements = [(sgp.elements[s], units.elements[u]) for s, u in pairs]
    ts = FiniteSemigroup(elements, list(codes), [f"e{k}" for k in codes], columns)
    ts._associative = True
    return ts


@dataclass
class LiftCensus:
    """The three J-classes of T(S) with their constructed identifications."""

    ts: FiniteSemigroup
    j0_members: list[Any]  # minimal ideal, iso to the monomial group
    j1_members: list[Any]  # lift of the Brandt part
    j2_members: list[Any]  # group of units
    h_group: FiniteGroup  # maximal subgroup of J1
    rees_j1: Any


def analyze_lift(sgp: FiniteSemigroup, group: FiniteGroup) -> LiftCensus:
    """Green census of T(S) for the rank-1 small monoid, with every claimed
    isomorphism constructed and machine-checked, save J0's copy of the
    monomial group, which is the definition of T(S)'s product.  `lift_TS`
    validates S and checks that T(S) projects onto the monomial group."""
    ts = lift_TS(sgp, group)
    size = sgp.elements[0].n
    n_units = len({tau for _, tau in ts.elements})
    gs = ts.green()
    if len(gs.j_classes) != 3:
        raise VerificationError(f"lift has {len(gs.j_classes)} J-classes, expected 3")
    zero_m = PartialMonomialMatrix.zero(size)

    by_role: dict[str, list[Any]] = {}
    for jid, members in enumerate(gs.j_classes):
        vals = [ts.elements[i] for i in members]
        if all(p[0] == zero_m for p in vals):
            by_role["j0"] = vals
        elif all(p[0].is_unit() for p in vals):
            by_role["j2"] = vals
        else:
            by_role["j1"] = vals
    if set(by_role) != {"j0", "j1", "j2"}:
        raise VerificationError("lift J-classes do not split as expected")

    # J0 = {(0, tau)} is the minimal ideal and a copy of the monomial group
    # by p -> p[1]: one-to-one and onto by size, and a morphism, since
    # T(S)'s product is componentwise (`lift_TS`)
    j0 = by_role["j0"]
    if len(j0) != n_units:
        raise VerificationError("minimal ideal size mismatch")
    j0_id = gs.j_of[ts.index[j0[0]]]
    if not gs.j_succ[j0_id] <= {j0_id}:
        raise VerificationError("J0 is not the minimal ideal")

    # J2 = units of T(S), again a copy of the monomial group
    j2 = by_role["j2"]
    if len(j2) != n_units or any(p[0] != p[1] for p in j2):
        raise VerificationError("unit class is not the diagonal copy")

    # J1 lifts the Brandt part; its maximal subgroup is G x (G wr Sym_{n-1})
    j1 = by_role["j1"]
    j1_id = gs.j_of[ts.index[j1[0]]]
    rc = rees_coordinates(ts, JClassRef(ts, j1_id))
    h_group = rc.group
    inner = monomial_group(size - 1, group) if size > 1 else FiniteGroup.trivial()
    want = len(group) * len(inner)
    if len(h_group) != want:
        raise VerificationError(
            f"maximal subgroup of J1 has order {len(h_group)}, expected {want}"
        )
    _verify_h_splitting(ts, h_group, group, inner, size)
    _verify_brandt_shape(ts, rc, size, group)

    # the projection T(S) -> S sends all of J0 to the zero matrix
    if {p[0] for p in j0} != {zero_m}:
        raise VerificationError("projection does not kill J0")
    return LiftCensus(ts, j0, j1, j2, h_group, rc)


def _verify_h_splitting(ts, h_group, group, inner, size):
    """The J1 subgroup splits as G x (monomial group one size down)."""
    iso = {}
    for v in h_group.elements:
        m, tau = v
        trip = m.to_triple()
        if trip is None or trip[0] != trip[2]:
            raise VerificationError("J1 group member is not anchored at a diagonal cell")
        i0 = trip[0]
        g = trip[1]
        other_rows = []
        keep = [r for r in range(1, size + 1) if r != i0]
        cols = {c: k + 1 for k, c in enumerate(keep)}
        for r in keep:
            c, h = tau.rows[r - 1]
            other_rows.append((cols[c], h))
        minor = (
            PartialMonomialMatrix(size - 1, tuple(other_rows))
            if size > 1
            else PartialMonomialMatrix.identity(1)
        )
        if size > 1 and minor not in inner.index:
            raise VerificationError("unit minor not in the smaller monomial group")
        iso[v] = (g, minor)
    if len(set(iso.values())) != len(h_group):
        raise VerificationError("J1 subgroup splitting is not injective")
    for a in h_group.elements:
        for b in h_group.elements:
            ia, ib = iso[a], iso[b]
            prod = h_group.elements[h_group.mul(h_group.index[a], h_group.index[b])]
            want = (
                group.mul(ia[0], ib[0]),
                inner.elements[inner.mul(inner.index[ia[1]], inner.index[ib[1]])]
                if size > 1
                else ia[1],
            )
            if iso[prod] != want:
                raise VerificationError("J1 subgroup splitting is not a morphism")


def _verify_brandt_shape(ts, rc, size, group):
    """The structure matrix of J1 is diagonalizable: exactly one nonzero
    entry per row and per column, so J1 with 0 is a Brandt semigroup."""
    for row in rc.matrix:
        if sum(1 for v in row if v >= 0) != 1:
            raise VerificationError("J1 structure matrix row is not monomial")
    for a in range(len(rc.a_classes)):
        if sum(1 for row in rc.matrix if row[a] >= 0) != 1:
            raise VerificationError("J1 structure matrix column is not monomial")
    if len(rc.a_classes) != size or len(rc.b_classes) != size:
        raise VerificationError("J1 does not have n R-classes and n L-classes")


@dataclass
class InverseDecomposition:
    """S < (monomial group) x RLM(S), realized twice.  Directly: each
    generator lifts to its first unit extension, coded by the partial map
    (g, i) -> (g*label_i, perm(i)) of G x [n] that it induces
    (`products.induced_row`, as in the flow's G wr Sym_b factor), with its
    RLM image.
    Through the one-state flow: its lifts are translated back to monomial
    matrices and checked to extend the generators.  The two closures reach
    the same S indices."""

    source: FiniteSemigroup
    direct_witness: Any
    flow_witness: Any
    column_of_b: list[int]


def inverse_decomposition(sgp: FiniteSemigroup, group: FiniteGroup) -> InverseDecomposition:
    from .flows import presentation_construct, trivial_flow, verify_flow
    from .products import PairSemigroup, PartialMaps, check_division, induced_row
    from .semilocal import group_mapping_presentation

    size = validate_gm_inverse(sgp, group)
    units = monomial_units(size, group)
    pres = group_mapping_presentation(sgp)

    # match L-classes of the distinguished class with matrix columns
    gs = sgp.green()
    column_of_b = []
    for b in pres.rees.b_classes:
        rep = sgp.elements[min(gs.l_classes[b])]
        cols = rep.ran()
        if len(cols) != 1:
            raise VerificationError("distinguished L-class is not column-shaped")
        column_of_b.append(cols[0])
    if sorted(column_of_b) != list(range(1, size + 1)):
        raise VerificationError("L-classes do not match the columns")

    # checking the given lifts only multiplies, so the units act as
    # partial maps and no unit table is built
    lifts = {}
    for name, gi in zip(sgp.gen_names, sgp.gens):
        tau = units[_extensions(sgp.elements[gi], units)[0]]
        row = induced_row(group, [h for _, h in tau.rows], [j - 1 for j, _ in tau.rows])
        lifts[name] = (row, pres.rlmq.rlm.elements[pres.rlmq.code[gi]])
    target = PairSemigroup(PartialMaps(len(group) * size), pres.rlmq.rlm)
    direct = check_division(sgp, target, lifts=lifts)

    # the same decomposition through the one-state flow
    flow = trivial_flow(pres)
    if verify_flow(flow) is not True:
        raise VerificationError("the one-state flow failed to verify")
    witness = presentation_construct(flow)
    for name, gi in zip(sgp.gen_names, sgp.gens):
        x = sgp.elements[gi]
        # the one state's block permutation and group labels
        perm, labels = witness.perms[name][0], witness.gbar[name][0]
        rows: list = [None] * size
        for j in range(witness.b_bar):
            rows[column_of_b[j] - 1] = (column_of_b[perm[j]], labels[j])
        tau = PartialMonomialMatrix(size, tuple(rows))
        if not tau.is_unit():
            raise VerificationError("flow lift does not translate to a unit")
        if any(tau.rows[i - 1] != x.rows[i - 1] for i in x.dom()):
            raise VerificationError("flow lift does not extend the generator")

    if set(direct.closure.values()) != set(witness.division.closure.values()):
        raise VerificationError("the two decomposition witnesses differ on their images")
    return InverseDecomposition(sgp, direct, witness.division, column_of_b)


def brandt_isomorphism(sgp: FiniteSemigroup, rc) -> dict[Any, Any]:
    """For a J-class whose structure matrix is monomial, the explicit
    isomorphism of J u {0} onto B_|A|(G): renormalize the label along the
    matching and relabel the column index by it; verified multiplicative."""
    group = rc.group
    na, nb = len(rc.a_classes), len(rc.b_classes)
    if na != nb:
        raise InputError("not a square class")
    match = []
    for b in range(nb):
        hits = [a for a in range(na) if rc.matrix[b][a] >= 0]
        if len(hits) != 1:
            raise InputError("structure matrix is not monomial")
        match.append(hits[0])

    def normalize(coords):
        a, g, b = coords
        return (a + 1, group.mul(g, rc.matrix[b][match[b]]), match[b] + 1)

    iso = {sgp.elements[u]: normalize(c) for u, c in rc.coord.items()}
    # verify against the Brandt rule, the products u*v read off one row
    # (u*v for u in J) per v, held one at a time
    gs = sgp.green()
    for v, cv in rc.coord.items():
        iv = normalize(cv)
        for cu, p in zip(rc.coord.values(), sgp.right_translation(rc.coord, v)):
            iu = normalize(cu)
            in_j = gs.j_of[p] == rc.jref.j_id
            if iu[2] == iv[0]:
                if not in_j:
                    raise VerificationError("Brandt rule: product vanished unexpectedly")
                want = (iu[0], group.mul(iu[1], iv[1]), iv[2])
                if iso[sgp.elements[p]] != want:
                    raise VerificationError("Brandt rule: wrong product coordinates")
            elif in_j:
                raise VerificationError("Brandt rule: product should have vanished")
    return iso
