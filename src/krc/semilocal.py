"""Local structure at a regular J-class: the RLM and GM quotients,
right/left/group-mapping classification, and Rees coordinates together
with the coordinate action on them.

The coordinatization fixes the least idempotent e of the class, G = the
H-class of e, and least-element representatives p_a in a n L_e and
q_b in R_e n b; every element of the class is then p_a * g * q_b for a
unique g, and the structure matrix entry C(b, a) is the coordinate of
q_b * p_a (or 0 when the product drops out of the class).  Construction
checks that the coordinates are a bijection onto A x G x B, that each
matrix entry that stays in J lies in H_e, and that the matrix is regular;
the transport law follows, proved in `rees_coordinates`.  Likewise a GM
image's partition is checked to be a congruence, and its associativity
follows, proved in `GmQuotient.quotient`.  The whole-table checks,
`ReesCoordinates.verify_transport` and `FiniteSemigroup.check_associative`,
are the tests' oracles.

A regular J-class is read through its sandwich columns
Q_b = (q_b*s for every s) (`FiniteSemigroup.left_translation`) and
P_a = (s*p_a for every s) (`right_translation`), each one word walked
through a Cayley graph's columns.  `classify` tests faithfulness on their
rows (the lemma is in its docstring), the GM profile reads the sandwiches
q_b*s*p_a at Q's columns, as one int id per distinct entry, and the RLM
image each product's L-class.  Each reader builds the columns it reads and
drops them.  At the distinguished class of a carrier already classified
generalized group mapping no profile is read: the carrier is its own GM
image there, by the lemma in `gm_quotient`'s docstring.

S acts on J through one R-class, R the R-class of J's least member (the
a = 0 coordinates), and no table of that action is built.  The
coordinate action reads the generators' columns of the right Cayley
graph, a label `label_of(b, s)` reads the single product u*s, and the
wreath embedding's action on G x B + 0 is S's on R u {0} by the proof in
`fasp_embedding`'s docstring, so only the division witness checks it.
That division closes on the partial maps that the wreath image induces
on G x B, one gather per product (`products.WreathRows`).
The Rees coordinates read p_a*g*q_b and q_b*p_a as single rows.  Only the
oracle `ReesCoordinates.verify_transport` and
`inverse.brandt_isomorphism` read every product in J, one row per member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Optional

from .core import (
    ZERO,
    FiniteGroup,
    FiniteSemigroup,
    PartialTransformation,
    maximal_subgroup,
    row_getter,
)
from .errors import InputError, VerificationError
from .products import DivisionWitness, WreathRows, check_division


@dataclass
class JClassRef:
    """A J-class of a semigroup with its R-class list A and L-class list B.
    It holds no action table: the sandwich columns that classification,
    the GM profile and the RLM image read are built by each reader, and
    the labels read single products (see the module docstring).

    Ids are the canonical Green ids (classes ordered by least element), so
    references are stable across runs.
    """

    sgp: FiniteSemigroup
    j_id: int
    a_classes: list[int] = field(init=False)
    b_classes: list[int] = field(init=False)

    def __post_init__(self):
        gs = self.sgp.green()
        if not 0 <= self.j_id < len(gs.j_classes):
            raise InputError(f"no J-class with id {self.j_id}")
        members = gs.j_classes[self.j_id]
        self.a_classes = sorted({gs.r_of[i] for i in members})
        self.b_classes = sorted({gs.l_of[i] for i in members})

    @property
    def members(self) -> list[int]:
        return self.sgp.green().j_classes[self.j_id]

    @property
    def is_regular(self) -> bool:
        return self.sgp.green().regular[self.j_id]

    def contains_nontrivial_subgroup(self) -> bool:
        gs = self.sgp.green()
        return any(
            gs.j_of[e] == self.j_id and len(gs.h_classes[gs.h_of[e]]) > 1
            for e in gs.idempotents
        )


# -- classification ------------------------------------------------------


@dataclass
class Classification:
    right_mapping: bool
    left_mapping: bool
    generalized_group_mapping: bool
    group_mapping: bool
    distinguished_j: Optional[int]


def _zero_minimal_ideals(sgp: FiniteSemigroup) -> tuple[Optional[int], list[tuple[int, list[int]]]]:
    gs = sgp.green()
    z = sgp.zero_index()
    out = []
    if z is None or len(sgp.elements) == 1:
        # the kernel counts as the 0-minimal ideal (a trivial semigroup is
        # its own zero, but its minimal ideal still counts)
        z = None
        for c, members in enumerate(gs.j_classes):
            if gs.j_succ[c] <= {c}:
                out.append((c, list(members)))
        if len(out) != 1:
            raise VerificationError("finite semigroup without unique kernel")
    else:
        zc = gs.j_of[z]
        for c, members in enumerate(gs.j_classes):
            # the zero lies below every class, so this is J-order {c, zc}
            if c != zc and gs.j_succ[c] <= {c, zc}:
                out.append((c, list(members) + [z]))
    return z, out


def classify(sgp: FiniteSemigroup) -> Classification:
    """Right/left/group-mapping flags via faithfulness on 0-minimal ideals,
    kept on the carrier next to its Green structure.

    Faithfulness is tested on one R-class and one L-class of each ideal.
    Lemma: let J u {0} be a 0-minimal ideal (or J the kernel, and no zero)
    and R an R-class of J; S acts faithfully on the right of J u {0} iff
    it does on R u {0}.  Proof: R u {0} is closed under the action, since
    r*s lies in the ideal and, by stability, in R when it stays in J; so
    one way is clear.  Let s and t agree on R u {0}, and take any u in J.
    As J = D in a finite semigroup, R n L_u holds some r, and u = y*r for
    some y in S^1; so u*s = y*(r*s) = y*(r*t) = u*t.  The left case is
    dual, with one L-class L.  The zero's column is constant (0*s = 0 =
    s*0), so it never changes whether the rows are distinct.

    On a regular ideal the classes are R_e and L_e, e the least idempotent
    of J, read through the representatives p_a of R_a n L_e and q_b of
    R_e n L_b (`_sandwich_reps`).  By Green's lemma, left multiplication
    by p_a (p_a L e) maps H_e onto R_a n L_e, and right multiplication by
    q_b (q_b R e) maps H_e onto R_e n L_b; so L_e is the union of the sets
    p_a*H_e, and R_e that of the sets H_e*q_b.  As s*(p_a*h) = (s*p_a)*h
    and (h*q_b)*s = h*(q_b*s), and the p_a and q_b are themselves in L_e
    and R_e, s and t agree on L_e iff s*p_a = t*p_a for every a, and on
    R_e iff q_b*s = q_b*t for every b.  So the right test asks whether the
    n rows (q_b*s)_b are distinct, read off the columns
    Q_b = (q_b*s for every s), and the left test the same of the rows
    (s*p_a)_a, off the columns P_a = (s*p_a for every s).

    A 0-minimal ideal I = J u {0} with I*I != {0} is 0-simple, so, being
    finite, completely 0-simple, and J is regular.  So on a null ideal
    (J not regular) I*I = {0}: each x in J sends R u {0} and L u {0} to
    0 as the zero does, x's rows equal the zero's, and S is faithful on
    neither side.  Such an ideal is skipped."""
    if sgp._classification is None:
        sgp._classification = _classify(sgp)
    return sgp._classification


def _classify(sgp: FiniteSemigroup) -> Classification:
    """`classify`'s body."""
    gs = sgp.green()
    _, ideals = _zero_minimal_ideals(sgp)
    n = len(sgp.elements)
    right_mapping = left_mapping = False
    for c, _ in ideals:
        if not gs.regular[c]:
            continue  # a null ideal: faithful on neither side
        _, p_reps, q_reps = _sandwich_reps(sgp, JClassRef(sgp, c))
        p_columns = [sgp.right_translation(range(n), p) for p in p_reps]
        right_mapping |= len(set(zip(*_q_columns(sgp, q_reps)))) == n
        left_mapping |= len(set(zip(*p_columns))) == n
    distinguished = None
    if right_mapping or left_mapping:
        if len(ideals) != 1:
            raise VerificationError(
                "right/left mapping semigroup with several 0-minimal ideals"
            )
        distinguished = ideals[0][0]
    ggm = right_mapping and left_mapping
    gm = False
    if ggm:
        gm = JClassRef(sgp, distinguished).contains_nontrivial_subgroup()
    return Classification(right_mapping, left_mapping, ggm, gm, distinguished)


def _q_columns(sgp: FiniteSemigroup, q_reps: list[int]) -> list[tuple[int, ...]]:
    """Q_b = (q_b*s for every s) for each q_b of `_sandwich_reps`, in B's
    order."""
    return [sgp.left_translation(q, range(len(sgp.elements))) for q in q_reps]


# -- RLM quotient ---------------------------------------------------------


@dataclass
class RlmQuotient:
    """The action of S on the L-classes of J by partial maps: `code[s]` is
    the index in `rlm` of element s's map."""

    jref: JClassRef
    rlm: FiniteSemigroup  # transformations on 1..|B|
    code: list[int] = field(repr=False)


def _lclass_columns(sgp: FiniteSemigroup, jref: JClassRef) -> list[tuple[int, ...]]:
    """Per L-class b of J, in B's order, the column (b.s for every s): the
    position from 1 in B of the L-class of q_b*s, or 0 below J.  It is
    every member's of L_b: r*s L r'*s whenever r L r' (L is a right
    congruence), and L-related elements lie in one J-class, so each member
    of L_b moves to the L-class, or out of J, that q_b does.  The column is
    `target` (each product's L-class position, 0 below J) gathered at Q_b
    (`_q_columns`)."""
    gs = sgp.green()
    target = [0] * len(sgp.elements)
    for k, b in enumerate(jref.b_classes, 1):
        for p in gs.l_classes[b]:
            target[p] = k
    _, _, q_reps = _sandwich_reps(sgp, jref)
    return [row_getter(q)(target) for q in _q_columns(sgp, q_reps)]


def rlm_quotient(
    sgp: FiniteSemigroup, jref: JClassRef, build: Callable[..., FiniteSemigroup] = FiniteSemigroup
) -> RlmQuotient:
    """S's image under its action on the L-classes of J, read off S.

    The image carrier is the set of maps action(s), in canonical order, and
    its right Cayley graph takes action(s) along generator g to
    action(s*g), read off S's graph: each image column is S's column
    gathered at one element per map, then at `code`.  Both rest on one
    check, made at every element s and generator g: action(s) composed with
    action(g) is action(s*g).  It runs one column of `_lclass_columns` at a
    time: per g and b, (b.s).g for every s, g's map gathered at the column,
    against b.(s*g) for every s, the column gathered at g's column of the
    right Cayley graph.  It is complete: along the word g1...gk of s it
    gives action(s) = action(g1)...action(gk), so every map of the image
    lies in the closure of the generators' maps, and every product of those
    maps is the action of the matching word, so the image is that closure.
    It also makes the graph well defined: action(s) = action(t) gives
    action(s*g) = action(s)action(g) = action(t*g).

    The image is then classified, and the classification is kept on it: it
    must be right mapping, and its distinguished class must be the image
    of J, an aperiodic J-class.

    `build` makes the image from `FiniteSemigroup`'s arguments.  `estimate`
    passes one that gives back the carrier its memo already holds for that
    structure, so these checks then read that carrier's Green structure and
    classification instead of computing them again."""
    if not jref.is_regular:
        raise InputError("RLM quotient needs a regular J-class")
    columns = _lclass_columns(sgp, jref)
    for g, by_g in zip(sgp.gens, sgp.right_columns):
        step = (0,) + tuple(col[g] for col in columns)  # g's map; 0 stays undefined
        moved = row_getter(by_g)
        for col in columns:
            if row_getter(col)(step) != moved(col):
                raise VerificationError("quotient morphism leaves the generated image")
    maps = list(zip(*columns))  # each element's map's images
    elements = sorted(map(PartialTransformation, set(maps)), key=PartialTransformation.sort_key)
    pos = {m.images: i for i, m in enumerate(elements)}
    code = list(map(pos.__getitem__, maps))
    some = {c: s for s, c in enumerate(code)}  # an element with each image
    at_some = row_getter([some[c] for c in range(len(elements))])
    rlm = build(
        elements,
        [code[g] for g in sgp.gens],
        list(sgp.gen_names),
        tuple(row_getter(at_some(col))(code) for col in sgp.right_columns),
    )
    image_of_j = {code[i] for i in jref.members}
    cls = classify(rlm)

    # the image of J is an aperiodic J-class of the quotient
    rgs = rlm.green()
    img_ids = {rgs.j_of[c] for c in image_of_j}
    if len(img_ids) != 1:
        raise VerificationError("image of J is not a single J-class")
    if JClassRef(rlm, img_ids.pop()).contains_nontrivial_subgroup():
        raise VerificationError("image of J is not aperiodic")
    if not cls.right_mapping:
        raise VerificationError("RLM quotient is not right mapping")
    if set(rgs.j_classes[cls.distinguished_j]) != image_of_j:
        raise VerificationError(
            "distinguished class of the RLM quotient is not the image of J"
        )
    return RlmQuotient(jref, rlm, code)


def _sandwich_reps(sgp: FiniteSemigroup, jref: JClassRef) -> tuple[int, list[int], list[int]]:
    """The least idempotent e of J, and per R-class a (L-class b) of J the
    least element p_a of R_a n L_e (q_b of L_b n R_e)."""
    gs = sgp.green()
    e = min(i for i in gs.idempotents if gs.j_of[i] == jref.j_id)
    le, re = gs.l_of[e], gs.r_of[e]
    p_reps = []
    for a in jref.a_classes:
        inter = [i for i in gs.r_classes[a] if gs.l_of[i] == le]
        if not inter:
            raise VerificationError("empty R-class/L_e intersection in a J-class")
        p_reps.append(min(inter))
    q_reps = []
    for b in jref.b_classes:
        inter = [i for i in gs.l_classes[b] if gs.r_of[i] == re]
        if not inter:
            raise VerificationError("empty R_e/L-class intersection in a J-class")
        q_reps.append(min(inter))
    return e, p_reps, q_reps


# -- GM quotient ------------------------------------------------------------


@dataclass
class GmQuotient:
    """The GM image at J: `class_rep[s]` is the least member of s's class,
    and `quotient` is the image as a carrier on those least members, made
    by `build` from `FiniteSemigroup`'s arguments when first read."""

    sgp: FiniteSemigroup = field(repr=False)
    class_rep: list[int] = field(repr=False)
    generalized_only: bool  # True when J is aperiodic (warning case)
    injective_on_all_subgroups: bool
    build: Callable[..., FiniteSemigroup] = field(default=FiniteSemigroup, repr=False)

    @cached_property
    def order(self) -> int:
        return len(set(self.class_rep))

    @cached_property
    def quotient(self) -> FiniteSemigroup:
        """S/~ on the least class members.  Its right Cayley graph is read
        off the parent's through the congruence, [r]*g = [r*g], so no
        product is traced to build it: each column is the parent's column
        gathered at the least members, then at the class positions.

        It is marked associative without a check (`check_associative` is a
        test oracle here): its traced product is S/~'s, associative
        because S's is (S is a transformation carrier, a GM image by
        induction, or an abstract carrier checked as `FiniteSemigroup`
        says).  Proof, given that ~ is a congruence (`gm_quotient` checks
        it, or has the identity relation): take [x] and [y], and let u be
        the image's word for [y] evaluated in S.  The graph steps
        [z]*g = [z*g] whichever member z is (right compatibility), so the
        word traced from the image's generators reaches [u], and u ~ y;
        traced from [x], it reaches [x*u], and x*u ~ x*y (left
        compatibility), so it is [x*y].  The proof reads the graph alone, so it holds for
        whatever `build` gives back for it: a new carrier, or the one with
        this graph that `estimate`'s memo holds."""
        sgp, class_rep = self.sgp, self.class_rep
        reps = sorted(set(class_rep))
        pos = {r: i for i, r in enumerate(reps)}
        at_reps, position = row_getter(reps), [pos[r] for r in class_rep]
        image = self.build(
            reps,
            [pos[class_rep[g]] for g in sgp.gens],
            list(sgp.gen_names),
            tuple(row_getter(at_reps(col))(position) for col in sgp.right_columns),
        )
        image._associative = True
        return image


def _profile_classes(sgp: FiniteSemigroup, jref: JClassRef) -> list[int]:
    """Each element's least class member under s = t iff xsy and xty agree
    through J for all x, y in J.

    The key of s is its sandwiches q_b*s*p_a only.  That loses nothing:
    x = p_a*g*q_b and y = p_a'*g'*q_b' give xsy = p_a*g*(q_b*s*p_a')*g'*q_b',
    and the sandwich either lies in H_e, fixing xsy, or drops out of J with
    it.  When q_b*s falls below J, so does each (q_b*s)*p_a; otherwise
    q_b*s is a member x of J, whose entries x*p_a (-1 below J) are
    gathered as |A| whole columns over J.  Each distinct entry gets an int
    id from one dict over J (0 for the all -1 entry, which every element
    below J has), so a key is the |B| ids gathered at the columns Q_b
    (`_q_columns`), and each class's least member is read off one dict
    built from the keys in reverse."""
    _, p_reps, q_reps = _sandwich_reps(sgp, jref)
    members = jref.members
    in_j = [-1] * len(sgp.elements)
    for x in members:
        in_j[x] = x
    columns = [row_getter(sgp.right_translation(members, pa))(in_j) for pa in p_reps]
    ids = {(-1,) * len(p_reps): 0}
    entry_id = [0] * len(sgp.elements)
    for x, entry in zip(members, zip(*columns)):
        entry_id[x] = ids.setdefault(entry, len(ids))
    keys = list(zip(*(row_getter(q)(entry_id) for q in _q_columns(sgp, q_reps))))
    least = dict(zip(reversed(keys), reversed(range(len(keys)))))
    return list(map(least.__getitem__, keys))


def gm_quotient(
    sgp: FiniteSemigroup, jref: JClassRef, build: Callable[..., FiniteSemigroup] = FiniteSemigroup
) -> GmQuotient:
    """Quotient by s = t  iff  xsy and xty agree through J for all x,y in J
    (`_profile_classes`), checked to be a congruence.  A discrete partition
    is not checked: the identity relation is always a congruence.

    The profile is not computed where S's kept classification (the one
    `classify` left on the carrier, if any; none is computed here) says S
    is generalized group mapping with J as its distinguished class: there
    the partition is discrete.  Lemma: let I = J u {0} be the
    distinguished 0-minimal ideal (I = J, the kernel, when S has no zero),
    and s != t.  S acts faithfully on the right of I, so some u in I has
    u*s != u*t, and u != 0 as 0*s = 0 = 0*t.  S acts faithfully on the
    left of I too, and applied to the two elements u*s != u*t it gives v
    in I with u*s*v != u*t*v, and v != 0 likewise.  Both products lie in
    the ideal I, so they are not both 0: they differ through J, with u and
    v in J, and s and t have different profiles.  This is the fact that a
    generalized group mapping semigroup is its own GM image (Rhodes &
    Steinberg, *The q-theory of Finite Semigroups*, 2009, ch. 4).

    The GM verdict is read off the image's classification, which `classify`
    keeps on the image.  A discrete partition builds no image for it: the
    image is then S on its own indices, with S's right Cayley graph and
    generators, and a classification depends on that pair alone, so S's
    own is the image's.

    Any other image is made by `build` (see `GmQuotient`) from its right
    Cayley graph, read off `class_rep` and S's.  `estimate` passes one that
    gives back the carrier its memo holds for that structure; the verdict
    then reads that carrier's classification.  No image, built or held,
    gets an associativity check: `GmQuotient.quotient` proves it."""
    if not jref.is_regular:
        raise InputError("GM quotient needs a regular J-class")
    gs = sgp.green()
    kept = sgp._classification
    if kept is not None and kept.generalized_group_mapping and kept.distinguished_j == jref.j_id:
        class_rep = list(range(len(sgp.elements)))  # discrete, by the lemma
    else:
        class_rep = _profile_classes(sgp, jref)
    gq = GmQuotient(
        sgp,
        class_rep,
        generalized_only=not jref.contains_nontrivial_subgroup(),
        injective_on_all_subgroups=True,
        build=build,
    )
    discrete = gq.order == len(class_rep)  # class_rep[s] == s for every s
    if not discrete and not _is_congruence(sgp, class_rep):
        raise VerificationError("J-profile relation is not a congruence")
    qcls = classify(sgp if discrete else gq.quotient)
    if gq.generalized_only:
        if not qcls.generalized_group_mapping:
            raise VerificationError("GM image is not generalized group mapping")
    elif not qcls.group_mapping:
        raise VerificationError("GM image is not group mapping")

    # injectivity on subgroups: guaranteed for subgroups whose identity
    # lies in J (that one is asserted), recorded as data for the rest
    for e in gs.idempotents:
        h_members = gs.h_classes[gs.h_of[e]]
        image = {class_rep[i] for i in h_members}
        if len(image) != len(h_members):
            gq.injective_on_all_subgroups = False
            if gs.j_of[e] == jref.j_id:
                raise VerificationError(
                    "GM morphism not injective on a subgroup of the distinguished class"
                )
    return gq


def _is_congruence(sgp: FiniteSemigroup, class_rep: list[int]) -> bool:
    """Whether the partition that maps each element to a member of its class
    is a congruence.  Checking s*g ~ r*g and g*s ~ g*r for each s, its
    representative r and each generator g is complete: along the word of u,
    s ~ t gives s*u ~ t*u, likewise u*s ~ u*t, and then s*t ~ s'*t ~ s'*t'.

    The check runs on whole columns: per generator and per Cayley graph,
    the classes of the products (class_rep[s*g] for every s) are compared
    with themselves read at the representatives (class_rep[r*g])."""
    at_reps = row_getter(class_rep)
    for column in sgp.right_columns + sgp.left_columns:
        classes = row_getter(column)(class_rep)
        if at_reps(classes) != classes:
            return False
    return True


# -- Rees coordinates -------------------------------------------------------


@dataclass
class ReesCoordinates:
    """J u {0} as a coordinatized 0-simple structure: group G, index sets
    A (R-classes) and B (L-classes), structure matrix C over G u {0}
    (entry -1 encodes 0), and the two coordinate maps."""

    sgp: FiniteSemigroup
    jref: JClassRef
    group: FiniteGroup
    a_classes: list[int]
    b_classes: list[int]
    matrix: list[list[int]]  # [b_pos][a_pos] -> G index or -1
    coord: dict[int, tuple[int, int, int]]  # element idx -> (a_pos, g_idx, b_pos)
    uncoord: dict[tuple[int, int, int], int]

    def verify_transport(self) -> None:
        """uncoord(a,g,b) * uncoord(a',g',b') = uncoord(a, g C(b,a') g', b')
        or falls out of J exactly when C(b,a') = 0; checked for all pairs.
        `rees_coordinates` proves this law, so this is a test oracle.

        The check runs in coordinate space, one whole row (u*v for u in J,
        by `right_translation`) at a time.  Each product u*v is mapped to
        its coordinate code (a*|G| + g)*|B| + b, or -1 outside J, and
        compared with the row of wanted codes, which is gathered too: with
        v = (a',g',b') and u running over J, it reads a table that depends
        on (g',b') only, at positions that depend on a' only.  The
        coordinates are a bijection onto A x G x B (checked at
        construction), so equal codes mean the product is the wanted
        element, and -1 means it left J: comparing every row compares all
        |J|^2 products."""
        sgp, group, members = self.sgp, self.group, list(self.coord)
        coords = list(self.coord.values())
        n_a, n_g, n_b = len(self.a_classes), len(group), len(self.b_classes)
        code = [-1] * len(sgp.elements)
        for u, (a, g, b) in self.coord.items():
            code[u] = (a * n_g + g) * n_b + b
        # codes[g2, b2][a*|G| + h] is the code of (a, h*g2, b2); its last
        # slot, read at -1, keeps a 0 entry at -1
        codes = {}
        for g2 in range(n_g):
            ag = [a * n_g + group.mul(h, g2) for a in range(n_a) for h in range(n_g)]
            for b2 in range(n_b):
                codes[g2, b2] = [x * n_b + b2 for x in ag] + [-1]
        # (a1,g1,b1)(a2,g2,b2) = (a1, (g1 C(b1,a2)) g2, b2): column u reads
        # codes[g2, b2] at the slot of (a1, g1 C(b1,a2)), or at -1 where
        # C(b1,a2) = 0
        slots = []
        for a2 in range(n_a):
            cs = (self.matrix[b1][a2] for _, _, b1 in coords)
            slots.append(row_getter([
                -1 if c < 0 else a1 * n_g + group.mul(g1, c)
                for (a1, g1, _), c in zip(coords, cs)
            ]))
        for v, (a2, g2, b2) in self.coord.items():
            got = row_getter(sgp.right_translation(members, v))(code)
            want = slots[a2](codes[g2, b2])
            if got != want:
                k = next(k for k, (x, w) in enumerate(zip(got, want)) if x != w)
                if want[k] < 0:
                    raise VerificationError(
                        "product stayed in J where the structure matrix is 0"
                    )
                raise VerificationError("multiplication transport failed")

    def verify_matrix_regular(self) -> None:
        for row in self.matrix:
            if all(v < 0 for v in row):
                raise VerificationError("structure matrix has a zero row")
        for a in range(len(self.a_classes)):
            if all(row[a] < 0 for row in self.matrix):
                raise VerificationError("structure matrix has a zero column")


def rees_coordinates(sgp: FiniteSemigroup, jref: JClassRef) -> ReesCoordinates:
    """J's Rees coordinates and structure matrix, with the checks that make
    the transport law hold, so `ReesCoordinates.verify_transport` is a test
    oracle only.

    The coordinates are read off the products, as single rows
    (`right_translation`): p_a*g for every a, one row per g in G, then
    (p_a*g)*q_b for every (a, g), one row per b.  They are checked to be a
    bijection onto J, so p_a*h*q_b = uncoord(a, h, b) for every triple.
    Each C(b, a) = q_b*p_a (one row per a) that stays in J is checked to
    lie in H_e, and G's table is S's product on H_e, checked to be a group
    by `maximal_subgroup`.
    Let u = p_a*g*q_b and v = p_a'*g'*q_b'.  By associativity
    u*v = p_a*(g*(q_b*p_a')*g')*q_b'.  If C(b,a') = q_b*p_a' lies in
    H_e, g*C*g' is a product in G, and u*v = uncoord(a, g*C*g', b').
    Otherwise q_b*p_a' lies J-below J (a product of members of J lies in
    J or below it), so u*v <=_J q_b*p_a' leaves J, as the matrix's 0
    says.  The J-order facts are in Rhodes & Steinberg, *The q-theory of
    Finite Semigroups* (2009)."""
    if not jref.is_regular:
        raise InputError("Rees coordinates need a regular J-class")
    gs = sgp.green()
    e, p_reps, q_reps = _sandwich_reps(sgp, jref)
    group = maximal_subgroup(sgp, sgp.elements[e])
    g_index = {sgp.index[v]: k for k, v in enumerate(group.elements)}
    n_g = len(g_index)

    # p_a*g at slot a*|G| + g, then each slot's product with q_b
    by_g = [sgp.right_translation(p_reps, x) for x in g_index]
    p_g = [pg for row in zip(*by_g) for pg in row]
    found: dict[int, tuple[int, int, int]] = {}
    for b, q in enumerate(q_reps):
        for k, u in enumerate(sgp.right_translation(p_g, q)):
            found[u] = (k // n_g, k % n_g, b)
    if len(found) != len(p_g) * len(q_reps) or found.keys() != set(jref.members):
        raise VerificationError("coordinates are not a bijection onto A x G x B")
    # in member order, which the oracles' rows over J are zipped against
    coord = {u: found[u] for u in jref.members}
    uncoord = {c: u for u, c in coord.items()}

    # C(b, a) = q_b*p_a: one row per a, so row b is each row's b-th entry
    products = list(zip(*(sgp.right_translation(q_reps, p) for p in p_reps)))
    if any(gs.j_of[p] == jref.j_id and p not in g_index for row in products for p in row):
        raise VerificationError("q_b * p_a stayed in J but left H_e")
    matrix = [[g_index.get(p, -1) for p in row] for row in products]  # H_e lies in J

    rc = ReesCoordinates(
        sgp, jref, group, list(jref.a_classes), list(jref.b_classes), matrix, coord, uncoord
    )
    rc.verify_matrix_regular()
    return rc


# -- the coordinate form of the action (labels per generator) ---------------


@dataclass
class GroupMappingPresentation:
    """A (generalized) group mapping semigroup in coordinates: the Rees
    data of its distinguished class plus, per generator x, the partial map
    b -> b.x on B and the group label b -> (b)x.

    The reproduction law (a,g,b)x = (a, g*(b)x, b.x) is verified for every
    coordinate triple and every generator at construction.
    """

    sgp: FiniteSemigroup
    jref: JClassRef
    rees: ReesCoordinates
    rlmq: RlmQuotient
    rlm_of_gen: dict[str, tuple[int, ...]]  # 1-based images on B, 0 undefined
    label_of_gen: dict[str, tuple[int, ...]]  # G indices, identity where undefined
    group_mapping: bool

    @property
    def group(self) -> FiniteGroup:
        return self.rees.group

    @property
    def n_b(self) -> int:
        return len(self.rees.b_classes)

    def label_of(self, b_pos: int, s: int) -> Optional[tuple[int, int]]:
        """((b)s, b.s) for the element of index s, or None if b.s is
        undefined."""
        rc = self.rees
        p = self.sgp.mul_index(rc.uncoord[(0, rc.group.identity, b_pos)], s)
        if self.sgp.green().j_of[p] != self.jref.j_id:
            return None
        a, g, b2 = rc.coord[p]
        if a != 0:
            raise VerificationError("action moved the R-class coordinate")
        return g, b2


def group_mapping_presentation(
    sgp: FiniteSemigroup, build: Callable[..., FiniteSemigroup] = FiniteSemigroup
) -> GroupMappingPresentation:
    """`build` makes the RLM image (see `rlm_quotient`)."""
    cls = classify(sgp)
    if not cls.generalized_group_mapping:
        raise InputError("semigroup is not generalized group mapping")
    jref = JClassRef(sgp, cls.distinguished_j)
    rc = rees_coordinates(sgp, jref)
    rlmq = rlm_quotient(sgp, jref, build)
    gens = list(zip(sgp.gen_names, sgp.gens))
    rlm_of_gen = {name: rlmq.rlm.elements[rlmq.code[gi]].images for name, gi in gens}
    pres = GroupMappingPresentation(sgp, jref, rc, rlmq, rlm_of_gen, {}, cls.group_mapping)
    for name, gi in gens:
        labels = (pres.label_of(b, gi) for b in range(pres.n_b))
        pres.label_of_gen[name] = tuple(
            rc.group.identity if lab is None else lab[0] for lab in labels
        )
    # at a = 0, g = 1_G this checks the RLM map against the coordinates
    _verify_coordinate_action(pres)
    return pres


def _verify_coordinate_action(pres: GroupMappingPresentation) -> None:
    """Eq-style reproduction: raw products match (a, g*(b)x, b.x) everywhere.
    The products u*x for u in J are x's column of the right Cayley graph."""
    sgp, rc = pres.sgp, pres.rees
    gs = sgp.green()
    group = rc.group
    for name, column in zip(sgp.gen_names, sgp.right_columns):
        rlm_map = pres.rlm_of_gen[name]
        labels = pres.label_of_gen[name]
        for u, (a, g, b) in rc.coord.items():
            p = column[u]
            if rlm_map[b] == 0:
                if gs.j_of[p] == pres.jref.j_id:
                    raise VerificationError(
                        f"(a,g,b){name} stayed in J although b.{name} is undefined"
                    )
            else:
                want = rc.uncoord[(a, group.mul(g, labels[b]), rlm_map[b] - 1)]
                if p != want:
                    raise VerificationError(
                        f"coordinate action fails at {(a, g, b)} under {name}"
                    )


# -- theta' and the wreath embedding ----------------------------------------


def theta_prime_representation(sgp: FiniteSemigroup) -> FiniteSemigroup:
    """A right mapping semigroup as partial transformations of its
    distinguished J-class (the restriction of the ideal action away from
    zero, which stays faithful)."""
    cls = classify(sgp)
    if not cls.right_mapping:
        raise InputError("theta' needs a right mapping semigroup")
    gs = sgp.green()
    members = sorted(gs.j_classes[cls.distinguished_j])
    pos = {u: k + 1 for k, u in enumerate(members)}
    named = []
    for name, column in zip(sgp.gen_names, sgp.right_columns):
        images = []
        for u in members:
            p = column[u]
            images.append(pos[p] if gs.j_of[p] == cls.distinguished_j else 0)
        named.append((name, PartialTransformation(tuple(images))))
    rep = FiniteSemigroup.generate(named)
    if len(rep) != len(sgp):
        raise VerificationError("theta' representation is not faithful")
    return rep


@dataclass
class FaspEmbedding:
    """S embedded in (G, G^0) wr (B, RLM_J(S)) via x -> ((b)x, RLM(x)),
    (b)x being the zero where b.x is undefined.  As the zero absorbs, an
    element's entry is the zero exactly where b is outside the domain of
    its RLM image (see `products`), where the embedding into
    (G,G) wr (B, RLM_J(S)) leaves it undefined.  `rows`, the witness, is
    the division closure of the generators' lifts on the wreath image's
    action rows (`products.WreathRows`), of size |S|; that its action on
    G x B + 0 is S's on R u {0} is proved in `fasp_embedding`."""

    lifts: dict[str, Any]
    rows: DivisionWitness


def fasp_embedding(pres: GroupMappingPresentation) -> FaspEmbedding:
    """The generators' lifts, certified by `check_division` on the wreath
    image's action rows (the relation they generate is a function onto S;
    `products.WreathRows` runs the closure on codes step by step, every
    lift carrying the zero exactly where its RLM map is undefined) and
    |closure| = |S| (it is injective).  The wreath image's action is
    proved, not checked.

    Identify G x B + 0 with R u {0}, R the a = 0 R-class: the point (g, b)
    at g*|B| + b is uncoord(0, g, b), and 0, every element below J, is -1.
    The lift of a generator x sends (g, b) to (g*(b)x, b.x).  Where b.x is
    undefined it is 0: the lift carries G^0's zero at b, and the zero's
    row is all -1.  `_verify_coordinate_action` has checked, at a = 0,
    that uncoord(0, g, b)*x is uncoord(0, g*(b)x, b.x), or leaves J where
    b.x is undefined.  So the generators' lifts act on G x B + 0 as the
    generators act on R u {0}.  Both sides are right actions, -1 and 0
    absorbing.  Wreath rows compose, row(u*v) being row(u) followed by
    row(v) (the wreath formula in the `products` docstring).  For r in R,
    r*s either stays in R or drops below J, by stability (r*s J r gives
    r*s R r), and below J is absorbing (t <_J J gives t*s <_J J).
    `_relation_closure` reaches every pair (w, s) as (w'*lift(x), s'*x)
    from a pair (w', s') it already holds, starting at (lift(x), x).  So,
    by induction, w acts on G x B + 0 as s acts on R u {0}."""
    oracle = WreathRows(pres.group, pres.rlmq.rlm)
    lifts = {}
    for name in pres.sgp.gen_names:
        rlm_map = pres.rlm_of_gen[name]
        labels = pres.label_of_gen[name]
        fvals = tuple(labels[b] if rlm_map[b] != 0 else ZERO for b in range(pres.n_b))
        lifts[name] = (fvals, PartialTransformation(rlm_map))
    rows = check_division(pres.sgp, oracle, lifts=lifts)
    if len(rows.closure) != len(pres.sgp.elements):
        raise VerificationError("wreath embedding is not injective")
    return FaspEmbedding(lifts, rows)
