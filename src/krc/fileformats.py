"""Text formats for semigroups, groups, SPCs, automata and flows.

All serializers are bit-exact: parsing then re-serializing a canonical
file reproduces it byte for byte, which is what the determinism and
replay guarantees rest on.

Semigroup file::

    points: 3
    gens:
    a: 2 3 1
    b: 1 1 -

Group file::

    order: 2
    0 1
    1 0

SPC line (group elements are indices into the group's canonical order;
block members are listed ascending, blocks ordered by least member)::

    W={1,2,3}; blocks=[{1,2}:0,1 | {3}:0]

Automaton file (letters are generator names; missing transitions may be
written with target '-' or simply omitted)::

    states: 2
    trans: 1 a 2
    trans: 2 a -

Flow file: an automaton file followed by a ``flow:`` line and one SPC
line per state, in state order.
"""

from __future__ import annotations

from pathlib import Path

from .core import (
    DEFAULT_ELEMENT_BUDGET,
    FiniteGroup,
    FiniteSemigroup,
    PartialTransformation,
)
from .errors import InputError


def read_ascii(path) -> str:
    """The text of the input file at `path`.  Every input is ASCII, so a
    byte outside it, in a comment too, is an InputError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: byte {data[exc.start]:#04x} at offset {exc.start} is not ASCII"
        ) from None


def _clean_lines(text: str) -> list[str]:
    if not isinstance(text, str):
        raise InputError(f"expected text, got {type(text).__name__}")
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"bad {what}: {token!r}") from None


# -- semigroup files ---------------------------------------------------


def dump_semigroup(sgp: FiniteSemigroup) -> str:
    """The generators' images; an abstract carrier (a quotient, a product)
    is written as its right regular representation, checked faithful."""
    gens = [sgp.elements[gi] for gi in sgp.gens] if sgp.is_transformation else _right_regular(sgp)
    lines = [f"points: {gens[0].degree}", "gens:"]
    lines += [f"{name}: {g}" for name, g in zip(sgp.gen_names, gens)]
    return "\n".join(lines) + "\n"


def _right_regular(sgp: FiniteSemigroup) -> list[PartialTransformation]:
    """Each generator's right translation x -> x*g of S, read off the right
    Cayley graph, plus one adjoined point sent to g when S has no identity.

    Faithful iff these generate exactly |S| maps.  s acts as rho_s, its
    word's product (`right_translations`), which sends the base point (the
    identity, or the adjoined point) to s; so the rho_s are distinct, and
    they are all the maps iff rho_s then g is rho_(s*g) for every s and g:
    on the adjoined point by definition, on S by associativity.  That is
    proved for a GM image (`semilocal.GmQuotient.quotient`), so the call
    to `check_associative` returns at once on every abstract carrier below
    an estimate's root, and on every one that `krc estimate` or
    `krc replay` writes; on any other abstract carrier it runs the check."""
    sgp.check_associative()
    columns = sgp.right_columns  # columns[k][x] = x*g_k
    if sgp.identity_index() is None:
        columns = [col + (gi,) for col, gi in zip(columns, sgp.gens)]
    return [PartialTransformation(tuple(x + 1 for x in col)) for col in columns]


def parse_semigroup(
    text: str, max_elements: int = DEFAULT_ELEMENT_BUDGET
) -> FiniteSemigroup:
    lines = _clean_lines(text)
    if not lines or not lines[0].startswith("points:"):
        raise InputError("semigroup file must start with 'points: n'")
    n = _int(lines[0].split(":", 1)[1], "point count")
    if n <= 0:
        raise InputError("point count must be positive")
    if len(lines) < 2 or lines[1] != "gens:":
        raise InputError("semigroup file must have a 'gens:' line")
    named = []
    for line in lines[2:]:
        if ":" not in line:
            raise InputError(f"bad generator line: {line!r}")
        name, rest = line.split(":", 1)
        name = name.strip()
        if not name or not all(32 < ord(c) < 127 for c in name):
            raise InputError(f"bad generator name: {name!r}")
        toks = rest.split()
        if len(toks) != n:
            raise InputError(f"generator {name!r} has {len(toks)} images, want {n}")
        images = []
        for t in toks:
            if t == "-":
                images.append(0)
            else:
                v = _int(t, f"image in generator {name!r}")
                if not 1 <= v <= n:
                    raise InputError(f"image {v} out of range in generator {name!r}")
                images.append(v)
        named.append((name, PartialTransformation(tuple(images))))
    if not named:
        raise InputError("no generators")
    if len({nm for nm, _ in named}) != len(named):
        raise InputError("duplicate generator names")
    return FiniteSemigroup.generate(named, max_elements=max_elements)


def load_semigroup(path, max_elements: int = DEFAULT_ELEMENT_BUDGET) -> FiniteSemigroup:
    return parse_semigroup(read_ascii(path), max_elements=max_elements)


# -- group files -------------------------------------------------------


def dump_group(group: FiniteGroup) -> str:
    lines = [f"order: {len(group)}"]
    for row in group.table:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_group(text: str) -> FiniteGroup:
    lines = _clean_lines(text)
    if not lines or not lines[0].startswith("order:"):
        raise InputError("group file must start with 'order: k'")
    k = _int(lines[0].split(":", 1)[1], "group order")
    rows = []
    for line in lines[1:]:
        row = [_int(t, "table entry") for t in line.split()]
        if len(row) != k or any(not 0 <= v < k for v in row):
            raise InputError("bad multiplication table row")
        rows.append(row)
    if len(rows) != k:
        raise InputError(f"expected {k} table rows, got {len(rows)}")
    return FiniteGroup.from_table(rows)


# -- SPC lines ---------------------------------------------------------


def dump_spc(spc) -> str:
    w = sorted(b for blk in spc.blocks for b in blk)
    w_part = "{" + ",".join(str(b) for b in w) + "}"
    blk_parts = []
    for blk, labs in zip(spc.blocks, spc.labels):
        members = "{" + ",".join(str(b) for b in blk) + "}"
        blk_parts.append(members + ":" + ",".join(str(g) for g in labs))
    return f"W={w_part}; blocks=[" + " | ".join(blk_parts) + "]"


def parse_spc(line: str, size_b: int, group: FiniteGroup):
    from .spc import canonicalize

    line = line.strip()
    if not line.startswith("W={") or "; blocks=[" not in line or not line.endswith("]"):
        raise InputError(f"bad SPC line: {line!r}")
    w_text, blocks_text = line.split("; blocks=[", 1)
    blocks_text = blocks_text[:-1]
    w_body = w_text[len("W={"):]
    if not w_body.endswith("}"):
        raise InputError(f"bad SPC subset: {line!r}")
    w_body = w_body[:-1]
    w = [_int(t, "SPC point") for t in w_body.split(",")] if w_body else []
    blocks: list[tuple[int, ...]] = []
    labels: list[tuple[int, ...]] = []
    if blocks_text.strip():
        for part in blocks_text.split("|"):
            part = part.strip()
            if not part.startswith("{") or ":" not in part:
                raise InputError(f"bad SPC block: {part!r}")
            members_text, labs_text = part.split(":", 1)
            members = tuple(_int(t, "block member") for t in members_text[1:-1].split(","))
            labs = (
                tuple(_int(t, "block label") for t in labs_text.split(","))
                if labs_text
                else ()
            )
            if len(labs) != len(members):
                raise InputError(f"block/label length mismatch: {part!r}")
            blocks.append(members)
            labels.append(labs)
    flat = [b for blk in blocks for b in blk]
    if sorted(flat) != sorted(w) or len(set(flat)) != len(flat):
        raise InputError("blocks do not partition the subset W")
    if any(not 1 <= b <= size_b for b in flat):
        raise InputError(f"block member out of range 1..{size_b}")
    if any(not 0 <= g < len(group) for labs in labels for g in labs):
        raise InputError("label out of group range")
    mu = {}
    for blk, labs in zip(blocks, labels):
        for b, g in zip(blk, labs):
            mu[b] = g
    return canonicalize(size_b, [set(blk) for blk in blocks], mu, group)


# -- automaton and flow files -------------------------------------------


def dump_automaton(aut) -> str:
    lines = [f"states: {aut.n_states}"]
    for q in range(1, aut.n_states + 1):
        for x in aut.letters:
            tgt = aut.delta.get((q, x))
            lines.append(f"trans: {q} {x} {tgt if tgt is not None else '-'}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str, letters: tuple[str, ...]):
    lines = _clean_lines(text)
    return _parse_automaton_lines(lines, letters)


def _parse_automaton_lines(lines: list[str], letters: tuple[str, ...]):
    from .flows import Automaton

    if not lines or not lines[0].startswith("states:"):
        raise InputError("automaton file must start with 'states: m'")
    m = _int(lines[0].split(":", 1)[1], "state count")
    if m <= 0:
        raise InputError("state count must be positive")
    delta = {}
    for line in lines[1:]:
        if not line.startswith("trans:"):
            raise InputError(f"bad automaton line: {line!r}")
        toks = line.split(":", 1)[1].split()
        if len(toks) != 3:
            raise InputError(f"bad transition line: {line!r}")
        q, x, tgt = _int(toks[0], "state"), toks[1], toks[2]
        if x not in letters:
            raise InputError(f"unknown letter {x!r} in transition")
        if not 1 <= q <= m:
            raise InputError(f"state {q} out of range")
        if (q, x) in delta:
            raise InputError(f"duplicate transition for ({q}, {x})")
        if tgt != "-":
            t = _int(tgt, "target state")
            if not 1 <= t <= m:
                raise InputError(f"target state {t} out of range")
            delta[(q, x)] = t
    return Automaton(m, letters, delta)


def dump_flow(flow) -> str:
    text = dump_automaton(flow.automaton)
    lines = [text.rstrip("\n"), "flow:"]
    for spc in flow.labeling:
        lines.append(dump_spc(spc))
    return "\n".join(lines) + "\n"


def parse_flow(text: str, presentation):
    """Needs the target presentation for B, G and the letter alphabet."""
    from .flows import Flow

    lines = _clean_lines(text)
    try:
        split = lines.index("flow:")
    except ValueError:
        raise InputError("flow file must contain a 'flow:' line") from None
    letters = tuple(presentation.sgp.gen_names)
    aut = _parse_automaton_lines(lines[:split], letters)
    spc_lines = lines[split + 1:]
    if len(spc_lines) != aut.n_states:
        raise InputError(
            f"flow file has {len(spc_lines)} SPC lines for {aut.n_states} states"
        )
    size_b = len(presentation.rees.b_classes)
    group = presentation.rees.group
    labeling = tuple(parse_spc(ln, size_b, group) for ln in spc_lines)
    return Flow(aut, presentation, labeling)
