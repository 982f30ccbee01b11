"""Command-line surface.

Subcommands: analyze, rlm, gm, rees, spc, flow verify, flow search,
divide, estimate, inverse demo, corpus run, replay.  Output is
deterministic byte for byte for fixed inputs and budgets.  Exit codes:
0 success, 2 usage or input error, 3 resource budget or out of memory,
4 verification failure.  A subcommand takes only the budget flags it
reads.  The certificate format belongs to `complexity`: `estimate` and
`replay` only write, read and print what it returns.  `main(argv)` may be
called repeatedly in one process: the parser is built once per process
and each call parses into a fresh namespace.  A negative budget exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .core import (
    DEFAULT_ELEMENT_BUDGET,
    FiniteGroup,
    PartialTransformation,
    is_aperiodic,
)
from .errors import InputError, ResourceError, VerificationError
from . import fileformats as ff
from .semilocal import (
    JClassRef,
    classify,
    gm_quotient,
    group_mapping_presentation,
    rees_coordinates,
    rlm_quotient,
)
from .products import DIVISION_SEARCH_BUDGET, DivisionWitness, check_division
from . import spc as spcmod
from . import flows as flowmod
from . import complexity as cx

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

CORPUS_DIR = Path(__file__).parent / "corpus"


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, PartialTransformation):
        return str(value)
    return value


def _dump_json(obj) -> str:
    return cx.certificate_json(_jsonable(obj))


# -- individual commands -------------------------------------------------


def cmd_analyze(args) -> int:
    sgp = ff.load_semigroup(args.file, max_elements=args.budget_elements)
    gs = sgp.green()
    cls = classify(sgp)
    out = [
        f"order: {len(sgp)}",
        f"points: {sgp.degree}",
        f"generators: {' '.join(sgp.gen_names)}",
        f"aperiodic: {'yes' if is_aperiodic(sgp) else 'no'}",
        f"idempotents: {len(gs.idempotents)}",
        f"j-classes: {len(gs.j_classes)}",
        f"r-classes: {len(gs.r_classes)}",
        f"l-classes: {len(gs.l_classes)}",
        f"h-classes: {len(gs.h_classes)}",
        f"right-mapping: {'yes' if cls.right_mapping else 'no'}",
        f"left-mapping: {'yes' if cls.left_mapping else 'no'}",
        f"generalized-group-mapping: {'yes' if cls.generalized_group_mapping else 'no'}",
        f"group-mapping: {'yes' if cls.group_mapping else 'no'}",
    ]
    for j, members in enumerate(gs.j_classes):
        flag = "regular" if gs.regular[j] else "null"
        out.append(f"J{j}: size {len(members)} {flag}")
    print("\n".join(out))
    return EXIT_OK


def _jref(sgp, args) -> JClassRef:
    return JClassRef(sgp, args.jclass)


def cmd_rlm(args) -> int:
    sgp = ff.load_semigroup(args.file, max_elements=args.budget_elements)
    rq = rlm_quotient(sgp, _jref(sgp, args))
    sys.stdout.write(ff.dump_semigroup(rq.rlm))
    sidecar = {
        "jclass": args.jclass,
        "b_classes": len(rq.jref.b_classes),
        "order": len(rq.rlm),
        "morphism": sorted(
            [str(s), str(rq.rlm.elements[c])] for s, c in zip(sgp.elements, rq.code)
        ),
    }
    sys.stdout.write(_dump_json(sidecar))
    return EXIT_OK


def cmd_gm(args) -> int:
    sgp = ff.load_semigroup(args.file, max_elements=args.budget_elements)
    gq = gm_quotient(sgp, _jref(sgp, args))
    sys.stdout.write(ff.dump_semigroup(gq.quotient))
    sidecar = {
        "jclass": args.jclass,
        "order": len(gq.quotient),
        "generalized_only": gq.generalized_only,
        "injective_on_all_subgroups": gq.injective_on_all_subgroups,
        "classes": sorted(
            [str(s), r] for s, r in zip(sgp.elements, gq.class_rep)
        ),
    }
    sys.stdout.write(_dump_json(sidecar))
    return EXIT_OK


def cmd_rees(args) -> int:
    sgp = ff.load_semigroup(args.file, max_elements=args.budget_elements)
    rc = rees_coordinates(sgp, _jref(sgp, args))
    sidecar = {
        "jclass": args.jclass,
        "group_order": len(rc.group),
        "a_classes": rc.a_classes,
        "b_classes": rc.b_classes,
        "matrix": rc.matrix,
        "group_table": rc.group.table,
        "coordinates": sorted(
            [str(sgp.elements[u]), list(c)] for u, c in rc.coord.items()
        ),
    }
    sys.stdout.write(_dump_json(sidecar))
    return EXIT_OK


def cmd_spc(args) -> int:
    group = ff.parse_group(ff.read_ascii(args.group))
    if args.op == "enumerate":
        for s in spcmod.enumerate_spcs(args.size, group):
            print(ff.dump_spc(s))
        return EXIT_OK
    x = ff.parse_spc(args.spc1, args.size, group)
    y = ff.parse_spc(args.spc2, args.size, group)
    if args.op == "leq":
        print("true" if spcmod.leq(x, y, group) else "false")
    elif args.op == "meet":
        print(ff.dump_spc(spcmod.meet(x, y, group)))
    else:
        j = spcmod.join(x, y, group)
        print("TOP" if j is spcmod.TOP else ff.dump_spc(j))
    return EXIT_OK


def cmd_flow_verify(args) -> int:
    sgp = ff.load_semigroup(args.semigroup, max_elements=args.budget_elements)
    pres = group_mapping_presentation(sgp)
    flow = ff.parse_flow(ff.read_ascii(args.flow), pres)
    verdict = flowmod.verify_flow(flow)
    if verdict is True:
        print("ok")
        return EXIT_OK
    where = f" at state {verdict.state} letter {verdict.letter}" if verdict.letter else ""
    print(f"violation: {verdict.condition}{where}: {verdict.detail}")
    return EXIT_VERIFY


def cmd_flow_search(args) -> int:
    sgp = ff.load_semigroup(args.semigroup, max_elements=args.budget_elements)
    pres = group_mapping_presentation(sgp)
    options = cx.EstimateOptions(
        max_flow_states=args.max_states, automata_budget=args.automata_budget
    )
    result = flowmod.flow_search(
        pres,
        max_states=args.max_states,
        cap_check=cx.flow_cap_check(args.cap, options),
        automata_budget=args.automata_budget,
    )
    if isinstance(result, flowmod.FlowSearchExhausted):
        print(
            f"unknown: exhausted after {result.automata_tried} automata "
            f"(budget {result.budget})"
        )
        return EXIT_RESOURCE
    sys.stdout.write(ff.dump_flow(result))
    return EXIT_OK


def cmd_divide(args) -> int:
    source = ff.load_semigroup(args.source, max_elements=args.budget_elements)
    target = ff.load_semigroup(args.target, max_elements=args.budget_elements)
    lifts = None
    if args.lifts:
        lifts = _parse_lifts(ff.read_ascii(args.lifts), source, target)
    result = check_division(source, target, lifts=lifts, budget=args.division_budget)
    if isinstance(result, DivisionWitness):
        payload = {
            "lifts": {name: str(v) for name, v in result.lifts.items()},
            "morphism": sorted([str(t), str(s)] for t, s in result.morphism.items()),
        }
        sys.stdout.write(_dump_json(payload))
        return EXIT_OK
    print(f"unknown: searched {result.tried} lift tuples (budget {result.budget})")
    return EXIT_RESOURCE


def _parse_lifts(text: str, source, target) -> dict:
    lifts = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise InputError(f"bad lift line: {line!r}")
        name, rest = line.split(":", 1)
        name = name.strip()
        if name not in source.gen_names:
            raise InputError(
                f"lift for {name!r}, which is not a generator of the source "
                f"(generators: {', '.join(source.gen_names)})"
            )
        if name in lifts:
            raise InputError(f"generator {name!r} is lifted twice")
        images = tuple(
            0 if t == "-" else ff._int(t, f"image in lift {name!r}") for t in rest.split()
        )
        value = PartialTransformation(images)
        if value not in target.index:
            raise InputError(f"lift for {name!r} is not in the target semigroup")
        lifts[name] = value
    missing = set(source.gen_names) - set(lifts)
    if missing:
        raise InputError(f"missing lifts for generators: {sorted(missing)}")
    return lifts


def _estimate_options(args) -> cx.EstimateOptions:
    return cx.EstimateOptions(
        max_flow_states=args.budget_states, automata_budget=args.automata_budget
    )


def cmd_estimate(args) -> int:
    sgp = ff.load_semigroup(args.file, max_elements=args.budget_elements)
    interval = cx.estimate(sgp, _estimate_options(args))
    print(str(interval))
    if args.trace or args.cert:
        text = cx.certificate_json(interval.certificate)
    if args.trace:
        sys.stdout.write(text)
    if args.cert:
        Path(args.cert).write_text(text, encoding="ascii")
    return EXIT_OK


def _named_group(spec: str) -> FiniteGroup:
    if spec == "trivial":
        return FiniteGroup.trivial()
    if spec.upper().startswith("Z") and spec[1:].isdigit():
        return FiniteGroup.cyclic(int(spec[1:]))
    return ff.parse_group(ff.read_ascii(spec))


def cmd_inverse_demo(args) -> int:
    from . import inverse as invmod
    from .semilocal import theta_prime_representation

    if args.lift and args.rank != 1:
        raise InputError("--lift needs --rank 1")
    group = _named_group(args.group)
    sgp = invmod.small_monoid(args.n, group, args.rank)
    if args.rank == 1:
        trans = invmod.matrix_semigroup_as_transformations(sgp, group)
    else:
        # rank-collapsed products are not plain vector action; the faithful
        # form is the ideal action restricted away from zero
        trans = theta_prime_representation(sgp)
    sys.stdout.write(ff.dump_semigroup(trans))
    units = sum(1 for m in sgp.elements if m.is_unit())
    mid = len(sgp) - units - 1
    print(f"census: units {units}, rank-{args.rank} {mid}, zero 1, total {len(sgp)}")
    if args.rank == 1:
        invmod.inverse_decomposition(sgp, group)
        print(
            f"decomposition: verified (direct and flow lifts, "
            f"image order {len(sgp)})"
        )
        if args.lift:
            census = invmod.analyze_lift(sgp, group)
            print(
                f"lift: order {len(census.ts)}, J0 {len(census.j0_members)}, "
                f"J1 {len(census.j1_members)}, J2 {len(census.j2_members)}, "
                f"H {len(census.h_group)}"
            )
    else:
        cls = classify(sgp)
        jref = JClassRef(sgp, cls.distinguished_j)
        rc = rees_coordinates(sgp, jref)
        iso = invmod.brandt_isomorphism(sgp, rc)
        print(
            f"ideal: Brandt of degree {len(rc.a_classes)} over a group of "
            f"order {len(rc.group)} ({len(iso) + 1} elements with zero)"
        )
    return EXIT_OK


# -- corpus ----------------------------------------------------------------


def load_corpus_manifest(path=None) -> list[dict]:
    """The manifest's entries, each an object with a `name`, a `file` and
    an `expected` object whose values are [value, tag] pairs, `order`,
    `aperiodic` and `group_mapping` among them; InputError otherwise."""
    text = ff.read_ascii(Path(path) if path else CORPUS_DIR / "manifest.json")
    try:
        entries = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"manifest is not JSON: {exc}") from None
    if not isinstance(entries, list):
        raise InputError("manifest is not a list of entries")
    for k, entry in enumerate(entries):
        expected = entry.get("expected") if isinstance(entry, dict) else None
        if not (
            isinstance(expected, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("file"), str)
            and {"order", "aperiodic", "group_mapping"} <= expected.keys()
            and all(
                isinstance(pair, list) and len(pair) == 2 and isinstance(pair[1], str)
                for pair in expected.values()
            )
        ):
            raise InputError(
                f"manifest entry {k} needs a name, a file and an expected object "
                "of [value, tag] pairs for order, aperiodic and group_mapping"
            )
    return entries


def corpus_report(manifest_path=None, options=None) -> str:
    entries = load_corpus_manifest(manifest_path)
    options = options or cx.EstimateOptions()
    base = Path(manifest_path).parent if manifest_path else CORPUS_DIR
    lines = []
    for entry in entries:
        name = entry["name"]
        sgp = ff.load_semigroup(base / entry["file"])
        cls = classify(sgp)
        ap = is_aperiodic(sgp)
        checks = []
        expected = entry["expected"]

        def expect(key, actual):
            want, tag = expected[key]
            ok = want == actual
            checks.append((key, tag, ok, want, actual))

        expect("order", len(sgp))
        expect("aperiodic", ap)
        expect("group_mapping", cls.group_mapping)
        if "interval" in expected:
            interval = cx.estimate(sgp, options)
            expect("interval", [interval.lower, interval.upper])
        lines.append(f"== {name}")
        for key, tag, ok, want, actual in checks:
            status = "ok" if ok else f"MISMATCH want {want} got {actual}"
            lines.append(f"  {key} [{tag}]: {status}")
        if any(not c[2] for c in checks):
            lines.append("  RESULT: FAIL")
        else:
            lines.append("  RESULT: pass")
    lines.append(f"entries: {len(entries)}")
    return "\n".join(lines) + "\n"


def cmd_corpus_run(args) -> int:
    report = corpus_report(args.manifest, _estimate_options(args))
    sys.stdout.write(report)
    if args.out:
        Path(args.out).write_text(report, encoding="ascii")
    return EXIT_VERIFY if "MISMATCH" in report else EXIT_OK


# -- certificate replay ------------------------------------------------------


def cmd_replay(args) -> int:
    text = ff.read_ascii(args.certificate)
    try:
        cert = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"certificate is not JSON: {exc}") from None
    log = cx.replay_certificate(cert, _estimate_options(args))
    for line in log:
        print(line)
    print("replay: ok")
    return EXIT_OK


# -- entry point -------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krc",
        description="Finite semigroup structure and complexity bounds "
        "with replayable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    budgets = {
        "--budget-elements": (
            DEFAULT_ELEMENT_BUDGET, "element budget for loading the input semigroup"
        ),
        "--budget-states": (
            cx.EstimateOptions.max_flow_states, "maximal automaton size for flow search"
        ),
        "--automata-budget": (
            cx.EstimateOptions.automata_budget, "number of automata tried per flow search"
        ),
        "--division-budget": (DIVISION_SEARCH_BUDGET, "lift tuples tried per division search"),
    }

    def non_negative_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
        return value

    def add_budgets(p, *flags):
        """Only the budget flags that the subcommand reads."""
        for flag in flags:
            default, text = budgets[flag]
            p.add_argument(flag, type=non_negative_int, default=default, help=text)

    p = sub.add_parser("analyze", help="order, Green data, classification")
    p.add_argument("file")
    add_budgets(p, "--budget-elements")
    p.set_defaults(func=cmd_analyze)

    for name, fn in (("rlm", cmd_rlm), ("gm", cmd_gm), ("rees", cmd_rees)):
        p = sub.add_parser(name, help=f"{name} data at a J-class")
        p.add_argument("file")
        p.add_argument("--jclass", type=int, required=True)
        add_budgets(p, "--budget-elements")
        p.set_defaults(func=fn)

    p = sub.add_parser("spc", help="SPC lattice operations")
    p.add_argument("group", help="group file")
    p.add_argument("op", choices=["leq", "meet", "join", "enumerate"])
    p.add_argument("spc1", nargs="?", default="")
    p.add_argument("spc2", nargs="?", default="")
    p.add_argument("--size", type=non_negative_int, required=True, help="|B|")
    p.set_defaults(func=cmd_spc)

    p = sub.add_parser("flow", help="flow verification and search")
    fsub = p.add_subparsers(dest="flow_command", required=True)
    pv = fsub.add_parser("verify")
    pv.add_argument("semigroup")
    pv.add_argument("flow")
    add_budgets(pv, "--budget-elements")
    pv.set_defaults(func=cmd_flow_verify)
    ps = fsub.add_parser("search")
    ps.add_argument("semigroup")
    ps.add_argument(
        "--max-states", type=non_negative_int, default=cx.EstimateOptions.max_flow_states
    )
    ps.add_argument("--cap", type=non_negative_int, default=0)
    add_budgets(ps, "--budget-elements", "--automata-budget")
    ps.set_defaults(func=cmd_flow_search)

    p = sub.add_parser("divide", help="certify S < T")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--lifts")
    add_budgets(p, "--budget-elements", "--division-budget")
    p.set_defaults(func=cmd_divide)

    p = sub.add_parser("estimate", help="complexity interval with certificate")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--cert", help="write the certificate to this path")
    add_budgets(p, "--budget-elements", "--budget-states", "--automata-budget")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("inverse", help="inverse-monoid constructions")
    isub = p.add_subparsers(dest="inverse_command", required=True)
    pd = isub.add_parser("demo")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--group", required=True, help="trivial, Z<k>, or a group file")
    pd.add_argument("--rank", type=int, required=True)
    pd.add_argument("--lift", action="store_true")
    pd.set_defaults(func=cmd_inverse_demo)

    p = sub.add_parser("corpus", help="corpus management")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    pr = csub.add_parser("run")
    pr.add_argument("--manifest")
    pr.add_argument("--out")
    add_budgets(pr, "--budget-states", "--automata-budget")
    pr.set_defaults(func=cmd_corpus_run)

    p = sub.add_parser("replay", help="re-verify a certificate from files alone")
    p.add_argument("certificate")
    add_budgets(p, "--budget-states", "--automata-budget")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except MemoryError:
        print("resource error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
