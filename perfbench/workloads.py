"""The workloads: their inputs, one pass over them, and the output checks.

A pass runs its instances one after another in this process (a closed loop
with one client).  A semigroup instance is an ``.sgp`` file fed to
``krc.cli.main``: ``estimate FILE --cert OUT``, then ``replay OUT``.  A
division instance calls ``complexity.check_derived_wreath_division``, which
searches for a witness, and then re-checks the witness from its lifts with
``products.check_division``.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import importlib
import io
import json
import random
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import instances

WORKLOADS = ("desk", "degree4")
SAMPLE_SEED = 2  # the seed of the sample's draw, whatever the run's --seed
DEGREE4_FLAGS = ("--automata-budget", "0")
# (name, search budget) of the acceptance suite's derived-wreath divisions
# that ``desk`` runs.  The suite's third one, U_1 -> 1 with budget 6 M,
# searches for about 20 s, more than a run can hold, so only
# ``record_goldens.py`` runs it.
DIVISION_BUDGETS = (("trivial", 300_000), ("z2", 4_000_000))
U1_BUDGET = 6_000_000


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class PassTimeout(BaseException):
    """Raised at the pass ceiling; a BaseException, so that no handler
    inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise PassTimeout()


@dataclass
class Instance:
    key: str  # golden key, e.g. "desk/corpus/sym3", "sample/<sha16>", "division/z2"
    text: str = ""  # .sgp text of a semigroup instance
    order: int = 0
    path: Path | None = None
    flags: tuple = ()
    budget: int = 0  # search budget of a division instance


@dataclass
class Op:
    instance: str
    kind: str  # "estimate", "replay", "division" or "corpus-report"
    start: float = 0.0
    end: float = 0.0
    wall: float = 0.0  # wall seconds, without the speed probes
    scaled: float = 0.0  # seconds at the reference speed (speed.py)
    division: float = 0.0  # scaled seconds inside products.check_division, given lifts
    ok: bool = False
    error: str = ""
    known_defect: bool = False
    mismatch: str = ""


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    cert_bytes: int = 0
    start: float = 0.0
    end: float = 0.0
    timed_out: bool = False
    records: dict = field(default_factory=dict)  # golden key -> observed digests

    def total(self, kind: str, wall: bool = False) -> float:
        """Scaled (or, with ``wall``, unscaled) seconds of the operations of a kind."""
        return sum(op.wall if wall else op.scaled for op in self.ops if op.kind == kind)

    def division_s(self) -> float:
        """Scaled seconds of the division operations; in a pass without any
        (``degree4``), of the ``products.check_division`` calls that
        estimate and replay make with given lifts, which ``estimate_s`` and
        ``replay_s`` count as well."""
        if any(op.kind == "division" for op in self.ops):
            return self.total("division")
        return sum(op.division for op in self.ops)

    def verdicts(self) -> list[float]:
        """Per instance that ran, the scaled seconds from its start to its
        verdict."""
        per: dict[str, float] = {}
        for op in self.ops:
            if op.end > op.start:
                per[op.instance] = per.get(op.instance, 0.0) + op.scaled
        return list(per.values())


@contextlib.contextmanager
def measure(op: Op):
    op.start = time.perf_counter()
    try:
        yield
    finally:
        op.end = time.perf_counter()


def scale_times(result: PassResult, speedometer=None, division_spans=()) -> None:
    """Fill in each operation's wall time without probes, its scaled time,
    and its scaled time inside ``products.check_division`` (``division_spans``:
    the spans of a tracer that wraps only that function).  Without a
    speedometer, as in the traced pass, scaled time is wall time."""
    def scaled(t0: float, t1: float) -> float:
        return speedometer.scale(t0, t1) if speedometer else t1 - t0

    spans = sorted((s[1], s[2]) for s in division_spans if s)
    starts = [s for s, _ in spans]
    for op in result.ops:
        if op.end <= op.start:
            continue
        op.wall = speedometer.wall(op.start, op.end) if speedometer else op.end - op.start
        op.scaled = scaled(op.start, op.end)
        lo, hi = bisect.bisect_left(starts, op.start), bisect.bisect_right(starts, op.end)
        op.division = sum(scaled(s, e) for s, e in spans[lo:hi])


def import_krc():
    """A fresh import of the package and of the CLI module."""
    for name in [n for n in sys.modules if n == "krc" or n.startswith("krc.")]:
        del sys.modules[name]
    krc = importlib.import_module("krc")
    importlib.import_module("krc.cli")
    return krc


def build(workload: str, root: Path, work: Path, krc) -> list[Instance]:
    """Write a workload's inputs under ``work`` and read each back; returns
    the instances in canonical order.  The program parses the files itself
    inside ``estimate``, where that time is counted."""
    items: list[Instance] = []
    if workload == "desk":
        corpus_dir = root / "src" / "krc" / "corpus"
        for entry in instances.corpus_entries(root):
            text = (corpus_dir / entry["file"]).read_text(encoding="ascii")
            items.append(Instance(f"desk/corpus/{entry['name']}", text, entry["expected"]["order"][0]))
        for name in instances.DESK_LADDER:
            gens = instances.LADDER[name]
            items.append(Instance(f"desk/{name}", instances.sgp_text(gens),
                                  instances.closure_order(gens, 10**6)))
        for gens, order in instances.draw_sample(SAMPLE_SEED):
            text = instances.sgp_text(gens)
            items.append(Instance(f"sample/{sha(text)[:16]}", text, order))
    else:
        for name in instances.DEGREE4_LADDER:
            gens = instances.LADDER[name]
            items.append(Instance(f"degree4/{name}", instances.sgp_text(gens),
                                  instances.closure_order(gens, 10**6), flags=DEGREE4_FLAGS))
    work.mkdir(parents=True, exist_ok=True)
    for i, inst in enumerate(items):
        inst.path = work / f"{i:03d}.sgp"
        inst.path.write_text(inst.text, encoding="ascii")
        if instances.parse_sgp(inst.path.read_text(encoding="ascii")) != instances.parse_sgp(inst.text):
            raise RuntimeError(f"{inst.key}: input file does not read back")
    if workload == "desk":
        division_morphisms(krc)
        items += [Instance(f"division/{name}", budget=budget) for name, budget in DIVISION_BUDGETS]
    return items


def division_morphisms(krc) -> dict:
    """(phi, psi) of the acceptance suite's derived-wreath divisions, built
    fresh for each pass so that no multiplication cache carries over."""
    core, cx = krc.core, krc.complexity
    trivial = core.FiniteSemigroup.generate([("1", core.PartialTransformation.identity(1))])
    z2 = core.FiniteSemigroup.from_elements([0, 1], lambda a, b: (a + b) % 2, sort_key=lambda v: v)
    u1 = core.FiniteSemigroup.from_elements([0, 1], lambda a, b: a * b, sort_key=lambda v: v)
    phi1 = cx.RelationalMorphism.identity(trivial)
    phi2 = cx.RelationalMorphism.to_trivial(z2)
    phi3 = cx.RelationalMorphism.to_trivial(u1)
    return {
        "division/trivial": (phi1, phi1),
        "division/z2": (phi2, cx.RelationalMorphism.identity(phi2.target)),
        "division/u1": (phi3, cx.RelationalMorphism.identity(phi3.target)),
    }


def witness_json(witness) -> str:
    """A division witness in the form ``krc divide`` prints."""
    payload = {
        "lifts": {name: str(v) for name, v in sorted(witness.lifts.items())},
        "morphism": sorted([str(t), str(s)] for t, s in witness.morphism.items()),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_interval(line: str) -> list:
    """``[lo, hi]`` as ``estimate`` prints it, ``?`` for an unknown upper."""
    lo, hi = line.strip().strip("[]").split(", ")
    return [int(lo), None if hi == "?" else int(hi)]


def cli(krc, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = krc.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Checker:
    """Compares what a pass observes with the recorded goldens; with no
    goldens it only records.  An instance without a record is a mismatch.

    Two replays fail in the seed code (T_4 and one member of the sample):
    replay recomputes GM images from the re-parsed transformation form,
    whose element order can differ from the one estimate used.  Their
    messages are recorded, and such a failure counts as a failed operation
    without making the run incorrect."""

    def __init__(self, goldens: dict | None):
        self.goldens = goldens

    def expect(self, op: Op, key: str, field_name: str, observed) -> None:
        if self.goldens is None or op.mismatch:
            return
        if key not in self.goldens:
            op.mismatch = f"{key}: no recorded golden"
            return
        want = self.goldens[key].get(field_name)
        if want is not None and want != observed:
            op.mismatch = f"{key} {field_name}: want {want!r}, got {observed!r}"

    def known_replay_failure(self, key: str, error: str) -> bool:
        """Whether this instance's replay failed with this message when the
        goldens were recorded."""
        return self.goldens is not None and self.goldens.get(key, {}).get("replay_error") == error


def _fail(op: Op, message: str) -> None:
    op.error = message.strip().splitlines()[-1] if message.strip() else "failed"


def _run_semigroup(krc, inst: Instance, checker: Checker, result: PassResult) -> None:
    cert = inst.path.with_suffix(".json")
    rec = result.records.setdefault(inst.key, {})
    est = Op(inst.key, "estimate")
    rep = Op(inst.key, "replay")
    result.ops += [est, rep]
    with measure(est):
        rc, out, err = cli(krc, ["estimate", str(inst.path), "--cert", str(cert), *inst.flags])
    if rc != 0:
        _fail(est, err or f"exit {rc}")
        _fail(rep, "estimate failed")
        return
    text = cert.read_text(encoding="ascii")
    result.cert_bytes += len(text.encode("ascii"))
    interval = parse_interval(out.splitlines()[0])
    rec.update(interval=interval, estimate_stdout=sha(out), cert=sha(text))
    order = json.loads(text)["order"]
    if order != inst.order:
        est.mismatch = f"{inst.key}: certificate order {order}, expected {inst.order}"
    checker.expect(est, inst.key, "interval", interval)
    checker.expect(est, inst.key, "estimate_stdout", sha(out))
    checker.expect(est, inst.key, "cert", sha(text))
    est.ok = not est.mismatch
    with measure(rep):
        rc, out, err = cli(krc, ["replay", str(cert)])
    if rc != 0 or out.splitlines()[-1:] != ["replay: ok"]:
        _fail(rep, err or f"exit {rc}")
        rep.known_defect = checker.known_replay_failure(inst.key, rep.error)
        rec["replay_error"] = rep.error
        return
    rec["replay_stdout"] = sha(out)
    checker.expect(rep, inst.key, "replay_stdout", sha(out))
    rep.ok = not rep.mismatch


def _run_division(krc, inst: Instance, morphisms, checker: Checker, result: PassResult) -> None:
    op = Op(inst.key, "division")
    result.ops.append(op)
    phi, psi = morphisms[inst.key]
    with measure(op):
        found = krc.complexity.check_derived_wreath_division(phi, psi, budget=inst.budget)
        if isinstance(found, krc.products.DivisionWitness):
            again = krc.products.check_division(found.source, found.target, lifts=found.lifts)
    if not isinstance(found, krc.products.DivisionWitness):
        _fail(op, f"no witness: searched {found.tried} lift tuples (budget {found.budget})")
        return
    text = witness_json(found)
    result.cert_bytes += len(text.encode("ascii"))
    result.records.setdefault(inst.key, {})["witness"] = sha(text)
    checker.expect(op, inst.key, "witness", sha(text))
    if again.morphism != found.morphism:
        op.mismatch = f"{inst.key}: the witness re-checked from its lifts gives another morphism"
    op.ok = not op.mismatch


def corpus_report_op(krc, golden: str) -> Op:
    """``krc corpus run``, whose report must match the recorded digest."""
    op = Op("desk/corpus-report", "corpus-report")
    try:
        rc, out, _ = cli(krc, ["corpus", "run"])
    except Exception as exc:  # reported as a failed operation like any other
        _fail(op, f"{type(exc).__name__}: {exc}")
        return op
    op.ok = rc == 0 and sha(out) == golden
    if not op.ok:
        op.mismatch = f"corpus report differs from the recorded one (exit {rc})"
    return op


def run_pass(krc, items: list[Instance], order_seed: int, ceiling: float, checker: Checker,
             probe=None, stop_after: float | None = None) -> PassResult:
    """One pass over the instances in a seeded order, calling ``probe``
    before each.  At the ceiling the running instance and every later one
    count as failed.  With ``stop_after``, no instance starts once that many
    seconds have passed, and the pass covers only the ones before."""
    result = PassResult()
    order = list(items)
    random.Random(order_seed).shuffle(order)
    morphisms = division_morphisms(krc) if any(inst.budget for inst in order) else {}
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(ceiling, 0.001))
    result.start = time.perf_counter()
    done = 0
    try:
        for inst in order:
            if stop_after is not None and time.perf_counter() - result.start >= stop_after:
                break
            before = len(result.ops)
            if probe:
                probe()
            try:
                if inst.budget:
                    _run_division(krc, inst, morphisms, checker, result)
                else:
                    _run_semigroup(krc, inst, checker, result)
            except Exception as exc:  # one crashing instance must not end the pass
                traceback.print_exc(file=sys.stderr)
                for op in result.ops[before:]:
                    if not op.ok and not op.error:
                        _fail(op, f"{type(exc).__name__}: {exc}")
            done += 1
    except PassTimeout:
        result.timed_out = True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        result.end = time.perf_counter()
    if result.timed_out:
        reason = f"pass ceiling of {ceiling:.0f} s reached"
        for op in result.ops:
            if not op.ok and not op.error:
                op.error = reason
        started = {op.instance for op in result.ops}
        for inst in order[done:]:
            if inst.key not in started:
                kinds = ("division",) if inst.budget else ("estimate", "replay")
                result.ops += [Op(inst.key, kind, error=reason) for kind in kinds]
    return result
