"""Benchmark of ``krc estimate`` + ``krc replay`` and of the division search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each exists):

* ``desk``     the 17 corpus members, T_3, PT_3, I_3, a 60-semigroup sample
               drawn as the acceptance suite draws it, and two of the suite's
               derived-wreath divisions found by search;
* ``degree4``  I_4 and T_4 with ``--automata-budget 0``.

One process runs one instance after another.  Set-up (a fresh import of
``krc``, drawing the sample, writing the input files and reading them back)
is repeated and its median reported.  Passes over the workload then repeat
until ``--seconds`` have passed, at least once; per-pass figures are medians
over the passes, verdict percentiles pool every instance of every pass.  With
``--trace 1`` one more pass runs with every layer wrapped (``tracer.py``),
and the per-layer figures come from it.  Each output is checked against
``goldens.json``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--seed`` sets the order of the instances in each pass.  The members of the
sample are drawn from seed 2 in every run (``workloads.SAMPLE_SEED``):
samples drawn from other seeds differ too much in cost for runs to be
compared (see baseline.json).  Times are scaled to a reference machine speed
(``speed.py``); the unscaled sums go to standard error.  The per-layer times
of the traced pass are unscaled wall time (unit ``wall_s``).

With ``--trace 1`` the untraced pass that the trace overhead is measured
against stops starting instances after ``TRACE_REFERENCE_S``, so that the
traced pass keeps most of the run's time.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_REPEATS = 5
TRACE_REFERENCE_S = 15.0
RUN_LIMIT_S = 170.0  # every run ends inside the three minutes it is given
PASS_CEILING_S = {"desk": 100.0, "degree4": 150.0}
WORK_DIR = ".perfbench-work"
COUNTS = (
    "core.semigroups_built", "core.elements_enumerated", "core.compose_calls",
    "semilocal.gm_quotient_calls", "semilocal.gm_jclass_elements", "semilocal.presentations",
    "spc.spcs_enumerated", "flows.transition_semigroups", "flows.flows_verified",
    "flows.constructions", "products.division_checks", "products.closures",
    "complexity.nodes", "fileformats.parses", "fileformats.bytes_dumped",
)
COUNT_UNITS = {"core.elements_enumerated": "elements", "fileformats.bytes_dumped": "bytes"}


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, interpolated between the two nearest values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup(workload: str, root: Path):
    """One set-up: import the program, write the inputs and read them back."""
    start = time.perf_counter()
    krc = wl.import_krc()
    items = wl.build(workload, root, root / WORK_DIR / workload, krc)
    return (start, time.perf_counter()), krc, items


def end_to_end(passes, setups: list[float]) -> dict:
    def median_of(fn):
        return statistics.median(fn(p) for p in passes)

    verdicts = [v for p in passes for v in p.verdicts()]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "estimate_s": metric(median_of(lambda p: p.total("estimate")), "s"),
        "replay_s": metric(median_of(lambda p: p.total("replay")), "s"),
        "division_s": metric(median_of(lambda p: p.division_s()), "s"),
        "verdict_p50_s": metric(percentile(verdicts, 50), "s"),
        "verdict_p90_s": metric(percentile(verdicts, 90), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cert_bytes": metric(median_of(lambda p: p.cert_bytes), "bytes"),
    }


def per_layer(tracer: Tracer, overhead_frac: float, ops_failed_frac: float) -> dict:
    self_s, total_s = tracer.layer_times()
    c = tracer.counts
    out = {f"{layer}.self_s": metric(self_s[layer], "wall_s") for layer in LAYERS}
    out.update({name: metric(c[name], COUNT_UNITS.get(name, "count")) for name in COUNTS})
    closures = c["products.closures"]
    out["products.witness_ratio"] = metric(c["products.witnesses"] / closures if closures else 0.0, "ratio")
    out["core.green_s"] = metric(total_s.get("core.green", 0.0), "wall_s")
    out["complexity.derived_s"] = metric(total_s.get("complexity.derived_semigroup", 0.0), "wall_s")
    out["trace.overhead_frac"] = metric(overhead_frac, "frac")
    out["ops_failed_frac"] = metric(ops_failed_frac, "frac")
    return dict(sorted(out.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    begun = time.perf_counter()
    root = Path.cwd()
    src = root / "src"
    if not (src / "krc" / "__init__.py").is_file():
        print(f"error: no krc sources under {src}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    goldens = json.loads((HERE / "goldens.json").read_text(encoding="ascii"))
    checker = wl.Checker(goldens["instances"])

    def ceiling() -> float:
        return min(PASS_CEILING_S[args.workload], RUN_LIMIT_S - (time.perf_counter() - begun))

    setups = []
    passes = []
    with Speedometer() as speed:
        for _ in range(SETUP_REPEATS):
            speed.probe()
            interval, krc, items = setup(args.workload, root)
            setups.append(interval)
        # Without division operations, division_s is the time spent checking
        # divisions with given lifts, taken from a tracer of that one function.
        searches = any(inst.budget for inst in items)
        measure_start = time.perf_counter()
        while True:
            timer = None if searches else Tracer(only={"products.check_division"})
            if timer:
                timer.install()
            try:
                passes.append(wl.run_pass(krc, items, args.seed + len(passes), ceiling(), checker,
                                          speed.probe, TRACE_REFERENCE_S if args.trace else None))
            finally:
                if timer:
                    timer.uninstall()
            wl.scale_times(passes[-1], speed, timer.spans if timer else ())
            if (args.trace or time.perf_counter() - measure_start >= args.seconds
                    or passes[-1].timed_out or ceiling() <= 0):
                break
    extra_ops = [wl.corpus_report_op(krc, goldens["corpus_report"])] if args.workload == "desk" else []

    traced = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = wl.run_pass(krc, items, args.seed, ceiling(), checker)
        finally:
            tracer.uninstall()
        wl.scale_times(traced)
        trace_dir = root / WORK_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.json")

    ops = [op for p in passes + ([traced] if traced else []) for op in p.ops] + extra_ops
    failed = [op for op in ops if not op.ok]
    correct = all(op.known_defect and not op.mismatch for op in failed)
    for op in failed:
        tag = "known defect" if op.known_defect else "FAILED"
        print(f"{tag}: {op.instance} {op.kind}: {op.mismatch or op.error}", file=sys.stderr)

    if traced is None:
        metrics = end_to_end(passes, [speed.scale(t0, t1) for t0, t1 in setups])
        unscaled = {"setup_s": statistics.median(speed.wall(t0, t1) for t0, t1 in setups)}
        for kind in ("estimate", "replay") + (("division",) if searches else ()):
            unscaled[f"{kind}_s"] = statistics.median(p.total(kind, wall=True) for p in passes)
        print("unscaled: " + json.dumps({k: round(v, 6) for k, v in unscaled.items()}), file=sys.stderr)
    else:
        # The traced pass runs the instances in the same order, so it begins
        # with those that the shortened untraced pass ran.
        reference = passes[0]
        ran = {op.instance for op in reference.ops}
        traced_s = sum(op.wall for op in traced.ops if op.instance in ran)
        reference_s = sum(op.wall for op in reference.ops)
        overhead = traced_s / reference_s - 1.0 if reference_s else 0.0
        metrics = per_layer(tracer, overhead, sum(not op.ok for op in traced.ops) / len(traced.ops))
    print(f"{len(passes)} pass(es), {sum(len(p.verdicts()) for p in passes)} verdicts, "
          f"{time.perf_counter() - begun:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
