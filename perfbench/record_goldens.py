"""Record the golden outputs that ``run.py`` checks every run against.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/record_goldens.py [--out perfbench/goldens.json]

It runs one pass of every workload and the acceptance suite's third
derived-wreath division, checks the intervals against the values known
independently of this code (the corpus manifest and the ladder below) and a
witness on every division instance, and writes the sha256 digests of
each certificate, CLI output and witness.  Run it under two
``PYTHONHASHSEED`` values and compare the files: they must be identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from instances import corpus_entries  # noqa: E402

# Intervals at the default budgets (degree 4: automata budget 0).  True
# complexities are 2 for T_3 and 3 for T_4; these are what the estimator
# certifies.
LADDER_INTERVALS = {
    "desk/T3": [1, 2], "desk/PT3": [1, 2], "desk/I3": [1, 1],
    "degree4/I4": [1, 3], "degree4/T4": [1, 3],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(HERE / "goldens.json"))
    args = parser.parse_args(argv)
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    krc = wl.import_krc()

    expected = dict(LADDER_INTERVALS)
    for entry in corpus_entries(root):
        if "interval" in entry["expected"]:
            expected[f"desk/corpus/{entry['name']}"] = entry["expected"]["interval"][0]

    records = {}
    passes = [wl.build(workload, root, root / ".perfbench-work" / workload, krc)
              for workload in wl.WORKLOADS]
    passes.append([wl.Instance("division/u1", budget=wl.U1_BUDGET)])
    for items in passes:
        result = wl.run_pass(krc, items, 0, 3600.0, wl.Checker(None))
        for op in result.ops:
            if not op.ok:
                print(f"{op.instance} {op.kind}: {op.error}", file=sys.stderr)
        records.update(result.records)

    problems = [f"{key}: interval {records[key].get('interval')}, want {want}"
                for key, want in expected.items() if records[key].get("interval") != want]
    problems += [f"{key}: no witness" for key in records
                 if key.startswith("division/") and "witness" not in records[key]]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    rc, report, _ = wl.cli(krc, ["corpus", "run"])
    if rc != 0:
        print(f"corpus run exited {rc}", file=sys.stderr)
        return 1
    goldens = {
        "corpus_report": wl.sha(report),
        "instances": dict(sorted(records.items())),
    }
    Path(args.out).write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
