#!/usr/bin/env python3
"""The ladder: end-to-end estimate and replay, one child process each.

For every rung, `python -m krc.cli estimate FILE --cert OUT` and then
`python -m krc.cli replay OUT` run as child processes from this checkout's
`src`.  T_3, PT_3, I_3, I_4 and T_4 run at default options, T_5 and T_6 at
`--automata-budget 0`.  Per rung the script records the interval estimate
prints, each child's wall seconds (interpreter start included) and its own
peak RSS (`os.wait4`), and the certificate's bytes and sha256.  It appends
one row, keyed by `git rev-parse HEAD` and marked dirty when tracked files
differ from that commit, to `BENCH_ladder.json` at the repository root.

T_6 takes over a minute and about 450 MB per child; the rungs run one at
a time.

Run:  python tools/ladder.py
"""

import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import I4_GENS, LADDER, T4_GENS  # noqa: E402
from test_goldens import T5_GENS, sgp_text  # noqa: E402

T6_GENS = ((2, 3, 4, 5, 6, 1), (2, 1, 3, 4, 5, 6), (1, 1, 3, 4, 5, 6))
BUDGET_0 = ["--automata-budget", "0"]
RUNGS = [
    ("T3", LADDER["T3"], []),
    ("PT3", LADDER["PT3"], []),
    ("I3", LADDER["I3"], []),
    ("I4", I4_GENS, []),
    ("T4", T4_GENS, []),
    ("T5", T5_GENS, BUDGET_0),
    ("T6", T6_GENS, BUDGET_0),
]
OUT = ROOT / "BENCH_ladder.json"


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def child(argv) -> tuple[str, float, float]:
    """Run `krc` with `argv` in a child process: its stdout, wall seconds
    and peak RSS in MB.  A nonzero exit raises."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "krc.cli", *argv], stdout=subprocess.PIPE, env=env
    ) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"krc {' '.join(argv)} exited {proc.returncode}")
    return out.decode("ascii"), wall, usage.ru_maxrss / 1024  # ru_maxrss is in KB


def rung(name, gens, flags, scratch: Path) -> dict:
    src, cert = scratch / f"{name}.sgp", scratch / f"{name}.json"
    src.write_text(sgp_text(gens), encoding="ascii")
    out, est_s, est_mb = child(["estimate", str(src), "--cert", str(cert), *flags])
    replayed, rep_s, rep_mb = child(["replay", str(cert)])
    if replayed.splitlines()[-1] != "replay: ok":
        raise RuntimeError(f"{name}: replay did not accept the certificate")
    data = cert.read_bytes()
    return {
        "flags": flags,
        "interval": out.splitlines()[0],
        "estimate_s": round(est_s, 3),
        "estimate_peak_rss_mb": round(est_mb, 1),
        "replay_s": round(rep_s, 3),
        "replay_peak_rss_mb": round(rep_mb, 1),
        "cert_bytes": len(data),
        "cert_sha256": hashlib.sha256(data).hexdigest(),
    }


def main() -> int:
    row = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "rungs": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        for name, gens, flags in RUNGS:
            row["rungs"][name] = rung(name, gens, flags, Path(scratch))
            print(name, json.dumps(row["rungs"][name]), flush=True)
    rows = json.loads(OUT.read_text(encoding="ascii")) if OUT.exists() else []
    rows.append(row)
    OUT.write_text(json.dumps(rows, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
