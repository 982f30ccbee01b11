"""Byte-for-byte guard on the corpus outputs and the division witnesses.

`perfbench/goldens.json` holds sha256 digests of the `krc corpus run`
report and, per corpus member and per ladder semigroup (T_3, PT_3 and I_3
at default options, I_4 and T_4 at `--automata-budget 0`), of the
certificate `krc estimate FILE --cert OUT` writes, of estimate's stdout
and of `krc replay OUT`'s stdout (T_4's replay stdout is pinned here, in
`REPLAY_STDOUT`); per derived-wreath division of the acceptance suite, it
holds the digest of the witness found by search.  These tests read that
file and never write it.  T_5 at `--automata-budget 0`, which the file does
not hold, is pinned here: its certificate and replay stdout digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from krc.cli import CORPUS_DIR, load_corpus_manifest, main
from krc.complexity import check_derived_wreath_division
from krc.products import DivisionWitness

from helpers import I4_GENS, LADDER, T4_GENS, division_instance

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text(encoding="ascii"))


def run(capsys, argv) -> str:
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0, argv
    return out


def test_corpus_report(goldens, capsys):
    assert sha(run(capsys, ["corpus", "run"])) == goldens["corpus_report"]


@pytest.mark.parametrize("entry", load_corpus_manifest(), ids=lambda e: e["name"])
def test_estimate_and_replay(entry, goldens, capsys, tmp_path):
    want = goldens["instances"][f"desk/corpus/{entry['name']}"]
    cert = tmp_path / "cert.json"
    out = run(capsys, ["estimate", str(CORPUS_DIR / entry["file"]), "--cert", str(cert)])
    assert sha(out) == want["estimate_stdout"]
    assert sha(cert.read_text(encoding="ascii")) == want["cert"]
    assert sha(run(capsys, ["replay", str(cert)])) == want["replay_stdout"]


def sgp_text(gens) -> str:
    """The `.sgp` text of partial maps given as image tuples (0 undefined),
    generators named g0, g1, ..."""
    lines = [f"points: {len(gens[0])}", "gens:"]
    lines += [f"g{k}: " + " ".join(str(v) if v else "-" for v in g) for k, g in enumerate(gens)]
    return "\n".join(lines) + "\n"


# Replay stdout digests that `perfbench/goldens.json` does not hold: it
# records an error message for these two instead
REPLAY_STDOUT = {
    "degree4/T4": "1685f9331d88faab71dabc7ca6d8f00260a79b413de6791a96a6bdca9c0033e8",
    "sample/c2a2968d0416c173": "401ebf783b3a16110d9afafd21122cf121d7a72c591bbaf614d37cd869f32a4f",
}


@pytest.mark.parametrize("key,gens,flags", [
    pytest.param(key, gens, flags, id=key) for key, gens, flags in [
        ("desk/T3", LADDER["T3"], []),
        ("desk/PT3", LADDER["PT3"], []),
        ("desk/I3", LADDER["I3"], []),
        ("degree4/I4", I4_GENS, ["--automata-budget", "0"]),
        ("degree4/T4", T4_GENS, ["--automata-budget", "0"]),
        # the order-61 sample member whose GM images replay recomputes
        ("sample/c2a2968d0416c173", ((1, 3, 1, 0), (2, 0, 3, 4), (0, 4, 3, 2)), []),
    ]
])
def test_ladder_estimate_and_replay(key, gens, flags, goldens, capsys, tmp_path):
    want = goldens["instances"][key]
    src, cert = tmp_path / "in.sgp", tmp_path / "cert.json"
    src.write_text(sgp_text(gens), encoding="ascii")
    out = run(capsys, ["estimate", str(src), "--cert", str(cert), *flags])
    assert sha(out) == want["estimate_stdout"]
    assert sha(cert.read_text(encoding="ascii")) == want["cert"]
    replayed = run(capsys, ["replay", str(cert)])
    assert replayed.splitlines()[-1] == "replay: ok"
    assert sha(replayed) == want.get("replay_stdout", REPLAY_STDOUT.get(key))


@pytest.mark.parametrize("gens,digest", [
    pytest.param(I4_GENS, "6298130ecceedf9acfb83d761e28c7cc6a06c8c44ffd370cac45b00e7b246f81", id="I4"),
    pytest.param(T4_GENS, "2833f726c286bfc66166769c4986f7a3a4640cfdb9e79c22bf575f9aab70eb5d", id="T4"),
])
def test_degree4_at_default_options(gens, digest, capsys, tmp_path):
    """No flags, so the flow search runs at every group-mapping node.  T_4's
    digest is the `degree4/T4` golden's: every flow found there fails to
    construct, so each group-mapping node keeps the pure bound."""
    src, cert = tmp_path / "in.sgp", tmp_path / "cert.json"
    src.write_text(sgp_text(gens), encoding="ascii")
    run(capsys, ["estimate", str(src), "--cert", str(cert)])
    assert sha(cert.read_text(encoding="ascii")) == digest
    assert run(capsys, ["replay", str(cert)]).splitlines()[-1] == "replay: ok"


def witness_json(witness) -> str:
    """A division witness as `krc divide` prints it, keys sorted."""
    payload = {
        "lifts": {name: str(v) for name, v in witness.lifts.items()},
        "morphism": sorted([str(t), str(s)] for t, s in witness.morphism.items()),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name,budget", [
    ("trivial", 300_000),
    ("z2", 4_000_000),
    ("u1", 6_000_000),
])
def test_division_witness(name, budget, goldens):
    witness = check_derived_wreath_division(*division_instance(name), budget=budget)
    assert isinstance(witness, DivisionWitness)
    assert sha(witness_json(witness)) == goldens["instances"][f"division/{name}"]["witness"]


T5_GENS = ((2, 3, 4, 5, 1), (2, 1, 3, 4, 5), (1, 1, 3, 4, 5))


def test_t5_at_automata_budget_0(capsys, tmp_path):
    """The ladder's top rung (order 3 125, interval [1,4]): the certificate
    and the replay stdout, pinned by digest.  Estimate plus replay take
    about 3 s on a 2-core VM."""
    src, cert = tmp_path / "in.sgp", tmp_path / "cert.json"
    src.write_text(sgp_text(T5_GENS), encoding="ascii")
    out = run(capsys, ["estimate", str(src), "--cert", str(cert), "--automata-budget", "0"])
    assert out == "[1, 4]\n"
    assert sha(cert.read_text(encoding="ascii")) == (
        "ad244cbb8565cfaa8e842caefb51897ad55fd0589aa3a13be0137acf56012d67"
    )
    assert sha(run(capsys, ["replay", str(cert)])) == (
        "0c382f66173a9a0c9fe1bd91c518838ee14656bb126d67e48b6544a0a94b7197"
    )
