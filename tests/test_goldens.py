"""Byte-for-byte guard on the corpus outputs.

`perfbench/goldens.json` holds sha256 digests of the `krc corpus run`
report and, per corpus member, of the certificate `krc estimate FILE
--cert OUT` writes, of estimate's stdout and of `krc replay OUT`'s stdout.
These tests read that file and never write it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from krc.cli import CORPUS_DIR, load_corpus_manifest, main

GOLDENS = Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json"


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def goldens():
    return json.loads(GOLDENS.read_text(encoding="ascii"))


@pytest.fixture(autouse=True)
def default_budgets(monkeypatch):
    """The goldens were recorded with the default budgets."""
    for name in (
        "KRC_BUDGET_ELEMENTS",
        "KRC_BUDGET_STATES",
        "KRC_AUTOMATA_BUDGET",
        "KRC_DIVISION_BUDGET",
    ):
        monkeypatch.delenv(name, raising=False)


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
