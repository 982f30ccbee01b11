import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the demos import krc from the source tree, as the tests do
PYTHONPATH = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
# sha256 of each demo's standard output; the demos are deterministic
STDOUT_SHA256 = {
    "01_green_structure": "b025aef020a082f7c8b69c09d90962159295a45c76509cf7905ef8ed63d3112c",
    "02_semilocal_coordinates": "304536797e1abc7df2a5a50e96c29c350c2101b7d7ccfe8a879f01d7f5bf2a66",
    "03_spc_lattice": "0c5f45af8fd8553c43956a675b53624546158d1c5f747c5269ccfb25396df371",
    "04_flows_and_decomposition": "afc155f499dcbe5007ad0e07fcba3f1b6fca0b9da286de19d298f01b3ccf336d",
    "05_complexity_certificates": "45ae2e87a72ba76bc7fb0176a830e4dee16dfa24d02f61050c35ecf59bdca6dc",
    "06_inverse_monoids": "77a3bfa09228290252b502b3b6be504f75c714e3f42e3020d1c7e71a79680c2d",
    "07_derived_and_expansion": "8b9deb310fd6466b04a299688a1062d580c9d2d79b0bcfb47fa8b92e4c088857",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs_clean(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        timeout=240,
        env=dict(os.environ, PYTHONPATH=PYTHONPATH),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[script.stem]
