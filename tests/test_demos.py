"""Every demo script runs to completion against the package source and
prints what it printed when its digest was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; demo 02 prints d_closure and demo 03
# bases_of, among others
STDOUT_SHA256 = {
    "01_linear_spaces.py": "c18d91499a5ff9a62e17cff1a28415e0c0d7f6738e0efb4910da571a263baddb",
    "02_dimension_and_closure.py": "9df2c933e9b758b0e07ac5bcccb1755933ad55c59d1041f4ba2ab95499b70cf2",
    "03_good_pairs_and_cycles.py": "eb20a83c5991a170da98c495681817c5c2c32e73f9f8ca3e4ea7989f2b1312c0",
    "04_amalgamation.py": "0c2d532fad37a5a37f8c2e8cf679f25c620e3c9ad737a282a6844e7884b6ccac",
    "05_builder.py": "337367d21ea90f821faab0b2653fda46325781b8e255a3dc48d2243a45ebf952",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.name]
