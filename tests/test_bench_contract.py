"""The benchmark's contract with the library.

perfbench/tracing.py reads cache_info() of four lru_caches and rebinds
library entry points by name when it is imported, and perfbench/run.py
imports it on every run, traced or not.  Renaming any of them makes every
benchmark run fail; the benchmark's own self-check catches that.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selfcheck: ok" in done.stdout.splitlines()
