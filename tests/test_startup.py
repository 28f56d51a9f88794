"""The import path stays free of numpy: only the dense tables load it.

Each test starts a fresh interpreter, so what the test process has
already imported cannot hide a module-level import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from oracle import subset_tables
from steinergeom import fano, to_ls_v1, to_mu_v1, MuFunction

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# prints, after each stage, whether numpy has been loaded, then the
# answers of is_primitive, which reads closures, and of the table
# function delta_table
CHILD = """
import contextlib, io, json, sys
stages = {}
import steinergeom as sg
stages["import"] = "numpy" in sys.modules
from steinergeom.cli import main
ls, mu = sys.argv[1], sys.argv[2]
for argv in (["validate", ls], ["d", ls, "--set", "0,1"], ["icl", ls, "--set", "0,1"],
             ["build", "--mu", mu, "--steps", "40", "--seed", "7"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    stages["cli " + argv[0]] = "numpy" in sys.modules
M, _ = sg.build(sg.MuFunction(2), 150, seed=7)
assert sg.in_K_mu_bounded(M, sg.MuFunction(2), 8)[0]
stages["build and bounded check"] = "numpy" in sys.modules
line = sg.LinearSpace(3, [(0, 1, 2)])
assert sg.amalgamate_or_identify(line, line, [0, 1], sg.MuFunction(2), 6).outcome == "free"
stages["amalgamate_or_identify"] = "numpy" in sys.modules
primitive = sg.is_primitive(sg.cycle_Ck(1).space, [0, 1])
stages["is_primitive"] = "numpy" in sys.modules
table = sg.delta_table(sg.fano()).tolist()
stages["tables"] = "numpy" in sys.modules
print(json.dumps({"stages": stages, "delta_table": table, "is_primitive": primitive}))
"""


def test_numpy_loads_only_with_the_dense_tables(tmp_path):
    ls, mu = tmp_path / "fano.ls", tmp_path / "mu1.txt"
    ls.write_text(to_ls_v1(fano()))
    mu.write_text(to_mu_v1(MuFunction(1)))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ls), str(mu)], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    loaded = [stage for stage, numpy in out["stages"].items() if numpy and stage != "tables"]
    assert loaded == [], f"numpy loaded by: {loaded}"
    assert out["stages"]["tables"]
    assert out["delta_table"] == subset_tables(fano())[0]
    assert out["is_primitive"] is True


def test_console_entry_point_does_not_import_numpy(tmp_path):
    # `python -m steinergeom` runs __main__, which `import steinergeom` skips
    ls = tmp_path / "fano.ls"
    ls.write_text(to_ls_v1(fano()))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "steinergeom", "validate", str(ls)],
        env=ENV, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "in K_0" in done.stdout
    imported = [row.rsplit("|", 1)[-1].strip() for row in done.stderr.splitlines() if row.startswith("import time:")]
    assert "steinergeom.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
