"""Record the reference output digests of the default seed.

    python3 perfbench/record_reference.py

Run from the repository root, only when a change of outputs is intended.
Each workload runs its first REFERENCE_OPS ops untraced in a fresh
process; every check must pass.  The per-op digests (trace-v1 bytes,
violation lists, amalgam results) go to perfbench/reference.json, and
later runs with the default seed count any op whose digest differs as
failed.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

# more ops than one --seconds 20 run completes on a 2-core Xeon VM
REFERENCE_OPS = {"kmu-sparse": 40, "kmu-hub": 60, "build-long": 25, "amalgamate": 150}


def main() -> int:
    run.REFERENCE.unlink(missing_ok=True)
    digests = {}
    for name, ops in REFERENCE_OPS.items():
        args = run.parse_args(["--workload", name, "--seed", str(run.DEFAULT_SEED), "--ops", str(ops)])
        subprocess.run(run.child_cmd(args, "--trace", "0", "--ops", str(ops)), check=True,
                       stdout=subprocess.DEVNULL, timeout=900)
        report = json.loads(run.report_path(args, 0, ops).read_text())
        if report["problems"]:
            print(f"{name}: not recorded, checks failed: {report['problems']}")
            return 1
        digests[name] = report["digests"]
        print(f"{name}: {len(digests[name])} digests")
    run.REFERENCE.write_text(json.dumps({"seed": run.DEFAULT_SEED, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
