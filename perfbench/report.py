"""Run every workload untraced and traced, and print one table.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the repository root.  Each run is its own process
(perfbench/run.py); the table gives every end-to-end metric with its
unit, the tail latency where a run has one, the failed share, and the
tracing overhead.  Exit code 1 if any run reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_one(args, name: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900).stdout
    result = json.loads(out.strip().splitlines()[-1])
    ns = run.parse_args(["--workload", name, "--seed", str(args.seed)])
    result["report"] = json.loads(run.report_path(ns, trace, None).read_text())
    return result


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    all_correct = True
    env = None
    for w in bench["workloads"]:
        name = w["name"]
        plain, traced = run_one(args, name, 0), run_one(args, name, 1)
        env = plain["report"]["env"]
        all_correct &= plain["correct"] and traced["correct"]
        rep = plain["report"]
        n, failed = plain["attempted"], plain["failed"]
        print(f"== {name}: {w['why']}")
        for k, m in plain["metrics"].items():
            wall = rep["wall"].get(k)
            print(f"   {k:>13} {m['value']:.6g} {m['unit']}"
                  + (f"  (wall {wall:.6g} {m['unit']})" if wall is not None else ""))
        tl = rep["op_tail"]
        print(f"   {'op_tail_s':>13} " + (f"{tl[1]:.6g} s  (p{tl[0]:g}, {n} samples)" if tl
                                         else f"not defined ({n} samples)"))
        print(f"   {'failed_share':>13} {failed / n:.6g}  ({failed} of {n} ops)")
        tm = traced["metrics"]
        print(f"   traced {traced['attempted']} ops: overhead {tm['trace.overhead_s']['value']:.4g} s "
              f"({100 * tm['trace.overhead_ratio']['value']:.1f}%) at reference speed, "
              f"{tm['trace.wall_overhead_s']['value']:.4g} s wall; "
              f"outputs {'equal' if traced['correct'] else 'DIFFER'}")
    print(f"# env python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, cpu {env['cpu']}, "
          f"seed {args.seed}, {args.seconds:g} s per run")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
