"""Benchmark runner: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ./src.

--trace 0 measures for S seconds: the next op starts when the previous
one returns.  It reports the end-to-end metrics.  setup_s is the median
of SETUP_SAMPLES fresh processes, each timed from spawn until its first
op input is ready.  Times are scaled to a reference speed (see
README.md).

--trace 1 runs a fixed op list (round(S x the workload's trace rate) ops,
at least one) with layer wrappers installed, so its counts repeat
exactly.  It first runs the same ops untraced in a child process; the
output digests must match, and the difference of the two op times is the
tracing overhead.  It reports the per-layer metrics.

--ops K runs exactly K ops instead of measuring for S seconds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it are a readable report.
Details (environment, per-op latencies and digests, spans) go to
.perfbench_out/ in the current directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = Path(".perfbench_out")
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# the speed probe: a fixed pure-Python loop timed between ops, at most
# every PROBE_EVERY_S; REF_PROBE_S is its duration at reference speed
# (the fast state of a 2-core Xeon VM, Python 3.11)
PROBE_EVERY_S = 0.1
REF_PROBE_S = 0.001
# set-up is mostly process start and imports, which the probe loop does not
# track; it is scaled by a reference process that starts and imports numpy,
# REF_SPAWN_S being that process's spawn-to-ready time at reference speed
REF_SPAWN_CMD = [sys.executable, "-c", "import numpy; print('ready')"]
REF_SPAWN_S = 0.2


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None, help="run exactly this many ops")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.ops is not None and args.ops < 1:
        ap.error("--ops must be at least 1")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_workloads():
    """Import the package from ./src and nowhere else."""
    if not (SRC / "steinergeom" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import steinergeom

    if Path(steinergeom.__file__).resolve().parent != (SRC / "steinergeom").resolve():
        raise SystemExit(f"perfbench: imported steinergeom from {steinergeom.__file__}, not {SRC}")
    from workloads import WORKLOADS

    return WORKLOADS


def report_path(args, trace: int, ops) -> Path:
    tail = f"-ops{ops}" if ops is not None else ""
    return OUT_DIR / f"{args.workload}-seed{args.seed}-trace{trace}{tail}.json"


def child_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def setup(cls, seed: int):
    """The workload, its input stream, and the first input."""
    workload = cls(seed)
    stream = workload.inputs()
    return workload, stream, next(stream)


def time_to_ready(cmd: list[str]) -> float:
    """Seconds from spawning `cmd` until it prints its "ready" line; the
    process is then waited for."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: child {cmd[1:3]} failed")
    return elapsed


def sample_setup(args) -> tuple[list[float], list[float]]:
    """Spawn-to-ready times of fresh processes doing the full set-up, each
    after one of a reference process that only imports numpy."""
    setups, refs = [], []
    for _ in range(SETUP_SAMPLES):
        refs.append(time_to_ready(REF_SPAWN_CMD))
        setups.append(time_to_ready(child_cmd(args, "--setup-only")))
    return setups, refs


def env_info(args, ops: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": ops,
    }


def _probe_loop() -> int:
    acc, table = 0, {}
    for i in range(4000):
        acc = (acc * 31 + i) & 0xFFFFF
        table[acc & 511] = i
    return acc + len(sorted(table))


def probe() -> float:
    """Best of three timings of the reference loop."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        _probe_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def run_ops(workload, stream, first, *, seconds, ops, tracer=None):
    """Closed loop over the input stream; returns (latencies, speed
    factors, records, errors, cache deltas).  Inputs after the first are
    made between ops, outside the op timer.  An op's speed factor is the
    mean of the probe timings before and after it over REF_PROBE_S."""
    from tracing import cache_counts

    lat, records, errors = [], [], []
    probes, probe_of_op = [probe()], []
    cache_delta: dict[str, list[int]] = {}
    inp = first
    clock = time.perf_counter
    start = last_probe = clock()
    i = 0
    while True:
        if clock() - last_probe >= PROBE_EVERY_S:
            probes.append(probe())
            last_probe = clock()
        probe_of_op.append(len(probes) - 1)
        before = cache_counts()
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a failed op is counted, not fatal
            out = None
            errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        t1 = clock()
        if tracer is not None:
            tracer.end_op()
            tracer.op = -1
        for name, (h, m) in cache_counts().items():
            d = cache_delta.setdefault(name, [0, 0])
            d[0] += h - before[name][0]
            d[1] += m - before[name][1]
        lat.append(t1 - t0)
        records.append(None if out is None else workload.record(inp, out))
        del out
        i += 1
        if (i >= ops) if ops is not None else (clock() - start >= seconds):
            break
        inp = next(stream)
    probes.append(probe())
    factors = [(probes[k] + probes[k + 1]) / 2 / REF_PROBE_S for k in probe_of_op]
    return lat, factors, records, errors, {k: tuple(v) for k, v in cache_delta.items()}


def load_reference(args) -> list[str]:
    """Recorded per-op output digests; they exist for the default seed."""
    if args.seed != DEFAULT_SEED or not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text())["digests"].get(args.workload, [])


def verify(workload, records, reference: list[str]) -> tuple[list[str], list[str]]:
    """(problems, digests).  A None record is an op that raised."""
    problems, digests = [], []
    for i, rec in enumerate(records):
        if rec is None:
            digests.append("")
            continue
        digests.append(rec["digest"])
        why = workload.check(rec)
        if why is None and i < len(reference) and rec["digest"] != reference[i]:
            why = "output digest differs from the recorded reference"
        if why is not None:
            problems.append(f"op {i}: {why}")
    return problems, digests


def tail(lat: list[float]):
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, or None."""
    s = sorted(lat)
    for p in PERCENTILES:
        if len(s) * (1 - p / 100) >= 10:
            return p, s[math.ceil(p / 100 * len(s)) - 1]
    return None


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_report(path: Path, data: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, default=str))


def emit(lines: list[str], result: dict) -> None:
    for ln in lines:
        print(ln)
    print(json.dumps(result))


def main_untraced(args, cls) -> int:
    setup_samples, ref_samples = sample_setup(args)
    setup_factor = statistics.median(ref_samples) / REF_SPAWN_S
    workload, stream, first = setup(cls, args.seed)
    lat, factors, records, errors, cache_delta = run_ops(workload, stream, first, seconds=args.seconds,
                                                         ops=args.ops)
    problems, digests = verify(workload, records, load_reference(args))
    failed = len(errors) + len(problems)
    n = len(lat)
    # timings at reference speed: wall time over the speed factor
    ref = [t / f for t, f in zip(lat, factors)]
    metrics = {
        "setup_s": (statistics.median(setup_samples) / setup_factor, "s"),
        "ops_per_s": (n / sum(ref), "1/s"),
        "op_p50_s": (statistics.median(ref), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    wall = {"setup_s": statistics.median(setup_samples), "ops_per_s": n / sum(lat),
            "op_p50_s": statistics.median(lat)}
    tl, wall_tl = tail(ref), tail(lat)
    env = env_info(args, n)
    lines = [f"# env {json.dumps(env)}"]
    for k, (v, u) in metrics.items():
        lines.append(f"{k:>13} {v:.6g} {u}" + (f" (wall {wall[k]:.6g} {u})" if k in wall else ""))
    lines.append(f"{'op_tail_s':>13} " + (
        f"{tl[1]:.6g} s (p{tl[0]:g} of {n} samples; wall {wall_tl[1]:.6g} s)" if tl
        else f"not defined with {n} samples"))
    lines.append(f"{'failed_share':>13} {failed / n:.6g} ({failed} of {n} ops)")
    lines.append(f"# times are at reference speed: wall time / speed factor; median speed factor "
                 f"{statistics.median(factors):.4g} during ops (probe loop), {setup_factor:.4g} "
                 f"during set-up (reference process)")
    lines += [f"# {msg}" for msg in errors + problems]
    write_report(report_path(args, 0, args.ops), {
        "env": env, "metrics": metrics, "wall": wall, "op_tail": tl, "wall_op_tail": wall_tl,
        "failed": failed, "setup_samples_s": setup_samples, "ref_spawn_samples_s": ref_samples,
        "latencies_s": lat, "speed_factors": factors, "digests": digests,
        "caches": cache_delta, "problems": errors + problems,
        "inputs": [r["input"] if r else None for r in records],
    })
    emit(lines, {
        "correct": failed == 0, "attempted": n, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return 0


def main_traced(args, cls) -> int:
    ops = args.ops or max(1, round(args.seconds * cls.trace_ops_per_s))

    # the untraced twin runs in its own fresh process so both start cold
    twin_path = report_path(args, 0, ops)
    twin_path.unlink(missing_ok=True)
    twin = subprocess.run(child_cmd(args, "--trace", "0", "--ops", str(ops)),
                          stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    if twin.returncode != 0 or not twin_path.is_file():
        raise SystemExit("perfbench: untraced twin run failed")
    untraced = json.loads(twin_path.read_text())

    import numpy as np
    from tracing import SPAN_FIELDS, Installed, Tracer, layer_metrics

    workload, stream, first = setup(cls, args.seed)
    tracer = Tracer()
    wrappers = Installed(tracer)
    try:
        lat, factors, records, errors, cache_delta = run_ops(workload, stream, first,
                                                             seconds=args.seconds, ops=ops, tracer=tracer)
    finally:
        wrappers.restore()
    problems, digests = verify(workload, records, load_reference(args))
    for i, (mine, theirs) in enumerate(zip(digests, untraced["digests"])):
        if mine != theirs:
            problems.append(f"op {i}: traced output digest differs from the untraced run")
    failed = len(errors) + len(problems)

    metrics = layer_metrics(tracer, cache_delta)
    # overhead at reference speed, since the two runs meet different machine speeds
    traced_s = sum(t / f for t, f in zip(lat, factors))
    untraced_s = sum(t / f for t, f in zip(untraced["latencies_s"], untraced["speed_factors"]))
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.wall_overhead_s"] = (sum(lat) - sum(untraced["latencies_s"]), "s")
    env = env_info(args, len(lat))
    spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.npz"
    spans = tracer.span_array()
    OUT_DIR.mkdir(exist_ok=True)
    np.savez_compressed(spans_path, spans=spans, fields=np.array(SPAN_FIELDS), names=np.array(tracer.names))
    write_report(report_path(args, 1, args.ops), {
        "env": env, "metrics": metrics, "failed": failed, "latencies_s": lat, "speed_factors": factors,
        "untraced_latencies_s": untraced["latencies_s"], "digests": digests,
        "caches": cache_delta, "problems": errors + problems, "spans_file": str(spans_path),
    })
    lines = [f"# env {json.dumps(env)}"]
    lines += [f"{k:>48} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"# traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s at reference speed "
                 f"over {len(lat)} ops; "
                 f"{len(spans)} spans in {spans_path}")
    lines += [f"# {msg}" for msg in errors + problems]
    emit(lines, {
        "correct": failed == 0, "attempted": len(lat), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = load_workloads()
    if args.workload not in workloads:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads)}")
    cls = workloads[args.workload]
    if args.setup_only:
        setup(cls, args.seed)
        print("ready", flush=True)
        return 0
    return main_traced(args, cls) if args.trace else main_untraced(args, cls)


if __name__ == "__main__":
    sys.exit(main())
