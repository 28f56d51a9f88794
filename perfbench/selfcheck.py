"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the repository root.  It shows that

* every workload passes a smoke run on tiny inputs, untraced and traced,
  and the traced outputs equal the untraced ones;
* a corrupted output is counted as a failed op, not raised: a flipped
  verdict, an altered trace byte, a moved embedding point, a wrong
  violation list.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

WORKLOADS = run.load_workloads()

import steinergeom as sg  # noqa: E402
from tracing import Installed, Tracer, layer_metrics  # noqa: E402

TINY = {
    "kmu-sparse": {"steps": 60, "bound": 6},
    "kmu-hub": {"shapes": ((1, 1, 1), (1, 1)), "bound": 6},
    "build-long": {"steps": 120},
    "amalgamate": {"extra": 3, "moves": 2},
}


def smoke(name: str, ops: int = 3, tracer=None):
    workload = WORKLOADS[name](seed=1, **TINY[name])
    stream = workload.inputs()
    lat, _f, records, errors, caches = run.run_ops(workload, stream, next(stream), seconds=None,
                                                ops=ops, tracer=tracer)
    problems, digests = run.verify(workload, records, [])
    return workload, records, errors + problems, digests, caches


def check_smoke() -> list[str]:
    failures = []
    for name in WORKLOADS:
        _w, _r, problems, plain, _c = smoke(name)
        if problems:
            failures.append(f"{name}: untraced smoke run failed: {problems}")
        tracer = Tracer()
        wrappers = Installed(tracer)
        try:
            _w, _r, problems, traced, caches = smoke(name, tracer=tracer)
        finally:
            wrappers.restore()
        if problems:
            failures.append(f"{name}: traced smoke run failed: {problems}")
        if traced != plain:
            failures.append(f"{name}: traced digests differ from untraced ones")
        metrics = layer_metrics(tracer, caches)
        if not any(v for k, (v, _u) in metrics.items() if k.endswith(".calls")):
            failures.append(f"{name}: traced run recorded no layer calls")
        print(f"smoke {name}: ok ({len(plain)} ops, {tracer.next_id} spans)")
    return failures


def counted_failed(name: str, corrupt) -> bool:
    """Run one tiny op, corrupt its output, and check it is counted as a
    failed op against the clean output's digest."""
    workload = WORKLOADS[name](seed=2, **TINY[name])
    inp = next(workload.inputs())
    clean = workload.record(inp, workload.run(inp))
    bad = workload.record(inp, corrupt(workload.run(inp)))
    problems, _ = run.verify(workload, [clean, bad], [clean["digest"], clean["digest"]])
    return len(problems) == 1 and problems[0].startswith("op 1:")


def flip_sparse_verdict(out):
    M, trace, ok, viols = out
    return M, trace, not ok, viols


def flip_hub_verdict(out):
    (ok, viols), rest = out[0], out[1:]
    return [(not ok, viols), *rest]


def alter_trace_byte(out):
    (M, trace), rest = out[0], out[1:]
    trace.seed += 1  # one character of the trace text changes
    return [(M, trace), *rest]


def move_embedding(out):
    d0 = min(out.e_embedding)
    out.e_embedding[d0] = out.structure.n - 1
    return out


def check_corruption() -> list[str]:
    failures = []
    for name, how, corrupt in (
        ("kmu-sparse", "flipped verdict", flip_sparse_verdict),
        ("kmu-hub", "flipped verdict", flip_hub_verdict),
        ("build-long", "altered trace byte", alter_trace_byte),
        ("amalgamate", "moved embedding point", move_embedding),
    ):
        ok = counted_failed(name, corrupt)
        print(f"corrupt {name} ({how}): {'counted as failed' if ok else 'NOT counted'}")
        if not ok:
            failures.append(f"{name}: a {how} was not counted as a failed op")
    return failures


def check_raising_op() -> list[str]:
    """An op that raises is counted and the loop goes on."""
    workload = WORKLOADS["kmu-hub"](seed=3, **TINY["kmu-hub"])
    good = workload.inputs()

    def stream():
        yield ("broken", (0, 1), sg.LinearSpace(2, []))
        yield from good

    s = stream()
    _lat, _f, records, errors, _c = run.run_ops(workload, s, next(s), seconds=None, ops=2)
    problems, _ = run.verify(workload, records, [])
    ok = len(errors) == 1 and not problems and records[0] is None
    print(f"raising op: {'counted as failed' if ok else 'NOT counted'}")
    return [] if ok else ["an op that raised was not counted as failed"]


def main() -> int:
    failures = check_smoke() + check_corruption() + check_raising_op()
    for f in failures:
        print("FAIL", f)
    print("selfcheck:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
