"""Layer spans and counters for the traced run, recorded from outside
the package.

`Installed` wraps the public entry points of each layer and rebinds every
module-level name that refers to them (`steinergeom.primitives.
iter_candidate_sets`, `steinergeom.builder.copies_over_base`, ...), so
calls made inside the package go through the wrappers too.
`LinearSpace.__init__` is wrapped on the class.  `restore()` puts the
originals back.  Nothing in the package is edited.

A span records name, start, end, parent span and op id.  Generators are
timed across their `next()` calls only.  A span's self time is its busy
time minus the busy time of its child spans.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

from steinergeom import amalgam, builder, dimension, mu, primitives, space, tight
from steinergeom.space import LinearSpace

SPAN_FIELDS = ("span", "name", "op", "parent", "start", "end", "busy", "self")

# hit-ratio metric -> lru_cache table, read through cache_info(); no
# table is cleared or resized
CACHES = {
    "dimension.delta_table.cache_hit_ratio": dimension._delta_table_cached,
    "primitives.tables_cache.hit_ratio": primitives._tables,
    "primitives.from_base_table_cache.hit_ratio": primitives._from_base_table,
    "mu.copy_groups_cache.hit_ratio": mu._copy_groups_full,
}


def cache_counts() -> dict[str, tuple[int, int]]:
    out = {}
    for name, fn in CACHES.items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses)
    return out


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("d")
        self.stack: list[list] = []  # [span id, name id, parent id, start, child busy]
        self.next_id = 0
        # spans outside ops (input generation between ops) are recorded
        # with op -1 and left out of every metric
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.open_iters: list[TracedIter] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> list:
        parent = self.stack[-1][0] if self.stack else -1
        frame = [self.next_id, nid, parent, self.clock(), 0.0]
        self.next_id += 1
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = self.clock()
        self.stack.pop()
        busy = end - frame[3]
        if self.stack:
            self.stack[-1][4] += busy
        self._emit(frame[0], frame[1], frame[2], frame[3], end, busy, busy - frame[4])

    def _emit(self, sid, nid, parent, start, end, busy, self_time) -> None:
        self.records.extend((sid, nid, self.op, parent, start, end, busy, self_time))
        if self.op < 0:
            return
        name = self.names[nid]
        self.calls[name] += 1
        self.self_s[name] += self_time

    def end_op(self) -> None:
        for it in self.open_iters:
            it.finish()
        self.open_iters.clear()

    def span_array(self) -> np.ndarray:
        return np.frombuffer(self.records, dtype=np.float64).reshape(-1, len(SPAN_FIELDS))


class TracedIter:
    """Iterator proxy whose span covers only the time inside next()."""

    __slots__ = ("tracer", "inner", "sid", "nid", "parent", "start", "busy", "child", "done", "counter")

    def __init__(self, tracer: Tracer, nid: int, inner, counter: str):
        self.tracer = tracer
        self.inner = inner
        self.sid = tracer.next_id
        tracer.next_id += 1
        self.nid = nid
        self.parent = tracer.stack[-1][0] if tracer.stack else -1
        self.start = tracer.clock()
        self.busy = 0.0
        self.child = 0.0
        self.done = False
        self.counter = counter
        tracer.open_iters.append(self)

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        frame = [self.sid, self.nid, self.parent, tr.clock(), 0.0]
        tr.stack.append(frame)
        try:
            item = next(self.inner)
        except StopIteration:
            self._leave(frame)
            self.finish()
            raise
        except BaseException:
            self._leave(frame)
            raise
        self._leave(frame)
        if tr.op >= 0:
            tr.counts[self.counter] += 1
        return item

    def _leave(self, frame: list) -> None:
        tr = self.tracer
        busy = tr.clock() - frame[3]
        tr.stack.pop()
        if tr.stack:
            tr.stack[-1][4] += busy
        self.busy += busy
        self.child += frame[4]

    def finish(self) -> None:
        if self.done:
            return
        self.done = True
        tr = self.tracer
        tr._emit(self.sid, self.nid, self.parent, self.start, tr.clock(), self.busy, self.busy - self.child)


def _wrap(tracer: Tracer, name, fn, after=None):
    """`name` is a span name or a function of the call's kwargs giving one.
    Exceptions are counted per span and type, then re-raised."""

    def wrapper(*args, **kwargs):
        span = name(kwargs) if callable(name) else name
        frame = tracer.open(tracer.name_id(span))
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if tracer.op >= 0:
                tracer.counts[f"{span}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            tracer.close(frame)
        if after is not None and tracer.op >= 0:
            after(tracer.counts, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_iter(tracer: Tracer, name: str, fn, counter: str):
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        return TracedIter(tracer, nid, fn(*args, **kwargs), counter)

    wrapper.__wrapped__ = fn
    return wrapper


def _count_pairs(counts, pairs):
    for gp, _emb in pairs:
        counts["primitives.enumerate_good_pairs.pairs_alpha" if gp.code == primitives.ALPHA_CODE
               else "primitives.enumerate_good_pairs.pairs_other"] += 1


def _count_accepted(counts, good):
    counts["primitives.is_good_pair.accepted"] += bool(good)


def _count_images(counts, images):
    counts["primitives.copies_over_base.images"] += len(images)


def _count_amalgam(counts, result):
    counts[f"amalgam.outcome_{result.outcome}"] += 1


def _count_build(counts, result):
    M, trace = result
    for st in trace.steps:
        counts[f"builder.steps.{st.kind}"] += 1
    counts["builder.points"] += M.n
    counts["builder.isolated_points"] += sum(1 for b in M.lines_by_point if not b)


def _kmu_name(kwargs):
    return "mu.in_K_mu_bounded_touching" if kwargs.get("touching") else "mu.in_K_mu_bounded_full"


def _wrappers(tracer: Tracer):
    """A wrapper per layer entry point; each keeps the original as __wrapped__."""
    return [
        _wrap(tracer, "space.induced", space.induced),
        _wrap(tracer, "dimension.delta_table", dimension.delta_table),
        _wrap(tracer, "dimension.d_table", dimension.d_table),
        _wrap(tracer, "dimension.min_delta_interval", dimension.min_delta_interval),
        _wrap(tracer, "dimension.is_strong", dimension.is_strong),
        _wrap_iter(tracer, "tight.iter_candidate_sets", tight.iter_candidate_sets,
                   "tight.iter_candidate_sets.yielded"),
        _wrap(tracer, "primitives.enumerate_good_pairs", primitives.enumerate_good_pairs, _count_pairs),
        _wrap(tracer, "primitives.is_good_pair", primitives.is_good_pair, _count_accepted),
        _wrap(tracer, "primitives.canonical_code", primitives.canonical_code),
        _wrap(tracer, "primitives.copies_over_base", primitives.copies_over_base, _count_images),
        _wrap(tracer, "primitives.decompose", primitives.decompose),
        _wrap(tracer, _kmu_name, mu.in_K_mu_bounded),
        _wrap(tracer, "amalgam.amalgamate_or_identify", amalgam.amalgamate_or_identify, _count_amalgam),
        _wrap(tracer, "builder.build", builder.build, _count_build),
    ]


class Installed:
    """The wrappers in place; `restore()` undoes every rebinding."""

    def __init__(self, tracer: Tracer):
        self.undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "steinergeom" or n.startswith("steinergeom."))]
        for wrapper in _wrappers(tracer):
            original = wrapper.__wrapped__
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self.undo.append((m, key, val))
                        setattr(m, key, wrapper)
        init = LinearSpace.__init__
        self.undo.append((LinearSpace, "__init__", init))
        LinearSpace.__init__ = _wrap(tracer, "space.LinearSpace", init)

    def restore(self) -> None:
        for obj, key, val in reversed(self.undo):
            setattr(obj, key, val)
        self.undo.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_delta: dict[str, tuple[int, int]]) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit), summed over the traced ops."""
    calls, self_s, c = tracer.calls, tracer.self_s, tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in ("space.LinearSpace", "space.induced", "dimension.delta_table",
                 "dimension.min_delta_interval", "tight.iter_candidate_sets",
                 "primitives.is_good_pair", "primitives.canonical_code",
                 "primitives.copies_over_base", "mu.in_K_mu_bounded_full",
                 "mu.in_K_mu_bounded_touching"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in ("space.LinearSpace", "space.induced", "dimension.delta_table", "dimension.d_table",
                 "dimension.min_delta_interval", "dimension.is_strong", "tight.iter_candidate_sets",
                 "primitives.enumerate_good_pairs", "primitives.is_good_pair",
                 "primitives.canonical_code", "primitives.copies_over_base", "primitives.decompose",
                 "mu.in_K_mu_bounded_full", "mu.in_K_mu_bounded_touching",
                 "amalgam.amalgamate_or_identify", "builder.build"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    yielded = c["tight.iter_candidate_sets.yielded"]
    other = c["primitives.enumerate_good_pairs.pairs_other"]
    out["tight.iter_candidate_sets.yielded"] = (yielded, "count")
    out["tight.candidate_accept_ratio"] = (_ratio(other, yielded), "ratio")
    out["primitives.enumerate_good_pairs.pairs_alpha"] = (c["primitives.enumerate_good_pairs.pairs_alpha"], "count")
    out["primitives.enumerate_good_pairs.pairs_other"] = (other, "count")
    accepted = c["primitives.is_good_pair.accepted"]
    out["primitives.is_good_pair.accepted"] = (accepted, "count")
    out["primitives.is_good_pair.accept_ratio"] = (_ratio(accepted, calls["primitives.is_good_pair"]), "ratio")
    out["primitives.copies_over_base.images"] = (c["primitives.copies_over_base.images"], "count")
    for metric, (hits, misses) in cache_delta.items():
        out[metric] = (_ratio(hits, hits + misses), "ratio")
    for key in ("outcome_free", "outcome_identified"):
        out[f"amalgam.{key}"] = (c[f"amalgam.{key}"], "count")
    out["amalgam.bound_too_small"] = (c["amalgam.amalgamate_or_identify.raised.BoundTooSmall"], "count")
    for kind in ("add-point", "complete-line", "realize", "identify"):
        out[f"builder.steps.{kind}"] = (c[f"builder.steps.{kind}"], "count")
    out["builder.identify_rate"] = (
        _ratio(c["builder.steps.identify"], c["builder.steps.identify"] + c["builder.steps.realize"]), "ratio")
    out["builder.isolated_share"] = (_ratio(c["builder.isolated_points"], c["builder.points"]), "ratio")
    return out
