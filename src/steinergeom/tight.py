"""Enumeration of candidate extension sets for good pairs.

For a good pair (B, C) with |C| >= 2, every point of C lies on at least
two lines carrying >= 2 points of C, C is connected through such lines,
and every proper nonempty subset of C has standalone delta >= 1.  The
generator below walks exactly the sets reachable under those constraints
inside an ambient space, as bitmasks; callers verify each candidate
exactly afterwards, so the output only needs to be a superset of the
truth.

The walk is deficiency-guided: while some point still has fewer than two
populated lines, only additions on the lowest such point's unpopulated
lines are tried; once every point is satisfied the set is emitted and
grown through arbitrary collinear neighbours.  Per-line point counts,
degrees, and delta are maintained incrementally across the DFS.

There is one walk, always over the whole space.  enumerate_good_pairs
consumes it, and the bounded K_mu check groups that enumeration once per
structure and bound.

Growth is pruned with bounds over the points outside the current set S,
read off the degree order (see _growable): delta can fall by at most
deg(q) - 1 for each point q still added, and a base point's attach
weight is at most its degree and at most |C| // 2.  Once the hubs of a
stack lie in S, their degrees no longer count.  Emitted sets are not tested for a
base; enumerate_good_pairs does that exactly, with the sets' actual
weights, when it chooses bases.
"""

from __future__ import annotations

from typing import Iterator

from .space import LinearSpace


def iter_candidate_sets(space: LinearSpace, max_size: int) -> Iterator[tuple[int, int, set[int]]]:
    """(mask, delta, populated line indices) for candidate extension sets
    of size 2..max_size.

    The third element lists the lines carrying >= 2 set points; it is the
    walk's live working set, so consume it before advancing the iterator.
    Every point seeds a search in which it stays the minimum, so each
    set comes out once.
    """
    n = space.n
    lines = space.lines
    by_point = space.lines_by_point
    # (degree, point), largest degree first: the outside points of largest
    # degree bound how far a set can still grow and what a base point can
    # attach
    ranked = sorted(((len(b), q) for q, b in enumerate(by_point)), reverse=True)
    full = (1 << n) - 1

    cnt = [0] * len(lines)
    deg = [0] * n
    pts: list[int] = []
    lines2: set[int] = set()
    state = {"mask": 0, "delta": 0}
    visited: set[int] = set()

    def add(q: int) -> None:
        mask = state["mask"]
        d = state["delta"] + 1
        dq = 0
        for li in by_point[q]:
            c = cnt[li]
            if c == 1:
                for r in lines[li]:
                    if mask >> r & 1:
                        deg[r] += 1
                dq += 1
                lines2.add(li)
            elif c >= 2:
                d -= 1
                dq += 1
            cnt[li] = c + 1
        deg[q] = dq
        state["mask"] = mask | (1 << q)
        state["delta"] = d
        pts.append(q)

    def remove(q: int) -> None:
        mask = state["mask"] & ~(1 << q)
        state["mask"] = mask
        d = state["delta"] - 1
        for li in by_point[q]:
            c = cnt[li] - 1
            cnt[li] = c
            if c == 1:
                for r in lines[li]:
                    if mask >> r & 1:
                        deg[r] -= 1
                lines2.discard(li)
            elif c >= 2:
                d += 1
        deg[q] = 0
        state["delta"] = d
        pts.pop()

    def expand(allowed: int) -> Iterator[tuple[int, int, set[int]]]:
        mask = state["mask"]
        delta = state["delta"]
        deficient = [p for p in pts if deg[p] < 2]
        if not deficient and delta >= 0 and len(pts) >= 2:
            yield mask, delta, lines2
        if delta <= 0 or len(pts) >= max_size:
            return
        room = max_size - len(pts)
        # degrees of the `room` largest-degree points outside the set
        top: list[int] = []
        for d, q in ranked:
            if not mask >> q & 1:
                top.append(d)
                if len(top) == room:
                    break
        if not _growable(len(pts), delta, max_size, top):
            return
        succ = set()
        if deficient:
            p = min(deficient)
            for li in by_point[p]:
                if cnt[li] == 1:
                    for q in lines[li]:
                        if not mask >> q & 1 and allowed >> q & 1:
                            succ.add(q)
        else:
            for p in pts:
                for li in by_point[p]:
                    for q in lines[li]:
                        if not mask >> q & 1 and allowed >> q & 1:
                            succ.add(q)
        for q in sorted(succ):
            nxt = mask | (1 << q)
            if nxt in visited:
                continue
            visited.add(nxt)
            add(q)
            yield from expand(allowed)
            remove(q)

    try:
        for root in range(n):
            add(root)
            yield from expand(full & ~((1 << root) - 1))
            remove(root)
    finally:
        # expand calls itself through its closure cell, a reference cycle
        # that would keep `visited` and the counters alive until the next
        # full collection; emptying the cell frees them when the walk ends
        del expand


def _growable(size: int, delta: int, max_size: int, top: list[int]) -> bool:
    """False only if no final set C > S with |C| <= max_size can have
    delta(C) covered by the weights of its base points.  S has `size`
    points and delta `delta`; `top` holds the largest degrees of points
    outside S, falling, one for each point C may still add.

    Each point q added on the way to C lowers delta by at most
    deg(q) - 1, so delta(C) >= delta - (the top |C| - size gains).  A base
    point q lies outside C, and its weight, the populated lines of C
    through q, is at most deg(q) and at most |C| // 2, since those lines
    meet only at q and each carries two points of C.  At most
    max_size - |C| base points fit.
    """
    drop = 0
    for t in range(size + 1, size + len(top) + 1):
        drop += top[t - size - 1] - 1
        if delta - drop <= (max_size - t) * min(top[0], t // 2):
            return True
    return False
