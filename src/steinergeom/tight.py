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

Growth is pruned with the global max_lines, the most lines through any
point of the space, as the bound on one base point's attach weight.
Around a hub point that bound is loose, so most emitted sets have no
base; enumerate_good_pairs discards those at emission with the sets'
actual weights.
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
    max_lines = max((len(b) for b in by_point), default=0)
    full = (1 << n) - 1
    # delta can drop by at most (lines through q) - 1 per added point, and
    # a final set C must satisfy delta(C) <= sum of base attach weights
    # <= (max_size - |C|) * max_lines; prefix sums of the sorted gains
    # bound the drop achievable in k more additions
    gains = sorted((len(b) - 1 for b in by_point if len(b) > 1), reverse=True)
    gain_prefix = [0]
    for g in gains:
        gain_prefix.append(gain_prefix[-1] + g)
    gain_prefix.extend([gain_prefix[-1]] * max_size)

    def reachable(size: int, delta: int) -> bool:
        for t in range(size, max_size + 1):
            if delta - gain_prefix[t - size] <= (max_size - t) * max_lines:
                return True
        return False

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
        if not reachable(len(pts), delta):
            return
        room = max_size - len(pts)
        if sum(2 - deg[p] for p in deficient) > room * max_lines:
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

