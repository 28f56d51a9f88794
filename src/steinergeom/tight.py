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
grown through arbitrary collinear neighbours.

Every point r roots one depth-first search in which r stays the least
point, run as one loop over an explicit stack of successor lists.
Per-line point counts, the populated-line degree of each set point, and
delta are updated in place as a point is added or taken back.  The masks
already reached are kept per root: every mask in r's search has r as its
least point, so no later root looks one of them up, and they are dropped
when r is done.  A walk over disjoint components thus holds one
component's masks at a time.

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

    cnt = [0] * len(lines)
    deg = [0] * n
    pts: list[int] = []
    populated: set[int] = set()
    mask = delta = 0
    for root in range(n):
        visited: set[int] = set()
        # todo[i] holds the untried successors of the set of pts[:i],
        # largest last, so pop() tries them in ascending order
        todo = [[root]]
        while todo:
            untried = todo[-1]
            if not untried:
                todo.pop()
                if not todo:
                    break
                # take the last point back
                q = pts.pop()
                mask &= ~(1 << q)
                delta -= 1
                for li in by_point[q]:
                    c = cnt[li] - 1
                    cnt[li] = c
                    if c == 1:
                        for r in lines[li]:
                            if mask >> r & 1:
                                deg[r] -= 1
                        populated.discard(li)
                    elif c >= 2:
                        delta += 1
                deg[q] = 0
                continue
            q = untried.pop()
            nxt = mask | (1 << q)
            if nxt in visited:
                continue
            visited.add(nxt)
            # add q
            delta += 1
            dq = 0
            for li in by_point[q]:
                c = cnt[li]
                if c == 1:
                    for r in lines[li]:
                        if mask >> r & 1:
                            deg[r] += 1
                    dq += 1
                    populated.add(li)
                elif c >= 2:
                    delta -= 1
                    dq += 1
                cnt[li] = c + 1
            deg[q] = dq
            mask = nxt
            pts.append(q)

            deficient = [p for p in pts if deg[p] < 2]
            if not deficient and delta >= 0 and len(pts) >= 2:
                yield mask, delta, populated
            todo.append([])
            if delta <= 0 or len(pts) >= max_size:
                continue
            room = max_size - len(pts)
            # degrees of the `room` largest-degree points outside the set
            top: list[int] = []
            for d, r in ranked:
                if not mask >> r & 1:
                    top.append(d)
                    if len(top) == room:
                        break
            if not _growable(len(pts), delta, max_size, top):
                continue
            succ = set()
            if deficient:
                p = min(deficient)
                for li in by_point[p]:
                    if cnt[li] == 1:
                        for r in lines[li]:
                            if r > root and not mask >> r & 1:
                                succ.add(r)
            else:
                for p in pts:
                    for li in by_point[p]:
                        for r in lines[li]:
                            if r > root and not mask >> r & 1:
                                succ.add(r)
            todo[-1] = sorted(succ, reverse=True)


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
