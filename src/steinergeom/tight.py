"""Enumeration of candidate extension sets for good pairs.

For a good pair (B, C) with |C| >= 2, every point of C lies on at least
two lines carrying >= 2 points of C, C is connected through such lines,
and every proper nonempty subset of C has standalone delta >= 1.  The
generator below walks exactly the sets reachable under those constraints
inside an ambient space, as bitmasks; callers verify each candidate
exactly afterwards, so the output only needs to be a superset of the
truth.

The walk stays in the core K (_core), the largest point set in which
every point lies on two lines that each hold another point of K: K is
the union of all such sets, so every emitted set lies in it.  A path to
a mask passes only through its subsets, so the masks inside K come out
as over the whole space, in the same order.

The walk is deficiency-guided: while some point still has fewer than two
populated lines, only additions on the lowest such point's unpopulated
lines are tried; once every point is satisfied the set is emitted and
grown through any point collinear with it.  Every point r of K roots one
depth-first search in which r stays the least point, over an explicit
stack of successor masks.  Line counts, degrees, the mask of deficient
points, the mask of points collinear with the set and delta are updated
as a point is added or taken back.  The masks a root reached are dropped
when it is done: every later mask has a larger least point.

Growth is pruned with bounds over all points outside the current set S,
read off the degree order (see _growable): delta can fall by at most
deg(q) - 1 for each point q still added, and a base point's attach
weight is at most its degree and at most |C| // 2.  primitives._good_pairs
chooses the bases of emitted sets exactly.
"""

from __future__ import annotations

from typing import Iterator

from .space import LinearSpace


def _core(space: LinearSpace) -> int:
    """The mask of the core K, peeled as Batagelj and Zaversnik peel a
    graph: a point on fewer than two lines holding another point of K
    leaves K, and the last point of K on a line it leaves loses that line
    and is queued once it is on fewer than two.  Each line falls to one
    point of K once, so this is linear in the incidences."""
    by_point, line_masks = space.lines_by_point, space.line_masks
    have = [len(b) for b in by_point]  # lines through q with another point of K
    core = space.full_mask()
    queue = [q for q in range(space.n) if have[q] < 2]
    while queue:
        q = queue.pop()
        core ^= 1 << q
        for li in by_point[q]:
            rest = line_masks[li] & core
            if rest.bit_count() == 1:
                r = rest.bit_length() - 1
                have[r] -= 1
                if have[r] == 1:
                    queue.append(r)
    return core


def iter_candidate_sets(space: LinearSpace, max_size: int) -> Iterator[tuple[int, int, set[int]]]:
    """(mask, delta, populated line indices) for candidate extension sets
    of size 2..max_size.

    The third element lists the lines carrying >= 2 set points; it is the
    walk's live working set, so consume it before advancing the iterator.
    Every point of the core seeds a search in which it stays the minimum,
    so each set comes out once.
    """
    line_masks, by_point = space.line_masks, space.lines_by_point
    # (degree, point), largest degree first: the outside points of largest
    # degree bound how far a set can still grow and what a base point can
    # attach; a base point may lie outside the core, so all points count
    ranked = sorted(((len(b), q) for q, b in enumerate(by_point)), reverse=True)

    cnt = [0] * len(line_masks)
    deg = [0] * space.n
    pts: list[int] = []
    # near[i]: the points on or collinear with pts[:i]
    near = [0]
    populated: set[int] = set()
    # low: the set points on fewer than two populated lines
    mask = delta = low = 0
    above = _core(space)
    while above:
        root = above & -above
        above ^= root
        visited: set[int] = set()
        # todo[i] holds the untried successors of the set of pts[:i] as a
        # mask, tried lowest bit first
        todo = [root]
        while todo:
            untried = todo[-1]
            if not untried:
                todo.pop()
                if not todo:
                    break
                # take the last point back
                q = pts.pop()
                near.pop()
                mask ^= 1 << q
                low &= ~(1 << q)
                delta -= 1
                for li in by_point[q]:
                    c = cnt[li] - 1
                    cnt[li] = c
                    if c == 1:
                        r = (line_masks[li] & mask).bit_length() - 1
                        deg[r] -= 1
                        if deg[r] == 1:
                            low |= 1 << r
                        populated.discard(li)
                    elif c >= 2:
                        delta += 1
                continue
            bit = untried & -untried
            todo[-1] = untried ^ bit
            nxt = mask | bit
            if nxt in visited:
                continue
            visited.add(nxt)
            # add q
            q = bit.bit_length() - 1
            delta += 1
            dq = 0
            nq = near[-1]
            for li in by_point[q]:
                nq |= line_masks[li]
                c = cnt[li]
                if c == 1:
                    r = (line_masks[li] & mask).bit_length() - 1
                    deg[r] += 1
                    if deg[r] == 2:
                        low ^= 1 << r
                    dq += 1
                    populated.add(li)
                elif c >= 2:
                    delta -= 1
                    dq += 1
                cnt[li] = c + 1
            deg[q] = dq
            low |= bit if dq < 2 else 0
            mask = nxt
            pts.append(q)
            near.append(nq)

            if not low and delta >= 0 and len(pts) >= 2:
                yield mask, delta, populated
            todo.append(0)
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
            if low:
                # additions on the lowest deficient point's unpopulated lines
                p = (low & -low).bit_length() - 1
                succ = 0
                for li in by_point[p]:
                    if cnt[li] == 1:
                        succ |= line_masks[li]
            else:
                succ = near[-1]
            todo[-1] = succ & above & ~mask


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
