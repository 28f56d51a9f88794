"""Hereditary nonnegativity, strong substructure, intrinsic closure, and
the dimension function derived from the predimension.

Every interval question is one maximum flow, _flow.  For lo <= X <=
hi, a line l with k_l = |l & hi| >= 3 gives max(0, |l & X| - 2) = k_l -
2 - min(k_l - 2, m_l), where the m_l points of l & hi out of X are free
(in hi - lo).  So delta(X) = |lo| - sum(k_l - 2) + |X - lo| + sum
min(k_l - 2, m_l), the last two terms being the cut that puts X's free
points on the source side of the network s -> l (k_l - 2), l -> p (1)
for each free p on l, p -> t (1), over the lines holding a free point:
min delta = |lo| - sum(k_l - 2) + maxflow (Kolmogorov and Zabih, 2004).
The flow runs in phases (Dinic): a breadth-first pass levels the lines
from those with spare capacity, then an iterative depth-first pass with
a current-arc pointer per line pushes a blocking flow along the levels.
The minimum cuts' source sides are the node sets that hold s, not t,
and every node a residual arc leaves them for (Picard and Queyranne,
1980).  They are closed under union and intersection: the least holds
the free points s reaches in the residual network, _reached, and the
greatest all but those that reach t, _reaching.  So min_delta_interval
and d read the minimum, and icl and d_closure (through _interval) the
least and the greatest delta-minimizer of [X, M]: icl(X) is strong, as
no set of [X, M] has delta below d(X), and p is in some minimizer iff
d(X + p) = d(X).

0-primitivity reads the residual network itself
(primitives._zero_primitive).  C is 0-primitive over B when B and BC
are the only minimizers of [B, BC].  When both minimize, every point of
C is fed, s reaches none, and the residual arcs among points are p -> q
for q on the line feeding p and fed by another line; only B and BC
minimize exactly when the digraph of these arcs is strongly connected.

is_strong(lo, hi) looks for the (size, lex)-least X in [lo, hi] with
delta(X) < delta(lo); one exists iff the flow's minimum is below
delta(lo).  For such an X and the least minimizer Y, submodularity and
delta(X | Y) >= delta(Y) give delta(X & Y) <= delta(X), so the least X
lies in Y.  _least_below searches [lo, Y] alone, at most SEARCH_LIMIT
free points, by a binary branch-and-bound that tries them in falling
order of deg p - 1, the most adding p lowers delta, each in before out.
It replaces its incumbent by a smaller set below the threshold, or by
one of the same size that holds the lowest point of their symmetric
difference, so it ends with the (size, lex)-least one.  A branch is cut
when its set is below the threshold, since the sets above it are larger,
or when its `room` = |incumbent| - |X - lo| largest drops left,
suffix[i] - suffix[i + room], cannot bring delta below the threshold;
with no room left that sum is 0.  in_K0 is is_strong(∅, M).  Dense
numpy tables (delta_table, d_table) serve only check_exchange and the
tests, where every subset's value is needed; numpy is imported on the
first table call, so nothing else loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import SizeLimit
from .space import LinearSpace, _mask, delta_mask, mask_of, points_of

if TYPE_CHECKING:
    import numpy as np

SEARCH_LIMIT = 24
TABLE_LIMIT = 24
EXCHANGE_LIMIT = 16


@dataclass(frozen=True)
class StrongExtensionWitness:
    """Certificate that lo is (not) strong in hi.

    `violating` is the (size, lex)-least set X with lo <= X <= hi and
    delta(X) < delta(lo), present exactly when the relation fails.
    """

    lo: frozenset[int]
    hi: frozenset[int]
    violating: Optional[frozenset[int]] = None

    @property
    def ok(self) -> bool:
        return self.violating is None


def min_delta_interval(space: LinearSpace, lo_mask: int, hi_mask: int) -> int:
    """Minimum of delta(X) over lo <= X <= hi (as masks)."""
    return _flow(space, lo_mask, hi_mask)[0]


def _interval(space: LinearSpace, lo_mask: int, hi_mask: int) -> tuple[int, int, int]:
    """(min delta, least minimizer, greatest minimizer) over [lo, hi], the
    sets as masks, read off one maximum flow."""
    low, members, on, owner, spare = _flow(space, lo_mask, hi_mask)
    sink = _reaching(members, on, owner, [p for p in on if p not in owner])
    greatest = lo_mask | mask_of(p for p in on if p not in sink)
    return low, lo_mask | mask_of(_reached(members, owner, spare)), greatest


def _flow(space: LinearSpace, lo_mask: int, hi_mask: int) -> tuple[int, list, dict, dict, list]:
    """The maximum flow of [lo, hi]'s network and its residual network:
    (min delta, the free points of each network line, the network lines
    through each free point on one, the line feeding each fed point, the
    lines with spare capacity)."""
    if hi_mask < 0 or hi_mask >> space.n:
        raise ValueError(f"hi_mask {hi_mask:#x} has a bit outside the points 0..{space.n - 1}")
    if lo_mask & ~hi_mask:
        raise ValueError("lo not contained in hi")
    free, low = hi_mask & ~lo_mask, lo_mask.bit_count()
    caps, members, on = [], [], {}  # per network line: capacity, free points; per point: lines
    for ln, lm in zip(space.lines, space.line_masks):
        k = (lm & hi_mask).bit_count()
        if k >= 3:
            low -= k - 2
            if f := lm & free:
                members.append(ln if f == lm else [p for p in ln if f >> p & 1])
                for p in members[-1]:
                    on.setdefault(p, []).append(len(caps))
                caps.append(k - 2)
    owner, used = {}, [0] * len(caps)  # owner[p]: the line whose unit p passes to t
    while True:
        level = [0 if u < c else -1 for u, c in zip(used, caps)]
        layer, depth = [i for i, lv in enumerate(level) if lv == 0], 0
        while layer and all(p in owner for i in layer for p in members[i]):
            nxt = []
            for i in layer:
                for j in (owner[p] for p in members[i]):
                    if level[j] < 0:
                        level[j] = depth + 1
                        nxt.append(j)
            layer, depth = nxt, depth + 1
        if not layer:
            break
        ptr = [0] * len(caps)
        for root in range(len(caps)):
            while level[root] == 0 and used[root] < caps[root]:
                path, via = [root], []  # path[k] feeds via[k], taking it from path[k + 1]
                while path:
                    i = path[-1]
                    if ptr[i] == len(members[i]):
                        level[i] = -1
                        path.pop()
                        del via[-1:]
                        continue
                    p = members[i][ptr[i]]
                    ptr[i] += 1
                    j = owner.get(p)
                    if j is None or level[j] == level[i] + 1 <= depth:
                        via.append(p)
                        if j is None:
                            owner.update(zip(via, path))
                            used[root] += 1
                            break
                        path.append(j)
    spare = [i for i, c in enumerate(caps) if used[i] < c]
    return low + sum(used), members, on, owner, spare


def _reached(members: list, owner: dict, lines: list[int]) -> set[int]:
    """The free points that residual arcs reach from `lines`: from a line
    the points it does not feed, from a point the line feeding it."""
    stack, seen, out = list(lines), set(lines), set()
    while stack:
        i = stack.pop()
        for p in members[i]:
            if owner[p] != i and p not in out:
                out.add(p)
                if owner[p] not in seen:
                    seen.add(owner[p])
                    stack.append(owner[p])
    return out


def _reaching(members: list, on: dict, owner: dict, points: list[int]) -> set[int]:
    """The free points with a residual path to `points`, these included:
    a line through a point it does not feed reaches it, and a point
    reaches the line feeding it."""
    stack, seen, out = list(points), set(), set(points)
    while stack:
        p = stack.pop()
        for i in on[p]:
            if owner.get(p) != i and i not in seen:
                seen.add(i)
                new = [q for q in members[i] if owner.get(q) == i and q not in out]
                out.update(new)
                stack += new
    return out


def _least_below(space: LinearSpace, lo_mask: int, hi_mask: int, threshold: int) -> Optional[int]:
    """The (size, lex)-least X with lo <= X <= hi and delta(X) < threshold,
    as a mask, or None; at most SEARCH_LIMIT free points."""
    free_mask = hi_mask & ~lo_mask
    if free_mask.bit_count() > SEARCH_LIMIT:
        raise SizeLimit(f"{free_mask.bit_count()} free points exceeds search limit {SEARCH_LIMIT}")
    drop = {p: max(0, space.degrees[p] - 1) for p in points_of(free_mask)}
    free = sorted(drop, key=lambda p: -drop[p])
    suffix = [0] * (2 * len(free) + 2)
    for i in range(len(free) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + drop[free[i]]
    counts = [(lm & lo_mask).bit_count() for lm in space.line_masks]
    lines, bits = [space.lines_by_point[p] for p in free], [1 << p for p in free]
    best = [len(free) + 1, None]
    _below_from(lines, counts, suffix, bits, threshold, best, 0, delta_mask(space, lo_mask), lo_mask, 0)
    return best[1]


def _below_from(
    lines: list, counts: list[int], suffix: list[int], bits: list[int], threshold: int,
    best: list, i: int, cur: int, mask: int, size: int,
) -> None:
    """Put into best = [size, mask] each set that is below `threshold`,
    (size, lex)-less than it, and `mask` plus some of the free points i,
    i + 1, ...; `mask` has delta `cur`, counts[l] points on line l and
    `size` free points.  counts is restored."""
    if cur < threshold:
        if size < best[0] or (diff := mask ^ best[1]) & -diff & mask:
            best[0], best[1] = size, mask
        return
    room = best[0] - size
    if cur - suffix[i] + suffix[i + room] >= threshold:
        return
    gain = 0
    for li in lines[i]:
        if counts[li] >= 2:
            gain += 1
        counts[li] += 1
    _below_from(lines, counts, suffix, bits, threshold, best, i + 1, cur + 1 - gain, mask | bits[i], size + 1)
    for li in lines[i]:
        counts[li] -= 1
    _below_from(lines, counts, suffix, bits, threshold, best, i + 1, cur, mask, size)


def in_K0(space: LinearSpace):
    """Whether every subset has nonnegative delta.

    Returns (True, None) or (False, minimal violating subset), minimal
    by size then lexicographically: K_0 membership is is_strong(∅, M),
    since delta(∅) = 0.
    """
    w = is_strong(space, (), range(space.n))
    return w.ok, w.violating


def is_strong(space: LinearSpace, lo: Iterable[int], hi: Iterable[int]) -> StrongExtensionWitness:
    """Test lo <= hi: no X between them drops delta below delta(lo); the
    witness holds the (size, lex)-least X that does, which lies in the
    least delta-minimizer of [lo, hi]."""
    lo_mask, hi_mask = _mask(space.n, lo), _mask(space.n, hi)
    low, least, _ = _interval(space, lo_mask, hi_mask)
    base = delta_mask(space, lo_mask)
    bad = _least_below(space, lo_mask, least, base) if low < base else None
    lo_f, hi_f = frozenset(points_of(lo_mask)), frozenset(points_of(hi_mask))
    return StrongExtensionWitness(lo_f, hi_f, None if bad is None else frozenset(points_of(bad)))


def icl_mask(space: LinearSpace, x_mask: int) -> int:
    """Least strong superset of X, as a mask: the least delta-minimizer
    over [X, M]."""
    return _interval(space, x_mask, space.full_mask())[1]


def icl(space: LinearSpace, X: Iterable[int]) -> frozenset[int]:
    """Intrinsic closure: the least strong superset of X."""
    return frozenset(points_of(icl_mask(space, _mask(space.n, X))))


def d(space: LinearSpace, X: Iterable[int]) -> int:
    """Dimension: minimum delta over supersets of X."""
    return min_delta_interval(space, _mask(space.n, X), space.full_mask())


def d_closure(space: LinearSpace, X: Iterable[int]) -> frozenset[int]:
    """Points whose addition does not raise the dimension of X: the
    greatest delta-minimizer over [X, M]."""
    return frozenset(points_of(_interval(space, _mask(space.n, X), space.full_mask())[2]))


# -- dense table path --------------------------------------------------

def delta_table(space: LinearSpace) -> np.ndarray:
    """delta of every subset, indexed by bitmask; needs n <= TABLE_LIMIT.

    The returned array is shared across calls and read-only; copy before
    mutating.
    """
    n = space.n
    if n > TABLE_LIMIT:
        raise SizeLimit(f"{n} points exceeds table limit {TABLE_LIMIT}")
    return _delta_table_cached(space)


@lru_cache(maxsize=8)
def _delta_table_cached(space: LinearSpace) -> np.ndarray:
    import numpy as np

    masks = np.arange(1 << space.n, dtype=np.uint32)
    out = np.bitwise_count(masks).astype(np.int32)
    for lm in space.line_masks:
        k = np.bitwise_count(masks & np.uint32(lm)).astype(np.int32)
        out -= np.maximum(k - 2, 0)
    out.setflags(write=False)
    return out


def d_table(space: LinearSpace) -> np.ndarray:
    """d of every subset: superset-minimum of the delta table."""
    import numpy as np

    n = space.n
    out = delta_table(space).copy()
    for b in range(n):
        half = 1 << b
        view = out.reshape(-1, 2 * half)
        np.minimum(view[:, :half], view[:, half:], out=view[:, :half])
    return out


def check_flatness(space: LinearSpace, family, mode: str = "delta"):
    """Inclusion-exclusion upper bound on delta (or d) over a set family.

    Returns (True, None) or (False, (lhs, rhs)).  In mode "d" each family
    member must equal its own d-closure.
    """
    sets = [frozenset(points_of(_mask(space.n, F))) for F in family]
    if len(sets) < 2:
        raise ValueError("need at least 2 sets")
    if mode == "delta":
        f = lambda S: delta_mask(space, mask_of(S))
    elif mode == "d":
        for F in sets:
            if d_closure(space, F) != F:
                raise ValueError(f"{sorted(F)} is not d-closed")
        f = lambda S: d(space, S)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    union = frozenset().union(*sets)
    lhs = f(union)
    rhs = 0
    for r in range(1, len(sets) + 1):
        for combo in combinations(sets, r):
            rhs += (-1) ** (r + 1) * f(frozenset.intersection(*combo))
    return (True, None) if lhs <= rhs else (False, (lhs, rhs))


def check_exchange(space: LinearSpace):
    """Pregeometry axioms for d-closure: monotone, idempotent, exchange.

    Exhaustive over all subsets; table-driven, so bounded to small n.
    Returns (True, None) or (False, witness-description).
    """
    n = space.n
    if n > EXCHANGE_LIMIT:
        raise SizeLimit(f"{n} points exceeds exchange-check limit {EXCHANGE_LIMIT}")
    table = d_table(space)
    # cl(X): the points p with d(X + p) = d(X), X's own among them
    closures = [mask_of(p for p in range(n) if table[m | 1 << p] == table[m]) for m in range(1 << n)]
    for m in range(1 << n):
        cm = closures[m]
        if cm & m != m:
            return False, ("not-extensive", points_of(m))
        if closures[cm] != cm:
            return False, ("not-idempotent", points_of(m))
    for m in range(1 << n):
        for p in range(n):
            if not m >> p & 1 and closures[m] & ~closures[m | 1 << p]:
                return False, ("not-monotone", points_of(m), p)
    for m in range(1 << n):
        cm = closures[m]
        for a in range(n):
            if cm & (1 << a):
                continue
            for b in range(n):
                if b == a or cm & (1 << b):
                    continue
                if closures[m | (1 << b)] & (1 << a):
                    # a in cl(X+b) - cl(X) must give b in cl(X+a)
                    if not closures[m | (1 << a)] & (1 << b):
                        return False, ("exchange", points_of(m), a, b)
    return True, None
