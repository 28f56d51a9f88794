"""Hereditary nonnegativity, strong substructure, intrinsic closure, and
the dimension function derived from the predimension.

The searches here are exact.  Each interval question is one call of one
of two branch-and-bounds, which share their checks and set-up
(_interval, at most SEARCH_LIMIT free points) and try the free points in
falling order of their bound, each in before out.  _least_key finds the
X in [lo, hi] of least key w*delta(X) + t*|X|: min_delta_interval and d
take w = 1, t = 0, and icl and d_closure take w = n + 1 and t = +1, -1.
_least_below finds the (size, lex)-least X in [lo, hi] with delta(X)
below a threshold: is_strong(lo, hi) takes delta(lo), and in_K0 is
is_strong(∅, M).  Dense numpy tables (delta_table, d_table) serve only
where every subset's value is needed.

delta is submodular and no set of [X, M] has delta below d(X), so the
delta-minimizers of [X, M] are closed under union and intersection.
Their least is icl(X): it is strong, and a strong Y >= X meets it in a
minimizer.  Their greatest is d_closure(X): p lies in some minimizer iff
d(X + p) = d(X).  As w > |X|, the key orders sets by delta, then by
t*|X|, so t = +1 finds the least minimizer and t = -1 the greatest.
The bound is admissible: adding p lowers delta by at most deg p - 1, so
the key by at most w*(deg p - 1) - t, and a branch is cut when its key
minus these drops (those above 0) over the free points left cannot beat
the incumbent.  That is replaced only by a smaller key, so no early stop
is needed: once it is base - suffix[0], the least key the bound allows,
every node left is cut at once.

_least_below replaces its incumbent by a smaller set below the
threshold, or by one of the same size that holds the lowest point of
their symmetric difference, so it ends with the (size, lex)-least one.
A branch is cut when its set is below the threshold, since the sets
above it are larger, or when its `room` = |incumbent| - |X - lo| largest
drops left, suffix[i] - suffix[i + room], cannot bring delta below the
threshold; with no room left that sum is 0.  Neither cut drops a set
that could replace the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .errors import SizeLimit
from .space import LinearSpace, _mask, delta_mask, mask_of, points_of

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
    return _least_key(space, lo_mask, hi_mask, 1, 0)[0]


def _interval(space: LinearSpace, lo_mask: int, hi_mask: int, w: int, t: int):
    """Check [lo, hi]; return lo's key and line counts, and the free points'
    lines and bits in falling order of their bound max(0, w*(deg p - 1) - t)
    with the suffix sums of those bounds, padded with zeros."""
    if hi_mask < 0 or hi_mask >> space.n:
        raise ValueError(f"hi_mask {hi_mask:#x} has a bit outside the points 0..{space.n - 1}")
    if lo_mask & ~hi_mask:
        raise ValueError("lo not contained in hi")
    free = list(points_of(hi_mask & ~lo_mask))
    if len(free) > SEARCH_LIMIT:
        raise SizeLimit(f"{len(free)} free points exceeds search limit {SEARCH_LIMIT}")
    bounds = [max(0, w * (k - 1) - t) for k in space.degrees]
    free.sort(key=lambda p: -bounds[p])
    suffix = [0] * (2 * len(free) + 2)
    for i in range(len(free) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + bounds[free[i]]
    base = w * delta_mask(space, lo_mask) + t * lo_mask.bit_count()
    counts = [(lm & lo_mask).bit_count() for lm in space.line_masks]
    return base, counts, [space.lines_by_point[p] for p in free], [1 << p for p in free], suffix


def _least_key(space: LinearSpace, lo_mask: int, hi_mask: int, w: int, t: int) -> tuple[int, int]:
    """(key, X) for the X in [lo, hi] of least key w*delta(X) + t*|X|."""
    base, counts, lines, bits, suffix = _interval(space, lo_mask, hi_mask, w, t)
    best_mask = [lo_mask]
    key = _min_from(lines, counts, suffix, bits, w + t, w, best_mask, 0, base, lo_mask, base)
    return key, best_mask[0]


def _min_from(
    lines: list, counts: list[int], suffix: list[int], bits: list[int], step: int, w: int,
    best_mask: list[int], i: int, cur: int, mask: int, best: int,
) -> int:
    """min(best, least key of `mask` plus some of the free points i, i + 1,
    ...); each new least key's set goes to best_mask[0].  `mask` has key
    `cur` and counts[l] points on line l, free point j has lines[j] and bit
    bits[j], and suffix[i] bounds the drop the points from i on can give.
    counts is restored."""
    if cur < best:
        best = cur
        best_mask[0] = mask
    if i == len(lines) or cur - suffix[i] >= best:
        return best
    gain = 0
    for li in lines[i]:
        if counts[li] >= 2:
            gain += w
        counts[li] += 1
    best = _min_from(
        lines, counts, suffix, bits, step, w, best_mask, i + 1, cur + step - gain, mask | bits[i], best
    )
    for li in lines[i]:
        counts[li] -= 1
    return _min_from(lines, counts, suffix, bits, step, w, best_mask, i + 1, cur, mask, best)


def _least_below(space: LinearSpace, lo_mask: int, hi_mask: int, threshold: int) -> Optional[int]:
    """The (size, lex)-least X with lo <= X <= hi and delta(X) < threshold,
    as a mask, or None."""
    cur, counts, lines, bits, suffix = _interval(space, lo_mask, hi_mask, 1, 0)
    best = [len(lines) + 1, None]
    _below_from(lines, counts, suffix, bits, threshold, best, 0, cur, lo_mask, 0)
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
    witness holds the (size, lex)-least X that does."""
    lo_mask, hi_mask = _mask(space.n, lo), _mask(space.n, hi)
    bad = _least_below(space, lo_mask, hi_mask, delta_mask(space, lo_mask))
    lo_f, hi_f = frozenset(points_of(lo_mask)), frozenset(points_of(hi_mask))
    return StrongExtensionWitness(lo_f, hi_f, None if bad is None else frozenset(points_of(bad)))


def icl_mask(space: LinearSpace, x_mask: int) -> int:
    """Least strong superset of X, as a mask: the least delta-minimizer
    over [X, M], which the search finds as the one of least size."""
    return _least_key(space, x_mask, space.full_mask(), space.n + 1, 1)[1]


def icl(space: LinearSpace, X: Iterable[int]) -> frozenset[int]:
    """Intrinsic closure: the least strong superset of X."""
    return frozenset(points_of(icl_mask(space, _mask(space.n, X))))


def d(space: LinearSpace, X: Iterable[int]) -> int:
    """Dimension: minimum delta over supersets of X."""
    return min_delta_interval(space, _mask(space.n, X), space.full_mask())


def d_closure(space: LinearSpace, X: Iterable[int]) -> frozenset[int]:
    """Points whose addition does not raise the dimension of X: the
    greatest delta-minimizer over [X, M], which the search finds as the
    one of largest size."""
    xm = _mask(space.n, X)
    return frozenset(points_of(_least_key(space, xm, space.full_mask(), space.n + 1, -1)[1]))


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
    masks = np.arange(1 << space.n, dtype=np.uint32)
    out = np.bitwise_count(masks).astype(np.int32)
    for lm in space.line_masks:
        k = np.bitwise_count(masks & np.uint32(lm)).astype(np.int32)
        out -= np.maximum(k - 2, 0)
    out.setflags(write=False)
    return out


def d_table(space: LinearSpace) -> np.ndarray:
    """d of every subset: superset-minimum of the delta table."""
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
    from itertools import combinations

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
            inter = combo[0]
            for s in combo[1:]:
                inter = inter & s
            rhs += (-1) ** (r + 1) * f(inter)
    if lhs <= rhs:
        return True, None
    return False, (lhs, rhs)


def check_exchange(space: LinearSpace):
    """Pregeometry axioms for d-closure: monotone, idempotent, exchange.

    Exhaustive over all subsets; table-driven, so bounded to small n.
    Returns (True, None) or (False, witness-description).
    """
    n = space.n
    if n > EXCHANGE_LIMIT:
        raise SizeLimit(f"{n} points exceeds exchange-check limit {EXCHANGE_LIMIT}")
    table = d_table(space)

    def cl(mask: int) -> int:
        dx = table[mask]
        out = mask
        for p in range(n):
            if table[mask | (1 << p)] == dx:
                out |= 1 << p
        return out

    closures = [cl(m) for m in range(1 << n)]
    for m in range(1 << n):
        cm = closures[m]
        if cm & m != m:
            return False, ("not-extensive", points_of(m))
        if closures[cm] != cm:
            return False, ("not-idempotent", points_of(m))
    for m in range(1 << n):
        for p in range(n):
            if m & (1 << p):
                continue
            sup = closures[m | (1 << p)]
            if closures[m] & ~sup:
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
