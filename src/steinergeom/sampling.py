"""Seeded random linear spaces for property runs.

Structures are grown by rejection: random triples (and occasional line
extensions) are kept only when the linear-space axiom survives, and the
K_0 sampler keeps a new line only if the sets holding it stay at
nonnegative delta.  Every change commits through LinearSpace.with_lines,
which equals rebuilding the space from the edited line list and raises
the same exceptions.  Everything is driven by a caller-supplied Random,
so runs replay from their seed.
"""

from __future__ import annotations

from random import Random

from .dimension import d, is_strong
from .errors import AxiomViolation
from .space import LinearSpace


def random_space(rng: Random, n: int, *, tries: int | None = None) -> LinearSpace:
    """A valid linear space on n points; density scales with `tries`."""
    if tries is None:
        tries = 2 * n
    cur = LinearSpace(n, [])
    for _ in range(tries):
        if cur.lines and rng.random() < 0.25:
            # grow an existing line by one point
            ln = rng.choice(cur.lines)
            p = rng.randrange(n)
            if p in ln:
                continue
            add, drop = [ln + (p,)], [ln]
        elif n >= 3:
            add, drop = [rng.sample(range(n), 3)], []
        else:
            break
        try:
            cur = cur.with_lines(n, add=add, drop=drop)
        except (AxiomViolation, ValueError):
            continue
    return cur


def random_k0(rng: Random, n: int, *, tries: int | None = None) -> LinearSpace:
    """A random member of K_0.  A new line on three pairwise non-collinear
    points lowers delta by 1 on exactly the sets that hold all three, so
    it is kept iff their least delta, d(cur, new), is at least 1."""
    if tries is None:
        tries = 2 * n
    cur = LinearSpace(n, [])
    for _ in range(tries):
        if n < 3:
            break
        new = rng.sample(range(n), 3)
        try:
            cand = cur.with_lines(n, add=[new])
        except (AxiomViolation, ValueError):
            continue
        if d(cur, new) >= 1:
            cur = cand
    return cur


def random_strong_subset(rng: Random, space: LinearSpace) -> frozenset[int]:
    """A strong subset of a K_0 structure, found by rejection from random
    subsets (the empty set always qualifies)."""
    for _ in range(30):
        size = rng.randrange(space.n + 1)
        D = frozenset(rng.sample(range(space.n), size))
        if is_strong(space, D, range(space.n)).ok:
            return D
    return frozenset()
