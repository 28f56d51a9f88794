"""Two-sorted incidence view, pairwise balanced design export, and the
rank-3 matroid reading of a linear space.

The two-sorted image materializes trivial 2-point lines so that "any two
points lie on exactly one line" holds literally; going back drops them
again.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import FormatError, SizeLimit
from .space import LinearSpace, _content_lines, _point_count, _row

MATROID_CHECK_LIMIT = 12


# the pairs of a line of at most this many points are stored one by one;
# a longer line is kept as its points, so checking it costs its length
SHORT_LINE = 16


class _LineError(ValueError):
    """A bad line, or a pair on two lines; `lines` indexes the lines at fault."""

    def __init__(self, message: str, lines: tuple[int, ...]):
        super().__init__(message)
        self.lines = lines


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..n-1 and lines of >= 2 points; every pair on exactly one
    line."""

    n: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        """Raise ValueError on the first bad line, on the first pair of a
        line that an earlier line holds, in combinations order, or else on
        the first pair of combinations(range(n), 2) that no line holds.

        No pair of a long line is stored.  Once no two lines share a pair,
        the lines cover sum C(|line|, 2) distinct pairs, so every pair is
        covered exactly when that sum is C(n, 2).
        """
        partners: defaultdict[int, set[int]] = defaultdict(set)
        long_through: defaultdict[int, list[int]] = defaultdict(list)
        pairs = 0
        for j, ln in enumerate(self.lines):
            if len(ln) < 2:
                raise _LineError(f"line {ln} has fewer than 2 points", (j,))
            if list(ln) != sorted(set(ln)):
                raise _LineError(f"line {ln} is not strictly increasing", (j,))
            if ln[0] < 0 or ln[-1] >= self.n:
                raise _LineError(f"line {ln} out of range", (j,))
            # the first pair of ln, in combinations order, that an earlier
            # line holds; a short line's own pairs are distinct, so they
            # are entered as they are checked
            shared = None
            if len(ln) > SHORT_LINE:
                shared = _first_short_partner(ln, partners)
            else:
                for a, b in combinations(ln, 2):
                    if b in partners[a]:
                        shared = (a, b)
                        break
                    partners[a].add(b)
                    partners[b].add(a)
            if long_through:
                shared = min(filter(None, (shared, _first_long_pair(ln, long_through))), default=None)
            if shared is not None:
                i = next(i for i, other in enumerate(self.lines) if set(shared) <= set(other))
                raise _LineError(f"pair {shared} lies on two lines", (i, j))
            if len(ln) > SHORT_LINE:
                for p in ln:
                    long_through[p].append(j)
            pairs += len(ln) * (len(ln) - 1) // 2
        if self.n > 1 and pairs < self.n * (self.n - 1) // 2:
            raise ValueError(f"pair {_first_uncovered_pair(self.n, self.lines)} lies on no line")

    def incidences(self) -> int:
        return sum(len(ln) for ln in self.lines)


def _first_uncovered_pair(n: int, lines: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
    """The first pair of combinations(range(n), 2) on no line, for lines
    that share no pair and leave one uncovered.

    A point a lies on a covered pair with sum (|line| - 1) points over
    the lines through it.  Take the least a short of n - 1: a partner
    b < a it misses would make b an earlier such point, so the least
    missed partner is above a."""
    near = Counter()
    for ln in lines:
        for p in ln:
            near[p] += len(ln) - 1
    a = next(p for p in range(n) if near[p] < n - 1)
    covered = {q for ln in lines if a in ln for q in ln}
    return a, next(b for b in range(a + 1, n) if b not in covered)


def _first_short_partner(ln: tuple[int, ...], partners: dict[int, set[int]]) -> tuple[int, int] | None:
    """The first pair of ln that an earlier short line holds; `partners`
    maps a point to the points it shares a short line with."""
    on = set(ln)
    for a in ln:
        hit = [b for b in partners.get(a, ()) if b > a and b in on]
        if hit:
            return a, min(hit)
    return None


def _first_long_pair(ln: tuple[int, ...], long_through: dict[int, list[int]]) -> tuple[int, int] | None:
    """The first pair of ln that an earlier long line holds.  Earlier
    lines share no pair, so each meets ln in a set whose two least points
    are the first pair it shares with ln."""
    met: defaultdict[int, list[int]] = defaultdict(list)
    for p in ln:
        for i in long_through.get(p, ()):
            met[i].append(p)
    return min(((pts[0], pts[1]) for pts in met.values() if len(pts) >= 2), default=None)


@dataclass(frozen=True)
class PBDRecord:
    """A (v, K, 1) pairwise balanced design: blocks with sizes in K,
    every pair in exactly one block."""

    v: int
    K: frozenset[int]
    lam: int
    blocks: tuple[tuple[int, ...], ...]


def to_two_sorted(A: LinearSpace) -> IncidenceStructure:
    """Points/lines/incidence view; uncovered pairs become 2-lines."""
    lines = list(A.lines)
    for a, b in combinations(range(A.n), 2):
        if A.line_through(a, b) is None:
            lines.append((a, b))
    return IncidenceStructure(A.n, tuple(sorted(lines)))


def to_one_sorted(B: IncidenceStructure) -> LinearSpace:
    """Collinearity relation reading: keep only nontrivial lines."""
    return LinearSpace(B.n, [ln for ln in B.lines if len(ln) >= 3])


def to_pbd(A: LinearSpace) -> PBDRecord:
    inc = to_two_sorted(A)
    sizes = frozenset(len(b) for b in inc.lines)
    return PBDRecord(A.n, sizes, 1, inc.lines)


def matroid_dependent(A: LinearSpace, S: Iterable[int]) -> bool:
    """Rank-3 dependence: any 4 points, or 3 collinear points."""
    pts = sorted(set(S))
    if any(p < 0 or p >= A.n for p in pts):
        raise ValueError("point out of range")
    if len(pts) >= 4:
        return True
    if len(pts) == 3:
        ln = A.line_through(pts[0], pts[1])
        return ln is not None and pts[2] in ln
    return False


def check_matroid_exchange(A: LinearSpace):
    """Circuit-style exchange for the rank-3 dependence relation.

    For dependent D1 != D2 whose intersection is independent, every
    deletion of a shared point leaves a dependent set.  Returns
    (True, None) or (False, (D1, D2, a)).
    """
    if A.n > MATROID_CHECK_LIMIT:
        raise SizeLimit(f"{A.n} points exceeds matroid-check limit {MATROID_CHECK_LIMIT}")
    deps = [frozenset(c) for r in (3, 4) for c in combinations(range(A.n), r) if matroid_dependent(A, c)]
    for d1, d2 in combinations(deps, 2):
        inter = d1 & d2
        if matroid_dependent(A, inter):
            continue
        for a in sorted(inter):
            rest = (d1 | d2) - {a}
            if not matroid_dependent(A, rest):
                return False, (tuple(sorted(d1)), tuple(sorted(d2)), a)
    return True, None


# -- inc-v1 text format ------------------------------------------------

def to_inc_v1(B: IncidenceStructure) -> str:
    out = [f"points {B.n}"]
    for j, ln in enumerate(B.lines):
        out.append(f"line {j}: " + " ".join(str(p) for p in ln))
    return "\n".join(out) + "\n"


def parse_inc_v1(text: str) -> IncidenceStructure:
    """One `points` row and the `line j:` rows, sorted; j is not read."""
    n = None
    lines = []
    for lineno, row in _content_lines(text):
        with _row(lineno):
            match row.split():
                case ["points", count] if n is None:
                    n = _point_count(count)
                case ["line", label, *ids] if label.endswith(":"):
                    lines.append((tuple(int(x) for x in ids), lineno))
                case _:
                    raise ValueError(f"unexpected row {row!r}")
    if n is None:
        raise FormatError(0, "missing 'points N' row")
    lines.sort()
    # a bad line on its row, a shared pair on the later row, else line 0
    with _row(0):
        try:
            return IncidenceStructure(n, tuple(ln for ln, _ in lines))
        except _LineError as exc:
            raise FormatError(max(lines[i][1] for i in exc.lines), str(exc)) from exc


def to_pbd_text(r: PBDRecord) -> str:
    out = [f"points {r.v}", f"lambda {r.lam}"]
    for b in r.blocks:
        out.append("block " + " ".join(str(p) for p in b))
    return "\n".join(out) + "\n"
