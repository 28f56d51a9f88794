"""Two-sorted incidence view, pairwise balanced design export, and the
rank-3 matroid reading of a linear space.

The two-sorted image materializes trivial 2-point lines so that "any two
points lie on exactly one line" holds literally; going back drops them
again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import AxiomViolation, FormatError, SizeLimit
from .space import MAX_POINTS, LinearSpace, _cap_pairs, _content_lines, _cover, _int, _mask, _row, points_of

MATROID_CHECK_LIMIT = 12


class _LineError(ValueError):
    """A bad line, or a pair on two lines; `lines` indexes the lines at fault."""

    def __init__(self, message: str, lines: tuple[int, ...]):
        super().__init__(message)
        self.lines = lines


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..n-1 and lines of >= 2 points; every pair on exactly one
    line, and at most MAX_PAIRS pairs in all."""

    n: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        """Raise ValueError on a negative n, on the first bad line, on the
        first pair of a line that an earlier line holds, in combinations
        order, or else on the first pair of combinations(range(n), 2) that
        no line holds; a SizeLimit on the first line that takes the pairs
        past MAX_PAIRS.

        The pairs are entered through the index LinearSpace keeps.  Once
        no two lines share a pair, every pair is covered exactly when the
        index holds C(n, 2) pairs, and otherwise the scan for the first
        pair missing probes at most one pair more than the index holds.
        """
        if self.n < 0:
            raise ValueError(f"point count {self.n} is negative")
        pair_line: dict[tuple[int, int], tuple[int, ...]] = {}
        for j, ln in enumerate(self.lines):
            if len(ln) < 2:
                raise _LineError(f"line {ln} has fewer than 2 points", (j,))
            if list(ln) != sorted(set(ln)):
                raise _LineError(f"line {ln} is not strictly increasing", (j,))
            if ln[0] < 0 or ln[-1] >= self.n:
                raise _LineError(f"line {ln} out of range", (j,))
            try:
                _cover(pair_line, [ln])
            except AxiomViolation as exc:
                i = self.lines.index(exc.witnesses[0])
                raise _LineError(f"pair {exc.pair} lies on two lines", (i, j)) from None
        if len(pair_line) < self.n * (self.n - 1) // 2:
            pair = next(p for p in combinations(range(self.n), 2) if p not in pair_line)
            raise ValueError(f"pair {pair} lies on no line")

    def incidences(self) -> int:
        return sum(len(ln) for ln in self.lines)


@dataclass(frozen=True)
class PBDRecord:
    """A (v, K, 1) pairwise balanced design: blocks with sizes in K,
    every pair in exactly one block."""

    v: int
    K: frozenset[int]
    lam: int
    blocks: tuple[tuple[int, ...], ...]


def to_two_sorted(A: LinearSpace) -> IncidenceStructure:
    """Points/lines/incidence view; uncovered pairs become 2-lines, so
    the view holds all C(n, 2) pairs, and past MAX_PAIRS a SizeLimit comes
    before any line is made."""
    _cap_pairs(A.n * (A.n - 1) // 2)
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
    pts = points_of(_mask(A.n, S))
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
    """One `points` row and the `line j:` rows, sorted; j is not read.
    The row whose line takes the pairs past MAX_PAIRS is TooManyPoints."""
    n, pairs = None, 0
    lines = []
    for lineno, row in _content_lines(text):
        with _row(lineno):
            match row.split():
                case ["points", count] if n is None:
                    n = _int(count, "point count", cap=MAX_POINTS)
                case ["line", label, *ids] if label.endswith(":"):
                    pairs += len(ids) * (len(ids) - 1) // 2
                    _cap_pairs(pairs)
                    lines.append((tuple(_int(x, "point id") for x in ids), lineno))
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
