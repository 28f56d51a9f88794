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

from .errors import FormatError, SizeLimit, TooManyPoints
from .space import MAX_POINTS, LinearSpace

MATROID_CHECK_LIMIT = 12


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..n-1 and lines of >= 2 points; every pair on exactly one
    line."""

    n: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: dict[tuple[int, int], tuple[int, ...]] = {}
        for ln in self.lines:
            if len(ln) < 2:
                raise ValueError(f"line {ln} has fewer than 2 points")
            if list(ln) != sorted(set(ln)):
                raise ValueError(f"line {ln} is not strictly increasing")
            if ln[0] < 0 or ln[-1] >= self.n:
                raise ValueError(f"line {ln} out of range")
            for pair in combinations(ln, 2):
                if pair in seen:
                    raise ValueError(f"pair {pair} lies on two lines")
                seen[pair] = ln
        for pair in combinations(range(self.n), 2):
            if pair not in seen:
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
    n = None
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        row = raw.split("#", 1)[0].strip()
        if not row:
            continue
        parts = row.split()
        if parts[0] == "points" and len(parts) == 2:
            try:
                n = int(parts[1])
            except ValueError:
                raise FormatError(lineno, f"bad point count {parts[1]!r}") from None
            if n < 0:
                raise FormatError(lineno, f"negative point count {n}")
            if n > MAX_POINTS:
                raise TooManyPoints(lineno, f"{n} points exceeds the cap of {MAX_POINTS}")
        elif parts[0] == "line" and len(parts) >= 2 and parts[1].endswith(":"):
            try:
                lines.append(tuple(int(x) for x in parts[2:]))
            except ValueError:
                raise FormatError(lineno, f"non-integer point id in {row!r}") from None
        else:
            raise FormatError(lineno, f"unrecognized row {row!r}")
    if n is None:
        raise FormatError(0, "missing 'points N' row")
    try:
        return IncidenceStructure(n, tuple(sorted(lines)))
    except ValueError as exc:
        raise FormatError(0, str(exc)) from exc


def to_pbd_text(r: PBDRecord) -> str:
    out = [f"points {r.v}", f"lambda {r.lam}"]
    for b in r.blocks:
        out.append("block " + " ".join(str(p) for p in b))
    return "\n".join(out) + "\n"
