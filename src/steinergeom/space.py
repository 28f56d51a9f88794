"""Finite linear spaces with a single ternary collinearity relation.

A :class:`LinearSpace` stores the nontrivial lines explicitly; 2-point
lines are implicit.  Point sets are handled both as Python sets and as
integer bitmasks (bit i = point i); the mask form is what the search
modules use.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import AxiomViolation, FormatError, SizeLimit, TooManyPoints

# the largest `points N` a text format accepts; the parsers check it
# before they allocate anything for the points
MAX_POINTS = 1 << 16
# the most point pairs the lines of one LinearSpace hold, ~100 MiB of index
MAX_PAIRS = 1 << 20


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def _mask(n: int, points: Iterable[int]) -> int:
    """mask_of(points), first a ValueError naming the first id that is not
    a point 0..n-1; the one check of the point ids a public call takes."""
    m = 0
    for p in points:
        if not 0 <= p < n:
            raise ValueError(f"point {p} out of range 0..{n - 1}")
        m |= 1 << p
    return m


def points_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def _normalized(n: int, lines: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """The lines as sorted point tuples, in sorted order; a short,
    out-of-range or repeated line is a ValueError."""
    norm = sorted(tuple(sorted(set(ln))) for ln in lines)
    for ln in norm:
        if len(ln) < 3:
            raise ValueError(f"line {ln} has fewer than 3 points")
        if ln[0] < 0 or ln[-1] >= n:
            raise ValueError(f"line {ln} out of range for {n} points")
    if len(set(norm)) != len(norm):
        raise ValueError("duplicate lines")
    return norm


def _cap_pairs(pairs: int) -> None:
    """A SizeLimit when lines on `pairs` point pairs pass MAX_PAIRS; the
    one test of the pair cap, for both the one- and the two-sorted view."""
    if pairs > MAX_PAIRS:
        raise SizeLimit(f"lines on {pairs} point pairs exceed the cap of {MAX_PAIRS}")


def _cover(pair_line: dict[tuple[int, int], tuple[int, ...]], lines: list[tuple[int, ...]]) -> None:
    """Enter every pair of the lines into pair_line: an AxiomViolation on a
    pair already there, and first a SizeLimit past MAX_PAIRS pairs in all."""
    pairs = len(pair_line)
    for ln in lines:
        pairs += len(ln) * (len(ln) - 1) // 2
    _cap_pairs(pairs)
    for ln in lines:
        for pair in combinations(ln, 2):
            if pair in pair_line:
                raise AxiomViolation(pair, [pair_line[pair], ln])
            pair_line[pair] = ln


class LinearSpace:
    """Immutable finite linear space on points 0..n-1.

    Invariants: every stored line has >= 3 strictly increasing in-range
    points, two stored lines share at most one point, and the lines hold
    at most MAX_PAIRS point pairs.  `degrees[p]` is the number of stored
    lines through p.
    """

    __slots__ = ("n", "lines", "line_masks", "degrees", "_lines_by_point", "_pair_line")

    def __init__(self, n: int, lines: Iterable[Sequence[int]]):
        if n < 0:
            raise ValueError(f"point count {n} is negative")
        norm = _normalized(n, lines)
        seen: dict[tuple[int, int], tuple[int, ...]] = {}
        _cover(seen, norm)
        deg = [0] * n
        for ln in norm:
            for p in ln:
                deg[p] += 1
        self.n = n
        self.lines = tuple(norm)
        self.line_masks = tuple(mask_of(ln) for ln in self.lines)
        self.degrees = tuple(deg)
        self._lines_by_point = None
        self._pair_line = seen

    def with_lines(
        self,
        n: int,
        add: Iterable[Sequence[int]] = (),
        drop: Iterable[Sequence[int]] = (),
    ) -> "LinearSpace":
        """The space on n >= self.n points with the stored lines `drop`
        removed and `add` added.

        Equal to LinearSpace(n, kept + added), and raises the same
        exception types, but validates only the added lines against the
        pairs that stay covered.  With no line added or dropped the child
        shares the parent's lines, masks and pair index, and pads the
        degrees and a lines_by_point the parent has built with new
        isolated points.  Otherwise the sorted line list is spliced and
        the point degrees patched, so a commit costs what it changes plus
        copying the parent's pair index and tuples.
        """
        if n < self.n:
            raise ValueError(f"cannot shrink {self.n} points to {n}")
        add = _normalized(n, add)
        drop = {tuple(sorted(ln)) for ln in drop}
        out = LinearSpace.__new__(LinearSpace)
        if not add and not drop:
            out.n, out.lines, out.line_masks, out._pair_line = n, self.lines, self.line_masks, self._pair_line
            out.degrees, by = self.degrees + (0,) * (n - self.n), self._lines_by_point
            out._lines_by_point = None if by is None else by + ((),) * (n - self.n)
            return out
        pair_line = self._pair_line.copy()
        for ln in drop:
            if pair_line.get(ln[:2]) != ln:
                raise ValueError(f"line {ln} is not a stored line")
            for pair in combinations(ln, 2):
                del pair_line[pair]
        if any(pair_line.get(ln[:2]) == ln for ln in add):
            raise ValueError("duplicate lines")
        _cover(pair_line, add)
        lines, masks = list(self.lines), list(self.line_masks)
        deg = list(self.degrees) + [0] * (n - self.n)
        for ln in drop:
            j = bisect_left(lines, ln)
            del lines[j], masks[j]
            for p in ln:
                deg[p] -= 1
        for ln in add:
            j = bisect_left(lines, ln)
            lines.insert(j, ln)
            masks.insert(j, mask_of(ln))
            for p in ln:
                deg[p] += 1
        out.n, out.lines, out.line_masks, out.degrees = n, tuple(lines), tuple(masks), tuple(deg)
        out._lines_by_point, out._pair_line = None, pair_line
        return out

    # -- derived views -------------------------------------------------

    @property
    def lines_by_point(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the indices of the stored lines through it."""
        if self._lines_by_point is None:
            by = [[] for _ in range(self.n)]
            for i, ln in enumerate(self.lines):
                for p in ln:
                    by[p].append(i)
            self._lines_by_point = tuple(map(tuple, by))
        return self._lines_by_point

    def line_through(self, a: int, b: int) -> tuple[int, ...] | None:
        """The stored line on the pair, or None if the pair is trivial."""
        return self._pair_line.get((a, b) if a < b else (b, a))

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """All R-triples (sorted), one per collinear 3-subset."""
        for ln in self.lines:
            yield from combinations(ln, 3)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- equality ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearSpace)
            and self.n == other.n
            and self.lines == other.lines
        )

    def __hash__(self) -> int:
        return hash((self.n, self.lines))

    def __repr__(self) -> str:
        return f"LinearSpace(n={self.n}, lines={len(self.lines)})"


def validate(n: int, triples: Iterable[Sequence[int]]) -> LinearSpace:
    """Build a LinearSpace from raw collinearity triples.

    The triples must close under the linear-space axiom: for each pair
    {a,b} occurring in some triple, {a,b} together with all its R-partners
    must form a clique in the triple set.
    """
    tset = set()
    for t in triples:
        t = tuple(sorted(t))
        if len(set(t)) != 3:
            raise ValueError(f"triple {t} does not have 3 distinct points")
        if t[0] < 0 or t[2] >= n:
            raise ValueError(f"triple {t} out of range for {n} points")
        tset.add(t)
    partners: dict[tuple[int, int], set[int]] = {}
    for a, b, c in tset:
        partners.setdefault((a, b), set()).add(c)
        partners.setdefault((a, c), set()).add(b)
        partners.setdefault((b, c), set()).add(a)
    lines = set()
    for (a, b), rest in partners.items():
        clique = tuple(sorted({a, b} | rest))
        for sub in combinations(clique, 3):
            if sub not in tset:
                raise AxiomViolation((a, b), sorted(rest), f"clique {clique} misses triple {sub}")
        lines.add(clique)
    # keep only maximal cliques: a pair's clique is maximal by construction,
    # but cliques generated from different pairs of one line coincide
    return LinearSpace(n, lines)


def lines_based_in(space: LinearSpace, B: Iterable[int]) -> list[tuple[int, ...]]:
    """Stored lines meeting B in at least 2 points."""
    bm = _mask(space.n, B)
    return [
        ln
        for ln, lm in zip(space.lines, space.line_masks)
        if (lm & bm).bit_count() >= 2
    ]


def delta_mask(space: LinearSpace, mask: int) -> int:
    d = mask.bit_count()
    for lm in space.line_masks:
        k = (lm & mask).bit_count()
        if k >= 3:
            d -= k - 2
    return d


def delta(space: LinearSpace, S: Iterable[int]) -> int:
    """Predimension of the induced substructure on S: points minus total
    line nullity, where an induced line needs >= 3 points of S."""
    return delta_mask(space, _mask(space.n, S))


def delta_rel(space: LinearSpace, X: Iterable[int], B: Iterable[int]) -> int:
    """delta(X over B) = delta(X u B) - delta(B); X and B must be disjoint."""
    xm, bm = _mask(space.n, X), _mask(space.n, B)
    if xm & bm:
        raise ValueError(f"X and B overlap in {points_of(xm & bm)}")
    return delta_mask(space, xm | bm) - delta_mask(space, bm)


def _relabelled_lines(
    space: LinearSpace, pts: Sequence[int], mask: int, line_ids: Iterable[int]
) -> list[tuple[int, ...]]:
    """The lines of line_ids with three or more points of `mask`, which
    `pts` lists ascending, cut to them and relabelled by rank, sorted: the
    one relabelling of an induced structure, for induced() and _shape."""
    rank = {p: i for i, p in enumerate(pts)}
    lines, masks = space.lines, space.line_masks
    return sorted(
        tuple(rank[q] for q in lines[li] if q in rank)
        for li in line_ids
        if (masks[li] & mask).bit_count() >= 3
    )


def induced(space: LinearSpace, S: Iterable[int]) -> LinearSpace:
    """Substructure on S, points relabeled 0..|S|-1 order-preservingly."""
    pts = sorted(set(S))
    sm = _mask(space.n, pts)
    return LinearSpace(len(pts), _relabelled_lines(space, pts, sm, range(len(space.lines))))


def _keeps_lines(A: LinearSpace, B: LinearSpace, phi: dict[int, int], image: set[int], x: int, m: int) -> bool:
    """Mapping x to m keeps every triple {u, w, x} of u, w in phi, an
    injection of A's points into B's onto `image`: the mapped points on
    the A-line (u, x) are those whose images lie on the B-line (phi(u), m).
    Where only one of the two lines exists, no mapped point may lie on it."""
    for u, pu in phi.items():
        pl, ml = A.line_through(u, x), B.line_through(pu, m)
        if pl is None:
            if ml is not None and any(q != pu and q in image for q in ml):
                return False
        elif ml is None:
            if any(w != u and w in phi for w in pl):
                return False
        elif {phi[w] for w in pl if w != u and w in phi} != {q for q in ml if q != pu and q in image}:
            return False
    return True


def preserves_lines(A: LinearSpace, B: LinearSpace, phi: dict[int, int]) -> bool:
    """A triple of phi's domain is collinear in A exactly when its image
    is collinear in B; phi must be injective, and the induced structures
    on its domain and image then agree.  Each point, ascending, goes
    through _keeps_lines against those before it: |phi|^2 line lookups,
    not one per triple."""
    done: dict[int, int] = {}
    image: set[int] = set()
    for x in sorted(phi):
        if not _keeps_lines(A, B, done, image, x, phi[x]):
            return False
        done[x] = phi[x]
        image.add(phi[x])
    return True


def pair_coverage(space: LinearSpace) -> float:
    """Fraction of point pairs lying on a stored line."""
    total = space.n * (space.n - 1) // 2
    if total == 0:
        return 0.0
    covered = sum(len(ln) * (len(ln) - 1) // 2 for ln in space.lines)
    return covered / total


# -- ls-v1 text format -------------------------------------------------

LS_V1_HEADER = "linear-space v1"


def to_ls_v1(space: LinearSpace) -> str:
    out = [LS_V1_HEADER, f"points {space.n}"]
    for ln in space.lines:
        out.append("line " + " ".join(str(p) for p in ln))
    return "\n".join(out) + "\n"


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, row) of each row left once comments are cut; the
    row reader of all five text parsers."""
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            yield i, stripped


@contextmanager
def _row(lineno: int) -> Iterator[None]:
    """The one error path of the five text parsers, around the reading of
    one row: a FormatError passes unchanged, a SizeLimit becomes
    TooManyPoints and a ValueError a FormatError, both on this row.
    TooManyPoints is a SizeLimit too, so FormatError goes first."""
    try:
        yield
    except FormatError:
        raise
    except SizeLimit as exc:
        raise TooManyPoints(lineno, str(exc)) from None
    except ValueError as exc:
        raise FormatError(lineno, str(exc)) from None


def _int(token: str, what: str, signed: bool = False, cap: int | None = None) -> int:
    """The integer a token of ASCII digits names, after one '-' when
    `signed`; any other token is a ValueError, even one int() reads, such
    as '+1', '1_0' or '٢', since no writer writes it.  Past `cap` a
    SizeLimit, found by length first, as int() refuses more than 4,300
    digits.  The integer reader of all five text parsers."""
    digits = token[1:] if signed and token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{what} {token!r} is not an integer" + ("" if signed else " >= 0"))
    if cap is None:
        return int(token)
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(cap)):
        raise SizeLimit(f"a {len(digits)}-digit {what} exceeds the cap of {cap}")
    if int(digits) > cap:
        raise SizeLimit(f"{what} {digits} exceeds the cap of {cap}")
    return int(digits)


def parse_ls_v1(text: str) -> LinearSpace:
    return _ls_v1_rows(_content_lines(text))


def _ls_v1_rows(rows: Iterable[tuple[int, str]], lineno: int = 0) -> LinearSpace:
    """The ls-v1 structure on (line number, row) pairs as _content_lines
    yields them; no rows at all is an error on line `lineno`.  gp-v1
    passes its rows without the base row, and trace-v1 each snapshot
    block."""
    it = iter(rows)
    lineno, header = next(it, (lineno, None))
    if header != LS_V1_HEADER:
        raise FormatError(lineno, f"expected '{LS_V1_HEADER}', got '{header or ''}'")
    lineno, row = next(it, (lineno, ""))
    with _row(lineno):
        match row.split():
            case ["points", count]:
                n = _int(count, "point count", cap=MAX_POINTS)
            case _:
                raise ValueError(f"expected 'points N', got '{row}'")
    lines: dict[tuple[int, ...], int] = {}
    for lineno, row in it:
        with _row(lineno):
            match row.split():
                case ["line", *ids]:
                    ln = tuple(_int(x, "point id") for x in ids)
                    if len(ln) < 3:
                        raise ValueError("a line needs at least 3 points")
                    if any(a >= b for a, b in zip(ln, ln[1:])):
                        raise ValueError("point ids must be strictly increasing")
                    if ln[0] < 0 or ln[-1] >= n:
                        raise ValueError(f"point id out of range 0..{n - 1}")
                    if ln in lines:
                        raise ValueError(f"duplicate line {ln}")
                    lines[ln] = lineno
                case _:
                    raise ValueError(f"expected 'line ...', got '{row}'")
    with _row(lineno):
        try:
            return LinearSpace(n, lines)
        except AxiomViolation as exc:
            # the witnesses are the two conflicting rows; report the later one
            raise FormatError(max(lines[w] for w in exc.witnesses), str(exc)) from exc
