"""Primitive extensions, good pairs, canonical codes, copy counting,
and decomposition of strong extensions into primitive steps.

canonical_code names the isomorphism type of a (space, base) pair: the
least leaf encoding of an individualization-refinement search, pruned
by the automorphisms that equal leaf encodings reveal.  Codes are equal
exactly when the pairs are isomorphic with base mapped to base.

embeddings_over_base is the one embedding search: copies_over_base and
chi collect its extension images, amalgamate-or-identify its first one.
copies_over_base runs it under the stabilizer-chain rule, which keeps
one embedding per image, so a copy costs one leaf, not one leaf per
automorphism of the pair.

One rule decides how a delta question is answered.  Strongness
preconditions go through dimension.is_strong and carry its witness.
0-primitivity compares delta values of the sets B u C' on one maximum
flow (_zero_primitive).  What the calculus fixes is not searched: the
base of a good pair is _base_mask, and the strong sets strictly between
a strong B and M are read off the closures icl(B + p), one flow each
(_closures): is_primitive asks whether every one is M, and a primitive
step of decompose is the least of them.  No question reads a dense
table, so none loads numpy.

canonical_code is the only path to a code, and decode_code reads one
back.  Two lru_caches of SHAPE_CACHE_SIZE entries, read by cache_info(),
keep code work across calls: _least_leaf maps a first-leaf encoding to
its code, and _shape_code a labelled shape of _good_pairs to its verdict
and code.  Both keep strings only, never a space.  _good_pairs is the
one good-pair engine: enumerate_good_pairs makes GoodPairs of what it
yields, and the bounded K_mu check groups it as read.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations, permutations
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .dimension import _flow, _reached, _reaching, d_table, delta_table, icl_mask, is_strong
from .errors import AxiomViolation, FormatError, NotStrong, NotZeroPrimitive, SizeLimit, check_int
from .space import (
    MAX_POINTS,
    LinearSpace,
    _content_lines,
    _int,
    _keeps_lines,
    _mask,
    _ls_v1_rows,
    _relabelled_lines,
    _row,
    delta_mask,
    mask_of,
    points_of,
    preserves_lines,
    to_ls_v1,
)
from .tight import iter_candidate_sets

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CODE_LIMIT = 16
COPY_CAP = 10000
ALPHA_CODE = "alpha"
# alpha's points: two on a line and the new third one
ALPHA_SIZE = 3
# entries of each code cache, _shape_code and _least_leaf
SHAPE_CACHE_SIZE = 1024


# no caller; kept while perfbench/tracing.py reads its cache_info() at import
@lru_cache(maxsize=4)
def _tables(space: LinearSpace):
    """(delta per subset, superset-min per subset) for a small space."""
    dt = delta_table(space)
    return dt, d_table(space)


# no caller; kept while perfbench/tracing.py reads its cache_info() at import
@lru_cache(maxsize=16)
def _from_base_table(space: LinearSpace, b_mask: int) -> np.ndarray:
    """For masks X >= b_mask: min delta over the interval [b_mask, X]."""
    import numpy as np

    n = space.n
    m = delta_table(space).copy()
    for b in range(n):
        if b_mask >> b & 1:
            continue
        half = 1 << b
        view = m.reshape(-1, 2 * half)
        np.minimum(view[:, half:], view[:, :half], out=view[:, half:])
    return m


def _closures(M: LinearSpace, b_mask: int) -> Iterator[int]:
    """icl(B + p) for each point p of M outside B, in point order, as
    masks; B <= M.

    They stand for the strong sets X with B < X < M (strong meaning X <=
    M, which with B <= M gives B <= X).  Such an X holds icl(B + p) for
    each p in X - B, icl(B + p) being the least strong superset of B + p.
    Conversely a closure icl(B + p) other than M is such an X: it is
    strong and holds p.  So B <= M is primitive exactly when every
    closure is M, and the (size, lex)-least strong set strictly above B
    is the least closure.
    """
    return (icl_mask(M, b_mask | 1 << p) for p in points_of(M.full_mask() & ~b_mask))


def is_primitive(space: LinearSpace, B: Iterable[int]) -> bool:
    """No proper intermediate strong set between B and the whole space:
    every closure icl(B + p) is the whole space (_closures)."""
    b_mask = _mask(space.n, B)
    _require_strong(space, points_of(b_mask), range(space.n))
    full = space.full_mask()
    return all(x == full for x in _closures(space, b_mask))


def _require_strong(space: LinearSpace, lo: Iterable[int], hi: Iterable[int]) -> None:
    """Raise NotStrong with is_strong's witness unless lo <= hi."""
    w = is_strong(space, lo, hi)
    if not w.ok:
        raise NotStrong(w.lo, w.hi, w.violating)


def _zero_primitive(space: LinearSpace, b_mask: int, c_mask: int) -> bool:
    """C, nonempty, is 0-primitive over B: delta(BC) = delta(B) <
    delta(BC') for every nonempty proper subset C' of C.

    The paper asks for delta(C/B) = 0, B <= BC, and no X = BC' strictly
    between with B <= X <= BC.  Given the first two, such an X has
    delta(B) <= delta(X) <= delta(BC) = delta(B), so delta(X) = delta(B);
    conversely delta(X) = delta(B) = delta(BC) makes X strong on both
    sides, since every set in [B, BC] has delta >= delta(B).  So C is
    0-primitive over B exactly when B and BC minimize delta over [B, BC]
    and no other set does.

    One maximum flow of [B, BC] (dimension._flow) decides it.  Its
    minimizers are B plus the free points of a minimum cut's source
    side, and those sides are the sets that hold s, not t, and every
    node a residual arc leaves them for (Picard and Queyranne, 1980).
    Let B and BC both minimize, delta(BC) = delta(B) = the minimum.
    B is the least minimizer, so s reaches no point of C; BC is the
    greatest, so no point of C reaches t, and every point of C is fed.
    Then a line reached from s feeds every point on it, and the residual
    arcs among points are these alone: p -> q, when q lies on the line
    feeding p and a different line feeds q (p to its feeding line, that
    line to a point it does not feed).  A point set P then lies on such
    a side exactly when P is closed under these arcs, with the lines
    reached from s and those feeding P.  So only B and BC minimize
    exactly when only the empty set and C are closed, that is when the
    digraph is strongly connected: every point of C reaches the least
    point r of C, and r reaches every point of C.  B u C may be any
    point set of the space.
    """
    low, members, on, owner, _ = _flow(space, b_mask, b_mask | c_mask)
    if not delta_mask(space, b_mask) == delta_mask(space, b_mask | c_mask) == low:
        return False
    r = (c_mask & -c_mask).bit_length() - 1
    if mask_of(_reaching(members, on, owner, [r])) != c_mask:
        return False
    return mask_of(_reached(members, owner, [owner[r]])) | 1 << r == c_mask


def _base_mask(space: LinearSpace, b_mask: int, c_mask: int) -> int:
    """The B-points on lines that meet C and carry three or more points of
    B u C: the base of a 0-primitive (B, C) with |C| >= 2."""
    b0 = 0
    for lm in space.line_masks:
        if lm & c_mask and (lm & (b_mask | c_mask)).bit_count() >= 3:
            b0 |= lm & b_mask
    return b0


def _pair_masks(space: LinearSpace, B: Iterable[int], C: Iterable[int]) -> tuple[int, int]:
    """The point masks of B and C; a ValueError when they overlap or C is empty."""
    b_mask, c_mask = _mask(space.n, B), _mask(space.n, C)
    if b_mask & c_mask:
        raise ValueError("B and C overlap")
    if not c_mask:
        raise ValueError("C is empty")
    return b_mask, c_mask


def is_good_pair(space: LinearSpace, B: Iterable[int], C: Iterable[int]) -> bool:
    """0-primitive over B with base-minimal B: C is 0-primitive over B
    and over no proper subset of B.  B u C may be any point set of the
    space (see _zero_primitive).

    No subset of B is searched.  One point c: delta(B + c) = delta(B)
    puts c on one line with two or more points of B, and C is
    0-primitive over any two of them and over no smaller set, so B is
    minimal exactly when |B| = 2.  More points: take B0 = _base_mask.
    A point of B - B0 shares no line with a point of C and a third point
    of B u C, so it changes no delta(B C') - delta(B): C is 0-primitive
    over B0.  A line through c in C holds at most one point of B, else
    B + c would be an intermediate strong set; so dropping any point of
    B0 raises delta(C/B0) above 0, and B is minimal exactly when B = B0.
    """
    b_mask, c_mask = _pair_masks(space, B, C)
    if not _zero_primitive(space, b_mask, c_mask):
        return False
    if c_mask.bit_count() == 1:
        return b_mask.bit_count() == 2
    return b_mask == _base_mask(space, b_mask, c_mask)


def bases_of(space: LinearSpace, B: Iterable[int], C: Iterable[int]) -> list[frozenset[int]]:
    """All bases of a 0-primitive pair (Lemma-style case split).

    One new point on a line: every 2-subset of the line's base points.
    Larger extensions: the unique base, the B-points on the nontrivial
    lines of B u C that meet C.
    """
    b_mask, c_mask = _pair_masks(space, B, C)
    if not _zero_primitive(space, b_mask, c_mask):
        raise NotZeroPrimitive(
            f"({sorted(points_of(b_mask))}, {sorted(points_of(c_mask))}) is not 0-primitive"
        )
    if c_mask.bit_count() == 1:
        # delta(B + c) = delta(B) puts c on exactly one line with two or
        # more points of B
        lm = next(lm for lm in space.line_masks if lm & c_mask and (lm & b_mask).bit_count() >= 2)
        return [frozenset(pair) for pair in combinations(points_of(lm & b_mask), 2)]
    return [frozenset(points_of(_base_mask(space, b_mask, c_mask)))]


# -- canonical codes ---------------------------------------------------

def _refine(space: LinearSpace, colors: tuple[int, ...]) -> tuple[int, ...]:
    by_point = space.lines_by_point
    while True:
        line_cols = [tuple(sorted(colors[q] for q in ln)) for ln in space.lines]
        sigs = []
        for p in range(space.n):
            line_sigs = sorted(line_cols[li] for li in by_point[p])
            sigs.append((colors[p], tuple(line_sigs)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(ranks[s] for s in sigs)
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _individualize(colors: tuple[int, ...], p: int) -> tuple[int, ...]:
    keyed = [(c, 0 if q == p else 1) for q, c in enumerate(colors)]
    ranks = {s: i for i, s in enumerate(sorted(set(keyed)))}
    return tuple(ranks[k] for k in keyed)


def _target_cell(colors: tuple[int, ...]) -> list[int]:
    """Points of the smallest colour that two or more points share, in
    point order; empty when the colouring is discrete."""
    seen: set[int] = set()
    shared: set[int] = set()
    for c in colors:
        if c in seen:
            shared.add(c)
        seen.add(c)
    if not shared:
        return []
    c = min(shared)
    return [p for p, x in enumerate(colors) if x == c]


def _encode(space: LinearSpace, nb: int, colors: tuple[int, ...]) -> str:
    """The lines of a leaf, relabelled by its discrete colouring."""
    new_lines = sorted(tuple(sorted(colors[p] for p in ln)) for ln in space.lines)
    body = "|".join(",".join(map(str, ln)) for ln in new_lines)
    return f"gp{nb}.{space.n - nb}|{body}"


def decode_code(code: str) -> tuple[LinearSpace, frozenset[int]]:
    """The (space, base) normal form a code encodes, base first: _encode's inverse."""
    if code == ALPHA_CODE:
        return LinearSpace(3, [(0, 1, 2)]), frozenset((0, 1))
    if not code.startswith("gp"):
        raise ValueError(f"not a canonical code: {code!r}")
    head, _, body = code.partition("|")
    nb_s, _, nc_s = head[2:].partition(".")
    try:
        nb, nc = (_int(t, "point count", cap=MAX_POINTS) for t in (nb_s, nc_s))
        parts = body.split("|") if body else []
        lines = [tuple(_int(x, "point id") for x in part.split(",")) for part in parts]
    except ValueError:
        raise ValueError(f"malformed canonical code: {code!r}") from None
    if nb + nc > MAX_POINTS:
        raise SizeLimit(f"code of {nb + nc} points exceeds the cap of {MAX_POINTS}")
    try:
        return LinearSpace(nb + nc, lines), frozenset(range(nb))
    except AxiomViolation as exc:
        raise ValueError(f"malformed canonical code: {exc}") from None


def _find(parent: list[int], p: int) -> int:
    while parent[p] != p:
        parent[p] = parent[parent[p]]
        p = parent[p]
    return p


def _subtree_min(
    space: LinearSpace,
    nb: int,
    colors: tuple[int, ...],
    first_leaf: tuple[int, ...],
    first: str,
    orbits: list[int],
    best: str,
) -> str:
    """min(best, least leaf encoding below `colors`), where `colors` is a
    child of a first-path node that is not on the first path.

    A leaf encoded as `first` (the first leaf's encoding) yields the
    automorphism gamma = leaf^-1 o first_leaf.  gamma maps the first leaf
    to this one, so it fixes their shared individualized prefix and maps
    the first-path child at the split to the root of this subtree: the
    subtree is gamma's image of one already searched, and the walk stops.
    gamma's cycles are merged into `orbits`, a union-find over points.
    """
    stack = [colors]
    while stack:
        colors = _refine(space, stack.pop())
        cell = _target_cell(colors)
        if cell:
            for p in reversed(cell):
                stack.append(_individualize(colors, p))
            continue
        enc = _encode(space, nb, colors)
        if enc == first:
            point_of = [0] * space.n
            for p, c in enumerate(colors):
                point_of[c] = p
            for p, c in enumerate(first_leaf):
                orbits[_find(orbits, p)] = _find(orbits, point_of[c])
            return best
        if enc < best:
            best = enc
    return best


def _first_path(space: LinearSpace, base: frozenset[int]) -> tuple[list, tuple[int, ...]]:
    """The first path's (node, target cell) pairs and its leaf: individualize
    the first point of the target cell until the colouring is discrete."""
    path: list[tuple[tuple[int, ...], list[int]]] = []
    colors = tuple(0 if p in base else 1 for p in range(space.n))
    while True:
        colors = _refine(space, colors)
        cell = _target_cell(colors)
        if not cell:
            return path, colors
        path.append((colors, cell))
        colors = _individualize(colors, cell[0])


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _least_leaf(first: str) -> str:
    """The code of every pair whose first leaf encodes as `first`: the
    least leaf encoding, an isomorphism invariant, found by the pruned
    search on the pair that `first` decodes to."""
    space, base = decode_code(first)
    nb = len(base)
    path, first_leaf = _first_path(space, base)
    best = own = _encode(space, nb, first_leaf)
    orbits = list(range(space.n))
    # first-path nodes, deepest first: every automorphism found so far
    # came from a leaf below the current node, so it fixes the node's
    # prefix and permutes the node's children
    for node, cell in reversed(path):
        searched = [cell[0]]
        for q in cell[1:]:
            root = _find(orbits, q)
            if any(_find(orbits, s) == root for s in searched):
                continue
            searched.append(q)
            best = _subtree_min(space, nb, _individualize(node, q), first_leaf, own, orbits, best)
    return best


def canonical_code(space: LinearSpace, base: Iterable[int], *, limit: int = DEFAULT_CODE_LIMIT) -> str:
    """Isomorphism-invariant code of (space, base): two pairs get the same
    code exactly when some bijection maps lines onto lines and base onto
    base.

    The code is the least leaf encoding of an individualization-
    refinement tree.  Start from the colouring base = 0, rest = 1;
    refine it by line signatures until stable; at a non-discrete node,
    individualize each point of the smallest shared colour in turn.  A
    leaf is a discrete colouring, a relabelling that keeps base points
    first, and its encoding is the relabelled line list.  Refinement and
    the choice of cell use only colours and lines, so a bijection
    between two pairs maps one tree onto the other, leaf encodings
    included: equal inputs up to isomorphism get equal codes.
    Conversely, an encoding is a relabelled copy of (space, base), so
    equal codes mean isomorphic inputs.  The code is the least encoding
    over the tree's leaves, which is in general not the least over all
    base-first relabellings.

    Two savings leave the least leaf encoding as it is (McKay and
    Piperno, "Practical graph isomorphism, II", 2014).  A leaf encoded
    as the first leaf gives an automorphism, and with it the search
    skips the rest of that subtree, and at a first-path node every child
    in the orbit of a searched child under the automorphisms found so
    far: each skipped subtree is an automorphic image of a searched one,
    with the same leaf encodings.  See _subtree_min and _least_leaf.

    Every code is computed here: the call walks the first path, and
    _least_leaf, an lru_cache, searches the decoded first-leaf encoding.
    Equal first leaves mean isomorphic inputs, so a pair isomorphic to
    one coded recently costs one root-to-leaf path.
    """
    n, base = space.n, frozenset(points_of(_mask(space.n, base)))
    if n > limit:
        raise SizeLimit(f"{n} points exceeds code limit {limit}")
    if n == 3 and len(base) == 2 and space.lines == ((0, 1, 2),):
        return ALPHA_CODE
    return _least_leaf(_encode(space, len(base), _first_path(space, base)[1]))


class GoodPair:
    """A base-and-extension pair carried on its own small linear space.

    Points 0..n-1 are B u C; `base` indexes B.  `code` is the canonical
    isomorphism-type string keying mu functions.  The constructor
    verifies the pair with is_good_pair and raises NotZeroPrimitive when
    it is not good.
    """

    __slots__ = ("space", "base", "ext", "code")

    def __init__(
        self,
        space: LinearSpace,
        base: Iterable[int],
        *,
        code_limit: int = DEFAULT_CODE_LIMIT,
    ):
        self.space = space
        self.base = frozenset(base)
        self.ext = frozenset(range(space.n)) - self.base
        if not self.ext:
            raise ValueError("extension is empty")
        if not is_good_pair(space, self.base, self.ext):
            raise NotZeroPrimitive(
                f"({sorted(self.base)}, {sorted(self.ext)}) is not a good pair"
            )
        self.code = canonical_code(space, self.base, limit=code_limit)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GoodPair)
            and self.space == other.space
            and self.base == other.base
        )

    def __hash__(self) -> int:
        return hash((self.space, self.base))

    def __repr__(self) -> str:
        return f"GoodPair(|B|={len(self.base)}, |C|={len(self.ext)}, code={self.code[:24]!r})"


def _coded_pair(shape: Shape, code: str) -> GoodPair:
    """The unchecked GoodPair of a labelled shape, with its code known."""
    n, lines, b_mask = shape
    gp = GoodPair.__new__(GoodPair)
    gp.space = LinearSpace(n, lines)
    gp.base = frozenset(points_of(b_mask))
    gp.ext = frozenset(range(n)) - gp.base
    gp.code = code
    return gp


def alpha_pair() -> GoodPair:
    """The pair "one new point on an existing line"."""
    return GoodPair(LinearSpace(3, [(0, 1, 2)]), (0, 1))


# -- copies and chi ----------------------------------------------------

def embeddings_over_base(
    M: LinearSpace,
    pair_space: LinearSpace,
    base: Iterable[int],
    b_embed: dict[int, int],
) -> Iterator[dict[int, int]]:
    """Induced embeddings of the pair into M extending b_embed, whose keys
    must be the base and whose values points of M.

    Each is an injection phi of the pair's points into M that fixes the
    base embedding and matches collinearity exactly in both directions on
    its image.  They come out in lexicographic order of the extension
    images (phi(x) for x in the sorted extension points), each once.

    Every point p of the pair must map to a point on at least as many
    M-lines as p lies on pair lines: for an extension point this bounds
    its candidates, and a base image below it leaves no embedding.  The
    bound is admissible: two pair lines through p meet only in p, so if
    phi sent both onto one M-line it would make a non-collinear triple
    collinear; phi maps distinct lines through p to distinct lines
    through phi(p).
    """
    return _search(M, pair_space, base, b_embed, one_per_image=False)


def _search(
    M: LinearSpace,
    pair_space: LinearSpace,
    base: Iterable[int],
    b_embed: dict[int, int],
    one_per_image: bool,
) -> Iterator[dict[int, int]]:
    """embeddings_over_base; with one_per_image, only those with
    phi(y) > phi(x) for every x in _orbit_floors(...)[y]."""
    b_mask = _mask(pair_space.n, base)
    if _mask(pair_space.n, b_embed) != b_mask:
        raise ValueError(f"base embedding maps {sorted(b_embed)}, not the base {list(points_of(b_mask))}")
    _mask(M.n, b_embed.values())
    used = set(b_embed.values())
    if len(used) != len(b_embed):
        raise ValueError("base embedding is not injective")
    if not preserves_lines(pair_space, M, b_embed):
        raise ValueError("base embedding does not preserve collinearity")
    if any(M.degrees[m] < pair_space.degrees[b] for b, m in b_embed.items()):
        return iter(())
    ext = list(points_of(pair_space.full_mask() & ~b_mask))
    above = _orbit_floors(pair_space, frozenset(b_embed)) if one_per_image else ((),) * pair_space.n
    return _extend(M, pair_space, ext, 0, dict(b_embed), used, above)


def _extend(
    M: LinearSpace,
    pair_space: LinearSpace,
    ext: list[int],
    i: int,
    phi: dict[int, int],
    used: set[int],
    above: tuple[tuple[int, ...], ...],
) -> Iterator[dict[int, int]]:
    """The embeddings that extend phi, defined up to ext[:i] with image
    `used`, to ext[i:], in lexicographic order; phi and used are restored
    after each one is yielded.  x = ext[i] maps above the images of the
    points in above[x], all of them in ext[:i]."""
    if i == len(ext):
        yield dict(phi)
        return
    x = ext[i]
    need, degree = pair_space.degrees[x], M.degrees
    floor = max((phi[w] for w in above[x]), default=-1)
    for m in _candidates(M, pair_space, phi, x):
        if m > floor and degree[m] >= need and m not in used and _keeps_lines(pair_space, M, phi, used, x, m):
            phi[x] = m
            used.add(m)
            yield from _extend(M, pair_space, ext, i + 1, phi, used, above)
            used.discard(m)
            del phi[x]


def _candidates(M: LinearSpace, pair_space: LinearSpace, phi: dict[int, int], x: int) -> Iterable[int]:
    """Points of M that x may map to, ascending, which keeps the output
    of _extend in lexicographic order.  A point collinear with two mapped
    points can only land on their M-line; one mapped neighbour still
    confines it to that image's lines."""
    neighbour = None
    for u, pu in phi.items():
        pl = pair_space.line_through(u, x)
        if pl is None:
            continue
        for v in pl:
            if v != u and v in phi:
                ml = M.line_through(pu, phi[v])
                return () if ml is None else ml
        if neighbour is None:
            neighbour = pu
    if neighbour is None:
        return range(M.n)
    near: set[int] = set()
    for li in M.lines_by_point[neighbour]:
        near.update(M.lines[li])
    near.discard(neighbour)
    return sorted(near)


@lru_cache(maxsize=64)
def _orbit_floors(pair_space: LinearSpace, base: frozenset[int]) -> tuple[tuple[int, ...], ...]:
    """above[y] for the stabilizer-chain rule: the extension points x_i
    whose orbit O_i holds y != x_i.  With x_1 < x_2 < ... the extension
    points, O_i is the orbit of x_i under the automorphisms of the pair
    that fix B and x_1, ..., x_{i-1} pointwise, so y > x_i.

    Membership is one existence test: an embedding of the pair into
    itself is an automorphism, so y is in O_i exactly when the map that
    fixes B + x_1 ... x_{i-1} and sends x_i to y extends to one.  The
    group itself is never listed.
    """
    ext = sorted(set(range(pair_space.n)) - base)
    above: list[list[int]] = [[] for _ in range(pair_space.n)]
    fixed = {b: b for b in base}
    for i, x in enumerate(ext):
        for y in ext[i + 1:]:
            trial = {**fixed, x: y}
            if preserves_lines(pair_space, pair_space, trial) and next(
                embeddings_over_base(pair_space, pair_space, trial, trial), None
            ) is not None:
                above[y].append(x)
        fixed[x] = x
    return tuple(map(tuple, above))


def copies_over_base(
    M: LinearSpace,
    pair_space: LinearSpace,
    base: Iterable[int],
    b_embed: dict[int, int],
) -> list[frozenset[int]]:
    """Distinct extension images phi(C) of the embeddings_over_base,
    sorted; more than COPY_CAP of them raises SizeLimit.

    Each image is collected once, by the stabilizer-chain rule of
    subgraph enumeration (Grochow and Kellis, RECOMB 2007).  Embeddings
    with one image differ by an automorphism g of the pair that fixes B
    pointwise, phi' = phi o g.  The search keeps phi only when
    phi(x_i) < phi(y) for every y in the orbit O_i (see _orbit_floors):
    the orbit of x_i under the automorphisms that fix x_1 ... x_{i-1}
    indexes the choices of g left at step i, and exactly one of them
    puts x_i at the least image, so each image is reached by one leaf.
    """
    images: list[frozenset[int]] = []
    for phi in _search(M, pair_space, base, b_embed, one_per_image=True):
        images.append(frozenset(phi[x] for x in phi if x not in b_embed))
        if len(images) > COPY_CAP:
            raise SizeLimit(f"more than {COPY_CAP} copies")
    return sorted(images, key=sorted)


def _max_disjoint(sets: Iterable[frozenset[int]]) -> int:
    """Largest number of pairwise disjoint sets among `sets`."""
    return _pack(sorted(sets, key=lambda s: (len(s), sorted(s))), 0, frozenset(), 0, 0)


def _pack(sets: list[frozenset[int]], i: int, taken: frozenset[int], count: int, best: int) -> int:
    """max(best, count + most pairwise disjoint sets of sets[i:] that
    avoid `taken`); `count` sets, covering `taken`, are already chosen."""
    if count + (len(sets) - i) <= best:
        return best
    best = max(best, count)
    for j in range(i, len(sets)):
        if not sets[j] & taken:
            best = _pack(sets, j + 1, taken | sets[j], count + 1, best)
    return best


def chi(M: LinearSpace, gp: GoodPair, b_embed: dict[int, int]) -> int:
    """Maximum number of copies of gp.ext over the embedded base, which
    they fix pointwise, that are pairwise disjoint outside it.
    _group_chi reads it for a (code, base image) group."""
    return _max_disjoint(copies_over_base(M, gp.space, gp.base, b_embed))


def _group_chi(
    M: LinearSpace, code: str, base_img: Iterable[int], most: Optional[int]
) -> tuple[int, tuple[int, ...]]:
    """The largest chi of the code's pair over the maps of its base
    0..nb-1 onto base_img, and the values of the first map, in
    lexicographic order, that reaches it: chi(M, GoodPair(*decode_code(
    code)), dict(enumerate(values))) gives the count.  `most`, the
    packing of the group's copies, bounds every map's count, so the search
    stops at a map that reaches it; with None every map is searched.  A
    map that preserves_lines refuses carries no copy."""
    space, base = decode_code(code)
    best, best_img = 0, tuple(sorted(base_img))
    for img in permutations(best_img):
        b_embed = dict(enumerate(img))
        if preserves_lines(space, M, b_embed):
            val = _max_disjoint(copies_over_base(M, space, base, b_embed))
            if val > best:
                best, best_img = val, img
                if best == most:
                    break
    return best, best_img


# -- enumeration -------------------------------------------------------

def _bases(M: LinearSpace, c_mask: int, dc: int, pop_lines: Iterable[int], slots: int) -> list[tuple[int, ...]]:
    """The base choices for a candidate set C with delta dc: at most
    `slots` outside points whose weights, the numbers of populated lines
    of C they sit on, sum to dc.  Empty, before any clash mask is built,
    when the `slots` largest weights fall short of dc."""
    line_masks, by_point = M.line_masks, M.lines_by_point
    weight_of: dict[int, int] = {}
    for li in pop_lines:
        for q in M.lines[li]:
            if not c_mask >> q & 1:
                weight_of[q] = weight_of.get(q, 0) + 1
    weights = sorted(weight_of.items(), key=lambda qw: (-qw[1], qw[0]))
    top = [0, *accumulate(w for _q, w in weights)]
    if top[min(slots, len(weights))] < dc:
        return []
    clash = [0] * len(weights)
    for j, (q, _w) in enumerate(weights):
        for li in by_point[q]:
            if line_masks[li] & c_mask:
                clash[j] |= line_masks[li] & ~c_mask
    return list(_base_choices(weights, top, clash, 0, (), 0, dc, slots))


def _base_choices(
    weights: list[tuple[int, int]],
    top: list[int],
    clash: list[int],
    i: int,
    chosen: tuple[int, ...],
    banned: int,
    need: int,
    slots: int,
) -> Iterator[tuple[int, ...]]:
    """`chosen` extended by at most `slots` points of weights[i:] whose
    weights sum to `need`, no two on a line that meets C: such a line,
    through two base points and an extension point, makes the extension
    non-primitive.  `weights` holds (point, weight), heaviest first,
    top[j] is the total weight of weights[:j], clash[j] masks the points
    on the lines through weights[j]'s point that meet C, and `banned` is
    the union of the clash masks of `chosen`.

    The `slots` largest weights from index j on are weights[j:j + slots];
    once they fall short of `need`, so do those from every later index.
    """
    if need == 0:
        yield chosen
        return
    for j in range(i, len(weights)):
        if top[min(j + slots, len(weights))] - top[j] < need:
            return
        q, w = weights[j]
        if w <= need and not banned >> q & 1:
            yield from _base_choices(
                weights, top, clash, j + 1, chosen + (q,), banned | clash[j], need - w, slots - 1
            )


def _line_test(M: LinearSpace, bc_mask: int, c_pts: Iterable[int]) -> bool:
    """Every point of C lies on two or more lines of M that carry three
    or more points of B u C (`bc_mask`).

    A good pair (B, C) with |C| >= 2 passes.  For p in C, B u C - p lies
    strictly between B and B u C, so 0-primitivity gives
    delta(B u C - p) > delta(B u C); and delta(B u C) - delta(B u C - p)
    is 1 minus the number of lines through p with three or more points
    of B u C.
    """
    line_masks, by_point = M.line_masks, M.lines_by_point
    return all(
        sum((line_masks[li] & bc_mask).bit_count() >= 3 for li in by_point[p]) >= 2
        for p in c_pts
    )


Shape = tuple[int, tuple[tuple[int, ...], ...], int]


def _shape(M: LinearSpace, bc_mask: int, b_pts: Iterable[int]) -> tuple[tuple[int, ...], Shape]:
    """The points of B u C, ascending, and the labelled shape of (B, C):
    (n, lines, base mask) of the structure induced on B u C as
    space._relabelled_lines relabels it, each point to the number of
    points of B u C below it.  No LinearSpace is built."""
    pts = points_of(bc_mask)
    by_point = M.lines_by_point
    lines = _relabelled_lines(M, pts, bc_mask, {li for p in pts for li in by_point[p]})
    return pts, (len(pts), tuple(lines), mask_of((bc_mask & ((1 << p) - 1)).bit_count() for p in b_pts))


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape_code(shape: Shape) -> Optional[str]:
    """The code of a labelled shape, or None when it is not a good pair."""
    n, lines, b_mask = shape
    space = LinearSpace(n, lines)
    base = points_of(b_mask)
    ext = points_of(space.full_mask() & ~b_mask)
    return canonical_code(space, base) if is_good_pair(space, base, ext) else None


def _good_pairs(M: LinearSpace, max_size: int, touch: int) -> Iterator[tuple[str, Shape, tuple, tuple]]:
    """(code, labelled shape, points of B u C ascending, base points) of
    each good pair (B, C) inside M with |C| >= 2, |B u C| <= max_size and
    B u C meeting the point mask `touch`, in the walk's order.  An emitted
    set C that misses `touch` and has no populated line meeting it is
    skipped, since every base point lies on a populated line of C; then
    base choices whose B u C misses it.

    Bases come from _bases, at most max_size - |C| outside points, no
    two of them on a line that meets C; a candidate set whose max_size -
    |C| largest weights fall short of delta(C) has none.  One more test
    rejects a base choice before anything is built for it: every point p
    of C must lie on two or more lines with three or more points of B u C
    (_line_test).  For a good pair, delta(B u C - p) > delta(B u C), and
    the difference is 1 minus the number of such lines through p.

    Verification is keyed on the labelled shape (n, lines, base mask) of
    the order-preserving relabelling of B u C (_shape).  That key is the
    labelled structure together with B, and C is the rest of it, so the
    verdict and the canonical code are functions of the key.  A call
    verifies each shape once; _shape_code keeps verdict and code for the
    SHAPE_CACHE_SIZE shapes used last, across calls, and canonical_code's
    own cache serves a new shape isomorphic to one coded recently.
    """
    if max_size > DEFAULT_CODE_LIMIT:
        raise SizeLimit(f"max_size {max_size} exceeds code limit {DEFAULT_CODE_LIMIT}")
    codes: dict[Shape, Optional[str]] = {}
    for c_mask, dc, pop_lines in iter_candidate_sets(M, max_size):
        meets = c_mask & touch
        if not meets and not any(M.line_masks[li] & touch for li in pop_lines):
            continue
        choices = _bases(M, c_mask, dc, pop_lines, max_size - c_mask.bit_count())
        c_pts = points_of(c_mask) if choices else ()
        for b_pts in choices:
            b_mask = mask_of(b_pts)
            if not meets and not b_mask & touch:
                continue
            bc_mask = c_mask | b_mask
            if not _line_test(M, bc_mask, c_pts):
                continue
            pts, shape = _shape(M, bc_mask, b_pts)
            if shape not in codes:
                codes[shape] = _shape_code(shape)
            if (code := codes[shape]) is not None:
                yield code, shape, pts, b_pts


def enumerate_good_pairs(M: LinearSpace, max_size: int) -> list[tuple[GoodPair, dict[int, int]]]:
    """All good pairs with B u C inside M, |B u C| <= max_size, as (pair,
    embedding into M), ordered by the points of B u C, then by the base.

    Single-point extensions are exactly the alpha instances and are read
    off the lines; larger ones come from _good_pairs, verified exactly.
    Copies of one shape share a GoodPair.
    """
    check_int("max_size", max_size)
    # (sort key, item): the points of B u C ascending, then the base's
    keyed: list[tuple[tuple[list[int], list[int]], tuple[GoodPair, dict[int, int]]]] = []
    pairs: dict[Shape, GoodPair] = {}
    for code, shape, pts, b_pts in _good_pairs(M, max_size, M.full_mask()):
        if shape not in pairs:
            pairs[shape] = _coded_pair(shape, code)
        keyed.append(((list(pts), sorted(b_pts)), (pairs[shape], dict(enumerate(pts)))))
    alpha = alpha_pair()
    for ln in M.lines if max_size >= ALPHA_SIZE else ():
        for c in ln:
            for a, b in combinations([p for p in ln if p != c], 2):
                keyed.append(((sorted((a, b, c)), [a, b]), (alpha, {0: a, 1: b, 2: c})))
    keyed.sort(key=itemgetter(0))
    return [item for _key, item in keyed]


def decompose(M: LinearSpace, D: Iterable[int]) -> list[tuple[frozenset[int], int]]:
    """Chain D = X_0 <= X_1 <= ... <= M of primitive steps.

    Each entry is (points of X_{i+1}, delta increment).  Steps pick the
    smallest, then lexicographically least, strong superset X of the
    current set; minimality makes the step primitive.  X <= M suffices:
    cur <= M holds throughout, and [cur, X] lies inside [cur, M].

    No subset of the free points is searched: the least X is the least
    of the closures icl(cur + p) (_closures).
    """
    cur = _mask(M.n, D)
    _require_strong(M, points_of(cur), range(M.n))
    full = M.full_mask()
    steps: list[tuple[frozenset[int], int]] = []
    while cur != full:
        found = min(_closures(M, cur), key=lambda x: (x.bit_count(), points_of(x)))
        steps.append((frozenset(points_of(found)), delta_mask(M, found) - delta_mask(M, cur)))
        cur = found
    return steps


# -- gp-v1 text format -------------------------------------------------

def to_gp_v1(space: LinearSpace, base: Iterable[int]) -> str:
    base_row = ("base " + " ".join(str(p) for p in sorted(base))).rstrip()
    return to_ls_v1(space) + base_row + "\n"


def parse_gp_v1(text: str) -> tuple[LinearSpace, frozenset[int]]:
    """The ls-v1 rows and a `base` row, which may stand anywhere; a second
    `base` row is read as an ls-v1 row, and refused there."""
    rows = list(_content_lines(text))
    lineno, base = next(((i, row) for i, row in rows if row.split()[0] == "base"), (0, None))
    space = _ls_v1_rows(row for row in rows if row[0] != lineno)
    if base is None:
        raise FormatError(0, "missing 'base ...' line")
    with _row(lineno):
        points = [_int(x, "point id") for x in base.split()[1:]]
        if points != sorted(set(points)) or points and (points[0] < 0 or points[-1] >= space.n):
            raise ValueError(f"base points must be strictly increasing in 0..{space.n - 1}")
    return space, frozenset(points)
