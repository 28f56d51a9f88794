"""Fixed constructors for the reference structures: the Fano plane, the
(a,b)-cycles C_k and their closures D_k, the Fano chain, and the
two-colored cycle graph of a collinear pair.

Labelings are frozen (a = 0, b = 1, c_i = i + 1, ...) so serializations
and canonical codes are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PairNotOnTriple
from .primitives import GoodPair
from .space import LinearSpace, _mask

FANO_LINES = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))

def fano() -> LinearSpace:
    """The 7-point projective plane."""
    return LinearSpace(7, FANO_LINES)


def _cycle_lines(k: int) -> list[tuple[int, int, int]]:
    """The lines of C_k on a = 0, b = 1 and c_i = i + 1 for i = 1..4k:
    a c_{2j+1} c_{2j+2}, b c_{2j} c_{2j+1} and b c_1 c_{4k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lines = [(0, 2 * j + 2, 2 * j + 3) for j in range(2 * k)]
    return lines + [(1, 2 * j + 1, 2 * j + 2) for j in range(1, 2 * k)] + [(1, 2, 4 * k + 1)]


def cycle_Ck(k: int) -> GoodPair:
    """The (a,b)-cycle pair: base {a,b}, 4k extension points, 4k lines."""
    n = 4 * k + 2
    return GoodPair(LinearSpace(n, _cycle_lines(k)), (0, 1), code_limit=n)


def _dk_lines(k: int) -> list[tuple[int, int, int]]:
    """The lines of D_k: C_k's, and the new point c = 4k + 2 on line ab
    and on c_1 c_{2k+1} and c_{k+1} c_{3k+1}."""
    c = 4 * k + 2
    return _cycle_lines(k) + [(0, 1, c), (2, 2 * k + 2, c), (k + 2, 3 * k + 2, c)]


def D_k(k: int) -> GoodPair:
    """The cycle C_k completed by a point c on line ab; good over the
    empty set, with delta 0 (4k+3 points and lines)."""
    n = 4 * k + 3
    return GoodPair(LinearSpace(n, _dk_lines(k)), (), code_limit=n)


# triangle vertices of the standard Fano picture under FANO_LINES
_TRIANGLE = (0, 1, 3)


def _chain_steps(n: int) -> list[list[tuple[int, int, int]]]:
    """The lines each step of the Fano chain adds: step i puts a_{i+1},
    b_{i+1}, c_{i+1} = 7 + 3i, 8 + 3i, 9 + 3i collinear with the previous
    triangle a_i, b_i, c_i, so that delta(A_{i+1}/A_i) = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    tri = [_TRIANGLE] + [(p, p + 1, p + 2) for p in range(7, 7 + 3 * n, 3)]
    return [[(a, a2, c2), (b, b2, c2), (a2, b2, c)] for (a, b, c), (a2, b2, c2) in zip(tri, tri[1:])]


def fano_chain(n: int) -> list[LinearSpace]:
    """Chain A_0 <= A_1 <= ... <= A_n from the Fano plane, one step each."""
    out = [fano()]
    for add in _chain_steps(n):
        out.append(out[-1].with_lines(out[-1].n + 3, add=add))
    return out


def _chain_end(n: int) -> LinearSpace:
    """A_n alone, fano_chain(n)[-1], in one LinearSpace call: the chain
    holds n + 1 structures, each with its own pair index."""
    return LinearSpace(7 + 3 * n, [*FANO_LINES, *(ln for step in _chain_steps(n) for ln in step)])


@dataclass(frozen=True)
class CycleGraph:
    """Two-colored graph on the points off the block (a,b,c): an a-edge
    joins x,y when axy is a block, a b-edge when bxy is."""

    vertices: tuple[int, ...]
    a_edges: frozenset[frozenset[int]]
    b_edges: frozenset[frozenset[int]]


def cycle_graph(M: LinearSpace, a: int, b: int) -> CycleGraph:
    """The diagnostic graph of a pair in a Steiner triple system."""
    _mask(M.n, (a, b))
    for ln in M.lines:
        if len(ln) != 3:
            raise ValueError("cycle graph is defined for 3-point lines only")
    ab = M.line_through(a, b)
    if ab is None:
        raise PairNotOnTriple(f"pair ({a}, {b}) lies on no 3-point line")
    (c,) = [p for p in ab if p not in (a, b)]
    verts = tuple(p for p in range(M.n) if p not in (a, b, c))

    # the edges of q: the other two points of each line through q but ab
    def edges(q: int) -> frozenset[frozenset[int]]:
        return frozenset(frozenset(p for p in ln if p != q) for ln in M.lines if q in ln and ln != ab)

    return CycleGraph(verts, edges(a), edges(b))
