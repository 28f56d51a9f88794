import pytest
from itertools import combinations

from steinergeom import (
    D_k,
    GoodPair,
    LinearSpace,
    NotZeroPrimitive,
    PairNotOnTriple,
    bases_of,
    canonical_code,
    cycle_Ck,
    cycle_graph,
    delta,
    fano,
    fano_chain,
    in_K0,
    is_good_pair,
    is_strong,
)
from steinergeom.gallery import _cycle_lines


def test_fano_shape():
    f = fano()
    assert f.n == 7 and len(f.lines) == 7
    assert delta(f, range(7)) == 0
    assert in_K0(f)[0]
    # a projective plane covers every pair
    for a, b in combinations(range(7), 2):
        assert f.line_through(a, b) is not None


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cycle_formulas(k):
    gp = cycle_Ck(k)
    assert gp.space.n == 4 * k + 2
    assert len(gp.space.lines) == 4 * k
    assert gp.base == frozenset({0, 1})
    assert delta(gp.space, range(gp.space.n)) == 2
    assert all(len(ln) == 3 for ln in gp.space.lines)
    assert bases_of(gp.space, (0, 1), range(2, gp.space.n)) == [frozenset({0, 1})]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_dk_formulas(k):
    gp = D_k(k)
    n = 4 * k + 3
    assert gp.space.n == n
    assert len(gp.space.lines) == n
    assert gp.base == frozenset()
    assert delta(gp.space, range(n)) == 0
    assert is_good_pair(gp.space, [], range(n))


@pytest.mark.parametrize("k", range(1, 9))
def test_cycle_and_dk_pairs_are_verified_at_every_k(k):
    # GoodPair always verifies goodness: C_k and D_k are rebuilt and
    # checked past 24 points, where a per-subset delta table no longer fits
    for gp in (cycle_Ck(k), D_k(k)):
        again = GoodPair(gp.space, gp.base, code_limit=gp.space.n)
        assert again == gp and again.code == gp.code
        assert is_good_pair(gp.space, gp.base, gp.ext)


def test_cycle_without_a_line_is_no_good_pair():
    # dropping the line a c_1 c_2 of C_6 raises delta(C/B) from 0 to 1
    with pytest.raises(NotZeroPrimitive):
        GoodPair(LinearSpace(26, _cycle_lines(6)[1:]), (0, 1), code_limit=26)


def test_d1_is_fano():
    want = canonical_code(fano(), [])
    assert canonical_code(D_k(1).space, []) == want


def test_cycle_rejects_bad_k():
    with pytest.raises(ValueError):
        cycle_Ck(0)
    with pytest.raises(ValueError):
        D_k(0)
    with pytest.raises(ValueError):
        fano_chain(-1)


def test_fano_chain_shape():
    chain = fano_chain(3)
    assert [M.n for M in chain] == [7, 10, 13, 16]
    for lo, hi in zip(chain, chain[1:]):
        # each step keeps the earlier lines and adds exactly three
        assert set(lo.lines) <= set(hi.lines)
        assert len(hi.lines) - len(lo.lines) == 3
        assert is_strong(hi, range(lo.n), range(hi.n)).ok
        assert delta(hi, range(hi.n)) == delta(hi, range(lo.n))


def test_cycle_graph_on_fano():
    g = cycle_graph(fano(), 0, 1)
    assert g.vertices == (3, 4, 5, 6)
    assert g.a_edges == frozenset({frozenset({3, 4}), frozenset({5, 6})})
    assert g.b_edges == frozenset({frozenset({3, 5}), frozenset({4, 6})})
    # in a triple system both edge colors match up the off-line points
    for v in g.vertices:
        assert sum(1 for e in g.a_edges if v in e) == 1
        assert sum(1 for e in g.b_edges if v in e) == 1


def test_cycle_graph_requires_covered_pair():
    with pytest.raises(PairNotOnTriple):
        cycle_graph(LinearSpace(5, [(2, 3, 4)]), 0, 1)


def test_cycle_graph_requires_triples():
    with pytest.raises(ValueError):
        cycle_graph(LinearSpace(4, [(0, 1, 2, 3)]), 0, 1)
