import gc
import hashlib
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from random import Random

import pytest

from steinergeom import (
    ALPHA_CODE,
    FormatError,
    GoodPair,
    LinearSpace,
    MuFunction,
    NotStrong,
    NotZeroPrimitive,
    SizeLimit,
    D_k,
    alpha_pair,
    bases_of,
    build,
    canonical_code,
    chain_link_pair,
    chi,
    copies_over_base,
    cycle_Ck,
    d,
    decompose,
    default_templates,
    delta,
    enumerate_good_pairs,
    fano,
    fano_chain,
    free_amalgam,
    icl,
    in_K0,
    induced,
    is_good_pair,
    is_primitive,
    is_strong,
    parse_gp_v1,
    random_k0,
    random_space,
    to_gp_v1,
)
from steinergeom import primitives
from steinergeom.gallery import _cycle_lines
from steinergeom.primitives import _max_disjoint, _zero_primitive, embeddings_over_base
from steinergeom.space import mask_of, points_of, preserves_lines
from steinergeom.tight import iter_candidate_sets
from test_amalgam import grow_k0
from oracle import (
    affine_plane_3,
    chi_oracle,
    copies_oracle,
    decompose_oracle,
    embeddings_oracle,
    good_pair_oracle,
    is_strong_oracle,
    isomorphic_oracle,
    least_below_oracle,
    projective_plane_3,
    zero_primitive_oracle,
)


def test_is_primitive_cycle():
    ck = cycle_Ck(2).space
    assert is_primitive(ck, [0, 1])


def test_is_primitive_two_independent_steps():
    # two points on separate lines based in B: either one is intermediate
    space = LinearSpace(6, [(0, 1, 4), (2, 3, 5)])
    assert not is_primitive(space, [0, 1, 2, 3])


def test_is_primitive_single_point():
    space = LinearSpace(3, [])
    assert is_primitive(space, [0, 1])


def test_is_primitive_requires_strong_base():
    f = fano()
    with pytest.raises(NotStrong):
        is_primitive(f, [0])


def test_is_primitive_past_the_old_table_limit():
    # 26 points, past the 24 of the dense tables: C_6 over its base, and
    # two copies of C_3 glued over theirs, each copy an intermediate set
    assert is_primitive(LinearSpace(26, _cycle_lines(6)), [0, 1])
    c3 = cycle_Ck(3).space
    twice = free_amalgam(c3, c3, [0, 1])
    assert twice.n == 26
    assert not is_primitive(twice, [0, 1])


def test_is_primitive_iff_decompose_takes_at_most_one_step():
    # B <= M is primitive exactly when the chain of primitive steps from
    # B to M has at most one step, over every strong subset of random K_0
    # spaces and the strong prefixes of two builds
    rng = Random(71)
    cases = []
    for _ in range(20):
        M = random_k0(rng, rng.randrange(4, 9))
        cases += [(M, points_of(b)) for b in range(1 << M.n) if is_strong(M, points_of(b), range(M.n)).ok]
    for alpha, seed in ((1, 3), (2, 5)):
        M, _trace = build(MuFunction(alpha), 40, seed=seed)
        cases += [(M, range(k)) for k in range(M.n + 1) if is_strong(M, range(k), range(M.n)).ok]
    seen = Counter()
    for M, B in cases:
        got = is_primitive(M, B)
        assert got == (len(decompose(M, B)) <= 1), (M.lines, sorted(B))
        seen[got, len(B) < M.n] += 1
    assert seen[True, True] > 100 and seen[False, True] > 100


def test_zero_primitive_vs_oracle_on_every_split():
    # every disjoint (B, C) with C nonempty, B u C the whole space or any
    # part of it; bases_of is checked on the 0-primitive ones.  Spaces
    # under 8 points are all in K_0, so AG(2,3) is the one outside it.
    # is_primitive takes C as the rest of the space and needs B strong,
    # so it is compared on the whole-space splits with delta(C/B) = 0
    # and B strong.
    rng = Random(47)
    spaces = [affine_plane_3()]
    for i in range(16):
        n = rng.randrange(4, 7)
        spaces.append(random_k0(rng, n) if i % 2 else random_space(rng, n, tries=3 * n))
    seen = Counter()
    for M in spaces:
        n = M.n
        seen["in K_0" if in_K0(M)[0] else "not in K_0"] += 1
        full = M.full_mask()
        for c_mask in range(1, full + 1):
            rest = b_mask = full & ~c_mask
            while True:
                B, C = points_of(b_mask), points_of(c_mask)
                got = _zero_primitive(M, b_mask, c_mask)
                assert got == zero_primitive_oracle(M, B, C), (M.lines, B, C)
                whole = b_mask | c_mask == full
                seen[got, len(C) == 1, whole] += 1
                if got:
                    # the bases are the subsets of B over which C is good
                    assert set(bases_of(M, B, C)) == {
                        frozenset(b0)
                        for r in range(len(B) + 1)
                        for b0 in combinations(B, r)
                        if good_pair_oracle(M, b0, C)
                    }, (M.lines, B, C)
                if whole and delta(M, range(n)) == delta(M, B) and is_strong_oracle(M, B, range(n)):
                    assert is_primitive(M, B) == got, (M.lines, B)
                    seen["is_primitive", got] += 1
                if not b_mask:
                    break
                b_mask = (b_mask - 1) & rest
    assert seen["in K_0"] and seen["not in K_0"]
    for single in (True, False):
        for whole in (True, False):
            assert seen[True, single, whole] and seen[False, single, whole]
    assert seen["is_primitive", True] and seen["is_primitive", False]


def test_is_good_pair_examples():
    assert is_good_pair(fano(), [], range(7))
    assert is_good_pair(LinearSpace(3, [(0, 1, 2)]), [0, 1], [2])
    ck = cycle_Ck(1)
    assert is_good_pair(ck.space, sorted(ck.base), sorted(ck.ext))


@pytest.mark.parametrize("test", [is_good_pair, bases_of])
def test_good_pair_questions_refuse_overlapping_sides(test):
    with pytest.raises(ValueError, match="^B and C overlap$"):
        test(fano(), [0, 1], [1, 2])


def test_is_good_pair_refuses_an_empty_extension():
    with pytest.raises(ValueError, match="^C is empty$"):
        is_good_pair(fano(), [0, 1], [])


def test_enumeration_refuses_a_size_past_the_code_limit():
    with pytest.raises(SizeLimit, match="^max_size 17 exceeds code limit 16$"):
        enumerate_good_pairs(fano(), 17)


def test_shape_is_the_induced_structure():
    # enumerate_good_pairs keys verification on _shape, which must give the
    # structure induced on B u C and the base relabelled alike
    checked = 0
    for M in (fano_chain(2)[-1], build(MuFunction(2), 80, seed=4)[0], cycle_Ck(2).space):
        for gp, emb in enumerate_good_pairs(M, 10):
            pts = sorted(emb.values())
            b_pts = tuple(sorted(emb[b] for b in gp.base))
            got, (n, lines, b_mask) = primitives._shape(M, mask_of(pts), b_pts)
            sub = induced(M, pts)
            assert (got, n, lines) == (tuple(pts), sub.n, sub.lines)
            assert b_mask == mask_of(pts.index(b) for b in b_pts)
            if gp.code != ALPHA_CODE:
                assert gp.space == sub
            checked += 1
    assert checked > 100


def test_is_good_pair_rejects_oversized_base():
    # an idle extra base point breaks base minimality
    space = LinearSpace(4, [(0, 1, 3)])
    assert not is_good_pair(space, [0, 1, 2], [3])


def test_is_good_pair_vs_oracle():
    rng = Random(31)
    hits = 0
    for _ in range(40):
        n = rng.randrange(4, 8)
        M = random_space(rng, n)
        pts = list(range(n))
        for size in range(2, n + 1):
            for sub in combinations(pts, size):
                for r in range(size):
                    for b in combinations(sub, r):
                        C = [p for p in sub if p not in b]
                        got = is_good_pair(M, list(b), C)
                        want = good_pair_oracle(M, set(b), set(C))
                        assert got == want, (M.lines, b, C)
                        hits += got
    assert hits > 0


def test_bases_of_line_case():
    line4 = LinearSpace(5, [(0, 1, 2, 3, 4)])
    got = bases_of(line4, [0, 1, 2, 3], [4])
    assert sorted(map(sorted, got)) == [list(p) for p in combinations(range(4), 2)]


def test_bases_of_cycle_and_fano():
    ck = cycle_Ck(2)
    assert bases_of(ck.space, sorted(ck.base), sorted(ck.ext)) == [frozenset({0, 1})]
    assert bases_of(fano(), [], range(7)) == [frozenset()]
    # B u C need not be the whole space: the host line (2, 6, 7) has two
    # points in B u C, so it is no line of the pair and 6 stays idle
    c1 = cycle_Ck(1).space
    host = LinearSpace(8, c1.lines + ((2, 6, 7),))
    assert bases_of(host, [0, 1, 6], range(2, 6)) == [frozenset({0, 1})]


def test_bases_of_rejects_non_primitive():
    space = LinearSpace(6, [(0, 1, 4), (2, 3, 5)])
    with pytest.raises(NotZeroPrimitive):
        bases_of(space, [0, 1, 2, 3], [4, 5])


@pytest.mark.parametrize("B", [[0, 1], []])
def test_bases_of_refuses_an_empty_extension(B):
    with pytest.raises(ValueError, match="^C is empty$"):
        bases_of(fano(), B, [])


def test_good_pairs_of_a_2271_point_build_and_their_variants():
    # goodness needs no per-subset table, so it is decided inside a
    # structure of any size: each enumerated pair verifies, and so fails
    # B plus a point near C, and B u C less any one point of C
    M, _ = build(MuFunction(1), 2000, seed=7)
    assert M.n == 2271
    pairs = [(gp, emb) for gp, emb in enumerate_good_pairs(M, 6) if gp.code != ALPHA_CODE]
    assert len(pairs) == 433
    for gp, emb in pairs:
        B, C = frozenset(emb[p] for p in gp.base), frozenset(emb[p] for p in gp.ext)
        assert is_good_pair(M, B, C)
        assert bases_of(M, B, C) == [B]
        near = [q for c in sorted(C) for li in M.lines_by_point[c] for q in M.lines[li] if q not in B | C]
        x = near[0] if near else min(set(range(M.n)) - B - C)
        assert not is_good_pair(M, B | {x}, C)
        for c in C:
            assert not is_good_pair(M, B, C - {c})
        with pytest.raises(NotZeroPrimitive):
            bases_of(M, B, C - {min(C)})


def test_alpha_code_fixed():
    assert alpha_pair().code == ALPHA_CODE
    assert canonical_code(LinearSpace(3, [(0, 1, 2)]), [0, 2]) == ALPHA_CODE


def test_no_alpha_pair_below_its_size():
    # a negative max_size is refused, see test_bound_must_be_a_nonnegative_int
    assert len(enumerate_good_pairs(fano(), 3)) == 21
    for max_size in (2, 1, 0):
        assert enumerate_good_pairs(fano(), max_size) == []


def test_codes_distinguish_cycles():
    codes = {cycle_Ck(k).code for k in range(1, 4)}
    assert len(codes) == 3


def test_code_invariant_under_relabeling():
    gp = cycle_Ck(1)
    n = gp.space.n
    want = gp.code
    rng = Random(32)
    perms = [rng.sample(range(n), n) for _ in range(40)]
    for perm in perms:
        lines = [tuple(sorted(perm[p] for p in ln)) for ln in gp.space.lines]
        base = [perm[p] for p in gp.base]
        assert canonical_code(LinearSpace(n, lines), base) == want


def test_code_invariant_exhaustively_small():
    space = LinearSpace(5, [(0, 1, 2), (0, 3, 4)])
    base = [0, 1, 3]
    want = canonical_code(space, base)
    for perm in permutations(range(5)):
        lines = [tuple(sorted(perm[p] for p in ln)) for ln in space.lines]
        assert canonical_code(LinearSpace(5, lines), [perm[p] for p in base]) == want


# sha256 of repr([(cycle_Ck(k).code, D_k(k).code) for k in 1..5])
PINNED_GALLERY_CODES = "6555e4dc4d288cfc20f2cb6b7c3b9de760a48481f25ebfd793249f4efa0a9eac"


def test_gallery_codes_are_pinned():
    codes = [(cycle_Ck(k).code, D_k(k).code) for k in range(1, 6)]
    assert hashlib.sha256(repr(codes).encode()).hexdigest() == PINNED_GALLERY_CODES


def _relabelled(rng, space, base):
    n = space.n
    perm = rng.sample(range(n), n)
    return LinearSpace(n, [[perm[p] for p in ln] for ln in space.lines]), [perm[p] for p in base]


def _with_bases(rng, spaces, max_base):
    """Each space with one random base of every size up to max_base, and
    a random relabelling of each."""
    out = []
    for space in spaces:
        for nb in range(min(max_base, space.n) + 1):
            base = rng.sample(range(space.n), nb)
            out += [(space, base), _relabelled(rng, space, base)]
    return out


def test_codes_agree_exactly_on_isomorphic_pairs():
    rng = Random(71)
    spaces = [fano()]
    for n in range(3, 8):
        for _ in range(4):
            spaces += [random_space(rng, n, tries=rng.randrange(n, 4 * n)), random_k0(rng, n)]
    for plane in (affine_plane_3(), projective_plane_3()):
        for _ in range(6):
            spaces.append(induced(plane, sorted(rng.sample(range(plane.n), rng.randrange(4, 8)))))
    corpus = _with_bases(rng, spaces, 3)
    codes = [canonical_code(space, base) for space, base in corpus]
    compared = isomorphic = 0
    for i, j in combinations(range(len(corpus)), 2):
        (s1, b1), (s2, b2) = corpus[i], corpus[j]
        lengths = [sorted(map(len, s.lines)) for s in (s1, s2)]
        if (s1.n, len(b1), lengths[0]) != (s2.n, len(b2), lengths[1]):
            # the code starts with the sizes and lists every line
            assert codes[i] != codes[j]
            continue
        iso = isomorphic_oracle(s1, b1, s2, b2)
        assert (codes[i] == codes[j]) == iso, (s1.lines, b1, s2.lines, b2)
        compared += 1
        isomorphic += iso
    assert isomorphic > 200 and compared - isomorphic > 200


def _pinned_corpus_codes():
    rng = Random(7186)
    spaces = []
    for i in range(300):
        n = rng.randrange(3, 11)
        sampler = random_k0 if i % 3 == 0 and n <= 9 else random_space
        spaces.append(sampler(rng, n, tries=rng.randrange(n, 4 * n)))
    for plane in (affine_plane_3(), projective_plane_3()):
        for _ in range(60):
            spaces.append(induced(plane, sorted(rng.sample(range(plane.n), rng.randrange(4, plane.n + 1)))))
        spaces.append(plane)
    codes = [canonical_code(space, base) for space, base in _with_bases(rng, spaces, 3)]
    stacks = []
    for ks in ((1, 1, 1), (1, 2)):
        M = LinearSpace(2, [])
        for k in ks:
            M = free_amalgam(M, cycle_Ck(k).space, [0, 1])
        M, _ = _relabelled(rng, LinearSpace(M.n + 2, M.lines), [])
        stacks.append((M, 10))
    stacks += [(build(MuFunction(2), 150, seed=seed)[0], 8) for seed in (3, 11)]
    enumerated = [[gp.code for gp, _ in enumerate_good_pairs(M, bound)] for M, bound in stacks]
    return codes, enumerated


# sha256 of repr(_pinned_corpus_codes()), recorded with the search that
# visited every leaf of the refinement tree: pruning and the code caches
# must leave every code as it was
PINNED_CORPUS_CODES = "e640a1fefd1bc2524c3a79af30822c091b2291b01e588e7477344e07f9763fd8"


def test_corpus_codes_are_pinned():
    codes = _pinned_corpus_codes()
    assert hashlib.sha256(repr(codes).encode()).hexdigest() == PINNED_CORPUS_CODES


def test_code_search_reaches_past_the_first_leaf():
    # on every pair of the pinned corpus the first leaf is already the
    # least, so the digest cannot see the search.  Here refinement cannot
    # split the points: the Pasch configuration (the dual of K_4) beside
    # the dual of K_{3,3} has every point on two 3-point lines, but no
    # automorphism swaps the parts.  So the first leaf depends on the
    # labelling, and only the search makes the code invariant.
    def dual(edges, shift):
        return [[shift + i for i, e in enumerate(edges) if v in e] for v in sorted(set().union(*edges))]

    k4 = list(combinations(range(4), 2))
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    space = LinearSpace(15, dual(k4, 0) + dual(k33, 6))
    rng = Random(49)
    firsts, codes = set(), set()
    for _ in range(12):
        relabelled, _ = _relabelled(rng, space, [])
        firsts.add(primitives._encode(relabelled, 0, primitives._first_path(relabelled, frozenset())[1]))
        codes.add(canonical_code(relabelled, []))
    assert len(codes) == 1 and len(firsts) > 1


def test_enumeration_codes_relabelled_copies_through_the_first_leaf_cache(monkeypatch, cold_code_caches):
    # relabelled copies of two shapes side by side: most copies are new
    # labelled shapes, so their codes come from the first-leaf cache
    rng = Random(45)
    parts = [cycle_Ck(1)] * 4 + [chain_link_pair()] * 3
    M = LinearSpace(0, [])
    for gp in parts:
        space, _ = _relabelled(rng, gp.space, [])
        M = LinearSpace(M.n + space.n, list(M.lines) + [[p + M.n for p in ln] for ln in space.lines])
    M, _ = _relabelled(rng, M, [])
    served = []
    code_of = primitives.canonical_code

    def recording(space, base, **kwargs):
        hits = primitives._least_leaf.cache_info().hits
        code = code_of(space, base, **kwargs)
        if primitives._least_leaf.cache_info().hits > hits:
            served.append((space, base, code))
        return code

    monkeypatch.setattr(primitives, "canonical_code", recording)
    out = enumerate_good_pairs(M, 6)
    monkeypatch.undo()
    assert len(served) >= 5
    for space, base, code in served:
        primitives._least_leaf.cache_clear()
        assert canonical_code(space, base) == code
    for gp, _ in out:
        assert gp.code == canonical_code(gp.space, gp.base)


def test_code_search_packing_and_walk_leave_no_cyclic_garbage():
    # what a call leaves in a reference cycle lives until the collector
    # runs, which is how the candidate walk's visited set raised peak RSS
    space = D_k(2).space
    sets = [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})]
    gp = cycle_Ck(1)
    hub = LinearSpace(2, [])
    for _ in range(2):
        hub = free_amalgam(hub, gp.space, [0, 1])

    chain = fano_chain(2)[-1]

    def calls():
        d(chain, [0, 7])
        icl(chain, [0, 7])
        in_K0(chain)
        in_K0(affine_plane_3())
        is_strong(fano(), [0], range(7))
        decompose(chain, [])
        canonical_code(space, [])
        _max_disjoint(sets)
        for _ in iter_candidate_sets(space, 6):
            pass
        next(iter_candidate_sets(space, 6))
        assert enumerate_good_pairs(hub, 6)
        assert len(copies_over_base(hub, gp.space, gp.base, {0: 0, 1: 1})) == 2
        next(embeddings_over_base(hub, gp.space, gp.base, {0: 0, 1: 1}))

    calls()
    gc.collect()
    gc.disable()
    try:
        calls()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_code_separates_base_choices():
    space = LinearSpace(3, [(0, 1, 2)])
    assert canonical_code(space, [0, 1]) != canonical_code(space, [0])


def test_code_size_limit():
    with pytest.raises(SizeLimit):
        canonical_code(LinearSpace(20, []), [])


def test_good_pair_constructor_checks():
    with pytest.raises(NotZeroPrimitive):
        GoodPair(LinearSpace(4, []), (0, 1))
    with pytest.raises(ValueError):
        GoodPair(LinearSpace(3, [(0, 1, 2)]), (0, 1, 2))


def test_chi_examples():
    line4 = LinearSpace(4, [(0, 1, 2, 3)])
    a = alpha_pair()
    assert chi(line4, a, {0: 0, 1: 1}) == 2
    assert chi(fano(), a, {0: 0, 1: 1}) == 1
    assert chi(LinearSpace(4, []), a, {0: 0, 1: 1}) == 0


def test_chi_vs_oracle():
    rng = Random(34)
    a = alpha_pair()
    checked = 0
    for _ in range(60):
        M = random_space(rng, rng.randrange(4, 9))
        pair = sorted(rng.sample(range(M.n), 2))
        if M.line_through(*pair) is None:
            continue
        emb = {0: pair[0], 1: pair[1]}
        assert chi(M, a, emb) == chi_oracle(M, a.space, a.base, emb)
        checked += 1
    assert checked > 10


def test_copies_vs_oracle_on_cycle_pair():
    gp = cycle_Ck(1)
    M = gp.space
    emb = {0: 0, 1: 1}
    got = set(copies_over_base(M, gp.space, gp.base, emb))
    assert got == copies_oracle(M, gp.space, gp.base, emb)


def test_copies_validates_embedding():
    a = alpha_pair()
    with pytest.raises(ValueError):
        copies_over_base(LinearSpace(4, []), a.space, a.base, {0: 0, 1: 0})


def _copy_search_hosts():
    """(host, base maps per template code) for the copy-search oracle:
    builder outputs with the base maps their traces realized or
    identified over, relabelled C_1/C_2 hub stacks with the hub pair in
    both orientations, Fano-chain tops, three disjoint Fano planes, and
    three chain links glued over one triangle."""
    rng = Random(71)
    hosts = []
    for alpha in (1, 2, 3):
        M, trace = build(MuFunction(alpha), 600, seed=alpha)
        maps = {}
        for st in trace.steps:
            if st.kind in ("realize", "identify") and st.payload[0] != ALPHA_CODE:
                maps.setdefault(st.payload[0], []).append(st.payload[1])
        hosts.append((M, maps))
    for ks in ((1, 1, 1), (1, 2), (2, 2)):
        M = LinearSpace(2, [])
        for k in ks:
            M = free_amalgam(M, cycle_Ck(k).space, [0, 1])
        perm = rng.sample(range(M.n), M.n)
        M = LinearSpace(M.n, [[perm[p] for p in ln] for ln in M.lines])
        hub = (perm[0], perm[1])
        hosts.append((M, {None: [hub, hub[::-1]]}))
    for k in (2, 3):
        hosts.append((fano_chain(k)[-1], {}))
    planes = [[7 * i + p for p in ln] for i in range(3) for ln in fano().lines]
    hosts.append((LinearSpace(22, planes), {}))
    link, M = chain_link_pair(), LinearSpace(4, [])
    for _ in range(3):
        M = free_amalgam(M, link.space, [0, 1, 2])
    hosts.append((M, {link.code: [(0, 1, 2), (2, 0, 1)]}))
    return rng, hosts


def test_copies_over_base_vs_unconstrained_search():
    # the symmetry-broken search reaches every image of the plain one,
    # each through exactly one leaf
    templates = default_templates(10) + [cycle_Ck(3), D_k(2)]
    rng, hosts = _copy_search_hosts()
    checked = multi = 0
    for M, maps in hosts:
        for gp in templates:
            base = sorted(gp.base)
            imgs = maps.get(gp.code, []) + (maps.get(None, []) if len(base) == 2 else [])
            imgs += [tuple(rng.sample(range(M.n), len(base))) for _ in range(6)]
            for img in imgs:
                emb = dict(zip(base, img))
                if not preserves_lines(gp.space, M, emb):
                    continue
                ext = sorted(gp.ext)
                want = sorted(
                    {frozenset(phi[x] for x in ext) for phi in embeddings_over_base(M, gp.space, base, emb)},
                    key=sorted,
                )
                floors = primitives._orbit_floors(gp.space, gp.base)
                leaves = [frozenset(phi[x] for x in ext) for phi in primitives._search(M, gp.space, base, emb, floors)]
                assert len(leaves) == len(set(leaves))
                assert copies_over_base(M, gp.space, base, emb) == want
                checked += 1
                multi += len(want) > 1
    assert checked > 100 and multi > 10


def test_copy_search_takes_one_leaf_per_image_of_the_pair_itself():
    for gp in default_templates(10) + [cycle_Ck(3), D_k(2)]:
        ident = {b: b for b in gp.base}
        assert copies_over_base(gp.space, gp.space, gp.base, ident) == [gp.ext]
        floors = primitives._orbit_floors(gp.space, gp.base)
        assert len(list(primitives._search(gp.space, gp.space, gp.base, ident, floors))) == 1
    fano_pair = D_k(1)
    assert len(list(embeddings_over_base(fano_pair.space, fano_pair.space, (), {}))) == 168


def test_orbits_come_from_existence_tests(monkeypatch):
    # eight isolated points over the empty base: each orbit is every
    # later point, found with one first embedding per (x, y) test, not
    # by listing the 8! automorphisms
    drawn = []
    search = primitives.embeddings_over_base

    def counted(*args):
        for phi in search(*args):
            drawn.append(phi)
            yield phi

    monkeypatch.setattr(primitives, "embeddings_over_base", counted)
    P = LinearSpace(8, [])
    primitives._orbit_floors.cache_clear()
    floors = primitives._orbit_floors(P, frozenset())
    assert floors == tuple(tuple(range(y)) for y in range(8))
    assert len(drawn) == 28
    # one leaf per copy: C(9, 8) images in a 9-point host with no lines
    assert len(list(primitives._search(LinearSpace(9, []), P, (), {}, floors))) == 9
    assert len(copies_over_base(LinearSpace(9, []), P, (), {})) == 9


@pytest.mark.parametrize("nb", [0, 2, 3])
def test_embeddings_over_base_vs_oracle(nb):
    rng = Random(37 + nb)
    checked = found = 0
    for _ in range(40):
        M = random_space(rng, rng.randrange(5, 9))
        P = random_space(rng, rng.randrange(nb + 1, nb + 4))
        base = sorted(rng.sample(range(P.n), nb))
        emb = dict(zip(base, rng.sample(range(M.n), nb)))
        if not preserves_lines(P, M, emb):
            with pytest.raises(ValueError):
                embeddings_over_base(M, P, base, emb)
            continue
        ext = sorted(set(range(P.n)) - set(base))
        want = sorted(embeddings_oracle(M, P, base, emb), key=lambda phi: [phi[x] for x in ext])
        # exactly the oracle's embeddings, each once, in lexicographic order
        assert list(embeddings_over_base(M, P, base, emb)) == want
        checked += 1
        found += bool(want)
    assert checked > 10 and found > 5


def _search_vs_oracle(M, P, base, emb):
    ext = sorted(set(range(P.n)) - set(base))
    want = sorted(embeddings_oracle(M, P, base, emb), key=lambda phi: [phi[x] for x in ext])
    assert list(embeddings_over_base(M, P, base, emb)) == want
    return want


@pytest.mark.parametrize("n, extra_line", [(8, False), (9, False), (9, True)])
def test_embeddings_over_base_degree_bound_empty_base(n, extra_line):
    # D_1 (the Fano plane over the empty base) has 3 lines through every
    # point, so the degree bound rejects each host point on 0 or 1 lines
    gp = D_k(1)
    rng = Random(n + 10 * extra_line)
    spot = rng.sample(range(n), gp.space.n)
    lines = [[spot[p] for p in ln] for ln in gp.space.lines]
    rest = sorted(set(range(n)) - set(spot))
    if extra_line:
        lines.append([spot[0], *rest])
    M = LinearSpace(n, lines)
    assert all(len(M.lines_by_point[p]) <= 1 for p in rest)
    want = _search_vs_oracle(M, gp.space, gp.base, {})
    # one embedding per automorphism of the Fano plane
    assert len(want) == 168


def test_embeddings_over_base_degree_bound_chain_link():
    gp = chain_link_pair()
    need = min(len(gp.space.lines_by_point[x]) for x in gp.ext)
    rng = Random(43)
    checked = found = 0
    for _ in range(12):
        M = random_space(rng, 10, tries=5)
        if not preserves_lines(gp.space, M, {0: 0, 1: 1, 2: 2}):
            continue
        for _ in range(2):
            M = free_amalgam(M, gp.space, [0, 1, 2])
        low = [p for p in range(M.n) if len(M.lines_by_point[p]) < need]
        assert len(low) >= M.n // 3
        bases = [(0, 1, 2)] + [tuple(rng.sample(range(M.n), 3)) for _ in range(4)]
        for img in bases:
            emb = dict(zip(sorted(gp.base), img))
            if preserves_lines(gp.space, M, emb):
                found += bool(_search_vs_oracle(M, gp.space, gp.base, emb))
                checked += 1
    assert checked > 10 and found > 5


def test_preserves_lines_matches_induced_comparison():
    rng = Random(38)
    seen = {True: 0, False: 0}
    for _ in range(300):
        A = random_space(rng, rng.randrange(3, 9))
        B = random_space(rng, rng.randrange(3, 9))
        k = rng.randrange(min(A.n, B.n) + 1)
        phi = dict(zip(rng.sample(range(A.n), k), rng.sample(range(B.n), k)))
        # relabel A's induced structure on the domain into the point order
        # of B's induced structure on the image, then compare
        dom = sorted(phi)
        rank = {q: i for i, q in enumerate(sorted(phi.values()))}
        moved = LinearSpace(k, [[rank[phi[dom[i]]] for i in ln] for ln in induced(A, dom).lines])
        want = moved == induced(B, phi.values())
        assert preserves_lines(A, B, phi) == want
        seen[want] += 1
    assert min(seen.values()) > 20


def test_enumerate_single_line():
    M = LinearSpace(3, [(0, 1, 2)])
    out = enumerate_good_pairs(M, 3)
    assert len(out) == 3
    assert all(gp.code == ALPHA_CODE for gp, _ in out)
    assert {emb[2] for _, emb in out} == {0, 1, 2}


def test_enumerate_relation_free():
    assert enumerate_good_pairs(LinearSpace(5, []), 5) == []


def test_enumerate_fano_includes_empty_base_pair():
    out = enumerate_good_pairs(fano(), 7)
    fano_code = canonical_code(fano(), [])
    assert any(gp.code == fano_code and not gp.base for gp, _ in out)


def test_enumerate_matches_oracle_sets():
    rng = Random(35)
    for _ in range(12):
        n = rng.randrange(4, 8)
        M = random_space(rng, n)
        got = {
            (
                frozenset(emb[b] for b in gp.base),
                frozenset(emb[c] for c in gp.ext),
            )
            for gp, emb in enumerate_good_pairs(M, n)
        }
        want = set()
        for size in range(1, n + 1):
            for sub in combinations(range(n), size):
                for r in range(size):
                    for b in combinations(sub, r):
                        C = frozenset(sub) - frozenset(b)
                        if good_pair_oracle(M, set(b), set(C)):
                            want.add((frozenset(b), C))
        assert got == want, M.lines


def _oracle_pairs(M, max_size):
    """Every good pair (B, C) of M with |B u C| <= max_size, by brute force."""
    want = set()
    for size in range(1, max_size + 1):
        for sub in combinations(range(M.n), size):
            for r in range(size):
                for b in combinations(sub, r):
                    C = frozenset(sub) - frozenset(b)
                    if good_pair_oracle(M, set(b), set(C)):
                        want.add((frozenset(b), C))
    return want


@pytest.mark.parametrize("shape", ["chain_link", "C_1"])
def test_enumerate_verifies_repeated_shapes_once(shape):
    # copies of one pair glued over its base: every copy relabels to the
    # same labelled shape, so the copies share one verified GoodPair
    gp0 = chain_link_pair() if shape == "chain_link" else cycle_Ck(1)
    glued = LinearSpace(len(gp0.base), [])
    for _ in range(2):
        glued = free_amalgam(glued, gp0.space, sorted(gp0.base))
    rng = Random(44)
    perms = [list(range(glued.n))] + [rng.sample(range(glued.n), glued.n) for _ in range(2)]
    for perm in perms:
        M = LinearSpace(glued.n, [[perm[p] for p in ln] for ln in glued.lines])
        out = enumerate_good_pairs(M, gp0.space.n)
        got = {
            (frozenset(emb[b] for b in gp.base), frozenset(emb[c] for c in gp.ext))
            for gp, emb in out
        }
        assert got == _oracle_pairs(M, gp0.space.n)
        for gp, emb in out:
            # a shared GoodPair is the induced structure at each of its uses
            assert preserves_lines(gp.space, M, emb)
            assert is_good_pair(gp.space, sorted(gp.base), sorted(gp.ext))
            assert gp.code == canonical_code(gp.space, gp.base)
        if perm == perms[0]:
            others = [gp for gp, _ in out if gp.code != ALPHA_CODE]
            assert len({id(gp) for gp in others}) < len(others)


def _shape_cache_corpus():
    """(M, bound) pairs that share labelled shapes: relabelled C_1/C_2 hub
    stacks, 150-step builds, and grow_k0 triples (F, E, F + E over D) as
    amalgamate_or_identify gets them."""
    rng = Random(83)
    out = []
    for ks in ((1, 1, 1), (1, 2)):
        M = LinearSpace(2, [])
        for k in ks:
            M = free_amalgam(M, cycle_Ck(k).space, [0, 1])
        M, _ = _relabelled(rng, LinearSpace(M.n + 2, M.lines), [])
        out.append((M, 10))
    out += [(build(MuFunction(2), 150, seed=seed)[0], 8) for seed in (31, 32)]
    D = LinearSpace(3, [(0, 1, 2)])
    while len(out) < 13:
        F, E = grow_k0(rng, D, rng.randrange(2, 5)), grow_k0(rng, D, rng.randrange(2, 5))
        if is_strong(E, [0, 1, 2], range(E.n)).ok:
            out += [(F, F.n), (E, E.n), (free_amalgam(F, E, [0, 1, 2]), 8)]
    return out


def _pair_rows(out):
    return [(gp.code, gp.space, gp.base, emb) for gp, emb in out]


def test_shape_cache_is_sound_and_bounded(monkeypatch, cold_code_caches):
    verified = Counter()
    check = primitives.is_good_pair

    def counting(space, B, C):
        verified[size] += 1
        return check(space, B, C)

    size = "cold"
    corpus = _shape_cache_corpus()
    monkeypatch.setattr(primitives, "is_good_pair", counting)
    cold = []
    for M, bound in corpus:
        primitives._shape_code.cache_clear()
        out = enumerate_good_pairs(M, bound)
        pairs = [
            (frozenset(emb[b] for b in gp.base), frozenset(emb[c] for c in gp.ext))
            for gp, emb in out
        ]
        # one row per good pair, each on the induced structure of its points
        assert len(set(pairs)) == len(pairs)
        for gp, emb in out:
            assert gp.code == ALPHA_CODE or gp.space == induced(M, emb.values())
        if M.n <= 8:
            assert set(pairs) == _oracle_pairs(M, bound)
        cold.append(_pair_rows(out))
    # each structure after the others: every call but the first starts
    # from a cache warmed on other structures, and shapes are reused;
    # then a cache far smaller than the shapes seen, which evicts within
    # calls and keeps only its size
    full = primitives.SHAPE_CACHE_SIZE
    for size in (full, 16):
        if size != full:
            monkeypatch.setattr(primitives, "_shape_code", lru_cache(size)(primitives._shape_code.__wrapped__))
        primitives._shape_code.cache_clear()
        for i in reversed(range(len(corpus))):
            M, bound = corpus[i]
            assert _pair_rows(enumerate_good_pairs(M, bound)) == cold[i]
            assert primitives._shape_code.cache_info().currsize <= size
    assert primitives._shape_code.cache_info().currsize == 16
    assert verified[full] < verified[16] <= verified["cold"]


def test_code_caches_serve_a_relabelled_hub_stack(cold_code_caches):
    # three relabelled copies of C_1 over one hub pair: the first
    # enumeration codes one copy and serves the others from the first-leaf
    # cache; a second one at a smaller bound finds every shape in the
    # shape cache and runs no code search
    M = LinearSpace(2, [])
    for _ in range(3):
        M = free_amalgam(M, cycle_Ck(1).space, [0, 1])
    M, _ = _relabelled(Random(84), LinearSpace(M.n + 2, M.lines), [])
    rows = _pair_rows(enumerate_good_pairs(M, 10))
    first_leaf = primitives._least_leaf.cache_info()
    shapes = primitives._shape_code.cache_info()
    assert first_leaf.hits > 0 and shapes.hits == 0
    small = _pair_rows(enumerate_good_pairs(M, 8))
    assert small == [row for row in rows if row[1].n <= 8]
    assert primitives._least_leaf.cache_info() == first_leaf
    assert primitives._shape_code.cache_info().misses == shapes.misses
    assert primitives._shape_code.cache_info().hits > 0


def test_line_test_rejects_no_good_pair():
    # every (B, C) split with |C| >= 2, B u C whole or partial: a split the
    # enumeration's line test rejects is never good
    rng = Random(48)
    ag = affine_plane_3()
    spaces = [random_space(rng, rng.randrange(4, 8)) for _ in range(12)] + [fano()]
    spaces += [induced(ag, sorted(rng.sample(range(9), 7))) for _ in range(4)]
    rejected = good = 0
    for M in spaces:
        for roles in product(range(3), repeat=M.n):
            B = {p for p, r in enumerate(roles) if r == 1}
            C = {p for p, r in enumerate(roles) if r == 2}
            if len(C) < 2:
                continue
            if primitives._line_test(M, mask_of(B | C), C):
                good += good_pair_oracle(M, B, C)
            else:
                rejected += 1
                assert not good_pair_oracle(M, B, C), (M.lines, B, C)
    assert rejected > 1000 and good > 20


def test_enumerate_matches_oracle_on_hub_stack_at_bound_8():
    # two C_1 glued over one pair: once both hubs are in a walk set, the
    # growth bound counts only the points outside it
    gp = cycle_Ck(1)
    glued = LinearSpace(2, [])
    for _ in range(2):
        glued = free_amalgam(glued, gp.space, [0, 1])
    perm = Random(49).sample(range(glued.n), glued.n)
    M = LinearSpace(glued.n, [[perm[p] for p in ln] for ln in glued.lines])
    got = {
        (frozenset(emb[b] for b in g.base), frozenset(emb[c] for c in g.ext))
        for g, emb in enumerate_good_pairs(M, 8)
    }
    want = _oracle_pairs(M, 8)
    assert got == want
    assert any(len(C) == 4 and len(B) == 2 for B, C in want)


def test_is_good_pair_vs_oracle_three_and_four_point_bases():
    # base minimality tries every proper subset of B and skips those whose
    # delta changes when C is added; larger bases make most of them skip
    rng = Random(39)
    good = zero_primitive_not_good = 0
    for _ in range(25):
        n = rng.randrange(6, 9)
        M = random_space(rng, n, tries=3 * n)
        for nb in (3, 4):
            for B in combinations(range(n), nb):
                rest = [p for p in range(n) if p not in B]
                for size in range(1, min(len(rest), 4) + 1):
                    for C in combinations(rest, size):
                        got = is_good_pair(M, B, C)
                        assert got == good_pair_oracle(M, set(B), set(C)), (M.lines, B, C)
                        good += got
                        zero_primitive_not_good += (
                            not got and zero_primitive_oracle(M, set(B), set(C))
                        )
    assert good > 20 and zero_primitive_not_good > 20


def test_decompose_free_point():
    M = LinearSpace(3, [(0, 1, 2)])
    M2 = LinearSpace(4, [(0, 1, 2)])
    steps = decompose(M2, range(3))
    assert steps == [(frozenset(range(4)), 1)]
    assert M.n == 3


def test_decompose_cycle_single_zero_step():
    ck = cycle_Ck(2).space
    steps = decompose(ck, [0, 1])
    assert steps == [(frozenset(range(ck.n)), 0)]


def test_decompose_chain_step():
    chain = fano_chain(1)
    steps = decompose(chain[1], range(7))
    assert steps == [(frozenset(range(10)), 0)]


def test_decompose_requires_strong():
    with pytest.raises(NotStrong):
        decompose(fano(), [0])


def test_decompose_steps_are_strong_chain():
    rng = Random(37)
    for _ in range(30):
        M = random_k0(rng, rng.randrange(4, 9))
        from steinergeom import is_strong, random_strong_subset

        D = random_strong_subset(rng, M)
        cur = set(D)
        total = 0
        for nxt, inc in decompose(M, D):
            assert cur < nxt
            assert is_strong(M, cur, nxt).ok
            # minimality makes the step primitive
            order = sorted(nxt)
            assert is_primitive(induced(M, nxt), [order.index(p) for p in cur])
            assert delta(M, nxt) - delta(M, cur) == inc
            assert inc in (0, 1) or len(nxt - cur) == 1
            cur = set(nxt)
            total += 1
        assert cur == set(range(M.n))


def test_decompose_matches_oracle():
    # random spaces with every strong D tried among the empty set and a
    # few random subsets, the gallery pairs over their bases, and the
    # Fano chain from the plane and from the empty set
    rng = Random(61)
    cases = []
    for i in range(40):
        n = rng.randrange(4, 10)
        M = random_k0(rng, n) if i % 2 else random_space(rng, n, tries=3 * n)
        for D in [()] + [rng.sample(range(n), rng.randrange(1, n + 1)) for _ in range(3)]:
            if is_strong_oracle(M, D, range(n)):
                cases.append((M, D))
    assert sum(not D for _M, D in cases) > 10 and sum(bool(D) for _M, D in cases) > 10
    for k in (1, 2, 3):
        cases += [(cycle_Ck(k).space, cycle_Ck(k).base), (D_k(k).space, D_k(k).base)]
        cases += [(fano_chain(k)[-1], range(7)), (fano_chain(k)[-1], ())]
    for M, D in cases:
        assert decompose(M, D) == decompose_oracle(M, D), (M.lines, D)


def test_strongness_preconditions_carry_the_least_witness():
    # free_amalgam, decompose and is_primitive reject a set that is not
    # strong in the space with the (size, lex)-least set below its delta
    rng = Random(53)
    spaces = [fano(), affine_plane_3(), projective_plane_3()]
    spaces += [random_space(rng, n, tries=3 * n) for n in range(6, 10)]
    rejected = 0
    for M in spaces:
        n = M.n
        for _ in range(12):
            lo = sorted(rng.sample(range(n), rng.randrange(n)))
            if is_strong_oracle(M, lo, range(n)):
                continue
            want = least_below_oracle(M, lo, range(n), delta(M, lo))
            for call in (
                lambda: free_amalgam(M, M, lo),
                lambda: decompose(M, lo),
                lambda: is_primitive(M, lo),
            ):
                with pytest.raises(NotStrong) as exc:
                    call()
                assert exc.value.lo == frozenset(lo) and exc.value.hi == frozenset(range(n))
                assert exc.value.violating == want, (M.lines, lo)
            rejected += 1
    assert rejected > 20


def test_gp_v1_roundtrip():
    gp = cycle_Ck(1)
    space, base = parse_gp_v1(to_gp_v1(gp.space, gp.base))
    assert space == gp.space and base == gp.base
    space, base = parse_gp_v1(to_gp_v1(fano(), []))
    assert space == fano() and base == frozenset()


@pytest.mark.parametrize(
    "text",
    [
        "linear-space v1\npoints 3\nline 0 1 2\n",
        "linear-space v1\npoints 3\nline 0 1 2\nbase x\n",
        "linear-space v1\npoints 3\nline 0 1 2\nbase 9\n",
    ],
)
def test_gp_v1_errors(text):
    with pytest.raises(FormatError):
        parse_gp_v1(text)


@pytest.mark.parametrize(
    "text",
    [
        "linear-space v1\npoints 4\nbase 0 1\nline 0 1 2\nline 0 3\n",
        "base 0 1\nlinear-space v1\npoints 4\nline 0 1 2\nline 0 3\n",
    ],
)
def test_gp_v1_base_row_keeps_line_numbers(text):
    # the base row counts as a line of the file, before the short line too
    with pytest.raises(FormatError) as exc:
        parse_gp_v1(text)
    assert exc.value.lineno == 5


def test_gp_v1_rejects_a_second_base_row():
    text = "linear-space v1\npoints 3\nbase 0 1\nline 0 1 2\nbase 1\n"
    with pytest.raises(FormatError) as exc:
        parse_gp_v1(text)
    assert exc.value.lineno == 5
