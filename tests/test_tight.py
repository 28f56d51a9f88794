import hashlib
import tracemalloc
from itertools import combinations
from random import Random

from steinergeom import (
    ALPHA_CODE,
    LinearSpace,
    MuFunction,
    build,
    delta,
    enumerate_good_pairs,
    fano,
    fano_chain,
    random_k0,
    random_space,
)
from steinergeom.primitives import _bases
from steinergeom.tight import _core, iter_candidate_sets
from oracle import base_choices_reference, delta_set, good_pair_oracle, walk_core_oracle
from test_amalgam import _hub


def unpack(space, max_size):
    out = {}
    for mask, dlt, lines2 in iter_candidate_sets(space, max_size):
        out[mask] = (dlt, frozenset(lines2))
    return out


def pts_of(mask):
    return {p for p in range(mask.bit_length()) if mask >> p & 1}


def test_emitted_state_is_consistent():
    rng = Random(61)
    for _ in range(25):
        M = random_space(rng, rng.randrange(4, 9))
        for mask, (dlt, lines2) in unpack(M, M.n).items():
            pts = pts_of(mask)
            assert dlt == delta_set(M, pts)
            want = {
                li
                for li, lm in enumerate(M.line_masks)
                if (lm & mask).bit_count() >= 2
            }
            assert lines2 == want
            # emission requires two populated lines through every point
            for p in pts:
                assert sum(1 for li in lines2 if M.line_masks[li] >> p & 1) >= 2


def test_walk_covers_all_good_pair_extensions():
    rng = Random(62)
    for _ in range(15):
        n = rng.randrange(4, 8)
        M = random_space(rng, n)
        emitted = set(unpack(M, n))
        for size in range(2, n + 1):
            for C in combinations(range(n), size):
                c_mask = sum(1 << p for p in C)
                rest = [p for p in range(n) if p not in C]
                for r in range(len(rest) + 1):
                    if size + r > n:
                        continue
                    hit = False
                    for B in combinations(rest, r):
                        if good_pair_oracle(M, set(B), set(C)):
                            hit = True
                            break
                    if hit:
                        assert c_mask in emitted, (M.lines, C)
                        break


def test_walk_emits_each_set_once():
    rng = Random(63)
    for _ in range(10):
        M = random_space(rng, rng.randrange(4, 9))
        masks = [m for m, _, _ in iter_candidate_sets(M, M.n)]
        assert len(masks) == len(set(masks))


def test_max_size_is_respected():
    got = unpack(fano(), 4)
    assert got
    assert all(m.bit_count() <= 4 for m in got)


def test_relation_free_space_has_no_candidates():
    assert unpack(LinearSpace(6, []), 6) == {}


def pinned_inputs():
    for seed in (3, 7):
        yield build(MuFunction(2), 150, seed=seed)[0], 8
    yield build(MuFunction(1), 300, seed=3)[0], 10
    yield _hub((1, 1, 1)), 10
    yield _hub((1, 2)), 10
    yield fano_chain(3)[-1], 8
    rng = Random(71)
    for i in range(40):
        n = rng.randrange(4, 13)
        M = random_space(rng, n, tries=3 * n) if i % 2 == 0 else random_k0(rng, n)
        yield M, n


# sha256 over every emitted (mask, delta, sorted populated lines), in
# emission order, with a separator after each input: 15,375 sets.  The
# order and the exact family are what the code caches and the violation
# lists downstream see, so any rewrite of the walk must keep this digest
WALK_DIGEST = "a53322ebcc671e17761a67828f95ed790837a1297140673dea878a34bc47fd68"


def test_walk_stream_is_pinned():
    h = hashlib.sha256()
    count = 0
    for M, bound in pinned_inputs():
        for mask, dlt, lines2 in iter_candidate_sets(M, bound):
            h.update(f"{mask} {dlt} {sorted(lines2)}\n".encode())
            count += 1
        h.update(b"--\n")
    assert count == 15375
    assert h.hexdigest() == WALK_DIGEST


def disjoint_copies(M, k):
    return LinearSpace(
        k * M.n, [tuple(p + i * M.n for p in ln) for i in range(k) for ln in M.lines]
    )


def walk_peak(M, bound):
    tracemalloc.start()
    try:
        for _ in iter_candidate_sets(M, bound):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_memory_does_not_grow_with_disjoint_components():
    # every set in root r's search has r as its least point, so the masks
    # a root visited are dropped when it is done; a walk over k disjoint
    # copies then holds about one copy's search at a time
    M = build(MuFunction(2), 150, seed=3)[0]
    one = walk_peak(M, 8)
    three = walk_peak(disjoint_copies(M, 3), 8)
    assert three < 2 * one, (one, three)


def test_good_pair_extensions_satisfy_the_walk_premise():
    # the constraints the walk enumerates under, checked on real pairs:
    # each point of C on two lines with two points of C, C connected
    # through those lines, and delta >= 1 on every proper nonempty subset
    inputs = [(build(MuFunction(2), 150, seed=s)[0], 8) for s in (3, 7)]
    inputs += [(_hub(ks), 10) for ks in ((1, 1, 1), (1, 2), (2, 2))]
    inputs.append((fano_chain(3)[-1], 8))
    seen = set()
    for i, (M, bound) in enumerate(inputs):
        for gp, emb in enumerate_good_pairs(M, bound):
            if gp.code == ALPHA_CODE:
                continue
            C = frozenset(emb[p] for p in gp.ext)
            if (i, C) in seen:
                continue
            seen.add((i, C))
            assert len(C) >= 2
            pop = [ln for ln in M.lines if len(C.intersection(ln)) >= 2]
            for p in C:
                assert sum(1 for ln in pop if p in ln) >= 2, (i, sorted(C))
            reached = {min(C)}
            frontier = [min(C)]
            while frontier:
                p = frontier.pop()
                for ln in pop:
                    if p in ln:
                        for q in C.intersection(ln) - reached:
                            reached.add(q)
                            frontier.append(q)
            assert reached == C, (i, sorted(C))
            pts = sorted(C)
            for r in range(1, len(pts)):
                for sub in combinations(pts, r):
                    assert delta_set(M, sub) >= 1, (i, sorted(C), sub)
    assert len(seen) == 1286


def hang_path(rng, M, n):
    """M with n - M.n new points on a path of three-point lines hung from
    one of its points; the last line may close back onto M."""
    lines, p = list(M.lines), rng.randrange(M.n)
    for x in range(M.n, n - 1, 2):
        lines.append((p, x, x + 1))
        p = x + 1
    free = [q for q in range(M.n) if q != p and not any(p in ln and q in ln for ln in lines)]
    if (n - M.n) % 2 and free:
        lines.append((p, n - 1, rng.choice(free)))
    return LinearSpace(n, lines)


def test_core_matches_oracle():
    rng = Random(64)
    for i in range(300):
        n = rng.randrange(4, 11)
        m = n if i % 3 == 0 else rng.randrange(3, n)
        M = random_space(rng, m, tries=3 * m) if i % 2 == 0 else random_k0(rng, m)
        if m < n:
            M = hang_path(rng, M, n)
        assert _core(M) == walk_core_oracle(M), M.lines


def test_walk_stays_in_core():
    for M, bound in pinned_inputs():
        core = _core(M)
        assert all(not mask & ~core for mask, _, _ in iter_candidate_sets(M, bound))


def test_base_choices_match_generate_then_filter():
    # the pinned kmu-sparse builds and hub stacks, and the rest of the pinned inputs
    for M, bound in pinned_inputs():
        for mask, dlt, lines2 in iter_candidate_sets(M, bound):
            slots = bound - mask.bit_count()
            assert _bases(M, mask, dlt, lines2, slots) == base_choices_reference(M, mask, dlt, lines2, slots)
