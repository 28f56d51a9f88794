from itertools import combinations
from random import Random

from steinergeom import LinearSpace, delta, fano, random_space
from steinergeom.tight import iter_candidate_sets
from oracle import delta_set, good_pair_oracle


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

