import hashlib
from itertools import permutations, product
from random import Random

import pytest

from steinergeom import (
    ALPHA_CODE,
    FormatError,
    GoodPair,
    LinearSpace,
    MuFunction,
    alpha_pair,
    amalgamate_or_identify,
    build,
    canonical_code,
    chi,
    cycle_Ck,
    decode_code,
    delta,
    enumerate_good_pairs,
    fano,
    free_amalgam,
    in_K_mu_bounded,
    induced,
    is_strong,
    mu_X,
    parse_mu_v1,
    random_k0,
    random_space,
    stats,
    to_mu_v1,
    validate_mu,
)
from steinergeom.errors import SizeLimit, TooManyPoints
from steinergeom import primitives
from steinergeom.mu import _copy_groups_full
from steinergeom.primitives import DEFAULT_CODE_LIMIT
from steinergeom.space import MAX_POINTS
from oracle import embeddings_oracle, good_pair_oracle, max_disjoint_oracle
from test_amalgam import grow_k0
from test_tight import pinned_inputs


def test_line_length():
    assert MuFunction(1).line_length() == 3
    assert MuFunction(2).line_length() == 4


def test_default_policy_value():
    mu = MuFunction(1)
    ck = cycle_Ck(1)
    # delta of the 2-point base is 2
    assert mu.value(ck.code) == 2
    assert mu.value(ALPHA_CODE) == 1
    fano_code = canonical_code(fano(), [])
    assert mu.value(fano_code) == 1


def test_overrides_take_precedence():
    ck = cycle_Ck(2)
    mu = MuFunction(1, {ck.code: 5})
    assert mu.value(ck.code) == 5


def test_validate_mu():
    assert validate_mu(MuFunction(1)) == (True, [])
    ok, reasons = validate_mu(MuFunction(0))
    assert not ok and reasons
    ck = cycle_Ck(1)
    ok, reasons = validate_mu(MuFunction(1, {ck.code: 1}))
    assert not ok  # cap below delta(base) = 2
    assert validate_mu(MuFunction(1, {ck.code: 2}))[0]


def test_validate_mu_refuses_caps_that_never_apply():
    code = cycle_Ck(1).code
    # C_1 with its extension points 2 and 3 swapped: a code of the same
    # shape that no enumeration gives, so its cap never meets a pair
    alt = "gp2.4|0,2,3|0,4,5|1,2,5|1,3,4"
    assert alt != code and canonical_code(*decode_code(alt)) == code
    assert MuFunction(1, {alt: 3}).value(code) == 2
    # alpha's cap is the alpha value, whatever an override says
    assert MuFunction(1, {ALPHA_CODE: 5}).value(ALPHA_CODE) == 1
    for key, message in ((alt, "is not canonical"), (ALPHA_CODE, "alpha's cap is the alpha value")):
        mu = MuFunction(1, {key: 3})
        ok, reasons = validate_mu(mu)
        assert not ok and len(reasons) == 1 and message in reasons[0]
        with pytest.raises(FormatError, match=message) as exc:
            parse_mu_v1(to_mu_v1(mu))
        assert exc.value.lineno == 2


def test_decode_code_roundtrip():
    for gp in (alpha_pair(), cycle_Ck(1), cycle_Ck(2)):
        space, base = decode_code(gp.code)
        assert canonical_code(space, base) == gp.code
    with pytest.raises(ValueError):
        decode_code("nonsense")


def test_mu_v1_roundtrip():
    mu = MuFunction(2, {cycle_Ck(1).code: 3})
    assert parse_mu_v1(to_mu_v1(mu)) == mu


@pytest.mark.parametrize("alpha", [2.9, "2", True, None])
def test_mu_function_refuses_an_alpha_value_that_is_not_an_int(alpha):
    # int() would make 2.9 alpha 2 and parse "2"
    with pytest.raises(TypeError, match="alpha value must be an int"):
        MuFunction(alpha)


@pytest.mark.parametrize("cap", [2.5, True])
def test_mu_function_refuses_a_cap_that_is_not_an_int(cap):
    # a cap of 2.5 would be written as a pair row that parse_mu_v1 refuses
    with pytest.raises(TypeError, match="must be an int"):
        MuFunction(1, {cycle_Ck(1).code: cap})


def test_mu_function_leaves_negative_values_to_validate_mu():
    code = cycle_Ck(1).code
    ok, reasons = validate_mu(MuFunction(-1, {code: -3}))
    assert not ok and reasons == ["alpha value -1 < 1", f"mu({code}) = -3 < delta(B) = 2"]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "alpha x\n",
        "alpha 1\npair bogus 3\n",
        "alpha 1\npair\n",
        "what 3\n",
        "alpha 1\ndefault other\n",
        # two lines of the code share the pair (0, 2)
        "alpha 1\npair gp2.4|0,2,3|0,2,5|1,2,4|1,3,5 3\n",
        "alpha 1\npair gp-2.4| 3\n",
        # negative values
        "alpha -3\n",
        "alpha 1\npair gp2.2|0,1,3 -1\n",
        # a shape whose canonical code is gp2.2|0,1,3
        "alpha 1\npair gp2.2|0,1,2 5\n",
        # alpha's cap is the alpha row's
        "alpha 1\npair alpha 5\n",
        pytest.param("alpha 1\npair gp1" + "0" * 4999 + ".1| 3\n", id="5000-digit base size"),
    ],
)
def test_mu_v1_errors(text):
    with pytest.raises(FormatError) as exc:
        parse_mu_v1(text)
    # the faulty row is each input's last; a missing alpha row is line 0
    assert exc.value.lineno == text.count("\n")


def test_mu_v1_codes_are_canonical_up_to_the_code_limit():
    assert canonical_code(*decode_code("gp2.2|0,1,2")) == "gp2.2|0,1,3"
    assert parse_mu_v1("alpha 1\npair gp2.2|0,1,3 5\n").overrides == {"gp2.2|0,1,3": 5}
    # a code past the limit is never enumerated and is kept as written
    mu = mu_X([4])
    (code,) = mu.overrides
    assert decode_code(code)[0].n > DEFAULT_CODE_LIMIT
    assert parse_mu_v1(to_mu_v1(mu)) == mu


def test_mu_v1_code_over_the_point_cap_is_a_size_limit():
    # the second size has more digits than int() reads
    for code in (f"gp2.{MAX_POINTS - 1}|", "gp1" + "0" * 4999 + ".1|"):
        with pytest.raises(TooManyPoints) as exc:
            parse_mu_v1(f"alpha 1\npair {code} 3\n")
        assert exc.value.lineno == 2 and isinstance(exc.value, SizeLimit)


def test_bounded_check_alpha_violation():
    line4 = LinearSpace(4, [(0, 1, 2, 3)])
    ok, viols = in_K_mu_bounded(line4, MuFunction(1), 4)
    assert not ok
    assert viols[0][0] == ALPHA_CODE and viols[0][2] == 2
    assert in_K_mu_bounded(line4, MuFunction(2), 4)[0]


def test_bounded_check_sees_no_alpha_below_its_size():
    # alpha has three points: a bound below 3 admits none of its pairs (a
    # negative bound is refused, see test_bound_must_be_a_nonnegative_int)
    line5 = LinearSpace(5, [(0, 1, 2, 3, 4)])
    for bound in (2, 1, 0):
        assert in_K_mu_bounded(line5, MuFunction(1), bound) == (True, [])
        assert in_K_mu_bounded(line5, MuFunction(1), bound, touching=[0]) == (True, [])
    assert in_K_mu_bounded(line5, MuFunction(1), 3) == (False, [(ALPHA_CODE, (0, 1), 3, 1)])


@pytest.mark.parametrize("bound", [6.0, 8.5, True, "8", None, -1])
def test_bound_must_be_a_nonnegative_int(bound):
    # refused as build refuses its counts, before any search and before
    # an empty `touching` returns; a bool is not an int here
    err = ValueError if bound == -1 else TypeError
    M = build(MuFunction(2), 60, seed=1)[0]
    with pytest.raises(err, match="must be"):
        enumerate_good_pairs(M, bound)
    with pytest.raises(err, match="must be"):
        in_K_mu_bounded(fano(), MuFunction(1), bound)
    with pytest.raises(err, match="must be"):
        in_K_mu_bounded(fano(), MuFunction(1), bound, touching=[])


def test_check_path_keeps_the_code_limit():
    # the limit is raised by the good-pair generator the check reads
    M = build(MuFunction(2), 60, seed=1)[0]
    message = f"max_size 17 exceeds code limit {DEFAULT_CODE_LIMIT}"
    for touching in (None, [0], range(M.n)):
        with pytest.raises(SizeLimit, match=message):
            in_K_mu_bounded(M, MuFunction(2), 17, touching=touching)
    with pytest.raises(SizeLimit, match=message):
        stats(M, MuFunction(2), bound=17)


def test_bounded_check_touching_no_point_finds_nothing():
    # no group meets the empty set; an empty `touching` is not the full check
    line5 = LinearSpace(5, [(0, 1, 2, 3, 4)])
    assert in_K_mu_bounded(line5, MuFunction(1), 3, touching=[]) == (True, [])
    assert in_K_mu_bounded(line5, MuFunction(1), 3, touching=None) == (False, [(ALPHA_CODE, (0, 1), 3, 1)])


def test_bounded_check_fano():
    # one copy of the Fano plane over the empty base is within the cap
    assert in_K_mu_bounded(fano(), MuFunction(1), 7)[0]


def triple_cycle_structure(k=2):
    """Three disjoint copies of the C_k extension glued over one base
    pair {0, 1}."""
    gp = cycle_Ck(k)
    M = LinearSpace(2, [])
    for _ in range(3):
        M = free_amalgam(M, gp.space, [0, 1])
    return M


def test_chi_counts_glued_copies():
    M = triple_cycle_structure()
    gp = cycle_Ck(2)
    assert chi(M, gp, {0: 0, 1: 1}) == 3


def test_mu_x_separation():
    M = triple_cycle_structure(2)
    bound = cycle_Ck(2).space.n
    ok, _ = in_K_mu_bounded(M, mu_X([2]), bound)
    assert ok
    ok, viols = in_K_mu_bounded(M, mu_X([]), bound)
    assert not ok
    code = cycle_Ck(2).code
    assert any(v[0] == code and v[2] == 3 and v[3] == 2 for v in viols)


def test_bounded_check_touching_agrees_with_full():
    rng = Random(51)
    from steinergeom import random_k0

    kept = dropped = 0
    for _ in range(30):
        M = random_k0(rng, rng.randrange(4, 9))
        pts = rng.sample(range(M.n), 2)
        # MuFunction(2) finds no violation here; caps of 0 make every line
        # and every group one, so the filter itself is compared
        zero = MuFunction(0, {code: 0 for code, _img in _copy_groups_full(M, M.n)})
        for mu in (MuFunction(2), zero):
            _, full = in_K_mu_bounded(M, mu, M.n)
            part_ok, part = in_K_mu_bounded(M, mu, M.n, touching=pts)
            assert part == [v for v in full if _violation_points(M, M.n, v) & set(pts)]
            assert part_ok == (not part)
            kept += len(part)
            dropped += len(full) - len(part)
    assert kept and dropped


def _hub_stack(rng, ks):
    """Copies of C_k for k in ks glued over one hub pair, plus two
    isolated points, relabelled at random."""
    M = LinearSpace(2, [])
    for k in ks:
        M = free_amalgam(M, cycle_Ck(k).space, [0, 1])
    n = M.n + 2
    perm = rng.sample(range(n), n)
    return LinearSpace(n, [[perm[p] for p in ln] for ln in M.lines])


def _violation_points(M, bound, violation):
    """The points of a violation's group: the line for alpha, else the
    base image and every copy over it."""
    code, base_img, _chi, _cap = violation
    if code == ALPHA_CODE:
        return set(M.line_through(*base_img))
    copies = _copy_groups_full(M, bound)[(code, frozenset(base_img))]
    return set(base_img).union(*copies)


def test_bounded_check_touching_is_sound_on_violating_stacks():
    rng = Random(52)
    mu, bound = mu_X([]), 10
    met = 0
    for ks, tries in (((1, 1, 1), 3), ((1, 2), 2)):
        M = _hub_stack(rng, ks)
        _, full = in_K_mu_bounded(M, mu, bound)
        isolated = [p for p in range(M.n) if not M.lines_by_point[p]]
        # random pairs, and the two isolated points, which meet no group
        for pts in [rng.sample(range(M.n), 2) for _ in range(tries - 1)] + [isolated]:
            _, part = in_K_mu_bounded(M, mu, bound, touching=pts)
            # every partial violation is a full one ...
            assert set(part) <= set(full)
            # ... and every full violation whose group meets the touched
            # points is found by the partial check
            for v in full:
                if _violation_points(M, bound, v) & set(pts):
                    assert v in part
                    met += 1
    assert met >= 1


def _recheck_chains(rng):
    """(parent, M, bound) with M extending parent by new points."""
    # a C_1 copy whose extension lies in the parent: the new point 7 is a
    # base point, put on two parent lines that each carry two points of
    # the extension {1, 2, 3, 4}
    parent = LinearSpace(7, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 6)])
    yield parent, LinearSpace(8, [(0, 1, 2), (0, 3, 4), (1, 3, 5, 7), (2, 4, 6, 7)]), 7
    # towers of free amalgams: C_1 copies over a hub pair, then random
    # K_0 pieces over the points 0..k-1 when those are strong in the piece
    M = LinearSpace(2, [])
    for _ in range(3):
        nxt = free_amalgam(M, cycle_Ck(1).space, [0, 1])
        yield M, nxt, 6
        M = nxt
    done = 0
    while done < 4:
        k = rng.randrange(2, 5)
        E = grow_k0(rng, induced(M, range(k)), rng.randrange(1, 4))
        if not is_strong(E, range(k), range(E.n)).ok:
            continue
        nxt = free_amalgam(M, E, range(k))
        yield M, nxt, 6
        M = nxt
        done += 1
    # random_k0 chains
    for _ in range(6):
        M = random_k0(rng, rng.randrange(4, 8))
        for _ in range(2):
            nxt = grow_k0(rng, M, rng.randrange(1, 3))
            yield M, nxt, 7
            M = nxt
    # a copy glued over the hub pair in the other orientation
    yield _mixed_tower((0, 1, 0)), _mixed_tower((0, 1, 0, 1)), 7


def test_touching_recheck_equals_the_filtered_full_check():
    met_old_ext = 0
    for parent, M, bound in _recheck_chains(Random(53)):
        T = frozenset(range(parent.n, M.n))
        assert induced(M, range(parent.n)) == parent
        in_K_mu_bounded(parent, MuFunction(2), bound)
        full = _copy_groups_full(M, bound)
        want = {
            key: set(copies)
            for key, copies in full.items()
            if T & key[1] or any(T & c for c in copies)
        }
        # a new base point whose copies all lie in the parent
        met_old_ext += sum(1 for (_code, base), copies in want.items()
                           if T & base and not any(T & c for c in copies))
        # caps of 0 make every line and every group a violation
        zero = MuFunction(0, {code: 0 for code, _img in full})
        for mu in (MuFunction(2), zero):
            _, all_viols = in_K_mu_bounded(M, mu, bound)
            ok, part = in_K_mu_bounded(M, mu, bound, touching=T)
            assert part == [v for v in all_viols if _violation_points(M, bound, v) & T]
            assert ok == (not part)
    assert met_old_ext


def test_touching_check_makes_one_candidate_walk(monkeypatch):
    # the recheck groups only the pairs through the touched points; it
    # builds no induced structure and reads no cached grouping
    _copy_groups_full.cache_clear()
    M, _trace = build(MuFunction(1), 300, seed=11)
    T = range(M.n - 3, M.n)
    walks, iter_walk = [], primitives.iter_candidate_sets

    def counted(space, max_size):
        walks.append(space)
        return iter_walk(space, max_size)

    monkeypatch.setattr(primitives, "iter_candidate_sets", counted)
    ok, part = in_K_mu_bounded(M, MuFunction(1), 8, touching=T)
    assert walks == [M]
    monkeypatch.undo()
    _, full = in_K_mu_bounded(M, MuFunction(1), 8)
    assert part == [v for v in full if _violation_points(M, 8, v) & set(T)]
    assert ok == (not part)


# a pair whose two base points play different roles
MIXED_CODE = "gp2.5|0,2,4|0,3,5|1,2,3,6|4,5,6"


def _brute_groups(M, bound):
    """Extension sets per (code, base) of every good pair (B, C) with
    |C| >= 2 and |B u C| <= bound, by brute force over all labellings."""
    out = {}
    for labels in product(range(3), repeat=M.n):
        B = [p for p in range(M.n) if labels[p] == 1]
        C = [p for p in range(M.n) if labels[p] == 2]
        if len(C) < 2 or len(B) + len(C) > bound or not good_pair_oracle(M, B, C):
            continue
        pts = sorted(B + C)
        code = canonical_code(induced(M, pts), [pts.index(b) for b in B])
        out.setdefault((code, frozenset(B)), set()).add(frozenset(C))
    return {key: frozenset(copies) for key, copies in out.items()}


def test_copy_groups_match_independent_groupings():
    # against the oracle on small spaces
    rng = Random(19)
    found = 0
    for i in range(24):
        n = rng.randrange(5, 9)
        M = random_space(rng, n, tries=3 * n) if i % 2 == 0 else random_k0(rng, n)
        bound = n if i % 4 else rng.randrange(3, n)
        want = _brute_groups(M, bound)
        assert _copy_groups_full(M, bound) == want
        found += len(want)
    assert found == 96
    # against the public enumeration's non-alpha pairs on the walk's pins
    for M, bound in pinned_inputs():
        want = {}
        for gp, emb in enumerate_good_pairs(M, bound):
            if gp.code != ALPHA_CODE:
                key = (gp.code, frozenset(emb[b] for b in gp.base))
                want.setdefault(key, set()).add(frozenset(emb[c] for c in gp.ext))
        assert _copy_groups_full(M, bound) == {key: frozenset(c) for key, c in want.items()}


def _mixed_tower(orientations):
    """MIXED_CODE's pair glued over {0, 1} once per entry: as written for
    0, with the base roles swapped for 1."""
    space, _ = decode_code(MIXED_CODE)
    swapped = LinearSpace(space.n, [[{0: 1, 1: 0}.get(p, p) for p in ln] for ln in space.lines])
    M = LinearSpace(2, [])
    for o in orientations:
        M = free_amalgam(M, (space, swapped)[o], [0, 1])
    return M


def _decided_in_F(case):
    """(F, E, mu, bound, violations, embedding) of an amalgamation over
    {0, 1} whose step is refused for a group whose base lies in F."""
    if case == "C_1":
        # F holds two C_1 copies over {0, 1}, the default cap
        c1 = cycle_Ck(1)
        F = free_amalgam(c1.space, c1.space, [0, 1])
        return F, c1.space, MuFunction(1), 10, [(c1.code, 3, 2)], {p: p for p in range(6)}
    # F holds one copy over the first base map and two over the second;
    # the step adds a third over the second.  Its own packing, 1, is
    # already reached by the first map
    F = _mixed_tower((0, 1, 1))
    emb = {0: 0, 1: 1, **{p: p + 5 for p in range(2, 7)}}
    return F, _mixed_tower((1,)), MuFunction(2), 7, [(MIXED_CODE, 3, 2)], emb


@pytest.mark.parametrize("case", ["C_1", "mixed"])
def test_amalgamation_is_decided_by_a_group_whose_base_lies_in_F(case):
    # the group's base misses the step's new points, so its chi counts
    # the copies inside F too
    F, E, mu, bound, violations, emb = _decided_in_F(case)
    res = amalgamate_or_identify(F, E, [0, 1], mu, bound)
    assert res.outcome == "identified"
    assert res.structure == F
    assert res.violations == violations
    assert res.e_embedding == emb


def _oracle_copies(M, code, copies, img):
    """The copies among `copies` that lie over the base map i -> img[i]
    of the code's pair, by brute force on the structure induced on the
    base image and the copy."""
    space, base = decode_code(code)
    out = []
    for copy in copies:
        pts = sorted(set(img) | copy)
        if embeddings_oracle(induced(M, pts), space, base, {i: pts.index(p) for i, p in enumerate(img)}):
            out.append(copy)
    return out


def test_violations_count_copies_over_the_base_pointwise():
    # three copies in one orientation, one in the other: 3 over one map
    # and 1 over the other, not 4 over the set {0, 1}
    _, violations = in_K_mu_bounded(_mixed_tower((0, 1, 1, 1)), MuFunction(1), 7)
    assert (MIXED_CODE, (1, 0), 3, 2) in violations
    rng = Random(54)
    cases = [
        (_mixed_tower((0, 1, 1, 1)), 7, MuFunction(1)),
        # 2 and 1 over the two maps: under the cap 2, over the cap 1
        (_mixed_tower((0, 1, 0)), 7, MuFunction(1)),
        (_mixed_tower((0, 1, 0)), 7, MuFunction(1, {MIXED_CODE: 1})),
        (_hub_stack(rng, (1, 1, 1)), 10, mu_X([])),
        (_hub_stack(rng, (1, 2)), 10, MuFunction(1, {cycle_Ck(1).code: 0})),
    ]
    met, under = 0, 0
    for M, bound, mu in cases:
        _, violations = in_K_mu_bounded(M, mu, bound)
        found = {(code, frozenset(base)): (base, val) for code, base, val, _cap in violations if code != ALPHA_CODE}
        for (code, img), copies in _copy_groups_full(M, bound).items():
            cap = mu.value(code)
            # every copy over a base map is in the group, so the group's
            # packing bounds the packing over each map
            if max_disjoint_oracle(copies) <= cap:
                assert (code, img) not in found
                continue
            per_map = {
                vals: max_disjoint_oracle(_oracle_copies(M, code, copies, vals))
                for vals in permutations(sorted(img))
            }
            best = max(per_map.values())
            if best <= cap:
                assert (code, img) not in found
                under += 1
                continue
            assert (code, img) in found, f"chi {best} over a base map exceeds the cap {cap}"
            base, val = found.pop((code, img))
            assert val == best == per_map[base]
            assert base == min(vals for vals, count in per_map.items() if count == best)
            assert chi(M, GoodPair(*decode_code(code)), dict(enumerate(base))) == val
            met += 1
        assert not found
    assert met >= 4 and under >= 1


def test_copy_groups_cache_is_read_only():
    M = triple_cycle_structure(1)
    bound = cycle_Ck(1).space.n
    groups = _copy_groups_full(M, bound)
    before = {key: set(copies) for key, copies in groups.items()}
    key = next(iter(groups))
    with pytest.raises(TypeError):
        groups[key] = frozenset()
    with pytest.raises(AttributeError):
        groups[key].add(frozenset({0}))
    again = _copy_groups_full(M, bound)
    assert {k: set(v) for k, v in again.items()} == before
    assert in_K_mu_bounded(M, mu_X([]), bound) == (
        False,
        [(cycle_Ck(1).code, (0, 1), 3, 2)],
    )


def test_mu_x_caps():
    mu = mu_X([1, 3], alpha_value=2)
    assert mu.value(cycle_Ck(1).code) == 3
    assert mu.value(cycle_Ck(2).code) == 2
    assert mu.value(cycle_Ck(3).code) == 3
    assert mu.line_length() == 4


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _enumeration(M, bound):
    return [(gp.code, sorted(emb.items())) for gp, emb in enumerate_good_pairs(M, bound)]


# sha256 of repr() of enumerate_good_pairs output as (code, sorted
# embedding items), and of in_K_mu_bounded's (ok, violations); a change
# to the verification machinery must leave all of them as they are
PINNED_HUB = {
    "enumeration": "0a297d648ee47998302ee3ac77250bfedb94cd893e44cb303b2e21701aab7a41",
    "mu_X([])": "ca41f84fafd96425a1a1e2cfae358b824bd859d0527d0b001d1ed286f2e0336b",
    "mu_X([1])": "4fd945ab0f7bc0e2b1e3c15ff7655ab0ac9edb4407230dfacae35f41b2936199",
}
PINNED_BUILD = {
    "enumeration": "785157178fab04e07307b103427b87bae611fad8fccce88258bd57f8ed55a65a",
    "violations": "4fd945ab0f7bc0e2b1e3c15ff7655ab0ac9edb4407230dfacae35f41b2936199",
}


def test_hub_stack_outputs_are_pinned():
    M = _hub_stack(Random(2024), (1, 1, 1))
    assert _sha(_enumeration(M, 10)) == PINNED_HUB["enumeration"]
    assert _sha(in_K_mu_bounded(M, mu_X([]), 10)) == PINNED_HUB["mu_X([])"]
    assert _sha(in_K_mu_bounded(M, mu_X([1]), 10)) == PINNED_HUB["mu_X([1])"]


def test_build_outputs_are_pinned():
    M, _ = build(MuFunction(2), 150, seed=7)
    assert _sha(_enumeration(M, 8)) == PINNED_BUILD["enumeration"]
    assert _sha(in_K_mu_bounded(M, MuFunction(2), 8)) == PINNED_BUILD["violations"]
