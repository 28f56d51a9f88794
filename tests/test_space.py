import pytest
from collections import Counter
from itertools import combinations
from random import Random

from steinergeom import (
    AxiomViolation,
    FormatError,
    LinearSpace,
    MuFunction,
    build,
    SizeLimit,
    delta,
    delta_rel,
    fano,
    induced,
    lines_based_in,
    pair_coverage,
    parse_gp_v1,
    parse_ls_v1,
    random_k0,
    random_space,
    to_ls_v1,
    validate,
)
from steinergeom.errors import TooManyPoints
from steinergeom.space import MAX_POINTS, preserves_lines
from oracle import delta_from_triples, delta_set, preserves_lines_oracle


def test_constructor_rejects_short_line():
    with pytest.raises(ValueError):
        LinearSpace(3, [(0, 1)])


def test_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        LinearSpace(3, [(0, 1, 3)])


def test_constructor_rejects_shared_pair():
    with pytest.raises(AxiomViolation):
        LinearSpace(4, [(0, 1, 2), (0, 1, 3)])


def test_constructor_rejects_duplicates():
    with pytest.raises(ValueError):
        LinearSpace(3, [(0, 1, 2), (2, 1, 0)])


def test_constructor_rejects_a_negative_point_count():
    # d, icl and in_K0 cannot shift by a negative point count
    with pytest.raises(ValueError, match="point count -3 is negative"):
        LinearSpace(-3, [])
    with pytest.raises(ValueError, match="point count -4 is negative"):
        random_k0(Random(0), -4)


def _random_edit(rng, S):
    """A random (n, add, drop) edit of S; some edits break an axiom or a
    format rule on purpose."""
    n = S.n + rng.randrange(3)
    drop = rng.sample(S.lines, rng.randrange(len(S.lines) + 1))
    add = []
    for _ in range(rng.randrange(4)):
        kind = rng.random()
        if kind < 0.1 and n >= 2:
            add.append(rng.sample(range(n), 2))
        elif kind < 0.2 and n >= 2:
            add.append(rng.sample(range(n), 2) + [rng.choice((-1, n))])
        elif kind < 0.35 and S.lines:
            # a duplicate unless that line is dropped too
            add.append(list(reversed(rng.choice(S.lines))))
        elif kind < 0.5 and drop and n > S.n:
            # the extend-a-line edit: drop a line, add it with a new point
            add.append(rng.choice(drop) + (n - 1,))
        elif n >= 3:
            add.append(rng.sample(range(n), min(n, rng.choice((3, 3, 4)))))
    return n, add, drop


def test_with_lines_matches_constructor():
    rng = Random(61)
    seen = Counter()
    for _ in range(600):
        S = random_space(rng, rng.randrange(10))
        n, add, drop = _random_edit(rng, S)
        if rng.random() < 0.15:
            # an add-point commit (or none at all): nothing added or dropped
            add, drop = [], []
            seen["no change"] += 1
        if rng.random() < 0.5:
            # a built index is padded, not rebuilt, by a no-change edit
            S.lines_by_point
            seen["index built"] += 1
        kept = [ln for ln in S.lines if ln not in drop]
        try:
            want = LinearSpace(n, kept + add)
        except (ValueError, AxiomViolation) as exc:
            with pytest.raises(Exception) as info:
                S.with_lines(n, add=add, drop=drop)
            assert type(info.value) is type(exc)
            seen[type(exc).__name__] += 1
            continue
        got = S.with_lines(n, add=add, drop=drop)
        assert got == want and hash(got) == hash(want)
        assert got.lines == want.lines and got.line_masks == want.line_masks
        assert got.lines_by_point == want.lines_by_point
        assert got.degrees == want.degrees == tuple(len(lns) for lns in want.lines_by_point)
        for a, b in combinations(range(n), 2):
            assert got.line_through(a, b) == want.line_through(a, b)
        seen["ok"] += 1
    assert min(seen[k] for k in ("ok", "ValueError", "AxiomViolation", "no change")) > 50
    assert seen["index built"] > 250


def test_degrees_count_the_lines_through_each_point():
    rng = Random(62)
    for _ in range(200):
        S = random_space(rng, rng.randrange(12))
        assert S.degrees == tuple(len(lns) for lns in S.lines_by_point)
        assert S.degrees == tuple(sum(p in ln for ln in S.lines) for p in range(S.n))


@pytest.mark.parametrize(
    "n, add, drop, exc",
    [
        (5, [(0, 1)], (), ValueError),
        (5, [(0, 3, 5)], (), ValueError),
        (5, [(-1, 3, 4)], (), ValueError),
        (5, [(2, 1, 0)], (), ValueError),
        (5, [(3, 4, 2), (2, 3, 4)], [(0, 1, 2)], ValueError),
        (5, [(0, 1, 3)], (), AxiomViolation),
        (5, [(0, 3, 4), (1, 3, 4)], [(0, 1, 2)], AxiomViolation),
        (4, (), (), ValueError),
        (5, (), [(0, 1, 3)], ValueError),
    ],
)
def test_with_lines_rejects(n, add, drop, exc):
    S = LinearSpace(5, [(0, 1, 2)])
    with pytest.raises(exc):
        S.with_lines(n, add=add, drop=drop)


def test_with_lines_leaves_the_original_alone():
    S = LinearSpace(5, [(0, 1, 2)])
    T = S.with_lines(6, add=[(0, 1, 2, 5)], drop=[(0, 1, 2)])
    assert T == LinearSpace(6, [(0, 1, 2, 5)])
    assert S == LinearSpace(5, [(0, 1, 2)])
    assert S.line_through(0, 5) is None and T.line_through(0, 5) == (0, 1, 2, 5)
    # no change: the child shares S's lines and pair index, with S's index
    # read before the edit or not; the child's own commits still copy them
    for built in (False, True):
        S = LinearSpace(5, [(0, 1, 2), (2, 3, 4)])
        if built:
            S.lines_by_point
        T = S.with_lines(7)
        U = T.with_lines(8, add=[(0, 3, 5)], drop=[(2, 3, 4)])
        assert T == LinearSpace(7, [(0, 1, 2), (2, 3, 4)])
        assert T.lines_by_point == ((0,), (0,), (0, 1), (1,), (1,), (), ())
        assert T.degrees == (1, 1, 2, 1, 1, 0, 0)
        assert U == LinearSpace(8, [(0, 1, 2), (0, 3, 5)])
        assert S.lines_by_point == ((0,), (0,), (0, 1), (1,), (1,)) and S.degrees == (1, 1, 2, 1, 1)
        assert T.line_through(0, 3) is None and T.line_through(3, 4) == (2, 3, 4)
        assert [S.line_through(a, b) for a, b in combinations(range(5), 2)] == [
            LinearSpace(5, [(0, 1, 2), (2, 3, 4)]).line_through(a, b) for a, b in combinations(range(5), 2)
        ]


def test_validate_fano_triples():
    triples = set()
    for ln in fano().lines:
        triples.add(ln)
    space = validate(7, triples)
    assert space == fano()
    assert len(space.lines) == 7
    assert all(len(ln) == 3 for ln in space.lines)


def test_validate_empty():
    assert validate(3, []).lines == ()


def test_validate_clique_failure():
    # 0,1,2 and 0,1,3 collinear but 0,2,3 missing: {0,1,2,3} is not a clique
    with pytest.raises(AxiomViolation):
        validate(4, [(0, 1, 2), (0, 1, 3)])


@pytest.mark.parametrize(
    "triple, message",
    [((0, 1, 1), "does not have 3 distinct points"), ((0, 1, 4), "out of range for 4 points")],
)
def test_validate_refuses_a_bad_triple(triple, message):
    with pytest.raises(ValueError, match=message):
        validate(4, [(0, 1, 2), triple])


def test_validate_four_point_line():
    space = validate(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    assert space.lines == ((0, 1, 2, 3),)


def test_delta_examples():
    assert delta(fano(), range(7)) == 0
    assert delta(fano(), []) == 0
    assert delta(LinearSpace(3, [(0, 1, 2)]), range(3)) == 2


def test_delta_two_path_equality():
    rng = Random(11)
    for _ in range(300):
        n = rng.randrange(3, 11)
        space = random_space(rng, n)
        S = rng.sample(range(n), rng.randrange(n + 1))
        assert delta(space, S) == delta_from_triples(space, S)


def test_point_deletion_identity():
    # a point on no stored line of S contributes exactly 1 to delta
    rng = Random(12)
    for _ in range(300):
        n = rng.randrange(3, 11)
        space = random_space(rng, n)
        S = set(rng.sample(range(n), rng.randrange(1, n + 1)))
        for b in sorted(S):
            on_line = any(
                b in ln and len(S.intersection(ln)) >= 3 for ln in space.lines
            )
            if not on_line:
                assert delta(space, S) == delta(space, S - {b}) + 1


def test_delta_rel():
    assert delta_rel(fano(), [], [0, 1]) == 0
    line4 = LinearSpace(5, [(0, 1, 2, 3)])
    assert delta_rel(line4, [4], [0, 1]) == 1
    with pytest.raises(ValueError):
        delta_rel(fano(), [0, 1], [1, 2])


def test_lines_based_in():
    f = fano()
    assert lines_based_in(f, [0, 1, 2]) == [(0, 1, 2)]
    assert lines_based_in(f, []) == []
    line4 = LinearSpace(4, [(0, 1, 2, 3)])
    assert lines_based_in(line4, [0, 1]) == [(0, 1, 2, 3)]


def test_induced():
    f = fano()
    sub = induced(f, range(1, 7))
    assert sub.n == 6 and len(sub.lines) == 4
    assert induced(f, range(7)) == f
    assert induced(f, [0, 1]).lines == ()


def test_induced_relabels_order_preservingly():
    space = LinearSpace(5, [(1, 3, 4)])
    sub = induced(space, [1, 3, 4])
    assert sub.lines == ((0, 1, 2),)


def test_preserves_lines_matches_the_triple_definition():
    # each point of the domain is tested against the points before it;
    # the oracle tests every triple of the domain
    rng = Random(41)
    seen = Counter()
    for trial in range(2400):
        large = trial % 8 == 0
        if large:
            # a 20-60-point space and the structure it induces on a random
            # subset, mapped back, half the time with two images swapped
            B = random_space(rng, rng.randrange(20, 61))
            img = sorted(rng.sample(range(B.n), rng.randrange(3, 21)))
            A = induced(B, img)
            if rng.random() < 0.5:
                i, j = rng.sample(range(len(img)), 2)
                img[i], img[j] = img[j], img[i]
            phi = dict(enumerate(img))
        else:
            A, B = random_space(rng, rng.randrange(3, 9)), random_space(rng, rng.randrange(3, 9))
            k = rng.randrange(min(A.n, B.n) + 1)
            phi = dict(zip(rng.sample(range(A.n), k), rng.sample(range(B.n), k)))
        want = preserves_lines_oracle(A, B, phi)
        assert preserves_lines(A, B, phi) == want
        seen[large, want] += 1
    assert len(seen) == 4 and min(seen.values()) > 20


def test_preserves_lines_looks_up_a_quadratic_number_of_lines(monkeypatch):
    M, _ = build(MuFunction(1), 60, seed=0)
    phi = {p: p for p in range(60)}
    calls = Counter()
    line_through = LinearSpace.line_through

    def counted(self, a, b):
        calls["line_through"] += 1
        return line_through(self, a, b)

    monkeypatch.setattr(LinearSpace, "line_through", counted)
    assert M.n >= 60 and preserves_lines(M, M, phi)
    # a test per triple would look up 2 * C(60, 3) = 68,440 lines
    assert calls["line_through"] <= len(phi) ** 2


def test_pair_coverage():
    assert pair_coverage(fano()) == 1.0
    assert pair_coverage(LinearSpace(0, [])) == 0.0
    assert pair_coverage(LinearSpace(4, [(0, 1, 2)])) == 0.5


def test_ls_v1_roundtrip():
    rng = Random(13)
    for _ in range(50):
        space = random_space(rng, rng.randrange(3, 11))
        assert parse_ls_v1(to_ls_v1(space)) == space


def test_ls_v1_comments_and_blank_lines():
    text = "# hi\nlinear-space v1\n\npoints 3  # three\nline 0 1 2\n"
    assert parse_ls_v1(text) == LinearSpace(3, [(0, 1, 2)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "wrong header\npoints 3\n",
        "linear-space v1\n",
        "linear-space v1\npoints x\n",
        "linear-space v1\npoints \u00b2\n",
        "linear-space v1\npoints 3\nline 0 1\n",
        "linear-space v1\npoints 3\nline 2 1 0\n",
        "linear-space v1\npoints 3\nline 0 1 5\n",
        "linear-space v1\npoints 3\nline 0 1 2\nline 0 1 2\n",
        "linear-space v1\npoints 4\nline 0 1 2\nline 0 1 3\n",
    ],
)
def test_ls_v1_parse_errors(text):
    with pytest.raises(FormatError):
        parse_ls_v1(text)


def test_ls_v1_point_cap_is_checked_on_the_points_row():
    text = f"linear-space v1\n# one more than the cap\npoints {MAX_POINTS + 1}\nline 0 1 2\n"
    with pytest.raises(TooManyPoints) as exc:
        parse_ls_v1(text)
    assert isinstance(exc.value, FormatError) and isinstance(exc.value, SizeLimit)
    assert exc.value.lineno == 3
    # gp-v1 goes through the same parser, with the same line numbers
    with pytest.raises(TooManyPoints) as exc:
        parse_gp_v1(text + "base 0 1\n")
    assert exc.value.lineno == 3
    assert parse_ls_v1(f"linear-space v1\npoints {MAX_POINTS}\n").n == MAX_POINTS


def test_ls_v1_conflicting_lines_report_the_later_row():
    text = "linear-space v1\npoints 6\nline 0 1 2\n\nline 3 4 5\nline 0 1 3\n"
    with pytest.raises(FormatError) as exc:
        parse_ls_v1(text)
    assert exc.value.lineno == 6
    # rows in the other order: still the later row, not the later line
    text = "linear-space v1\npoints 4\nline 0 1 3\nline 0 1 2\n"
    with pytest.raises(FormatError) as exc:
        parse_ls_v1(text)
    assert exc.value.lineno == 4


def test_delta_set_oracle_agrees():
    rng = Random(14)
    for _ in range(100):
        n = rng.randrange(3, 11)
        space = random_space(rng, n)
        S = rng.sample(range(n), rng.randrange(n + 1))
        assert delta(space, S) == delta_set(space, S)
