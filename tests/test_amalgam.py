import hashlib
import pytest
from random import Random

from steinergeom import (
    AxiomViolation,
    BaseMismatch,
    BoundTooSmall,
    LinearSpace,
    MuFunction,
    NotStrong,
    amalgamate_or_identify,
    cycle_Ck,
    decompose,
    delta,
    free_amalgam,
    in_K0,
    in_K_mu_bounded,
    induced,
    is_strong,
    mu_X,
    random_k0,
    to_ls_v1,
)
from steinergeom.amalgam import _glue
from oracle import embeddings_oracle


def grow_k0(rng, base, extra, *, tries=12):
    """Extend a K_0 structure by `extra` fresh points and random lines,
    keeping the original lines intact and the whole thing in K_0."""
    n = base.n + extra
    cur = LinearSpace(n, base.lines)
    for _ in range(tries):
        if n < 3:
            break
        t = sorted(rng.sample(range(n), 3))
        if max(t) < base.n:
            continue
        try:
            cand = LinearSpace(n, list(cur.lines) + [tuple(t)])
        except (AxiomViolation, ValueError):
            continue
        if in_K0(cand)[0]:
            cur = cand
    return cur


def test_free_amalgam_basic():
    F = LinearSpace(3, [(0, 1, 2)])
    E = LinearSpace(4, [(0, 1, 3)])
    G = free_amalgam(F, E, [0, 1])
    # E's non-shared points 2, 3 become 3, 4; its line through the shared
    # pair {0,1} merges with F's line
    assert G.n == 5
    assert G.lines == ((0, 1, 2, 4),)


def test_free_amalgam_no_merge_without_based_line():
    F = LinearSpace(3, [(0, 1, 2)])
    E = LinearSpace(3, [(0, 1, 2)])
    G = free_amalgam(F, E, [0])
    assert G.n == 5
    assert len(G.lines) == 2


def test_free_amalgam_requires_strong_shared_part():
    E = free_amalgam(LinearSpace(7, fano_lines()), LinearSpace(1, []), [])
    assert E.n == 8
    with pytest.raises(NotStrong):
        free_amalgam(LinearSpace(3, []), LinearSpace(7, fano_lines()), [0])


def fano_lines():
    return [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]


def test_free_amalgam_shared_part_must_agree():
    F = LinearSpace(3, [(0, 1, 2)])
    E = LinearSpace(3, [])
    with pytest.raises(BaseMismatch):
        free_amalgam(F, E, [0, 1, 2])


def test_glue_refuses_a_shared_map_that_is_not_injective():
    with pytest.raises(BaseMismatch, match="^shared-part map is not injective$"):
        _glue(LinearSpace(3, []), LinearSpace(3, []), {0: 0, 1: 0})


@pytest.mark.parametrize("side", ["E", "F"])
def test_amalgamate_refuses_a_side_that_fails_the_bounded_check(side):
    # mu(alpha) = 1 caps lines at 3 points
    long_line, line = LinearSpace(4, [(0, 1, 2, 3)]), LinearSpace(3, [(0, 1, 2)])
    F, E = (line, long_line) if side == "E" else (long_line, line)
    with pytest.raises(ValueError, match=f"^{side} fails the bounded mu check"):
        amalgamate_or_identify(F, E, [0, 1, 2], MuFunction(1), 4)


def test_free_amalgam_delta_additivity():
    rng = Random(41)
    for _ in range(200):
        D = random_k0(rng, rng.randrange(1, 5))
        F = grow_k0(rng, D, rng.randrange(1, 4))
        E = grow_k0(rng, D, rng.randrange(1, 4))
        if not is_strong(E, range(D.n), range(E.n)).ok:
            continue
        G = free_amalgam(F, E, range(D.n))
        assert delta(G, range(G.n)) == delta(F, range(F.n)) + delta(E, range(E.n)) - delta(D, range(D.n))
        # both sides stay strong in the amalgam when strong in themselves
        if is_strong(F, range(D.n), range(F.n)).ok:
            assert is_strong(G, range(F.n), range(G.n)).ok


def test_amalgamate_new_point_on_full_line_mu1_identifies():
    # F's line through the shared pair is already at the mu(alpha)=1
    # target length, so the new point collapses onto the third point
    F = LinearSpace(3, [(0, 1, 2)])
    E = LinearSpace(3, [(0, 1, 2)])
    res = amalgamate_or_identify(F, E, [0, 1], MuFunction(1), 6)
    assert res.outcome == "identified"
    assert res.structure == F
    assert res.e_embedding[2] == 2
    assert res.violations and res.violations[0][0] == "alpha"


def test_amalgamate_new_point_on_full_line_mu2_amalgamates():
    F = LinearSpace(3, [(0, 1, 2)])
    E = LinearSpace(3, [(0, 1, 2)])
    res = amalgamate_or_identify(F, E, [0, 1], MuFunction(2), 6)
    assert res.outcome == "free"
    assert res.structure.lines == ((0, 1, 2, 3),)


def test_amalgamate_random_results_pass_bounded_check():
    rng = Random(42)
    mu = MuFunction(2)
    bound = 6
    done = 0
    while done < 150:
        D = random_k0(rng, rng.randrange(1, 4))
        F = grow_k0(rng, D, rng.randrange(1, 5))
        E = grow_k0(rng, D, rng.randrange(1, 5))
        if not is_strong(E, range(D.n), range(E.n)).ok:
            continue
        if not in_K_mu_bounded(F, mu, bound)[0] or not in_K_mu_bounded(E, mu, bound)[0]:
            continue
        try:
            res = amalgamate_or_identify(F, E, range(D.n), mu, bound)
        except BoundTooSmall:
            continue
        ok, viols = in_K_mu_bounded(res.structure, mu, bound)
        assert ok, viols
        # the embedding preserves collinearity of E
        for ln in E.lines:
            img = [res.e_embedding[p] for p in ln]
            got = res.structure.line_through(img[0], img[1])
            assert got is not None and set(img) <= set(got)
        done += 1


def test_identify_takes_lex_least_embedding():
    # F's line through the shared pair {0, 1} is full at mu(alpha)=2 and
    # E puts a new point on it, so that step has two copies to choose from
    rng = Random(43)
    mu = MuFunction(2)
    bound = 6
    done = 0
    for _ in range(200):
        F = grow_k0(rng, LinearSpace(4, [(0, 1, 2, 3)]), rng.randrange(0, 4))
        E = grow_k0(rng, LinearSpace(3, [(0, 1, 2)]), rng.randrange(0, 4))
        if not is_strong(E, [0, 1], range(E.n)).ok:
            continue
        if not in_K_mu_bounded(F, mu, bound)[0] or not in_K_mu_bounded(E, mu, bound)[0]:
            continue
        try:
            res = amalgamate_or_identify(F, E, [0, 1], mu, bound)
        except BoundTooSmall:
            continue
        if res.outcome != "identified":
            continue
        # every step was identified inside F itself, each with the least
        # oracle embedding by the image sequence of its extension points
        emb = {0: 0, 1: 1}
        for x_set, _inc in decompose(E, [0, 1]):
            pts = sorted(x_set)
            rel = {p: i for i, p in enumerate(pts)}
            base_map = {rel[p]: emb[p] for p in pts if p in emb}
            ext = sorted(set(range(len(pts))) - set(base_map))
            least = min(
                embeddings_oracle(F, induced(E, pts), base_map, base_map),
                key=lambda phi: [phi[x] for x in ext],
            )
            for p in pts:
                emb.setdefault(p, least[rel[p]])
        assert res.e_embedding == emb
        done += 1
    assert done >= 10


def _hub(ks):
    """Copies of C_k for k in ks glued over the pair {0, 1}."""
    M = LinearSpace(2, [])
    for k in ks:
        M = free_amalgam(M, cycle_Ck(k).space, [0, 1])
    return M


def _on_line(M, line):
    """M plus one new point on `line`; a point on one line keeps K_0."""
    return LinearSpace(M.n + 1, [ln + (M.n,) if ln == line else ln for ln in M.lines])


def _pinned_triples():
    """20 seeded (F, E, D, mu, bound) inputs.  In 12 random K_0 triples
    whose D has a line, both sides put a new point on that line half the
    time, so the free amalgam overfills it.  In 8 more, F holds two
    copies of C_1 over the pair {0, 1} and E holds another one, with
    lines through new points drawn on top, so a step is rejected for a
    cycle code, in some inputs after earlier steps of E were kept."""
    rng = Random(44)
    out = []
    while len(out) < 12:
        D = random_k0(rng, rng.randrange(3, 6))
        if not D.lines:
            continue
        F = grow_k0(rng, D, rng.randrange(1, 5))
        E = grow_k0(rng, D, rng.randrange(1, 5))
        mu = MuFunction(rng.choice([1, 2]))
        if mu.alpha_value == 2 and rng.random() < 0.5:
            F, E = _on_line(F, D.lines[0]), _on_line(E, D.lines[0])
        bound = rng.choice([6, 7, 8])
        if not is_strong(E, range(D.n), range(E.n)).ok:
            continue
        if not in_K_mu_bounded(F, mu, bound)[0] or not in_K_mu_bounded(E, mu, bound)[0]:
            continue
        out.append((F, E, range(D.n), mu, bound))
    while len(out) < 20:
        F, E = _hub((1, 1)), grow_k0(rng, _hub((1,)), rng.randrange(0, 4))
        mu = mu_X(rng.choice([(), (), (1,)]))
        if not is_strong(E, [0, 1], range(E.n)).ok:
            continue
        bound = max(6, *(len(x) for x, _inc in decompose(E, [0, 1])))
        if not in_K_mu_bounded(F, mu, bound)[0] or not in_K_mu_bounded(E, mu, bound)[0]:
            continue
        out.append((F, E, [0, 1], mu, bound))
    return out


# sha256 of repr() of the list of amalgamate_or_identify results on
# _pinned_triples(), each (outcome, ls-v1 text, sorted embedding,
# violations) or ("bound-too-small", message); recorded before the
# bounded recheck reused F's copy grouping
PINNED_AMALGAMS = "c4b2447cd7b1cb15b20b27eaa0400f1fe041ad157984aad4dcf525c3908f822e"


def test_amalgamate_outputs_are_pinned():
    got = []
    for F, E, D, mu, bound in _pinned_triples():
        try:
            res = amalgamate_or_identify(F, E, D, mu, bound)
        except BoundTooSmall as exc:
            got.append(("bound-too-small", str(exc)))
            continue
        got.append((res.outcome, to_ls_v1(res.structure), sorted(res.e_embedding.items()), res.violations))
    outcomes = {g[0] for g in got}
    assert {"free", "identified"} <= outcomes
    assert any(v[0] != "alpha" for g in got if g[0] != "bound-too-small" for v in g[3])
    assert hashlib.sha256(repr(got).encode()).hexdigest() == PINNED_AMALGAMS
