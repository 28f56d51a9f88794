import hashlib

import pytest

from steinergeom import (
    ALPHA_CODE,
    BuildStep,
    FormatError,
    LinearSpace,
    MuFunction,
    build,
    chain_link_pair,
    decode_code,
    default_templates,
    delta,
    free_amalgam,
    is_strong,
    pair_coverage,
    parse_trace_v1,
    stats,
    to_trace_v1,
)
from steinergeom.amalgam import _glue
from steinergeom.errors import SizeLimit, TooManyPoints
from steinergeom.space import MAX_POINTS


def small_build(mu, steps=120, seed=5, **kw):
    return build(mu, steps, seed, **kw)


def test_build_is_deterministic():
    M1, t1 = small_build(MuFunction(1))
    M2, t2 = small_build(MuFunction(1))
    assert M1 == M2
    assert to_trace_v1(t1) == to_trace_v1(t2)
    M3, _ = small_build(MuFunction(1), seed=6)
    assert M1 != M3


def test_build_rejects_invalid_mu():
    with pytest.raises(ValueError):
        build(MuFunction(0), 10, 1)


@pytest.mark.parametrize("steps, template_max, name", [(-5, 10, "steps"), (10, -1, "template_max")])
def test_build_rejects_negative_arguments(steps, template_max, name):
    # the trace of such a build once failed its own parser
    with pytest.raises(ValueError, match=rf"^{name} must be >= 0, not -"):
        build(MuFunction(1), steps, 0, template_max)


@pytest.mark.parametrize(
    "name, kw",
    [
        ("steps", {"steps": True}),
        ("seed", {"seed": 1.5}),
        ("seed", {"seed": True}),
        ("seed", {"seed": "7"}),
        ("template_max", {"template_max": 10.5}),
    ],
)
def test_build_refuses_arguments_that_are_not_ints(name, kw):
    # the trace writes each as an int: `seed 1.5` or `template-max 10.5`
    # fail its parser, and `seed 7` would name a seed that Random("7")
    # does not equal
    args = {"mu": MuFunction(1), "steps": 10, "seed": 0, "template_max": 10, **kw}
    with pytest.raises(TypeError, match=rf"^{name} must be an int, not "):
        build(**args)


@pytest.mark.parametrize("value, exc", [(-3, ValueError), (True, TypeError), (2.5, TypeError)])
def test_build_refuses_a_bad_snapshot_period(value, exc):
    with pytest.raises(exc, match=r"^snapshot_every must be "):
        build(MuFunction(1), 10, 0, snapshot_every=value)


def test_snapshot_period_zero_keeps_only_the_final_snapshot():
    _, trace = build(MuFunction(1), 10, 0, snapshot_every=0)
    assert [i for i, _ in trace.snapshots] == [10]


def test_line_lengths_hit_target():
    for alpha in (1, 2):
        M, _ = small_build(MuFunction(alpha), steps=150)
        assert M.lines, alpha
        assert {len(ln) for ln in M.lines} == {alpha + 2}


def test_build_structure_stays_nonnegative():
    M, _ = small_build(MuFunction(1), steps=150)
    assert delta(M, range(M.n)) >= 0


def test_snapshots_cover_run_and_end_at_result():
    M, trace = small_build(MuFunction(1), steps=250, snapshot_every=50)
    assert [idx for idx, _ in trace.snapshots] == [50, 100, 150, 200, 250, 250]
    assert trace.snapshots[-1][1] == M


def test_coverage_nondecreasing_across_snapshots():
    _, trace = small_build(MuFunction(1), steps=300, snapshot_every=50)
    cov = [pair_coverage(s) for _, s in trace.snapshots]
    assert all(a <= b + 1e-12 for a, b in zip(cov, cov[1:]))


def test_trace_roundtrip():
    _, trace = small_build(MuFunction(2), steps=160)
    back = parse_trace_v1(to_trace_v1(trace))
    assert back.seed == trace.seed
    assert back.mu_hash == trace.mu_hash
    assert back.template_max == trace.template_max
    assert back.steps == trace.steps
    assert back.snapshots == trace.snapshots


def test_trace_step_payload_shapes():
    _, trace = small_build(MuFunction(1), steps=200)
    kinds = {st.kind for st in trace.steps}
    assert "add-point" in kinds and "realize" in kinds
    for st in trace.steps:
        if st.kind in ("realize", "identify"):
            code, base_img, ext_img = st.payload
            assert isinstance(code, str)
            assert isinstance(base_img, tuple) and isinstance(ext_img, tuple)
        else:
            assert all(isinstance(x, int) for x in st.payload)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "not a trace\n",
        "trace v1\nwhat 3\n",
    ],
)
def test_trace_parse_errors(text):
    with pytest.raises(FormatError):
        parse_trace_v1(text)


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("trace v1\nseed\n", 2),
        ("trace v1\nmu\n", 2),
        ("trace v1\nseed 1\ntemplate-max\n", 3),
        ("trace v1\nstep 1\n", 2),
        ("trace v1\nstep 1 realize\n", 2),
        ("trace v1\nstep 1 add-point\n", 2),
        ("trace v1\nseed x\n", 2),
        ("trace v1\nstep 1 complete-line 0 1 y\n", 2),
        ("trace v1\nsnapshot x begin\nsnapshot end\n", 2),
        ("trace v1\nseed 1\nsnapshot 5 begin\nlinear-space v1\npoints 3\n", 3),
        ("trace v1\nsnapshot 5 begin\nlinear-space v1\npoints 3\nline 0 1 5\nsnapshot end\n", 5),
    ],
)
def test_trace_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(FormatError) as exc:
        parse_trace_v1(text)
    assert exc.value.lineno == lineno


def test_trace_snapshot_over_the_point_cap_stays_a_size_limit():
    text = f"trace v1\nsnapshot 0 begin\nlinear-space v1\npoints {MAX_POINTS + 1}\nsnapshot end\n"
    with pytest.raises(TooManyPoints) as exc:
        parse_trace_v1(text)
    assert exc.value.lineno == 4
    assert isinstance(exc.value, SizeLimit)


@pytest.mark.parametrize("alpha", [3, 4])
def test_every_step_index_records_one_step(alpha):
    # a line still short after a completion is queued once, so no queued
    # task pops as a no-op step
    M, trace = build(MuFunction(alpha), 400, 7)
    counts = [0] * 400
    for st in trace.steps:
        if st.index < 400:
            counts[st.index] += 1
    assert counts == [1] * 400
    assert {len(ln) for ln in M.lines} == {alpha + 2}


# sha256 of to_trace_v1(build(MuFunction(alpha), 1000, seed=7)); a change
# to the search or commit machinery must leave every trace byte as it is
PINNED_TRACES = {
    1: "f4fd128d98dac54f26430a16a96a4a91152efd7339029ae4360cd88fa23c32a6",
    2: "0ab0b81eb6899e842929bd3801b7a87e773249d77b1698fa880e8be7b79b23ff",
    3: "a803b5cdb4d969a505ee021206ae77300ab7be4572e76ef14605bdec5e17ed47",
}


@pytest.mark.parametrize("alpha", sorted(PINNED_TRACES))
def test_build_trace_is_pinned(alpha):
    _, trace = build(MuFunction(alpha), 1000, seed=7)
    digest = hashlib.sha256(to_trace_v1(trace).encode()).hexdigest()
    assert digest == PINNED_TRACES[alpha]


def _replay(trace, alpha):
    """The structures a parsed trace passes through, the empty space
    first and one more after each step, rebuilt with with_lines and _glue
    from the default templates keyed by code.  Checks on the way that the
    snapshots are passed through, that each completion extends a short
    line, that alpha meets only full lines, and that each realization
    adds exactly the points it records."""
    target = alpha + 2
    templates = {gp.code: gp for gp in default_templates(trace.template_max)}
    # the last snapshot is the result, taken after the drained completions
    *snapshots, (_, result) = trace.snapshots
    cur = LinearSpace(0, [])
    out = [cur]
    for st in trace.steps:
        # snapshot s is taken after the steps with index below s
        while snapshots and snapshots[0][0] <= st.index:
            assert snapshots.pop(0)[1] == cur
        if st.kind == "add-point":
            assert st.payload == (cur.n,)
            cur = cur.with_lines(cur.n + 1)
        elif st.kind == "complete-line":
            a, b, pid = st.payload
            ln = cur.line_through(a, b)
            assert ln is not None and len(ln) < target and pid == cur.n
            cur = cur.with_lines(pid + 1, add=[ln + (pid,)], drop=[ln])
        else:
            code, base_img, ext = st.payload
            if code == ALPHA_CODE:
                assert all(len(ln) == target for ln in cur.lines)
            if st.kind == "realize":
                gp = templates[code]
                G, _ = _glue(cur, gp.space, dict(zip(sorted(gp.base), base_img)))
                assert ext == tuple(range(cur.n, G.n))
                cur = G
        out.append(cur)
    assert [s for _, s in snapshots] + [result] == [cur] * (len(snapshots) + 1)
    return out


@pytest.mark.parametrize("template_max", [10, 14])
@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("seed", [3, 11])
def test_replayed_trace_keeps_one_completion_queue(alpha, seed, template_max):
    M, trace = build(MuFunction(alpha), 600, seed, template_max)
    kinds = {st.kind for st in trace.steps}
    # alpha 1 makes every line full at once
    assert {"add-point", "realize"} | ({"complete-line"} if alpha > 1 else set()) <= kinds
    assert _replay(parse_trace_v1(to_trace_v1(trace)), alpha)[-1] == M


@pytest.mark.parametrize("alpha", [1, 2])
def test_every_build_step_is_a_strong_extension(alpha):
    _, trace = build(MuFunction(alpha), 300, 7)
    chain = _replay(trace, alpha)
    for prev, nxt in zip(chain, chain[1:]):
        assert is_strong(nxt, range(prev.n), range(nxt.n)).ok


def test_no_default_template_has_a_line_through_two_base_points():
    # so a template realization adds only new lines, none of them queued
    # yet; alpha's one line is new because alpha takes an uncovered pair
    for gp in default_templates(30)[1:]:
        assert gp.code != ALPHA_CODE
        assert all(len(gp.base.intersection(ln)) < 2 for ln in gp.space.lines), gp.code


def test_default_templates():
    tpls = default_templates(10)
    codes = [gp.code for gp in tpls]
    assert codes[0] == ALPHA_CODE
    assert len(codes) == len(set(codes))
    assert all(gp.space.n <= 10 for gp in tpls)
    # raising the cap only adds templates
    assert set(codes) <= {gp.code for gp in default_templates(14)}


def test_chain_link_pair_shape():
    gp = chain_link_pair()
    assert gp.base == frozenset({0, 1, 2})
    assert len(gp.ext) == 3
    assert gp.code.startswith("gp3.3")
    assert delta(gp.space, range(6)) == delta(gp.space, sorted(gp.base))


def test_stats_keys():
    M, _ = small_build(MuFunction(1), steps=100)
    st = stats(M, MuFunction(1), bound=6)
    assert set(st) == {
        "line_length_histogram",
        "pair_coverage",
        "chi_saturation",
        "violations",
    }
    assert st["violations"] == []
    assert st["line_length_histogram"].get(3, 0) == len(M.lines)


def test_stats_sees_no_alpha_group_below_its_size():
    line5 = LinearSpace(5, [(0, 1, 2, 3, 4)])
    assert stats(line5, MuFunction(1), bound=2)["chi_saturation"] == {}
    assert stats(line5, MuFunction(1), bound=3)["chi_saturation"] == {ALPHA_CODE: 3.0}


# sha256 of repr(stats(build(MuFunction(alpha), steps, seed)[0], ...)),
# key order and float bits included
PINNED_STATS = {
    (1, 120, 5, 6): "b5a45cc5c381208544d1645e40cd9af68df8167ed64a74a4ceaa28a6c2708203",
    (2, 150, 7, 8): "56b51b7edd5597f8c6ef1b5e33b4a9d23480b3e66a69edbf78d401c287284d0d",
}


@pytest.mark.parametrize("alpha, steps, seed, bound", sorted(PINNED_STATS))
def test_stats_is_pinned(alpha, steps, seed, bound):
    M, _ = build(MuFunction(alpha), steps, seed)
    st = stats(M, MuFunction(alpha), bound=bound)
    digest = hashlib.sha256(repr(st).encode()).hexdigest()
    assert digest == PINNED_STATS[(alpha, steps, seed, bound)]


def test_stats_counts_copies_over_the_base_pointwise():
    # a pair whose two base points play different roles, glued twice over
    # {0, 1} with the roles swapped: each copy is over the base only in
    # its own orientation, so chi is 1 at that base, not 2
    code = "gp2.5|0,2,4|0,3,5|1,2,3,6|4,5,6"
    space, _ = decode_code(code)
    swapped = LinearSpace(space.n, [[{0: 1, 1: 0}.get(p, p) for p in ln] for ln in space.lines])
    M = free_amalgam(free_amalgam(LinearSpace(2, []), space, [0, 1]), swapped, [0, 1])
    st = stats(M, MuFunction(1), bound=7)
    assert st["chi_saturation"][code] == 0.5
    digest = hashlib.sha256(repr(st).encode()).hexdigest()
    assert digest == "efcf1d2b38959783f14680e8147406a3cb1c0f448800813cd128c587e3363b90"


def test_build_step_indices_increase():
    _, trace = small_build(MuFunction(1), steps=140)
    idx = [st.index for st in trace.steps]
    assert idx == sorted(idx)
    assert isinstance(trace.steps[0], BuildStep)
