"""The five text formats read what their writers write, and nothing else.

Each refused text raises FormatError on the row at fault; every text a
writer writes, the drained steps of a build and a repeated last snapshot
index included, parses back to the object written; lines on more point
pairs than MAX_PAIRS are refused before any pair is entered.
"""

import time

import pytest

from steinergeom import MuFunction, build, parse_gp_v1, parse_inc_v1, parse_ls_v1
from steinergeom import space as space_module
from steinergeom.builder import parse_trace_v1, to_trace_v1
from steinergeom.cli import main
from steinergeom.errors import FormatError, SizeLimit, TooManyPoints
from steinergeom.mu import DEFAULT_POLICY, mu_X, parse_mu_v1, to_mu_v1
from steinergeom.space import LinearSpace

SNAPSHOT = "linear-space v1\npoints 0\nsnapshot end\n"

# each refused text, its parser and the row reported
REFUSED = [
    ("trace-v1", "trace v1\nsnapshot 5 junk begin\n" + SNAPSHOT, 2),
    ("trace-v1", "trace v1\nseed 1\nseed 2\n", 3),
    ("trace-v1", "trace v1\nmu 0a\nmu 0b\n", 3),
    ("trace-v1", "trace v1\ntemplate-max 10\ntemplate-max 10\n", 3),
    ("trace-v1", "trace v1\nstep 3 add-point 0\nstep 1 add-point 1\n", 3),
    ("trace-v1", "trace v1\nstep 0 add-point 0 1\n", 2),
    ("trace-v1", "trace v1\nsnapshot 5 begin\n" + SNAPSHOT + "snapshot 4 begin\n" + SNAPSHOT, 6),
    ("gp-v1", "linear-space v1\npoints 3\nbaseline 1 2\n", 3),
    ("gp-v1", "linear-space v1\npoints 3\nbaseline 1 2\nbase 1 2\n", 3),
    ("gp-v1", "linear-space v1\npoints 3\nline 0 1 2\nbase 1 1\n", 4),
    ("mu-v1", "alpha 1\nalpha 2\n", 2),
    ("mu-v1", f"alpha 1\ndefault {DEFAULT_POLICY}\ndefault {DEFAULT_POLICY}\n", 3),
    ("mu-v1", "alpha 1\npair gp2.2|0,1,3 3\npair gp2.2|0,1,3 4\n", 3),
    ("inc-v1", "points 2\npoints 3\nline 0: 0 1\n", 2),
    # integers: ASCII digits only, as the writers write them
    ("ls-v1", "linear-space v1\npoints 11\nline 0 +1 1_0\n", 3),
    ("ls-v1", "linear-space v1\npoints 3\nline 0 1 \u0662\n", 3),
    ("ls-v1", "linear-space v1\npoints \u0663\n", 2),
    ("mu-v1", "alpha \u0662\n", 1),
    # a code past DEFAULT_CODE_LIMIT points is kept as written
    ("mu-v1", "alpha 1\npair gp2.15|0,1,+2 3\n", 2),
    ("gp-v1", "linear-space v1\npoints 3\nline 0 1 2\nbase +0 1\n", 4),
    ("trace-v1", "trace v1\nseed 1_000\n", 2),
    ("trace-v1", "trace v1\nstep +3 add-point 0\n", 2),
    ("inc-v1", "points 3\nline 0: 0 1 +2\n", 2),
]
PARSERS = {
    "ls-v1": parse_ls_v1,
    "gp-v1": parse_gp_v1,
    "mu-v1": parse_mu_v1,
    "inc-v1": parse_inc_v1,
    "trace-v1": parse_trace_v1,
}


@pytest.mark.parametrize("fmt, text, row", REFUSED)
def test_a_text_no_writer_writes_is_refused_on_its_row(fmt, text, row):
    with pytest.raises(FormatError) as exc:
        PARSERS[fmt](text)
    assert exc.value.lineno == row


def test_trace_v1_round_trips_with_repeated_indices():
    # build gives every completion drained after its loop the index
    # `steps`, and repeats the last snapshot's index when snapshot_every
    # divides `steps`; both must read back
    repeated_steps = repeated_snapshots = 0
    for alpha in (1, 2, 3, 4):
        for seed in range(4):
            for every in (0, 1, 7, 50, 100):
                trace = build(MuFunction(alpha), 300, seed=seed, snapshot_every=every)[1]
                assert parse_trace_v1(to_trace_v1(trace)) == trace
                steps = [st.index for st in trace.steps]
                snaps = [i for i, _ in trace.snapshots]
                repeated_steps += steps != sorted(set(steps))
                repeated_snapshots += snaps != sorted(set(snaps))
    assert repeated_steps and repeated_snapshots


def test_trace_v1_round_trips_a_negative_seed():
    trace = build(MuFunction(1), 20, seed=-3)[1]
    assert "\nseed -3\n" in to_trace_v1(trace)
    assert parse_trace_v1(to_trace_v1(trace)) == trace


@pytest.mark.parametrize("X", [[], [1], [1, 2], [2, 3]])
def test_mu_x_round_trips(X):
    mu = mu_X(X, 2)
    assert parse_mu_v1(to_mu_v1(mu)) == mu


def test_lines_past_the_pair_cap_are_refused_before_their_pairs():
    # 5,000 points on one line are 12.5 million pairs
    n = 5000
    line = " ".join(map(str, range(n)))
    start = time.perf_counter()
    for parse, text, row in [
        (parse_ls_v1, f"linear-space v1\npoints {n}\nline {line}\n", 3),
        (parse_gp_v1, f"linear-space v1\npoints {n}\nline {line}\nbase\n", 3),
        (parse_mu_v1, f"alpha 1\npair gp0.{n}|{line.replace(' ', ',')} 3\n", 2),
        (parse_inc_v1, f"points {n}\nline 0: {line}\n", 2),
    ]:
        with pytest.raises(TooManyPoints) as exc:
            parse(text)
        assert exc.value.lineno == row
    assert time.perf_counter() - start < 2.0


def test_the_pair_cap_counts_the_pairs_a_commit_keeps(monkeypatch):
    monkeypatch.setattr(space_module, "MAX_PAIRS", 10)
    with pytest.raises(SizeLimit):
        LinearSpace(6, [(0, 1, 2, 3, 4, 5)])
    four = LinearSpace(8, [(0, 1, 2, 3)])
    assert four.with_lines(8, add=[(4, 5, 6)]).lines == ((0, 1, 2, 3), (4, 5, 6))
    with pytest.raises(SizeLimit):
        four.with_lines(8, add=[(4, 5, 6, 7)])
    assert four.with_lines(8, add=[(4, 5, 6, 7)], drop=[(0, 1, 2, 3)]).lines == ((4, 5, 6, 7),)


def test_cli_exits_3_past_the_pair_cap(tmp_path):
    n = 5000
    inc = tmp_path / "line.inc"
    inc.write_text(f"points {n}\nline 0: " + " ".join(map(str, range(n))) + "\n")
    assert main(["convert", str(inc), "--to", "one-sorted"]) == 3
    ls = tmp_path / "line.ls"
    ls.write_text(f"linear-space v1\npoints {n}\nline " + " ".join(map(str, range(n))) + "\n")
    assert main(["validate", str(ls)]) == 3
