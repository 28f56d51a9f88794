import time
from collections import Counter
from itertools import combinations
from random import Random

import pytest

from steinergeom import (
    FormatError,
    IncidenceStructure,
    LinearSpace,
    SizeLimit,
    check_matroid_exchange,
    fano,
    matroid_dependent,
    parse_inc_v1,
    random_space,
    to_inc_v1,
    to_one_sorted,
    to_pbd,
    to_pbd_text,
    to_two_sorted,
)
from steinergeom import space as space_module
from steinergeom.cli import main
from steinergeom.errors import TooManyPoints
from steinergeom.space import MAX_POINTS


def test_two_sorted_fano_adds_nothing():
    inc = to_two_sorted(fano())
    assert inc.n == 7 and len(inc.lines) == 7
    assert all(len(ln) == 3 for ln in inc.lines)


def test_two_sorted_materializes_pairs():
    inc = to_two_sorted(LinearSpace(4, [(0, 1, 2)]))
    assert sorted(len(ln) for ln in inc.lines) == [2, 2, 2, 3]
    assert inc.incidences() == 9


def test_round_trip_random():
    rng = Random(71)
    for _ in range(50):
        M = random_space(rng, rng.randrange(3, 10))
        assert to_one_sorted(to_two_sorted(M)) == M


def test_incidence_structure_validation():
    with pytest.raises(ValueError, match="two lines"):
        IncidenceStructure(3, ((0, 1, 2), (0, 1)))
    with pytest.raises(ValueError, match="no line"):
        IncidenceStructure(3, ((0, 1),))
    with pytest.raises(ValueError, match="fewer than 2"):
        IncidenceStructure(2, ((0,), (0, 1)))
    with pytest.raises(ValueError, match="out of range"):
        IncidenceStructure(2, ((0, 2),))


def test_incidence_structure_rejects_a_negative_point_count():
    # before the pair scan, which finds no first missing pair of range(-2)
    with pytest.raises(ValueError, match="point count -2 is negative"):
        IncidenceStructure(-2, ())


def _first_fault_by_pairs(n, lines):
    """IncidenceStructure's error message, found by storing every pair."""
    seen = set()
    for ln in lines:
        if len(ln) < 2:
            return f"line {ln} has fewer than 2 points"
        if list(ln) != sorted(set(ln)):
            return f"line {ln} is not strictly increasing"
        if ln[0] < 0 or ln[-1] >= n:
            return f"line {ln} out of range"
        for pair in combinations(ln, 2):
            if pair in seen:
                return f"pair {pair} lies on two lines"
            seen.add(pair)
    for pair in combinations(range(n), 2):
        if pair not in seen:
            return f"pair {pair} lies on no line"
    return None


def test_incidence_structure_reports_the_first_fault_of_the_pair_scan():
    # two-sorted views of random spaces with long lines (more than 16
    # points) and short ones, then lines dropped, merged or added
    rng = Random(73)
    faults = Counter()
    for _ in range(300):
        n = rng.randrange(2, 48)
        pts = rng.sample(range(n), rng.randrange(2, n + 1))
        base = [tuple(sorted(pts[:16 + 4]))] if len(pts) > 2 else []
        M = LinearSpace(n, [ln for ln in base if len(ln) >= 3])
        lines = list(to_two_sorted(M).lines)
        for _ in range(rng.randrange(3)):
            move = rng.randrange(3)
            if move == 0 and lines:
                lines.pop(rng.randrange(len(lines)))
            elif move == 1 and len(lines) >= 2:
                a, b = rng.sample(lines, 2)
                lines.append(tuple(sorted(set(a) | set(b))))
            else:
                lines.append(tuple(sorted(rng.sample(range(n), rng.randrange(2, min(n, 24) + 1)))))
        lines = sorted(lines) if rng.random() < 0.5 else rng.sample(lines, len(lines))
        want = _first_fault_by_pairs(n, lines)
        if want is None:
            IncidenceStructure(n, tuple(lines))
        else:
            with pytest.raises(ValueError) as exc:
                IncidenceStructure(n, tuple(lines))
            assert str(exc.value) == want
        faults[want.split()[-1] if want else "ok"] += 1
    assert min(faults[k] for k in ("ok", "lines", "line")) >= 20


def test_incidence_structure_checks_one_long_line_without_its_pairs():
    # 5,000 points on one line are 12.5 million pairs, past MAX_PAIRS:
    # the line is refused before any of its pairs is entered
    n = 5000
    line = "line 0: " + " ".join(map(str, range(n))) + "\n"
    start = time.perf_counter()
    for text in (f"points {n}\n{line}", f"points {n + 1}\n{line}", f"points {n}\n{line}line 1: 1 2\n"):
        with pytest.raises(TooManyPoints):
            parse_inc_v1(text)
    assert time.perf_counter() - start < 2.0


def test_two_sorted_view_past_the_pair_cap_is_refused_before_its_lines(tmp_path, capsys):
    # 2,000 points are 1,999,000 pairs, each a line of the view
    start = time.perf_counter()
    with pytest.raises(SizeLimit):
        to_two_sorted(LinearSpace(2000, []))
    assert time.perf_counter() - start < 0.1
    ls = tmp_path / "points.ls"
    ls.write_text("linear-space v1\npoints 2000\n")
    assert main(["convert", str(ls), "--to", "two-sorted"]) == 3
    assert capsys.readouterr().out == ""


def test_the_two_sorted_view_holds_at_most_max_pairs_pairs(monkeypatch):
    monkeypatch.setattr(space_module, "MAX_PAIRS", 10)
    inc = to_two_sorted(LinearSpace(5, [(0, 1, 2)]))
    assert parse_inc_v1(to_inc_v1(inc)) == inc
    assert to_one_sorted(inc) == LinearSpace(5, [(0, 1, 2)])
    with pytest.raises(SizeLimit):
        to_two_sorted(LinearSpace(6, []))
    six = "points 6\n" + "".join(f"line {j}: {a} {b}\n" for j, (a, b) in enumerate(combinations(range(6), 2)))
    with pytest.raises(TooManyPoints):
        parse_inc_v1(six)


def test_pbd_fano():
    rec = to_pbd(fano())
    assert (rec.v, rec.K, rec.lam) == (7, frozenset({3}), 1)
    assert len(rec.blocks) == 7
    text = to_pbd_text(rec)
    assert text.startswith("points 7\nlambda 1\n")
    assert text.count("block ") == 7


def test_matroid_dependent():
    f = fano()
    assert matroid_dependent(f, [0, 1, 2])
    assert not matroid_dependent(f, [0, 1, 3])
    assert matroid_dependent(f, [0, 1, 3, 5])
    assert not matroid_dependent(f, [0, 1])
    with pytest.raises(ValueError):
        matroid_dependent(f, [0, 9])


def test_matroid_exchange_examples():
    assert check_matroid_exchange(fano()) == (True, None)
    assert check_matroid_exchange(LinearSpace(5, [])) == (True, None)
    rng = Random(72)
    for _ in range(15):
        M = random_space(rng, rng.randrange(4, 8))
        assert check_matroid_exchange(M) == (True, None)


def test_matroid_exchange_size_limit():
    with pytest.raises(SizeLimit):
        check_matroid_exchange(LinearSpace(13, []))


def test_inc_v1_roundtrip():
    inc = to_two_sorted(LinearSpace(4, [(0, 1, 2)]))
    assert parse_inc_v1(to_inc_v1(inc)) == inc
    assert parse_inc_v1(to_inc_v1(to_two_sorted(fano()))) == to_two_sorted(fano())


# each text and the line its error is reported on
INC_V1_ERRORS = {
    "": 0,
    "points x\n": 1,
    "points 3\nline 0: 0 1 q\n": 2,
    "points 3\nwhat\n": 2,
    "points -5\n": 1,
    "points +3\nline 0: 0 1 2\n": 1,
    # a pair on two lines: the later of their rows, whichever sorts first
    "points 3\nline 0: 0 1\nline 1: 0 1 2\n": 3,
    "points 3\nline 0: 0 1 2\nline 1: 0 1\n": 3,
    "points 4\nline 0: 0 1\nline 1: 0 2 3\nline 2: 0 1\nline 3: 1 2\n": 4,
    # a bad line: its own row
    "points 4\nline 0: 1 2 3\nline 1: 0\n": 3,
    "points 3\nline 0: 0 2 1\nline 1: 0 1\n": 2,
    "points 3\nline 1: 0 1 2\nline 0: 0 1 5\n": 3,
    # a pair on no line: no row holds it
    "points 4\nline 0: 0 1 2\n": 0,
}


@pytest.mark.parametrize("text", list(INC_V1_ERRORS))
def test_inc_v1_errors(text):
    with pytest.raises(FormatError) as exc:
        parse_inc_v1(text)
    assert exc.value.lineno == INC_V1_ERRORS[text]


@pytest.mark.parametrize(
    "text, error",
    [
        ("# a count below zero\npoints -5\n", FormatError),
        (f"\npoints {MAX_POINTS + 1}\nline 0: 0 1\n", TooManyPoints),
        ("\npoints +3\nline 0: 0 1 2\n", FormatError),
        pytest.param("\npoints " + "1" * 5001 + "\n", TooManyPoints, id="5001-digit count"),
    ],
)
def test_inc_v1_point_count_is_checked_on_its_row(text, error):
    with pytest.raises(error) as exc:
        parse_inc_v1(text)
    assert exc.value.lineno == 2
    if error is TooManyPoints:
        assert isinstance(exc.value, FormatError) and isinstance(exc.value, SizeLimit)
