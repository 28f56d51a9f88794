import pytest
from random import Random

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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "points x\n",
        "points 3\nline 0: 0 1 q\n",
        "points 3\nwhat\n",
        "points 3\nline 0: 0 1\nline 1: 0 1 2\n",
        "points -5\n",
    ],
)
def test_inc_v1_errors(text):
    with pytest.raises(FormatError):
        parse_inc_v1(text)


@pytest.mark.parametrize(
    "text, error",
    [
        ("# a count below zero\npoints -5\n", FormatError),
        (f"\npoints {MAX_POINTS + 1}\nline 0: 0 1\n", TooManyPoints),
    ],
)
def test_inc_v1_point_count_is_checked_on_its_row(text, error):
    with pytest.raises(error) as exc:
        parse_inc_v1(text)
    assert exc.value.lineno == 2
    if error is TooManyPoints:
        assert isinstance(exc.value, FormatError) and isinstance(exc.value, SizeLimit)
