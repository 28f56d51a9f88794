"""Every public call that takes point ids refuses an id outside 0..n-1
with a ValueError naming it, before any search."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from steinergeom import (
    GoodPair,
    LinearSpace,
    MuFunction,
    alpha_pair,
    amalgamate_or_identify,
    bases_of,
    canonical_code,
    check_flatness,
    chi,
    copies_over_base,
    cycle_Ck,
    cycle_graph,
    d,
    d_closure,
    decompose,
    delta,
    delta_rel,
    fano,
    free_amalgam,
    icl,
    in_K_mu_bounded,
    induced,
    is_good_pair,
    is_primitive,
    is_strong,
    lines_based_in,
    matroid_dependent,
    mu_X,
)
from steinergeom.primitives import embeddings_over_base

ROOT = Path(__file__).resolve().parent.parent
F = fano()
LINE = LinearSpace(3, [(0, 1, 2)])
# two lines through 2: the E of the amalgamation escape
E = LinearSpace(6, [(0, 1, 2), (2, 3, 4)])

# name -> (n, call): call(p) passes p where the call takes a point of a
# space on n points
ENTRY_POINTS = {
    "delta": (7, lambda p: delta(F, [0, p])),
    "delta_rel X": (7, lambda p: delta_rel(F, [p], [0])),
    "delta_rel B": (7, lambda p: delta_rel(F, [0], [p])),
    "induced": (7, lambda p: induced(F, [0, p])),
    "lines_based_in": (7, lambda p: lines_based_in(F, [0, p])),
    "is_strong lo": (7, lambda p: is_strong(F, [p], range(7))),
    "is_strong hi": (7, lambda p: is_strong(F, [0], [0, p])),
    "icl": (7, lambda p: icl(F, [p])),
    "d": (7, lambda p: d(F, [p])),
    "d_closure": (7, lambda p: d_closure(F, [0, p])),
    "check_flatness delta": (7, lambda p: check_flatness(F, [[0, 1, p], [0, 1, 2]])),
    "check_flatness d": (7, lambda p: check_flatness(F, [[0, 1, p], [0, 1, 2]], mode="d")),
    "is_primitive": (7, lambda p: is_primitive(F, [0, p])),
    "is_good_pair": (7, lambda p: is_good_pair(F, [0, 1], [2, p])),
    "bases_of": (7, lambda p: bases_of(F, [0, 1], [2, p])),
    "decompose": (7, lambda p: decompose(F, [0, p])),
    "canonical_code": (7, lambda p: canonical_code(F, [0, p])),
    "GoodPair": (7, lambda p: GoodPair(F, [0, p])),
    "embeddings_over_base base": (3, lambda p: embeddings_over_base(F, LINE, [0, p], {0: 0, p: 1})),
    "embeddings_over_base key": (3, lambda p: embeddings_over_base(F, LINE, [0, 1], {0: 0, 1: 1, p: 2})),
    "embeddings_over_base image": (7, lambda p: embeddings_over_base(F, LINE, [0, 1], {0: 0, 1: p})),
    "copies_over_base": (7, lambda p: copies_over_base(F, LINE, [0, 1], {0: 0, 1: p})),
    "chi": (7, lambda p: chi(F, alpha_pair(), {0: 0, 1: p})),
    "free_amalgam past F": (3, lambda p: free_amalgam(LINE, E, [0, 1, p])),
    "free_amalgam past E": (3, lambda p: free_amalgam(E, LINE, [0, 1, p])),
    "amalgamate_or_identify": (3, lambda p: amalgamate_or_identify(LINE, E, [0, 1, p], MuFunction(2), 7)),
    "in_K_mu_bounded touching": (7, lambda p: in_K_mu_bounded(F, MuFunction(1), 3, touching=[p])),
    "matroid_dependent": (7, lambda p: matroid_dependent(F, [0, p])),
    "cycle_graph": (7, lambda p: cycle_graph(F, 0, p)),
}


@pytest.mark.parametrize("end", ["n", "-1"])
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_an_id_outside_the_points_is_a_value_error_naming_it(name, end):
    n, call = ENTRY_POINTS[name]
    p = n if end == "n" else -1
    with pytest.raises(ValueError) as exc:
        call(p)
    assert str(exc.value) == f"point {p} out of range 0..{n - 1}"


def _three_c1_over_a_pair():
    M = LinearSpace(2, [])
    for _ in range(3):
        M = free_amalgam(M, cycle_Ck(1).space, [0, 1])
    return M


C1 = cycle_Ck(1)

# the calls that once raised another exception, hung or answered
# wrongly, and the id each must now name
ESCAPES = [
    (lambda: is_strong(F, [0], [0, 7]), 7),
    (lambda: is_good_pair(F, [0, 1], [2, 9]), 9),
    (lambda: bases_of(F, [0, 1], [2, 9]), 9),
    (lambda: copies_over_base(C1.space, C1.space, C1.base, dict(zip(sorted(C1.base), (30, 40)))), 30),
    (lambda: canonical_code(F, [0, 100]), 100),
    (lambda: GoodPair(F, [0, 100]), 100),
    (lambda: chi(F, alpha_pair(), {0: 0, 1: 100}), 100),
    (lambda: check_flatness(F, [[0, 1, 100], [0, 1, 2]]), 100),
    (lambda: in_K_mu_bounded(_three_c1_over_a_pair(), mu_X([]), 10, touching=[100]), 100),
    (lambda: icl(F, [7]), 7),
    (lambda: d(F, [-1]), -1),
]


@pytest.mark.parametrize("i", range(len(ESCAPES)))
def test_calls_that_escaped_the_id_rule_name_the_id(i):
    call, p = ESCAPES[i]
    with pytest.raises(ValueError, match=rf"^point {p} out of range "):
        call()


def test_min_delta_interval_refuses_masks_outside_the_points():
    # the search once looped forever on a negative mask, so it runs in a
    # child process that the timeout can stop
    code = (
        "from steinergeom import fano, min_delta_interval\n"
        "for lo, hi in ((0, -1), (0, 1 << 7), (-1, 3), (1 << 7, 1 << 7)):\n"
        "    try:\n"
        "        min_delta_interval(fano(), lo, hi)\n"
        "    except ValueError as exc:\n"
        "        print('refused', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("refused") == 4


def test_chi_needs_a_base_map_from_exactly_the_base_into_the_points():
    with pytest.raises(ValueError, match=r"^point 100 out of range 0\.\.6$"):
        chi(F, alpha_pair(), {0: 0, 1: 100})
    # a missing base point once counted 6 copies, an extra key 0
    with pytest.raises(ValueError, match=r"maps \[0\], not the base \[0, 1\]"):
        chi(F, alpha_pair(), {0: 0})
    with pytest.raises(ValueError, match=r"maps \[0, 1, 2\], not the base \[0, 1\]"):
        chi(F, alpha_pair(), {0: 0, 1: 1, 2: 2})
    assert chi(F, alpha_pair(), {0: 0, 1: 1}) == 1


def test_amalgamation_needs_the_shared_points_in_both_sides():
    # 5 is a point of E only; the free amalgam once sent E's 4 and 5 both to 5
    with pytest.raises(ValueError, match=r"^point 5 out of range 0\.\.2$"):
        amalgamate_or_identify(LINE, E, [0, 1, 5], MuFunction(2), 7)
