"""Property tests for the five text formats: ls-v1, gp-v1, mu-v1, inc-v1
and trace-v1.

Every writer's output parses back to the object written.  Every text,
whether built from the formats' own words or edited from a valid
serialization, parses to an object or raises FormatError with a line
number of the text (0 when no single row is at fault); no other
exception escapes a parser.  Comment and blank rows, anywhere, and
comments at the end of rows leave every parse as it is.

Examples are derandomized and few, so the suite stays fast and every run
checks the same inputs.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from steinergeom import (
    ALPHA_CODE,
    FormatError,
    MuFunction,
    build,
    canonical_code,
    parse_gp_v1,
    parse_inc_v1,
    parse_ls_v1,
    random_space,
    to_gp_v1,
    to_inc_v1,
    to_ls_v1,
    to_two_sorted,
)
from steinergeom.builder import parse_trace_v1, to_trace_v1
from steinergeom.mu import DEFAULT_POLICY, parse_mu_v1, to_mu_v1
from steinergeom.space import MAX_POINTS

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

seeds = st.integers(0, 2**32 - 1)


def _space(seed):
    rng = Random(seed)
    return random_space(rng, rng.randrange(0, 10))


def _gp(seed):
    rng = Random(seed)
    space = random_space(rng, rng.randrange(1, 9))
    return space, frozenset(rng.sample(range(space.n), rng.randrange(space.n + 1)))


def _mu(seed):
    rng = Random(seed)
    overrides = {}
    for _ in range(rng.randrange(4)):
        code, value = canonical_code(*_gp(rng.randrange(2**32))), rng.randrange(0, 6)
        # alpha's cap is the alpha value, and mu-v1 refuses it as an override
        if code != ALPHA_CODE:
            overrides[code] = value
    return MuFunction(rng.randrange(0, 4), overrides)


def _trace(seed):
    rng = Random(seed)
    return build(MuFunction(rng.randrange(1, 3)), rng.randrange(1, 30), seed=seed, snapshot_every=rng.randrange(0, 12))[1]


# the writer of each format, and a valid object for it from a seed
WRITERS = {
    "ls-v1": (lambda seed: to_ls_v1(_space(seed)), parse_ls_v1),
    "gp-v1": (lambda seed: to_gp_v1(*_gp(seed)), parse_gp_v1),
    "mu-v1": (lambda seed: to_mu_v1(_mu(seed)), parse_mu_v1),
    "inc-v1": (lambda seed: to_inc_v1(to_two_sorted(_space(seed))), parse_inc_v1),
    "trace-v1": (lambda seed: to_trace_v1(_trace(seed)), parse_trace_v1),
}

WORDS = [
    "linear-space", "v1", "points", "line", "base", "alpha", "pair", "default",
    DEFAULT_POLICY, "trace", "seed", "mu", "template-max", "step", "add-point",
    "complete-line", "realize", "identify", "snapshot", "begin", "end", "0:",
    "1:", "-", "#", "gp2.1|0,1,2", "gp0.3|0,1,2", "gp1.2|0,1",
]
# numbers past the point cap, and past the 4,300 digits int() reads
HUGE = [str(MAX_POINTS + 1), "9" * 5000, "0" * 5000 + "3", "-" + "9" * 5000, "gp" + "9" * 5000 + ".1|0,1,2"]
tokens = st.one_of(
    st.sampled_from(WORDS),
    st.integers(-3, 12).map(str),
    st.sampled_from(HUGE),
    st.text(alphabet=" ,|.:#-0123456789agpv\t", max_size=8),
)
rows = st.lists(tokens, max_size=7).map(" ".join)
HEADERS = ["", "linear-space v1", "trace v1", "points 4", "alpha 1"]


@st.composite
def word_texts(draw):
    head = draw(st.sampled_from(HEADERS))
    return "\n".join([head] + draw(st.lists(rows, max_size=8)))


@st.composite
def edited_texts(draw, fmt):
    """A valid serialization with rows dropped, repeated, swapped or
    replaced, and tokens within rows replaced."""
    text = WRITERS[fmt][0](draw(seeds))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append(draw(rows))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        move = draw(st.sampled_from(["drop", "repeat", "swap", "row", "token"]))
        if move == "drop":
            del lines[i]
        elif move == "repeat":
            lines.insert(i, lines[i])
        elif move == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif move == "row":
            lines[i] = draw(rows)
        else:
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(tokens)
            lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def _parses_or_fails_on_a_line(parse, text):
    try:
        parse(text)
    except FormatError as exc:
        assert isinstance(exc.lineno, int)
        assert 0 <= exc.lineno <= len(text.splitlines()), (exc.lineno, text)


@FUZZ
@given(seeds)
def test_ls_v1_round_trips(seed):
    space = _space(seed)
    assert parse_ls_v1(to_ls_v1(space)) == space


@FUZZ
@given(seeds)
def test_gp_v1_round_trips(seed):
    space, base = _gp(seed)
    assert parse_gp_v1(to_gp_v1(space, base)) == (space, base)


@FUZZ
@given(seeds)
def test_mu_v1_round_trips(seed):
    mu = _mu(seed)
    back = parse_mu_v1(to_mu_v1(mu))
    assert (back.alpha_value, back.overrides) == (mu.alpha_value, mu.overrides)


@FUZZ
@given(seeds)
def test_inc_v1_round_trips(seed):
    inc = to_two_sorted(_space(seed))
    assert parse_inc_v1(to_inc_v1(inc)) == inc


@settings(FUZZ, max_examples=20)
@given(seeds)
def test_trace_v1_round_trips(seed):
    trace = _trace(seed)
    assert parse_trace_v1(to_trace_v1(trace)) == trace


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_comments_and_blank_rows_leave_the_parse_as_it_is(fmt):
    write, parse = WRITERS[fmt]
    for seed in range(4):
        text = write(seed)
        # a comment row before the header and after every row, trace
        # snapshot blocks included, each followed by a blank row
        commented = ["# before the header"]
        for i, row in enumerate(text.splitlines()):
            commented += [f"{row}  # row {i}", f"# after row {i}", ""]
        assert parse("\n".join(commented)) == parse(text)


def test_trace_v1_comment_on_a_row_and_before_the_header():
    assert parse_trace_v1("trace v1\nseed 3 # the seed\n").seed == 3
    assert parse_trace_v1("# note\ntrace v1\nseed 3\n").seed == 3


@FUZZ
@given(st.sampled_from(sorted(WRITERS)), word_texts())
def test_texts_from_format_words_parse_or_fail_on_a_line(fmt, text):
    _parses_or_fails_on_a_line(WRITERS[fmt][1], text)


@FUZZ
@given(st.data())
def test_edited_serializations_parse_or_fail_on_a_line(data):
    fmt = data.draw(st.sampled_from(sorted(WRITERS)))
    text = data.draw(edited_texts(fmt))
    _parses_or_fails_on_a_line(WRITERS[fmt][1], text)


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_every_token_replaced_by_a_huge_number_parses_or_fails_on_a_line(fmt):
    write, parse = WRITERS[fmt]
    for seed in range(3):
        lines = write(seed).splitlines()
        for i, row in enumerate(lines):
            parts = row.split()
            for j in range(len(parts)):
                for huge in HUGE:
                    edited = lines[:i] + [" ".join(parts[:j] + [huge] + parts[j + 1:])] + lines[i + 1:]
                    _parses_or_fails_on_a_line(parse, "\n".join(edited) + "\n")
