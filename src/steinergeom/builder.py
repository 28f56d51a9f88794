"""Seeded construction of finite structures approximating the generic.

The loop services three kinds of tasks round-robin: complete short
lines to the target length mu(alpha)+2 with fresh points, realize
good-pair templates over randomly chosen bases, and add fresh isolated
points.  A commit queues each short line it makes, and a queued line
grows only through its own completion, so a popped line is always
short.  Realizations run only on an empty queue, where every line is
full: alpha's line (a, b, pid) is new, and so is each template line,
since no default template has a line through two of its base points.
Every structural change is a free amalgam of a strong small extension,
so the growing structure stays a strong extension chain and line
lengths stay legal by construction; a realization that would push chi
of its own code past the mu cap at that base is identified with the
least existing copy instead.

A step costs what it adds.  Commits go through LinearSpace.with_lines.
An add-point commit shares the parent's lines and pair index and pads
the degrees.  A line commit copies them, validates only the new lines
against the pairs already covered, splices them into the sorted line
list and patches the degrees that the base and alpha choices read.  The
copy search behind the mu cap refuses a base image on fewer lines than
its base point, so with pick_base's bases (points on at most one line)
C_1 and C_2 are decided before any walk; otherwise it reaches each copy
through one leaf.  Global bounded checks are snapshot-time work for
callers, not a per-step gate.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from random import Random
from typing import Optional

from .amalgam import _glue
from .errors import FormatError, check_int
from .gallery import cycle_Ck, D_k, fano_chain
from .mu import MuFunction, _copy_groups_full, in_K_mu_bounded, to_mu_v1, validate_mu
from .primitives import ALPHA_CODE, ALPHA_SIZE, GoodPair, _group_chi, _max_disjoint, alpha_pair
from .primitives import copies_over_base
from .space import LinearSpace, _content_lines, _int, _ls_v1_rows, _row
from .space import induced, pair_coverage, preserves_lines, to_ls_v1

DEFAULT_TEMPLATE_MAX = 10
ADD_POINT_EVERY = 25


@dataclass(frozen=True)
class BuildStep:
    index: int
    kind: str  # add-point | complete-line | realize | identify
    payload: tuple


@dataclass
class BuildTrace:
    seed: int
    template_max: int
    mu_hash: str
    steps: list[BuildStep] = field(default_factory=list)
    snapshots: list[tuple[int, LinearSpace]] = field(default_factory=list)


def chain_link_pair() -> GoodPair:
    """The 0-primitive step of the Fano chain: three points over a
    non-collinear triangle, tied by three lines."""
    a1 = fano_chain(1)[1]
    pts = [0, 1, 3, 7, 8, 9]
    sub = induced(a1, pts)
    return GoodPair(sub, (0, 1, 2))


def default_templates(template_max: int) -> list[GoodPair]:
    out = [alpha_pair(), chain_link_pair()]
    k = 1
    while 4 * k + 2 <= template_max:
        out.append(cycle_Ck(k))
        k += 1
    k = 1
    while 4 * k + 3 <= template_max:
        out.append(D_k(k))
        k += 1
    return [gp for gp in out if gp.space.n <= template_max]


def build(
    mu: MuFunction,
    steps: int,
    seed: int,
    template_max: int = DEFAULT_TEMPLATE_MAX,
    *,
    snapshot_every: int = 100,
) -> tuple[LinearSpace, BuildTrace]:
    # the trace writes each as an int, which a str or a float seed would
    # misname, and holds no negative step count, template bound or
    # snapshot period; a period of 0 takes no snapshots in the loop
    checked = dict(steps=steps, seed=seed, template_max=template_max, snapshot_every=snapshot_every)
    for name, value in checked.items():
        check_int(name, value, signed=name == "seed")
    ok, reasons = validate_mu(mu)
    if not ok:
        raise ValueError("invalid mu: " + "; ".join(reasons))
    rng = Random(seed)
    target_len = mu.line_length()
    # a new point on one line covers at most target_len - 1 pairs, so
    # pair coverage climbs only while the structure stays sparse; a long
    # point-only prefix keeps it below that threshold for the rest of the
    # run
    warmup = 3 * steps // 5
    trace = BuildTrace(
        seed=seed,
        template_max=template_max,
        mu_hash=hashlib.md5(to_mu_v1(mu).encode()).hexdigest(),
    )
    cur = LinearSpace(0, [])
    complete_q: deque[tuple[int, int]] = deque()
    big_templates = [gp for gp in default_templates(template_max) if gp.code != ALPHA_CODE]
    realize_count = 0

    def commit(candidate: LinearSpace, added: list[tuple[int, ...]]) -> None:
        # the short lines the commit adds are queued in line order
        nonlocal cur
        cur = candidate
        for ln in sorted(added):
            if len(ln) < target_len:
                complete_q.append((ln[0], ln[1]))

    def service_add_point(i: int) -> None:
        nonlocal cur
        pid = cur.n
        cur = cur.with_lines(cur.n + 1)
        trace.steps.append(BuildStep(i, "add-point", (pid,)))

    def service_complete(i: int, task: tuple[int, int]) -> None:
        # a fresh point on the line; commit() queues it again while short
        a, b = task
        ln = cur.line_through(a, b)
        pid = cur.n
        commit(cur.with_lines(pid + 1, add=[ln + (pid,)], drop=[ln]), [ln + (pid,)])
        trace.steps.append(BuildStep(i, "complete-line", (a, b, pid)))

    def pick_base(gp: GoodPair) -> Optional[dict[int, int]]:
        # the eighth realization, the first of a template, comes at step
        # warmup + 8 or later; that needs steps >= 21, so warmup >= 12 and
        # cur holds 13 or more points, past any default template's 3
        nb = len(gp.base)
        if nb == 0:
            return {}
        base_sorted = sorted(gp.base)
        for _ in range(40):
            img = rng.sample(range(cur.n), nb)
            # realizing piles the template's lines onto the base image, so
            # keep bases on sparse points; dense tangles make the bounded
            # checks expensive
            if any(cur.degrees[p] > 1 for p in img):
                continue
            base_map = dict(zip(base_sorted, img))
            if preserves_lines(gp.space, cur, base_map):
                return base_map
        return None

    def service_alpha(i: int) -> None:
        # a realization comes after warmup + 1 >= 2 add-point steps
        fallback = None
        for _ in range(40):
            a, b = sorted(rng.sample(range(cur.n), 2))
            ln = cur.line_through(a, b)
            if ln is None:
                if any(cur.degrees[p] >= 4 for p in (a, b)):
                    continue
                pid = cur.n
                commit(cur.with_lines(pid + 1, add=[(a, b, pid)]), [(a, b, pid)])
                trace.steps.append(BuildStep(i, "realize", (ALPHA_CODE, (a, b), (pid,))))
                return
            fallback = (a, b, ln)
        if fallback is not None:
            a, b, ln = fallback
            third = min(p for p in ln if p not in (a, b))
            trace.steps.append(BuildStep(i, "identify", (ALPHA_CODE, (a, b), (third,))))

    def service_realize(i: int) -> None:
        nonlocal realize_count
        realize_count += 1
        if realize_count % 8 or not big_templates:
            # alpha alternates with the larger templates: new lines through
            # uncovered pairs keep pair coverage climbing
            service_alpha(i)
            return
        gp = big_templates[(realize_count // 8 - 1) % len(big_templates)]
        base_map = pick_base(gp)
        if base_map is None:
            return
        base_img = tuple(base_map[b] for b in sorted(base_map))
        # local mu cap for this code at this base: one more disjoint copy
        # must still fit (line lengths stay legal by construction, and the
        # global bounded check runs on snapshots, not per step)
        copies = copies_over_base(cur, gp.space, gp.base, base_map)
        if _max_disjoint(copies) + 1 > mu.value(gp.code):
            # copies_over_base lists them sorted, least first
            trace.steps.append(BuildStep(i, "identify", (gp.code, base_img, tuple(sorted(copies[0])))))
            return
        candidate, _ = _glue(cur, gp.space, base_map)
        new_pts = tuple(range(cur.n, candidate.n))  # _glue numbers them from cur.n
        # the glued lines are the ones through a new point
        commit(candidate, [ln for ln in candidate.lines if ln[-1] >= cur.n])
        trace.steps.append(BuildStep(i, "realize", (gp.code, base_img, new_pts)))

    for i in range(steps):
        if i < warmup or (i - warmup) % ADD_POINT_EVERY == 0:
            service_add_point(i)
        elif complete_q:
            service_complete(i, complete_q.popleft())
        else:
            service_realize(i)
        if snapshot_every and (i + 1) % snapshot_every == 0:
            trace.snapshots.append((i + 1, cur))

    # drain pending completions so every line reaches the target length
    while complete_q:
        service_complete(steps, complete_q.popleft())
    if steps:
        trace.snapshots.append((steps, cur))
    return cur, trace


def stats(M: LinearSpace, mu: MuFunction, *, bound: int = 6) -> dict:
    """Line-length histogram, pair coverage, and per-code chi/mu ratios.

    The ratios are averaged over the (code, base image) groups of good
    pairs of size <= bound, taken in the order in which
    enumerate_good_pairs lists each group's first pair.  The groups come
    from the grouping in_K_mu_bounded has just made, and the alpha groups
    are the point pairs of each line when bound >= ALPHA_SIZE.  A group's
    chi is the bounded check's: primitives._group_chi, the largest over
    the maps of the code's base onto the image.  Alpha needs no search:
    the copies over a pair of a line are the line's other points, one
    point each, so chi is len(line) - 2.
    """
    hist: dict[int, int] = {}
    for ln in M.lines:
        hist[len(ln)] = hist.get(len(ln), 0) + 1
    _, violations = in_K_mu_bounded(M, mu, bound)
    # (points of the group's first pair, base image, code, chi)
    groups: list[tuple[list[int], list[int], str, int]] = []
    for ln in M.lines if bound >= ALPHA_SIZE else ():
        for a, b in combinations(ln, 2):
            groups.append((sorted((a, b, min(set(ln) - {a, b}))), [a, b], ALPHA_CODE, len(ln) - 2))
    for (code, img), copies in _copy_groups_full(M, bound).items():
        chi_val = _group_chi(M, code, img, _max_disjoint(copies))[0]
        groups.append((min(sorted(img | c) for c in copies), sorted(img), code, chi_val))
    groups.sort()

    saturation: dict[str, float] = {}
    counts: dict[str, int] = {}
    for _pts, _img, code, chi_val in groups:
        saturation[code] = saturation.get(code, 0.0) + chi_val / max(mu.value(code), 1)
        counts[code] = counts.get(code, 0) + 1
    for code in saturation:
        saturation[code] /= counts[code]
    return {
        "line_length_histogram": hist,
        "pair_coverage": pair_coverage(M),
        "chi_saturation": saturation,
        "violations": violations,
    }


# -- trace-v1 text format ----------------------------------------------

def to_trace_v1(trace: BuildTrace) -> str:
    out = [
        "trace v1",
        f"seed {trace.seed}",
        f"mu {trace.mu_hash}",
        f"template-max {trace.template_max}",
    ]
    for st in trace.steps:
        out.append(f"step {st.index} {st.kind} {_payload_str(st.payload)}")
    for idx, snap in trace.snapshots:
        out.append(f"snapshot {idx} begin")
        out.append(to_ls_v1(snap).rstrip("\n"))
        out.append("snapshot end")
    return "\n".join(out) + "\n"


def _payload_str(payload: tuple) -> str:
    parts = []
    for item in payload:
        if isinstance(item, tuple):
            parts.append(",".join(str(x) for x in item) if item else "-")
        else:
            parts.append(str(item))
    return " ".join(parts)


def parse_trace_v1(text: str) -> BuildTrace:
    """The header, at most one `seed`, `mu` and `template-max` row each,
    the step rows and the snapshot blocks.  Step indices never fall, nor
    do snapshot indices: build gives each completion drained after its
    loop the index `steps`, and repeats the last snapshot's index when
    snapshot_every divides `steps`."""
    rows = _content_lines(text)
    lineno, header = next(rows, (0, None))
    if header != "trace v1":
        raise FormatError(lineno, "empty input" if header is None else "expected 'trace v1' header")
    trace = BuildTrace(seed=0, template_max=0, mu_hash="")
    seen: set[str] = set()
    last = {"step": 0, "snapshot": 0}

    def index(kind: str, token: str) -> int:
        i = _int(token, f"{kind} index")
        if i < last[kind]:
            raise ValueError(f"{kind} index {token} falls below {last[kind]}")
        last[kind] = i
        return i

    def ids(tokens: list[str]) -> tuple[int, ...]:
        return tuple(_int(x, "point id") for x in tokens)

    for lineno, row in rows:
        with _row(lineno):
            match fields := row.split():
                case ["seed", value] if "seed" not in seen:
                    trace.seed = _int(value, "seed", signed=True)
                case ["mu", value] if "mu" not in seen:
                    trace.mu_hash = value
                case ["template-max", value] if "template-max" not in seen:
                    trace.template_max = _int(value, "template-max")
                case ["step", i, "add-point" as kind, pid]:
                    trace.steps.append(BuildStep(index("step", i), kind, ids([pid])))
                case ["step", i, "complete-line" as kind, a, b, pid]:
                    trace.steps.append(BuildStep(index("step", i), kind, ids([a, b, pid])))
                case ["step", i, "realize" | "identify" as kind, code, base, ext]:
                    # base and extension images are tuples even of one point; "-" is none
                    images = (() if t == "-" else ids(t.split(",")) for t in (base, ext))
                    trace.steps.append(BuildStep(index("step", i), kind, (code, *images)))
                case ["snapshot", i, "begin"]:
                    i = index("snapshot", i)
                    block = []
                    for block_row in rows:
                        if block_row[1] == "snapshot end":
                            break
                        block.append(block_row)
                    else:
                        raise ValueError("snapshot block has no 'snapshot end'")
                    trace.snapshots.append((i, _ls_v1_rows(block, lineno)))
                case _:
                    raise ValueError(f"unexpected row {row!r}")
            seen.add(fields[0])
    return trace
