"""Free amalgamation and the amalgamate-or-identify procedure.

The free amalgam of F and E over a shared strong part D glues the two
structures along D and merges lines across the sides exactly when they
are based in D (share two D-points); nothing else becomes collinear.
amalgamate_or_identify then either accepts the free amalgam (it passes
the bounded K_mu check) or maps the offending extension step onto an
existing copy inside F, one primitive step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import BaseMismatch, BoundTooSmall
from .mu import in_K_mu_bounded
from .space import LinearSpace, _mask, induced, points_of, preserves_lines
from .primitives import _require_strong, decompose, embeddings_over_base


def _glue(
    F: LinearSpace,
    E: LinearSpace,
    e_to_f: dict[int, int],
) -> tuple[LinearSpace, dict[int, int]]:
    """Free amalgam of F and E along the partial map e_to_f (the D part).

    Returns (G, full map of E into G); F keeps its point ids, new E
    points get F.n, F.n+1, ... in E-id order.
    """
    d_in_e = sorted(e_to_f)
    d_in_f = [e_to_f[p] for p in d_in_e]
    if len(set(d_in_f)) != len(d_in_f):
        raise BaseMismatch("shared-part map is not injective")
    if not preserves_lines(E, F, e_to_f):
        raise BaseMismatch("shared part differs between the two sides")

    emap = dict(e_to_f)
    nxt = F.n
    for p in range(E.n):
        if p not in emap:
            emap[p] = nxt
            nxt += 1

    # F-lines based in D absorb the E-lines on them; the rest of E's
    # lines are new
    grown: dict[tuple[int, ...], set[int]] = {}
    extra = []
    dset = set(d_in_e)
    for ln in E.lines:
        mapped = [emap[p] for p in ln]
        trace = [p for p in ln if p in dset]
        fl = None
        if len(trace) >= 2:
            fl = F.line_through(e_to_f[trace[0]], e_to_f[trace[1]])
        if fl is None:
            extra.append(mapped)
        else:
            grown.setdefault(fl, set(fl)).update(mapped)
    G = F.with_lines(nxt, add=[*grown.values(), *extra], drop=grown)
    return G, emap


def free_amalgam(F: LinearSpace, E: LinearSpace, D: Iterable[int]) -> LinearSpace:
    """F + E glued over the common point set D (same ids on both sides).

    D must be strong in E; the shared induced structures must agree.
    delta is additive: delta(G) = delta(F) + delta(E) - delta(D).
    """
    d = points_of(_mask(min(F.n, E.n), D))
    _require_strong(E, d, range(E.n))
    return _glue(F, E, {p: p for p in d})[0]


@dataclass
class AmalgamResult:
    """Outcome of amalgamate-or-identify.

    outcome is "free" when at least one decomposition step extended F,
    "identified" when every step mapped into the existing structure.
    e_embedding carries E's points into `structure` fixing D; violations
    lists (code, chi, bound cap) for each rejected free step.
    """

    outcome: str
    structure: LinearSpace
    e_embedding: dict[int, int]
    violations: list[tuple[str, int, int]] = field(default_factory=list)


def amalgamate_or_identify(
    F: LinearSpace,
    E: LinearSpace,
    D: Iterable[int],
    mu,
    bound: int,
) -> AmalgamResult:
    """Embed E into an extension of F over D, collapsing when the free
    amalgam would break a mu cap.

    D <= E is decomposed into primitive steps; each step is freely
    amalgamated and kept if the bounded K_mu check passes, otherwise the
    step's extension is identified with its least copy inside the current
    structure: the first of embeddings_over_base, whose extension images
    are lexicographically least.  F and E are first verified against mu
    at the same bound.  Each step's recheck then asks the bounded check
    only for the violations whose groups meet the step's new points.
    That is the whole check: F passed, every kept step passed its
    recheck, so the current structure holds no violation, and since it
    is the structure the candidate induces on its points, a group that
    misses the new points has the same copies in the candidate as in it.
    """
    d = points_of(_mask(min(F.n, E.n), D))
    ok, viols = in_K_mu_bounded(E, mu, bound)
    if not ok:
        raise ValueError(f"E fails the bounded mu check: {viols}")
    ok, viols = in_K_mu_bounded(F, mu, bound)
    if not ok:
        raise ValueError(f"F fails the bounded mu check: {viols}")
    steps = decompose(E, d)
    cur = F
    emb = {p: p for p in d}
    violations: list[tuple[str, int, int]] = []
    grew = False
    for x_set, _inc in steps:
        step_pts = sorted(x_set)
        if len(step_pts) > bound:
            raise BoundTooSmall(bound, f"primitive step has {len(step_pts)} points > bound {bound}")
        rel = {p: i for i, p in enumerate(step_pts)}
        step_space = induced(E, step_pts)
        base_idx = [rel[p] for p in step_pts if p in emb]
        base_map = {rel[p]: emb[p] for p in step_pts if p in emb}
        candidate, cmap = _glue(cur, step_space, base_map)
        ok, viols = in_K_mu_bounded(candidate, mu, bound, touching=range(cur.n, candidate.n))
        if ok:
            cur = candidate
            grew = True
            for p in step_pts:
                emb[p] = cmap[rel[p]]
            continue
        violations.extend((code, chi_val, cap) for code, _b, chi_val, cap in viols)
        least = next(embeddings_over_base(cur, step_space, base_idx, base_map), None)
        if least is None:
            raise BoundTooSmall(
                bound, "free amalgam rejected but no copy of the step exists to identify with"
            )
        for p in step_pts:
            if p not in emb:
                emb[p] = least[rel[p]]
    return AmalgamResult(
        outcome="free" if grew else "identified",
        structure=cur,
        e_embedding=emb,
        violations=violations,
    )

