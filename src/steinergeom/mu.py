"""Finitely represented mu functions and the bounded K_mu check.

A mu function caps, for each good-pair isomorphism type, how many
disjoint copies of the extension may sit over one base.  The alpha value
is distinguished: mu(alpha) + 2 is the line length of the limiting
Steiner system.  Types not listed fall back to the default policy
max(delta(B), 1), the smallest legal bound.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from .errors import FormatError, check_int
from .gallery import cycle_Ck
from .primitives import ALPHA_CODE, ALPHA_SIZE, DEFAULT_CODE_LIMIT, SHAPE_CACHE_SIZE, _good_pairs, _group_chi
from .primitives import _max_disjoint, canonical_code, decode_code
from .space import LinearSpace, _content_lines, _int, _mask, _row, delta_mask, mask_of, points_of

DEFAULT_POLICY = "max-delta-base-or-1"


class MuFunction:
    """alpha value and per-code overrides; other codes get DEFAULT_POLICY."""

    __slots__ = ("alpha_value", "overrides")

    def __init__(self, alpha_value: int = 1, overrides: Optional[dict[str, int]] = None):
        check_int("alpha value", alpha_value, signed=True)
        self.alpha_value = alpha_value
        self.overrides = dict(overrides or {})
        for code, cap in self.overrides.items():
            check_int(f"mu({code})", cap, signed=True)

    def line_length(self) -> int:
        """Target length of every nontrivial line: mu(alpha) + 2."""
        return self.alpha_value + 2

    def value(self, code: str) -> int:
        if code == ALPHA_CODE:
            return self.alpha_value
        if code in self.overrides:
            return self.overrides[code]
        return _default_cap(code)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MuFunction)
            and self.alpha_value == other.alpha_value
            and self.overrides == other.overrides
        )

    def __repr__(self) -> str:
        return f"MuFunction(alpha={self.alpha_value}, overrides={len(self.overrides)})"


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _default_cap(code: str) -> int:
    """DEFAULT_POLICY's cap for a code, decoded once per process."""
    space, base = decode_code(code)
    return max(delta_mask(space, mask_of(base)), 1)


def validate_mu(mu: MuFunction) -> tuple[bool, list[str]]:
    """Check the lower-bound constraints; returns (ok, reasons)."""
    reasons = []
    if mu.alpha_value < 1:
        reasons.append(f"alpha value {mu.alpha_value} < 1")
    for code, val in sorted(mu.overrides.items()):
        if fault := _override_fault(code):
            reasons.append(fault)
            continue
        space, base = decode_code(code)
        ext = frozenset(range(space.n)) - base
        if len(ext) >= 2:
            db = delta_mask(space, mask_of(base))
            if val < db:
                reasons.append(f"mu({code}) = {val} < delta(B) = {db}")
        elif val < 1:
            reasons.append(f"mu({code}) = {val} < 1 for a single-point extension")
    return not reasons, reasons


def _override_fault(code: str) -> Optional[str]:
    """Why a cap keyed `code` would never apply, or None.  Alpha's cap is
    the alpha value.  The enumerations key caps by canonical codes of at
    most DEFAULT_CODE_LIMIT points, so another spelling of such a shape
    never meets its pairs; a longer code is kept as written."""
    if code == ALPHA_CODE:
        return "alpha's cap is the alpha value, not a pair override"
    space, base = decode_code(code)
    if space.n <= DEFAULT_CODE_LIMIT and (canon := canonical_code(space, base)) != code:
        return f"code {code!r} is not canonical; its shape's code is {canon!r}"
    return None


def in_K_mu_bounded(
    M: LinearSpace,
    mu: MuFunction,
    bound: int,
    *,
    touching: Optional[Iterable[int]] = None,
) -> tuple[bool, list[tuple[str, tuple[int, ...], int, int]]]:
    """Whether no good pair of size <= bound exceeds its mu cap.

    Violations are (code, base tuple, chi, mu value).  Alpha is read off
    line lengths when bound >= ALPHA_SIZE; larger pairs are enumerated
    and grouped by code and base image as a set, a grouping independent
    of mu and cached, so checking one structure under several mu
    functions enumerates it once.  chi fixes the base pointwise:
    primitives._group_chi searches only a group whose packing exceeds its
    cap, and the base tuple names the map.

    With `touching`, only the violations whose group meets those points
    are returned: the line for alpha, else the base image or one of the
    copies over it.  The list is the full one filtered, in the same
    order; no group meets an empty set.  Only the good pairs whose B u C
    meets the touched points are grouped, and nothing is cached.  A group
    whose base image meets them holds every copy and keeps the packing
    prefilter.  One whose base image misses them holds only the copies
    that meet them, so its chi is searched unbounded: the copy search
    over M finds the others, and since no map's count exceeds the true
    packing, the bound changes neither chi nor the first map reaching it.
    """
    check_int("bound", bound)
    want = None
    if touching is not None:
        want = frozenset(points_of(_mask(M.n, touching)))
        if not want:
            return True, []
    violations: list[tuple[str, tuple[int, ...], int, int]] = []
    max_len = mu.line_length()
    for ln in M.lines if bound >= ALPHA_SIZE else ():
        if want and not want.intersection(ln):
            continue
        if len(ln) > max_len:
            violations.append((ALPHA_CODE, (ln[0], ln[1]), len(ln) - 2, mu.alpha_value))

    groups = _group(M, bound, mask_of(want)) if want else _copy_groups_full(M, bound)
    for (code, base_img), copies in sorted(groups.items(), key=lambda kv: (kv[0][0], sorted(kv[0][1]))):
        cap, most = mu.value(code), None
        if not want or want & base_img:
            most = _max_disjoint(copies)
            if most <= cap:
                continue
        chi_val, base = _group_chi(M, code, base_img, most)
        if chi_val > cap:
            violations.append((code, base, chi_val, cap))
    return not violations, violations


def _group(M: LinearSpace, bound: int, touch: int) -> dict[tuple[str, frozenset[int]], set[frozenset[int]]]:
    """Extension images per (code, base image) of the good pairs of
    primitives._good_pairs(M, bound, touch); no GoodPair is built."""
    out: dict[tuple[str, frozenset[int]], set[frozenset[int]]] = {}
    for code, _shape, pts, b_pts in _good_pairs(M, bound, touch):
        base = frozenset(b_pts)
        out.setdefault((code, base), set()).add(frozenset(pts) - base)
    return out


# the only grouping cache; a touching check neither reads nor fills it
@lru_cache(maxsize=2)
def _copy_groups_full(
    M: LinearSpace, bound: int
) -> Mapping[tuple[str, frozenset[int]], frozenset[frozenset[int]]]:
    """Extension images per (code, base image) among good pairs of size
    <= bound, excluding alpha.

    Every copy over a base is itself a good pair with the same code and
    base image, so one pass of _group collects complete copy lists.  The
    result is cached and read-only: every caller gets the same object.
    Its readers are the next full check of the same structure, under
    another mu, and builder.stats.
    """
    groups = _group(M, bound, M.full_mask())
    return MappingProxyType({key: frozenset(copies) for key, copies in groups.items()})


def mu_X(X: Iterable[int], alpha_value: int = 1) -> MuFunction:
    """mu giving cycle type gamma_k the cap 3 when k is in X; other
    cycle types keep the default 2 = delta({a,b})."""
    overrides = {cycle_Ck(k).code: 3 for k in sorted(set(X))}
    return MuFunction(alpha_value, overrides)


# -- mu-v1 text format -------------------------------------------------

def to_mu_v1(mu: MuFunction) -> str:
    out = [f"alpha {mu.alpha_value}"]
    for code, val in sorted(mu.overrides.items()):
        out.append(f"pair {code} {val}")
    out.append(f"default {DEFAULT_POLICY}")
    return "\n".join(out) + "\n"


def parse_mu_v1(text: str) -> MuFunction:
    """One `alpha` row, one `pair` row per code and at most one `default` row."""
    alpha: Optional[int] = None
    overrides: dict[str, int] = {}
    default = None
    for lineno, row in _content_lines(text):
        with _row(lineno):
            match row.split():
                case ["alpha", value] if alpha is None:
                    alpha = _int(value, "alpha value")
                case ["pair", code, value] if code not in overrides:
                    if fault := _override_fault(code):
                        raise ValueError(fault)
                    overrides[code] = _int(value, "pair value")
                case ["default", policy] if default is None:
                    if policy != DEFAULT_POLICY:
                        raise ValueError(f"unknown default policy {policy!r}")
                    default = policy
                case _:
                    raise ValueError(f"unexpected row {row!r}")
    if alpha is None:
        raise FormatError(0, "missing 'alpha N' row")
    return MuFunction(alpha, overrides)
