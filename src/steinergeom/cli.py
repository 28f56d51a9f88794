"""Command-line surface over the library.

Subcommands mirror the library one-to-one and speak the text formats
(ls-v1, gp-v1, mu-v1, inc-v1, trace-v1).  `-` means standard input for
any file argument.  Exit codes: 0 success, 1 a validation failure or
violation was found, 2 usage error, 3 size limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .amalgam import amalgamate_or_identify
from .builder import build, stats, to_trace_v1
from .dimension import check_exchange, check_flatness, d, icl, in_K0
from .errors import FormatError, SizeLimit, SteinerGeomError
from .gallery import _chain_end, _cycle_lines, _dk_lines, cycle_graph, fano
from .interop import (
    check_matroid_exchange,
    parse_inc_v1,
    to_inc_v1,
    to_one_sorted,
    to_pbd,
    to_pbd_text,
    to_two_sorted,
)
from .mu import MuFunction, parse_mu_v1, validate_mu
from .primitives import GoodPair, chi, enumerate_good_pairs, parse_gp_v1
from .sampling import random_k0, random_space
from .space import MAX_POINTS, LinearSpace, _int, delta, parse_ls_v1, to_ls_v1


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _point_list(text: str) -> list[int]:
    """Comma-separated point ids, each read as the text formats read one."""
    return [_int(x.strip(), "point id") for x in text.split(",")] if text.strip() else []


def _emit(args, human: str, payload: dict | list) -> None:
    """The payload as JSON under --json, else the human text, which
    prints nothing when empty."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    elif human:
        print(human)


# -- subcommand bodies -------------------------------------------------

def cmd_validate(args) -> int:
    try:
        space = parse_ls_v1(_read(args.file))
    except SizeLimit:
        raise
    except (FormatError, SteinerGeomError) as exc:
        _emit(args, f"invalid: {exc}", {"ok": False, "error": str(exc)})
        return 1
    ok, bad = in_K0(space)
    payload = {
        "ok": True,
        "points": space.n,
        "lines": len(space.lines),
        "in_k0": ok,
        "violating_subset": sorted(bad) if bad else None,
    }
    msg = f"valid linear space: {space.n} points, {len(space.lines)} lines"
    msg += ", in K_0" if ok else f", NOT in K_0 (delta < 0 on {sorted(bad)})"
    _emit(args, msg, payload)
    return 0 if ok else 1


def cmd_delta(args) -> int:
    space = parse_ls_v1(_read(args.file))
    pts = _point_list(args.subset) if args.subset is not None else list(range(space.n))
    val = delta(space, pts)
    _emit(args, str(val), {"delta": val, "subset": sorted(pts)})
    return 0


def cmd_icl(args) -> int:
    space = parse_ls_v1(_read(args.file))
    out = sorted(icl(space, _point_list(args.set)))
    _emit(args, ",".join(map(str, out)) if out else "-", {"icl": out})
    return 0


def cmd_d(args) -> int:
    space = parse_ls_v1(_read(args.file))
    val = d(space, _point_list(args.set))
    _emit(args, str(val), {"d": val})
    return 0


def cmd_goodpairs(args) -> int:
    space = parse_ls_v1(_read(args.file))
    rows, human = [], []
    for gp, emb in enumerate_good_pairs(space, args.max_size):
        base, ext = sorted(emb[b] for b in gp.base), sorted(emb[c] for c in gp.ext)
        rows.append({"code": gp.code, "base": base, "ext": ext})
        human.append(f"{gp.code} base {','.join(map(str, base)) or '-'} ext {','.join(map(str, ext))}")
    human.append(f"{len(rows)} good pairs")
    _emit(args, "\n".join(human), rows)
    return 0


def cmd_chi(args) -> int:
    M = parse_ls_v1(_read(args.file))
    space, base = parse_gp_v1(_read(args.pair))
    gp = GoodPair(space, tuple(sorted(base)))
    base_sorted = sorted(base)
    img = _point_list(args.embed) if args.embed is not None else base_sorted
    if len(img) != len(base_sorted):
        raise ValueError("--embed must list one image per base point")
    val = chi(M, gp, dict(zip(base_sorted, img)))
    _emit(args, str(val), {"chi": val, "code": gp.code, "embed": img})
    return 0


def _read_valid_mu(path: str) -> MuFunction:
    """A mu-v1 file's mu; one below its lower bounds is a ValueError."""
    mu = parse_mu_v1(_read(path))
    ok, reasons = validate_mu(mu)
    if not ok:
        raise ValueError("invalid mu: " + "; ".join(reasons))
    return mu


def cmd_amalgamate(args) -> int:
    F = parse_ls_v1(_read(args.F))
    E = parse_ls_v1(_read(args.E))
    mu = _read_valid_mu(args.mu)
    res = amalgamate_or_identify(F, E, _point_list(args.shared), mu, args.bound)
    payload = {
        "outcome": res.outcome,
        "points": res.structure.n,
        "lines": len(res.structure.lines),
        "embedding": {str(k): v for k, v in sorted(res.e_embedding.items())},
        "violations": [list(v) for v in res.violations],
    }
    _emit(args, f"outcome {res.outcome}\n" + to_ls_v1(res.structure).rstrip("\n"), payload)
    return 0


def cmd_build(args) -> int:
    mu = _read_valid_mu(args.mu)
    print(f"building: {args.steps} steps, seed {args.seed}", file=sys.stderr)
    M, trace = build(mu, args.steps, args.seed, args.template_max)
    print(f"done: {M.n} points, {len(M.lines)} lines", file=sys.stderr)
    _write(args.out, to_trace_v1(trace))
    if args.out != "-":
        msg = f"{M.n} points, {len(M.lines)} lines, trace in {args.out}"
        _emit(args, msg, {"points": M.n, "lines": len(M.lines), "out": args.out})
    return 0


def cmd_stats(args) -> int:
    M = parse_ls_v1(_read(args.file))
    mu = _read_valid_mu(args.mu)
    st = stats(M, mu, bound=args.bound)
    payload = {
        "line_length_histogram": {str(k): v for k, v in sorted(st["line_length_histogram"].items())},
        "pair_coverage": st["pair_coverage"],
        "chi_saturation": st["chi_saturation"],
        "violations": [list(map(str, v[:2])) + list(v[2:]) for v in st["violations"]],
    }
    human = [f"lines of length {k}: {v}" for k, v in sorted(st["line_length_histogram"].items())]
    human.append(f"pair coverage: {st['pair_coverage']:.4f}")
    human += [f"chi/mu saturation {code}: {sat:.2f}" for code, sat in sorted(st["chi_saturation"].items())]
    human += [f"violation: {v}" for v in st["violations"]]
    _emit(args, "\n".join(human), payload)
    return 1 if st["violations"] else 0


def cmd_gallery(args) -> int:
    n = {"ck": 4 * args.k + 2, "dk": 4 * args.k + 3, "chain": 7 + 3 * args.k}.get(args.kind, 0)
    if n > MAX_POINTS:
        raise SizeLimit(f"gallery {args.kind} --k {args.k} has {n} points, more than {MAX_POINTS}")
    if args.kind == "fano":
        sys.stdout.write(to_ls_v1(fano()))
    elif args.kind in ("ck", "dk"):
        lines = (_cycle_lines if args.kind == "ck" else _dk_lines)(args.k)
        sys.stdout.write(to_ls_v1(LinearSpace(n, lines)))
    elif args.kind == "chain":
        sys.stdout.write(to_ls_v1(_chain_end(args.k)))
    elif args.kind == "cyclegraph":
        pair = _point_list(args.pair) if args.pair is not None else []
        if len(pair) != 2:
            print("usage error: gallery cyclegraph needs --pair a,b", file=sys.stderr)
            return 2
        space = parse_ls_v1(_read(args.file))
        a, b = pair
        g = cycle_graph(space, a, b)
        payload = {
            "vertices": list(g.vertices),
            "a_edges": sorted(sorted(e) for e in g.a_edges),
            "b_edges": sorted(sorted(e) for e in g.b_edges),
        }
        human = [f"a {u} {v}" for u, v in payload["a_edges"]]
        human += [f"b {u} {v}" for u, v in payload["b_edges"]]
        _emit(args, "\n".join(human), payload)
    return 0


def cmd_convert(args) -> int:
    text = _read(args.file)
    if args.to == "two-sorted":
        sys.stdout.write(to_inc_v1(to_two_sorted(parse_ls_v1(text))))
    elif args.to == "one-sorted":
        sys.stdout.write(to_ls_v1(to_one_sorted(parse_inc_v1(text))))
    else:
        sys.stdout.write(to_pbd_text(to_pbd(parse_ls_v1(text))))
    return 0


def cmd_check(args) -> int:
    for flag, value, least in (("--trials", args.trials, 0), ("--max-points", args.max_points, 3)):
        if value < least:
            print(f"usage error: check needs {flag} >= {least}, not {value}", file=sys.stderr)
            return 2
    if args.max_points > MAX_POINTS:
        raise SizeLimit(f"check --max-points {args.max_points} is more than {MAX_POINTS}")
    rng = Random(args.seed)
    bad = 0
    for _ in range(args.trials):
        n = rng.randrange(3, args.max_points + 1)
        if args.property == "submodular":
            space = random_space(rng, n)
            X = rng.sample(range(n), rng.randrange(n + 1))
            Y = rng.sample(range(n), rng.randrange(n + 1))
            xs, ys = set(X), set(Y)
            bad += delta(space, xs | ys) + delta(space, xs & ys) > delta(space, xs) + delta(space, ys)
        elif args.property == "flat":
            space = random_k0(rng, n)
            fam = [rng.sample(range(n), rng.randrange(1, n + 1)) for _ in range(rng.randrange(2, 5))]
            bad += not check_flatness(space, fam, mode="delta")[0]
        elif args.property == "exchange":
            space = random_k0(rng, min(n, 8))
            bad += not check_exchange(space)[0]
        else:  # matroid
            space = random_space(rng, min(n, 8))
            bad += not check_matroid_exchange(space)[0]
    _emit(args, f"{bad} violations", {"property": args.property, "trials": args.trials, "violations": bad})
    return 1 if bad else 0


# -- parser ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="steinergeom", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def mk(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(fn=fn)
        return p

    p = mk("validate", cmd_validate, help="check an ls-v1 file and K_0 membership")
    p.add_argument("file")

    p = mk("delta", cmd_delta, help="predimension of a structure or subset")
    p.add_argument("file")
    p.add_argument("--subset", help="comma-separated point ids; default all")

    p = mk("icl", cmd_icl, help="intrinsic closure of a point set")
    p.add_argument("file")
    p.add_argument("--set", required=True)

    p = mk("d", cmd_d, help="dimension of a point set")
    p.add_argument("file")
    p.add_argument("--set", required=True)

    p = mk("goodpairs", cmd_goodpairs, help="enumerate good pairs up to a size")
    p.add_argument("file")
    p.add_argument("--max-size", type=int, required=True)

    p = mk("chi", cmd_chi, help="disjoint-copy count of a pair over a base embedding")
    p.add_argument("file")
    p.add_argument("--pair", required=True, help="gp-v1 file")
    p.add_argument("--embed", help="images of the base points; default identity")

    p = mk("amalgamate", cmd_amalgamate, help="amalgamate or identify over a shared part")
    p.add_argument("F")
    p.add_argument("E")
    p.add_argument("--shared", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--bound", type=int, default=10)

    p = mk("build", cmd_build, help="seeded construction run; trace to --out")
    p.add_argument("--mu", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--template-max", type=int, default=10)
    p.add_argument("--out", default="-")

    p = mk("stats", cmd_stats, help="histograms, coverage, chi saturation")
    p.add_argument("file")
    p.add_argument("--mu", required=True)
    p.add_argument("--bound", type=int, default=6)

    p = mk("gallery", cmd_gallery, help="named structures")
    p.add_argument("kind", choices=["fano", "ck", "dk", "chain", "cyclegraph"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--pair", help="a,b for cyclegraph")

    p = mk("convert", cmd_convert, help="between one-sorted, two-sorted, and PBD forms")
    p.add_argument("--to", choices=["two-sorted", "one-sorted", "pbd"], required=True)
    p.add_argument("file")

    p = mk("check", cmd_check, help="seeded property runs")
    p.add_argument("property", choices=["submodular", "flat", "exchange", "matroid"])
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-points", type=int, default=10)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except (FormatError, SteinerGeomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
