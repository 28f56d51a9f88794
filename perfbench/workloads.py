"""The four benchmark workloads.

Each workload makes its inputs from a seeded stream, runs one kind of
operation on each input (the timed part), condenses the output into a
small record straight after the op, and checks the records once the
timed phase is over.  Checks that call into the library run only then,
so they cannot warm the library's caches for later ops.

Every `lru_cache` in the package keys on structure content, so every op
works on a structure the process has not seen before: builds get fresh
seeds, hub stacks get a fresh random relabelling, amalgamation inputs
are drawn fresh.  Reuse inside one op (one structure checked against two
mu functions) is what a user does and is left in.
"""

from __future__ import annotations

import hashlib
from random import Random

import steinergeom as sg
from steinergeom.errors import AxiomViolation, BoundTooSmall

# library calls go through the package namespace at call time, so the
# layer wrappers of the traced run see them


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """One homogeneous kind of op over a seeded input stream."""

    name = ""
    # traced runs do round(--seconds x this) ops; sized so that op list
    # takes about half of --seconds untraced on a 2-core Xeon VM
    trace_ops_per_s = 1.0
    defaults: dict = {}

    def __init__(self, seed: int, **params):
        self.params = {**self.defaults, **params}
        self.rng = Random(f"{self.name}:{seed}")

    def inputs(self):
        """Endless seeded stream of op inputs."""
        raise NotImplementedError

    def run(self, inp):
        """The timed op."""
        raise NotImplementedError

    def record(self, inp, out) -> dict:
        """Small summary of one op: its output digest plus what `check`
        needs.  Uses only the library's serializers, which touch no cache."""
        raise NotImplementedError

    def check(self, rec: dict) -> str | None:
        """None if the op's output is correct, else the reason."""
        raise NotImplementedError


class KmuSparse(Workload):
    """build(mu, steps) then the bounded K_mu check of the result."""

    name = "kmu-sparse"
    trace_ops_per_s = 0.4
    defaults = {"alpha": 2, "steps": 150, "bound": 8}

    def inputs(self):
        while True:
            yield self.rng.getrandbits(32)

    def run(self, build_seed):
        mu = sg.MuFunction(self.params["alpha"])
        M, trace = sg.build(mu, self.params["steps"], seed=build_seed)
        ok, viols = sg.in_K_mu_bounded(M, mu, self.params["bound"])
        return M, trace, ok, viols

    def record(self, build_seed, out):
        M, trace, ok, viols = out
        text = sg.to_trace_v1(trace)
        return {
            "input": build_seed,
            "digest": _sha(f"{text}\n{ok}\n{viols!r}"),
            "line_lengths": sorted({len(ln) for ln in M.lines}),
            "ok": ok,
            "violations": repr(viols),
        }

    def check(self, rec):
        target = self.params["alpha"] + 2
        if rec["line_lengths"] not in ([], [target]):
            return f"line lengths {rec['line_lengths']}, want {target}"
        if not rec["ok"] or rec["violations"] != "[]":
            return f"bounded check gave ({rec['ok']}, {rec['violations']})"
        return None


class KmuHub(Workload):
    """Stacks of C_1 and C_2 copies freely amalgamated over one pair
    {a, b}, checked against mu_X([]) and then mu_X(stacked k's)."""

    name = "kmu-hub"
    trace_ops_per_s = 0.5
    # both 14-point shapes cost the same, so op latency stays unimodal
    defaults = {"shapes": ((1, 1, 1), (1, 2)), "bound": 10}

    def __init__(self, seed, **params):
        super().__init__(seed, **params)
        self.stacks = []
        for ks in self.params["shapes"]:
            M = sg.LinearSpace(2, [])
            for k in ks:
                M = sg.free_amalgam(M, sg.cycle_Ck(k).space, [0, 1])
            self.stacks.append((ks, M))
        self.codes = {k: sg.cycle_Ck(k).code for ks in self.params["shapes"] for k in ks}

    def inputs(self):
        i = 0
        while True:
            ks, M = self.stacks[i % len(self.stacks)]
            i += 1
            perm = list(range(M.n))
            self.rng.shuffle(perm)
            relabelled = sg.LinearSpace(M.n, [[perm[p] for p in ln] for ln in M.lines])
            yield ks, (perm[0], perm[1]), relabelled

    def run(self, inp):
        ks, _hub, M = inp
        out = []
        for X in ((), tuple(sorted(set(ks)))):
            out.append(sg.in_K_mu_bounded(M, sg.mu_X(X), self.params["bound"]))
        return out

    def expected(self, ks, hub, X):
        """Violations the stack must show: each stacked C_k whose copy
        count exceeds its mu_X cap, with chi equal to that count."""
        base = tuple(sorted(hub))
        out = []
        for k in sorted(set(ks)):
            cap = 3 if k in X else 2
            if ks.count(k) > cap:
                out.append((self.codes[k], base, ks.count(k), cap))
        return sorted(out, key=lambda v: (v[0], v[1]))

    def record(self, inp, out):
        ks, hub, _M = inp
        got = [(ok, viols) for ok, viols in out]
        return {
            "input": [list(ks), list(hub)],
            "digest": _sha(repr(got)),
            "results": repr(got),
            "want": repr([
                (not self.expected(ks, hub, X), self.expected(ks, hub, X))
                for X in ((), tuple(sorted(set(ks))))
            ]),
        }

    def check(self, rec):
        if rec["results"] != rec["want"]:
            return f"violations {rec['results']}, want {rec['want']}"
        return None


class BuildLong(Workload):
    """build(mu, steps) for mu(alpha) = 1 and 2 on one seed, no check.

    The two line lengths are one op because their costs differ by about
    2x; alternating them would make op latency bimodal."""

    name = "build-long"
    trace_ops_per_s = 0.2
    defaults = {"alphas": (1, 2), "steps": 1000}

    def inputs(self):
        while True:
            yield self.rng.getrandbits(32)

    def run(self, build_seed):
        return [
            sg.build(sg.MuFunction(a), self.params["steps"], seed=build_seed)
            for a in self.params["alphas"]
        ]

    def record(self, build_seed, out):
        texts, facts = [], []
        for alpha, (M, trace) in zip(self.params["alphas"], out):
            texts.append(sg.to_trace_v1(trace))
            grown = 0
            for st in trace.steps:
                if st.kind in ("add-point", "complete-line"):
                    grown += 1
                elif st.kind == "realize":
                    grown += len(st.payload[2])
            facts.append({
                "alpha": alpha,
                "n": M.n,
                "grown": grown,
                "line_lengths": sorted({len(ln) for ln in M.lines}),
                "last_snapshot_is_result": trace.snapshots[-1][1] == M,
            })
        return {"input": build_seed, "digest": _sha("\n".join(texts)), "builds": facts}

    def check(self, rec):
        for f in rec["builds"]:
            if f["line_lengths"] not in ([], [f["alpha"] + 2]):
                return f"alpha {f['alpha']}: line lengths {f['line_lengths']}"
            if f["grown"] != f["n"]:
                return f"alpha {f['alpha']}: trace adds {f['grown']} points, result has {f['n']}"
            if not f["last_snapshot_is_result"]:
                return f"alpha {f['alpha']}: last snapshot differs from the result"
        return None


def _grow_k0(rng: Random, base: sg.LinearSpace, extra: int, moves: int, max_len: int):
    """base plus `extra` new points: the first new point extends base's
    first line, then `moves` random triples and line extensions through
    new points, each kept only if the structure stays in K_0."""
    n = base.n + extra
    first, *rest = base.lines
    cur = sg.LinearSpace(n, [first + (base.n,), *rest])
    done = 0
    for _ in range(50 * moves):
        if done == moves:
            break
        if rng.random() < 0.3:
            ln = rng.choice(cur.lines)
            p = rng.randrange(base.n, n)
            if p in ln or len(ln) >= max_len:
                continue
            lines = [row if row != ln else tuple(sorted(row + (p,))) for row in cur.lines]
        else:
            t = sorted(rng.sample(range(n), 3))
            if t[2] < base.n:
                continue
            lines = list(cur.lines) + [tuple(t)]
        try:
            cand = sg.LinearSpace(n, lines)
        except (AxiomViolation, ValueError):
            continue
        if sg.in_K0(cand)[0]:
            cur = cand
            done += 1
    return cur


class Amalgamate(Workload):
    """is_strong(E, D) then amalgamate_or_identify(F, E, D, mu, bound)
    on seeded K_0 triples, in the style of acceptance criterion 5."""

    name = "amalgamate"
    trace_ops_per_s = 1.0
    # sizes are fixed: drawn per op (3-8 new points, a random number of
    # lines) the op cost spread over three orders of magnitude and the
    # median of a 20 s run moved by half between seeds
    defaults = {"alpha": 2, "extra": 5, "moves": 4}

    def inputs(self):
        mu = sg.MuFunction(self.params["alpha"])
        rng = self.rng
        # D is one line and both sides put a new point on it, so every
        # op's free amalgam overfills that line and the step is
        # identified instead: every op runs the free and identify paths
        D = sg.LinearSpace(3, [(0, 1, 2)])
        while True:
            F = _grow_k0(rng, D, self.params["extra"], self.params["moves"], mu.line_length())
            E = _grow_k0(rng, D, self.params["extra"], self.params["moves"], mu.line_length())
            # every primitive step of D <= E has at most E.n points
            bound = max(6, E.n)
            d = list(range(D.n))
            # screening at bound + 1 passes only inputs that pass at bound
            # (violations only grow with the bound) and keeps the op's own
            # prechecks at `bound` out of the check cache
            if not sg.is_strong(E, d, range(E.n)).ok:
                continue
            if not (sg.in_K_mu_bounded(F, mu, bound + 1)[0] and sg.in_K_mu_bounded(E, mu, bound + 1)[0]):
                continue
            yield F, E, d, bound

    def run(self, inp):
        F, E, d, bound = inp
        if not sg.is_strong(E, d, range(E.n)).ok:
            raise ValueError("D is not strong in E")
        try:
            return sg.amalgamate_or_identify(F, E, d, sg.MuFunction(self.params["alpha"]), bound)
        except BoundTooSmall as exc:
            # a valid answer of the library, pinned by the digest
            return exc

    def record(self, inp, out):
        F, E, d, bound = inp
        rec = {"input": [sg.to_ls_v1(F), sg.to_ls_v1(E), d, bound]}
        if isinstance(out, BoundTooSmall):
            rec.update(outcome="bound-too-small", digest=_sha(f"bound-too-small\n{out}"))
            return rec
        emb = sorted(out.e_embedding.items())
        text = sg.to_ls_v1(out.structure)
        rec.update(
            outcome=out.outcome,
            structure=text,
            embedding=emb,
            rejected_codes=sorted({code for code, _chi, _cap in out.violations}),
            digest=_sha(f"{out.outcome}\n{text}{emb!r}\n{out.violations!r}"),
        )
        return rec

    def check(self, rec):
        if rec["outcome"] == "bound-too-small":
            return None
        f_text, e_text, d, bound = rec["input"]
        F, E, G = (sg.parse_ls_v1(t) for t in (f_text, e_text, rec["structure"]))
        emb = dict(rec["embedding"])
        if any(emb.get(p) != p for p in d):
            return "the embedding of E moves a point of D"
        if sorted(emb) != list(range(E.n)) or len(set(emb.values())) != len(emb):
            return "the embedding of E is not an injection of all E points"
        if any(not 0 <= q < G.n for q in emb.values()):
            return "the embedding of E leaves the result"
        if sg.induced(G, range(F.n)) != F:
            return "the result does not contain F unchanged"
        if sg.ALPHA_CODE not in rec["rejected_codes"]:
            return "the step overfilling D's line was not rejected"
        ok, viols = sg.in_K_mu_bounded(G, sg.MuFunction(self.params["alpha"]), bound)
        if not ok:
            return f"the result fails the bounded check: {viols}"
        return None


WORKLOADS = {w.name: w for w in (KmuSparse, KmuHub, BuildLong, Amalgamate)}
