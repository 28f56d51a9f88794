"""Unpruned exhaustive reference implementations.

Everything here iterates subsets directly (plain loops, no
branch-and-bound, no candidate pruning) and is used to cross-check the
library's pruned searches.  Deliberately slow and obvious.
"""

from itertools import combinations, permutations, product

from steinergeom import LinearSpace


def affine_plane_3():
    """AG(2,3): 9 points, 12 lines, delta = -3; not in K_0.  Its point
    sets are a dense corpus of delta violations."""
    lines = []
    for r in range(3):
        lines.append(tuple(3 * r + c for c in range(3)))
        lines.append(tuple(r + 3 * c for c in range(3)))
    for s in range(3):
        lines.append(tuple(sorted(3 * r + (s + r) % 3 for r in range(3))))
        lines.append(tuple(sorted(3 * r + (s - r) % 3 for r in range(3))))
    return LinearSpace(9, lines)


def projective_plane_3():
    """PG(2,3): 13 points, 13 lines of 4, delta = -13.  Its point sets
    hold many minimal delta violations of one size, so they pin lex
    order among the (size, lex)-least witnesses."""
    pts = [v for v in product(range(3), repeat=3) if any(v) and v[next(i for i in range(3) if v[i])] == 1]
    lines = [
        [i for i, v in enumerate(pts) if sum(a * b for a, b in zip(u, v)) % 3 == 0] for u in pts
    ]
    return LinearSpace(len(pts), lines)


def delta_from_triples(space, S):
    """delta recomputed the long way: restrict the R-triples to S, rebuild
    lines as maximal cliques, sum nullities."""
    S = set(S)
    triples = {t for t in space.triples() if set(t) <= S}
    partners = {}
    for a, b, c in triples:
        partners.setdefault((a, b), set()).add(c)
        partners.setdefault((a, c), set()).add(b)
        partners.setdefault((b, c), set()).add(a)
    lines = {tuple(sorted({a, b} | rest)) for (a, b), rest in partners.items()}
    return len(S) - sum(len(ln) - 2 for ln in lines)


def delta_set(space, S):
    S = set(S)
    d = len(S)
    for ln in space.lines:
        k = len(S.intersection(ln))
        if k >= 3:
            d -= k - 2
    return d


def subset_tables(space):
    """(delta per mask, superset-min per mask), pure-python DP."""
    n = space.n
    dt = []
    for m in range(1 << n):
        S = [p for p in range(n) if m >> p & 1]
        dt.append(delta_set(space, S))
    sup = dt[:]
    for b in range(n):
        bit = 1 << b
        for m in range(1 << n):
            if not m & bit:
                sup[m] = min(sup[m], sup[m | bit])
    return dt, sup


def min_delta_oracle(space, lo, hi):
    lo, hi = set(lo), set(hi)
    free = sorted(hi - lo)
    best = delta_set(space, lo)
    for r in range(1, len(free) + 1):
        for extra in combinations(free, r):
            best = min(best, delta_set(space, lo | set(extra)))
    return best


def is_strong_oracle(space, lo, hi):
    return min_delta_oracle(space, lo, hi) >= delta_set(space, lo)


def least_below_oracle(space, lo, hi, threshold):
    """The (size, lex)-least X with lo <= X <= hi and delta(X) < threshold,
    or None: the extra points are scanned by size, then in combinations
    order.  For sets of one size, lex order of the extra points is lex
    order of the whole sets, since both hold lo."""
    lo = set(lo)
    free = sorted(set(hi) - lo)
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            X = lo | set(extra)
            if delta_set(space, X) < threshold:
                return frozenset(X)
    return None


def icl_oracle(space, X):
    """Least strong-in-the-whole-space superset, by (size, lex) scan."""
    X = set(X)
    full = set(range(space.n))
    free = sorted(full - X)
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            Y = X | set(extra)
            if is_strong_oracle(space, Y, full):
                return frozenset(Y)
    raise AssertionError("the full point set is always strong in itself")


def d_oracle(space, X):
    return min_delta_oracle(space, X, range(space.n))


def zero_primitive_oracle(space, B, C):
    """delta(C/B)=0, B strong in BC, and no intermediate strong subset;
    all within the induced structure on B u C."""
    B, C = set(B), set(C)
    if not C:
        return False
    both = B | C
    if delta_set(space, both) != delta_set(space, B):
        return False
    if not is_strong_oracle(space, B, both):
        return False
    for r in range(1, len(C)):
        for mid in combinations(sorted(C), r):
            M0 = B | set(mid)
            if is_strong_oracle(space, B, M0) and is_strong_oracle(space, M0, both):
                return False
    return True


def good_pair_oracle(space, B, C):
    B, C = set(B), set(C)
    if not zero_primitive_oracle(space, B, C):
        return False
    for r in range(len(B)):
        for sub in combinations(sorted(B), r):
            if zero_primitive_oracle(space, set(sub), C):
                return False
    return True


def copies_oracle(M, pair_space, base, b_embed):
    """All extension images of injections extending b_embed that match
    collinearity exactly; brute force over permutations."""
    base = set(base)
    ext = sorted(set(range(pair_space.n)) - base)
    free = sorted(set(range(M.n)) - set(b_embed.values()))
    images = set()
    for pick in permutations(free, len(ext)):
        phi = dict(b_embed)
        phi.update(zip(ext, pick))
        ok = True
        for u, v in combinations(sorted(phi), 2):
            pl = pair_space.line_through(u, v)
            ml = M.line_through(phi[u], phi[v])
            for w in sorted(phi):
                if w in (u, v):
                    continue
                in_pair = pl is not None and w in pl
                in_m = ml is not None and phi[w] in ml
                if in_pair != in_m:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            images.add(frozenset(phi[x] for x in ext))
    return images


def preserves_lines_oracle(A, B, phi):
    """Whether every triple of phi's domain is collinear in A exactly when
    its image is collinear in B; one test per triple."""
    in_a = {frozenset(t) for ln in A.lines for t in combinations(ln, 3)}
    in_b = {frozenset(t) for ln in B.lines for t in combinations(ln, 3)}
    return all(
        (frozenset(t) in in_a) == (frozenset(phi[p] for p in t) in in_b)
        for t in combinations(sorted(phi), 3)
    )


def embeddings_oracle(M, pair_space, base, b_embed):
    """All injections of the pair's points into M extending b_embed under
    which a triple is collinear exactly when its image is; brute force
    over permutations, as dicts in permutation order."""
    ext = sorted(set(range(pair_space.n)) - set(base))
    free = sorted(set(range(M.n)) - set(b_embed.values()))

    def collinear_triples(space):
        return {frozenset(t) for ln in space.lines for t in combinations(ln, 3)}

    in_pair, in_m = collinear_triples(pair_space), collinear_triples(M)
    out = []
    for pick in permutations(free, len(ext)):
        phi = dict(b_embed)
        phi.update(zip(ext, pick))
        if all(
            (frozenset(t) in in_pair) == (frozenset(phi[p] for p in t) in in_m)
            for t in combinations(sorted(phi), 3)
        ):
            out.append(phi)
    return out


def max_disjoint_oracle(images):
    images = sorted(images, key=sorted)
    best = 0
    for r in range(len(images), 0, -1):
        for combo in combinations(images, r):
            if all(not a & b for a, b in combinations(combo, 2)):
                return r
    return best


def chi_oracle(M, pair_space, base, b_embed):
    return max_disjoint_oracle(copies_oracle(M, pair_space, base, b_embed))


def isomorphic_oracle(s1, b1, s2, b2):
    """Whether some bijection of the points maps the lines of s1 onto the
    lines of s2 and b1 onto b2; brute force over every bijection that
    maps b1 onto b2."""
    b1, b2 = sorted(b1), sorted(b2)
    if s1.n != s2.n or len(b1) != len(b2) or len(s1.lines) != len(s2.lines):
        return False
    rest1 = sorted(set(range(s1.n)) - set(b1))
    rest2 = sorted(set(range(s2.n)) - set(b2))
    lines2 = {frozenset(ln) for ln in s2.lines}
    for pb in permutations(b2):
        for pr in permutations(rest2):
            phi = dict(zip(b1, pb))
            phi.update(zip(rest1, pr))
            # injective on lines, and as many lines on each side
            if all(frozenset(phi[p] for p in ln) in lines2 for ln in s1.lines):
                return True
    return False


def decompose_oracle(space, D):
    """Chain D = X_0 <= X_1 <= ... of (size, lex)-least strong supersets:
    from X_i, the first X_i + extra, extra scanned by size and then in
    combinations order, that is strong in the whole space (read off
    subset_tables) and in which X_i is strong (is_strong_oracle).
    Entries are (X_{i+1}, delta(X_{i+1}) - delta(X_i))."""
    dt, sup = subset_tables(space)
    full = set(range(space.n))
    cur = set(D)
    steps = []
    while cur != full:
        free = sorted(full - cur)
        nxt = next(
            X
            for r in range(1, len(free) + 1)
            for X in (cur | set(extra) for extra in combinations(free, r))
            if sup[_mask(X)] >= dt[_mask(X)] and is_strong_oracle(space, cur, X)
        )
        steps.append((frozenset(nxt), delta_set(space, nxt) - delta_set(space, cur)))
        cur = nxt
    return steps


def _mask(S):
    return sum(1 << p for p in S)


def walk_core_oracle(space):
    """The union of all point sets S in which every point lies on two or
    more lines holding another point of S, as a mask, by brute force over
    every subset."""
    core = 0
    for size in range(2, space.n + 1):
        for S in combinations(range(space.n), size):
            m = _mask(S)
            if all(
                sum((lm & m).bit_count() >= 2 for lm in space.line_masks if lm >> p & 1) >= 2
                for p in S
            ):
                core |= m
    return core


def base_choices_reference(M, c_mask, dc, pop_lines, slots):
    """The base choices for a candidate set C generated and then filtered:
    every choice of at most `slots` outside points whose weights, the
    populated lines of C they sit on, sum to dc, in the branch-and-bound
    order (heaviest, then lowest point first), less those with two points
    on a line that meets C."""
    weight_of = {}
    for li in pop_lines:
        for q in M.lines[li]:
            if not c_mask >> q & 1:
                weight_of[q] = weight_of.get(q, 0) + 1
    weights = sorted(weight_of.items(), key=lambda qw: (-qw[1], qw[0]))
    top = [0]
    for _q, w in weights:
        top.append(top[-1] + w)

    def choose(i, chosen, need, slots):
        if need == 0:
            yield chosen
            return
        for j in range(i, len(weights)):
            if top[min(j + slots, len(weights))] - top[j] < need:
                return
            q, w = weights[j]
            if w <= need:
                yield from choose(j + 1, chosen + (q,), need - w, slots - 1)

    return [
        b
        for b in choose(0, (), dc, slots)
        if not any(
            (ln := M.line_through(u, v)) is not None and _mask(ln) & c_mask
            for u, v in combinations(b, 2)
        )
    ]
