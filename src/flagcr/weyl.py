"""Weyl-group and automorphism-group actions on roots and root sets:
reflections, orbits of sets, canonical forms and equivalence testing.

Group elements act through the permutation they induce on the root list; a
linear representative (exact rational matrix on the ambient space) is kept so
that membership in W versus the full automorphism group can be decided by the
chamber-walk algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .gaussq import Factored, RMatrix
from .rootsys import RootSystem, inner


class OrbitBudgetExceeded(RuntimeError):
    pass


def reflect(r: RootSystem, alpha_idx: int, v) -> tuple[Fraction, ...]:
    """s_alpha(v) = v - 2(v|alpha)/(alpha|alpha) alpha, exact, in stored
    (doubled) coordinates for v."""
    alpha = r.roots[alpha_idx]
    num = 2 * sum(Fraction(x) * a for x, a in zip(v, alpha))
    den = sum(a * a for a in alpha)
    f = Fraction(num, den)
    return tuple(Fraction(x) - f * a for x, a in zip(v, alpha))


def reflection_perm(r: RootSystem, alpha_idx: int) -> tuple[int, ...]:
    """Permutation of root indices induced by s_alpha."""
    out = []
    for v in r.roots:
        img = reflect(r, alpha_idx, v)
        out.append(r.index[tuple(int(x) for x in img)])
    return tuple(out)


def _lex_positive(v: tuple[int, ...]) -> bool:
    for x in v:
        if x != 0:
            return x > 0
    return False


def positive_roots(r: RootSystem) -> list[int]:
    """Positive system from the deterministic lexicographic order."""
    return [i for i, v in enumerate(r.roots) if _lex_positive(v)]


def simple_roots(r: RootSystem) -> list[int]:
    """Simple roots of the lexicographic positive system."""
    pos = positive_roots(r)
    pset = set(pos)
    simples = []
    for i in pos:
        decomposable = False
        for a in pos:
            if a == i:
                continue
            b = tuple(x - y for x, y in zip(r.roots[i], r.roots[a]))
            bi = r.index.get(b)
            if bi is not None and bi in pset:
                decomposable = True
                break
        if not decomposable:
            simples.append(i)
    return simples


def cartan_matrix(r: RootSystem, simples: list[int]) -> list[list[int]]:
    out = []
    for i in simples:
        row = []
        for j in simples:
            c = 2 * inner(r.roots[i], r.roots[j]) / inner(r.roots[j], r.roots[j])
            assert c.denominator == 1
            row.append(int(c))
        out.append(row)
    return out


def _matrix_from_images(r: RootSystem, srcs: list[tuple[Fraction, ...]], imgs: list[tuple[Fraction, ...]], dim: int):
    """Linear map fixing the orthogonal complement of span(srcs) and taking
    srcs[i] to imgs[i]; returned as a list of columns acting on ambient
    vectors, or None when inconsistent."""
    # solve M * s_i = t_i with M = I + C where C vanishes on the complement
    # build via Gram: express the action in the basis srcs (assumed independent)
    n = dim
    gram = [[sum(a * b for a, b in zip(srcs[i], srcs[j])) for j in range(len(srcs))] for i in range(len(srcs))]
    ginv = Factored(gram, Fraction).inverse()
    # projection coefficients of e_k onto span: coeffs = Ginv * (srcs . e_k)
    cols = []
    for k in range(n):
        ek_dots = [Fraction(s[k]) for s in srcs]
        coeff = [sum(ginv[i][j] * ek_dots[j] for j in range(len(srcs))) for i in range(len(srcs))]
        # image of e_k = e_k - proj + sum coeff_i * imgs_i
        img = [Fraction(0)] * n
        img[k] = Fraction(1)
        for i, c in enumerate(coeff):
            for t in range(n):
                img[t] += c * (Fraction(imgs[i][t]) - Fraction(srcs[i][t]))
        cols.append(tuple(img))
    return cols


def apply_matrix_cols(cols, v):
    n = len(cols)
    out = [Fraction(0)] * len(cols[0])
    for k in range(n):
        if v[k]:
            vk = Fraction(v[k])
            col = cols[k]
            for t in range(len(col)):
                out[t] += vk * col[t]
    return tuple(out)


@dataclass(frozen=True)
class GroupElement:
    """Automorphism of the root system: permutation of root indices plus a
    linear representative given by matrix columns."""

    perm: tuple[int, ...]
    cols: tuple[tuple[Fraction, ...], ...]
    word: tuple[int, ...] | None = None


def element_from_matrix(r: RootSystem, cols, word=None) -> GroupElement:
    perm = []
    for v in r.roots:
        img = apply_matrix_cols(cols, v)
        key = tuple(int(x) for x in img)
        if any(Fraction(x) != y for x, y in zip(key, img)) or key not in r.index:
            raise ValueError("matrix does not permute the root list")
    for v in r.roots:
        img = apply_matrix_cols(cols, v)
        perm.append(r.index[tuple(int(x) for x in img)])
    return GroupElement(tuple(perm), tuple(tuple(c) for c in cols), word)


def simple_reflection_elements(r: RootSystem) -> list[GroupElement]:
    out = []
    for s in simple_roots(r):
        cols = []
        n = r.ambient_dim
        for k in range(n):
            ek = [Fraction(0)] * n
            ek[k] = Fraction(1)
            cols.append(reflect(r, s, ek))
        out.append(GroupElement(reflection_perm(r, s), tuple(cols), (s,)))
    return out


def diagram_automorphisms(r: RootSystem) -> list[GroupElement]:
    """Nontrivial diagram automorphisms lifted to root-system isometries
    (identity on the orthogonal complement of the root span)."""
    import itertools

    simples = simple_roots(r)
    cm = cartan_matrix(r, simples)
    k = len(simples)
    lens = [inner(r.roots[i], r.roots[i]) for i in simples]
    out = []
    for perm in itertools.permutations(range(k)):
        if perm == tuple(range(k)):
            continue
        if any(lens[perm[i]] != lens[i] for i in range(k)):
            continue
        if any(cm[perm[i]][perm[j]] != cm[i][j] for i in range(k) for j in range(k)):
            continue
        srcs = [tuple(Fraction(x) for x in r.roots[simples[i]]) for i in range(k)]
        imgs = [tuple(Fraction(x) for x in r.roots[simples[perm[i]]]) for i in range(k)]
        cols = _matrix_from_images(r, srcs, imgs, r.ambient_dim)
        try:
            out.append(element_from_matrix(r, cols))
        except ValueError:
            continue
    return out


def generators(r: RootSystem, group: str = "weyl") -> list[GroupElement]:
    gens = simple_reflection_elements(r)
    if group == "aut":
        gens = gens + diagram_automorphisms(r)
    elif group != "weyl":
        raise ValueError("group must be 'weyl' or 'aut'")
    return gens


def set_key(r: RootSystem, q) -> tuple:
    """Order of sets that canonical forms minimise: the sorted root vectors."""
    return tuple(sorted(r.roots[i] for i in q))


def canonical_form(r: RootSystem, q, group: str = "weyl", budget: int | None = 2_000_000) -> frozenset[int]:
    """Lexicographically least image of the set under the chosen group: the
    set_key-minimal element of its orbit.  Raises OrbitBudgetExceeded past
    the node budget."""
    return min(set_orbit(r, q, group, budget), key=lambda s: set_key(r, s))


def set_orbit(r: RootSystem, q, group: str = "weyl", budget: int | None = 2_000_000) -> set[frozenset[int]]:
    """Full orbit of the set (as a set of frozensets), by BFS under simple
    reflections (plus diagram automorphisms for 'aut').  Raises
    OrbitBudgetExceeded past ``budget`` nodes; None means no limit."""
    gens = generators(r, group)
    start = frozenset(q)
    seen = {start}
    frontier = [start]
    while frontier:
        if budget is not None and len(seen) > budget:
            raise OrbitBudgetExceeded(f"set orbit exceeded {budget} nodes")
        nxt = []
        for cur in frontier:
            for g in gens:
                img = frozenset(g.perm[i] for i in cur)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def root_orbit(r: RootSystem, idx: int, gen_perms) -> frozenset[int]:
    seen = {idx}
    frontier = [idx]
    while frontier:
        nxt = []
        for cur in frontier:
            for p in gen_perms:
                img = p[cur]
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


def in_weyl(r: RootSystem, g: GroupElement) -> bool:
    """Chamber-walk membership test: move g(regular) back to the fundamental
    chamber with simple reflections; g is in W iff the residual chamber
    symmetry is the identity permutation of simple roots."""
    simples = simple_roots(r)
    n = r.ambient_dim
    # deterministic regular vector: strictly dominant for the lexicographic
    # order, so no root evaluates to zero on it
    base = max(max(abs(x) for x in v) for v in r.roots) * len(r.roots) + 3
    reg = tuple(Fraction(base ** (n - 1 - k)) for k in range(n))
    # walk g(reg) back into the fundamental chamber, recording the word
    word = []
    v = apply_matrix_cols(g.cols, reg)
    guard = 0
    while True:
        done = True
        for s in simples:
            alpha = r.roots[s]
            val = sum(Fraction(x) * a for x, a in zip(v, alpha))
            if val < 0:
                v = reflect(r, s, v)
                word.append(s)
                done = False
        if done:
            break
        guard += 1
        if guard > 100000:
            raise RuntimeError("chamber walk failed to terminate")
    # w*g fixes the chamber, hence permutes the simple roots; g lies in W
    # exactly when that residual permutation is the identity
    for s in simples:
        img = apply_matrix_cols(g.cols, r.roots[s])
        for w in word:
            img = reflect(r, w, img)
        if tuple(int(x) for x in img) != r.roots[s]:
            return False
    return True


def _fingerprint(r: RootSystem, q) -> tuple:
    qs = sorted(q)
    grams = sorted(
        tuple(sorted(inner(r.roots[i], r.roots[j]) for j in qs)) for i in qs
    )
    norms = tuple(sorted(inner(r.roots[i], r.roots[i]) for i in qs))
    return (len(qs), norms, tuple(grams))


def _isometries_mapping(r: RootSystem, q1, q2):
    """Yield GroupElements (isometries of R) with g(q1) = q2, found by
    Gram-preserving backtracking on root images."""
    q1s = sorted(q1)
    q2s = sorted(q2)
    n1 = len(q1s)
    # extend q1 by further roots to a basis of the root span (dimension
    # r.rank), so the images of the base determine the map
    base = []
    span = RMatrix.empty(r.ambient_dim)
    for i in q1s + [k for k in range(r.nroots) if k not in q2 and k not in q1]:
        if len(base) == r.rank:
            break
        if not span.contains(r.roots[i]):
            span = RMatrix(span.rows + [r.roots[i]])
            base.append(i)
    extras = [b for b in base if b not in q1]

    order = q1s + extras
    assign: dict[int, int] = {}

    def candidates(pos):
        src = order[pos]
        pool = q2s if pos < n1 else range(r.nroots)
        for img in pool:
            if inner(r.roots[img], r.roots[img]) != inner(r.roots[src], r.roots[src]):
                continue
            ok = True
            for done_src, done_img in assign.items():
                if inner(r.roots[src], r.roots[done_src]) != inner(
                    r.roots[img], r.roots[done_img]
                ):
                    ok = False
                    break
            if ok:
                yield img

    used2: set[int] = set()
    results = []

    def backtrack(pos):
        if pos == len(order):
            srcs = [tuple(Fraction(x) for x in r.roots[i]) for i in base]
            imgs = [tuple(Fraction(x) for x in r.roots[assign[i]]) for i in base]
            cols = _matrix_from_images(r, srcs, imgs, r.ambient_dim)
            try:
                g = element_from_matrix(r, cols)
            except ValueError:
                return
            if {g.perm[i] for i in q1} == set(q2):
                results.append(g)
            return
        src = order[pos]
        for img in candidates(pos):
            if pos < n1 and img in used2:
                continue
            assign[src] = img
            if pos < n1:
                used2.add(img)
            backtrack(pos + 1)
            del assign[src]
            if pos < n1:
                used2.discard(img)

    backtrack(0)
    return results


def sets_equivalent(r: RootSystem, q1, q2, group: str = "weyl") -> bool:
    """True iff some element of the chosen group maps q1 onto q2.

    Invariant fingerprints (cardinality, Gram multiset) prune, then a
    complete backtracking isometry search runs; for group='weyl' each found
    isometry is tested for W-membership by the chamber walk.
    """
    q1, q2 = frozenset(q1), frozenset(q2)
    if len(q1) != len(q2):
        return False
    if _fingerprint(r, q1) != _fingerprint(r, q2):
        return False
    for g in _isometries_mapping(r, q1, q2):
        if group == "aut" or in_weyl(r, g):
            return True
    return False


def random_element(r: RootSystem, rng: random.Random, length: int = 12, group: str = "weyl") -> GroupElement:
    gens = generators(r, group)
    perm = tuple(range(r.nroots))
    cols = tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for i in range(r.ambient_dim))
        for j in range(r.ambient_dim)
    )
    cur = GroupElement(perm, cols)
    for _ in range(length):
        g = rng.choice(gens)
        perm = tuple(g.perm[cur.perm[i]] for i in range(r.nroots))
        newcols = tuple(apply_matrix_cols(g.cols, c) for c in cur.cols)
        cur = GroupElement(perm, newcols)
    return cur
