"""Weyl-group and automorphism-group actions on roots and root sets:
reflections, orbits of sets, canonical forms and equivalence testing.

A group element is the permutation it induces on the root list: a tuple g of
root indices, g[i] the index of the image of root i.  The simple reflections
and the diagram automorphisms are built once per root system, in integer
arithmetic, and kept on it; ``matrix_of`` gives back the ambient linear map
of an element.  Membership in W versus the full automorphism group is
decided by the chamber walk on permutations.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .gaussq import Factored, RMatrix
from .rootsys import RootSystem, inner


class OrbitBudgetExceeded(RuntimeError):
    pass


def reflection_perm(r: RootSystem, alpha_idx: int) -> tuple[int, ...]:
    """Permutation of root indices induced by s_alpha(v) = v - c alpha, with
    the Cartan integer c = 2(v|alpha)/(alpha|alpha), exact on stored vectors."""
    alpha = r.roots[alpha_idx]
    norm = sum(a * a for a in alpha)
    out = []
    for v in r.roots:
        c, rem = divmod(2 * sum(x * a for x, a in zip(v, alpha)), norm)
        assert rem == 0, "Cartan integer is not an integer"
        out.append(r.index[tuple(x - c * a for x, a in zip(v, alpha))])
    return tuple(out)


def _cached(r: RootSystem, key: str, build):
    """Per-root-system store of the group data, built on first use."""
    if key not in r._group_cache:
        r._group_cache[key] = build()
    return r._group_cache[key]


def _lex_positive(v: tuple[int, ...]) -> bool:
    for x in v:
        if x != 0:
            return x > 0
    return False


def positive_roots(r: RootSystem) -> list[int]:
    """Positive system from the deterministic lexicographic order."""
    return [i for i, v in enumerate(r.roots) if _lex_positive(v)]


def simple_roots(r: RootSystem, positive=None) -> list[int]:
    """Simple roots (in root order) of a positive system: the positive roots
    that are not a sum of two positive roots.  The default, the lexicographic
    positive system, is computed once per root system."""
    if positive is None:
        return list(_cached(r, "simples", lambda: tuple(simple_roots(r, positive_roots(r)))))
    pos = sorted(positive)
    pset = set(pos)
    simples = []
    for i in pos:
        if not any(
            r.index.get(tuple(x - y for x, y in zip(r.roots[i], r.roots[a]))) in pset for a in pos if a != i
        ):
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


def _base_map(r: RootSystem, base: list[int]):
    """Permutation builder for a base of the root span (root indices): the
    returned function takes images of the base roots, which must have the
    base's Gram matrix, and gives the root permutation of the isometry they
    define, or None when some root is not sent to a root.  Each root's
    coordinates in the base are solved once, as integer numerators over a
    common denominator."""
    f = Factored([[r.roots[b][k] for b in base] for k in range(r.ambient_dim)], Fraction)
    coords = [f.solve(v) for v in r.roots]
    den = math.lcm(*(x.denominator for c in coords for x in c))
    nums = [[int(x * den) for x in c] for c in coords]

    def perm_of(images) -> tuple[int, ...] | None:
        vecs = [r.roots[i] for i in images]
        out = []
        for row in nums:
            img = []
            for k in range(r.ambient_dim):
                x, rem = divmod(sum(c * v[k] for c, v in zip(row, vecs)), den)
                if rem:
                    return None
                img.append(x)
            idx = r.index.get(tuple(img))
            if idx is None:
                return None
            out.append(idx)
        return tuple(out)

    return perm_of


def diagram_automorphisms(r: RootSystem) -> list[tuple[int, ...]]:
    """Nontrivial diagram automorphisms lifted to root-system isometries
    (identity on the orthogonal complement of the root span), as root
    permutations; computed once per root system."""
    return list(_cached(r, "diagram", lambda: _diagram_automorphisms(r)))


def _diagram_automorphisms(r: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The permutations of the simple roots that keep their Gram matrix, each
    extended linearly (all of them permute the roots)."""
    simples = simple_roots(r)
    k = len(simples)
    gram = [[sum(a * b for a, b in zip(r.roots[i], r.roots[j])) for j in simples] for i in simples]
    perm_of = _base_map(r, simples)
    out = []
    for perm in itertools.permutations(range(k)):
        if perm == tuple(range(k)) or any(gram[perm[i]][perm[j]] != gram[i][j] for i in range(k) for j in range(k)):
            continue
        g = perm_of([simples[i] for i in perm])
        if g is not None:
            out.append(g)
    return tuple(out)


def generators(r: RootSystem, group: str = "weyl") -> tuple[tuple[int, ...], ...]:
    """The simple reflections, followed for 'aut' by the diagram
    automorphisms; built once per root system."""
    if group not in ("weyl", "aut"):
        raise ValueError("group must be 'weyl' or 'aut'")
    gens = _cached(r, "reflections", lambda: tuple(reflection_perm(r, s) for s in simple_roots(r)))
    if group == "aut":
        gens = gens + tuple(diagram_automorphisms(r))
    return gens


def matrix_of(r: RootSystem, g) -> list[tuple[Fraction, ...]]:
    """Columns of the ambient matrix of the element g: the linear map taking
    each simple root s to root g[s] and fixing the orthogonal complement of
    the root span."""
    simples = simple_roots(r)
    vecs = [r.roots[s] for s in simples]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
    ginv = Factored(gram, Fraction).inverse()
    n = r.ambient_dim
    cols = []
    for k in range(n):
        # e_k = its projection sum_i coeff_i s_i onto the root span, plus a
        # vector orthogonal to every root, which the map fixes
        coeff = [sum(gi[j] * vecs[j][k] for j in range(len(vecs))) for gi in ginv]
        col = [Fraction(int(t == k)) for t in range(n)]
        for c, s, v in zip(coeff, simples, vecs):
            for t in range(n):
                col[t] += c * (r.roots[g[s]][t] - v[t])
        cols.append(tuple(col))
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
                img = frozenset(g[i] for i in cur)
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


def in_weyl(r: RootSystem, g) -> bool:
    """Chamber-walk membership test for an automorphism g of R: while some
    simple root s has a preimage outside the positive system, compose
    inv = g^-1 with s; the walk ends at the diagram automorphism (w g)^-1
    that fixes the positive system, and g lies in W exactly when it is the
    identity.  Each step lowers by one the number of positive roots that inv
    makes negative, so at most |R|/2 steps are taken."""
    simples = simple_roots(r)
    steps = list(zip(simples, generators(r)))
    inv = [0] * r.nroots
    for i, j in enumerate(g):
        inv[j] = i
    for _ in range(r.nroots // 2 + 1):
        s = next((p for a, p in steps if not _lex_positive(r.roots[inv[a]])), None)
        if s is None:
            return all(i == k for k, i in enumerate(inv))
        inv = [inv[k] for k in s]
    raise ValueError("permutation is not an automorphism of the root system")


def _fingerprint(r: RootSystem, q) -> tuple:
    qs = sorted(q)
    grams = sorted(
        tuple(sorted(inner(r.roots[i], r.roots[j]) for j in qs)) for i in qs
    )
    norms = tuple(sorted(inner(r.roots[i], r.roots[i]) for i in qs))
    return (len(qs), norms, tuple(grams))


def _isometries_mapping(r: RootSystem, q1, q2):
    """Root permutations of the isometries g of R with g(q1) = q2, found by
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
    perm_of = _base_map(r, base)
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
            g = perm_of([assign[i] for i in base])
            if g is not None and {g[i] for i in q1} == set(q2):
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


def random_element(r: RootSystem, rng: random.Random, length: int = 12, group: str = "weyl") -> tuple[int, ...]:
    """Product of ``length`` generators drawn by ``rng``, as a root permutation."""
    gens = generators(r, group)
    g = tuple(range(r.nroots))
    for _ in range(length):
        s = rng.choice(gens)
        g = tuple(s[i] for i in g)
    return g
