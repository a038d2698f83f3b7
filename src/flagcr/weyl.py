"""Weyl-group and automorphism-group actions on roots and root sets:
reflections, orbits of sets, canonical forms and equivalence testing.

A group element is the permutation it induces on the root list: a tuple g of
root indices, g[i] the index of the image of root i.  The simple roots, each
root's integer coordinates on them, the simple reflections and the diagram
automorphisms are built once per root system, in integer arithmetic, and kept
on it.  A stabiliser chain of W and of Aut, also built once, gives the
canonical form of a set (its least image, found without walking the orbit),
and two sets are equivalent when their canonical forms agree.  A set orbit
is enumerated once per member, through the W-orbit of its dominant root sum.
Membership of one element in W is decided by the chamber walk on
permutations; in_weyl has no caller in the package and stays only because
the benchmark tracer (perfbench/tracer.py) wraps it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .intlat import column_solver
from .rootsys import RootSystem, _cached, dot


class OrbitBudgetExceeded(RuntimeError):
    pass


def _coroot_pairing(r: RootSystem, alpha_idx: int) -> list[int]:
    """Cartan integers <v, alpha^vee> = 2(v|alpha)/(alpha|alpha) of every root v, exact;
    kept per root system, so a simple reflection and the label table share them."""
    alpha = r.roots[alpha_idx]
    norm = sum(a * a for a in alpha)

    def pair(v):
        c, rem = divmod(2 * sum(x * a for x, a in zip(v, alpha)), norm)
        assert rem == 0, "Cartan integer is not an integer"
        return c

    return _cached(r, f"pairing:{alpha_idx}", lambda: [pair(v) for v in r.roots])


def reflection_perm(r: RootSystem, alpha_idx: int) -> tuple[int, ...]:
    """Permutation of root indices induced by s_alpha(v) = v - <v, alpha^vee> alpha."""
    alpha = r.roots[alpha_idx]
    pairing = _coroot_pairing(r, alpha_idx)
    return tuple(r.index[tuple(x - c * a for x, a in zip(v, alpha))] for v, c in zip(r.roots, pairing))


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


def _labels(r: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Each root's integer labels <beta, alpha_i^vee> against the simple roots, built once."""
    return _cached(r, "labels", lambda: tuple(zip(*(_coroot_pairing(r, s) for s in simple_roots(r)))))


def cartan_matrix(r: RootSystem) -> list[tuple[int, ...]]:
    """Rows <alpha_i, alpha_j^vee>: the label rows of the simple roots."""
    labels = _labels(r)
    return [labels[s] for s in simple_roots(r)]


def simple_coordinates(r: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Each root's coordinates on simple_roots(r), in root order: integers,
    all of one sign (Humphreys, Introduction to Lie Algebras, 10.1), read off
    one Smith form of the simple-root columns; built once."""
    def build():
        solver = column_solver([r.roots[s] for s in simple_roots(r)])
        return tuple(solver.lift(solver.transform(v)) for v in r.roots)

    return _cached(r, "coordinates", build)


def diagram_automorphisms(r: RootSystem) -> list[tuple[int, ...]]:
    """Nontrivial diagram automorphisms lifted to root-system isometries
    (identity on the orthogonal complement of the root span), as root
    permutations; computed once per root system."""
    return list(_cached(r, "diagram", lambda: _diagram_automorphisms(r)))


def _diagram_automorphisms(r: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The permutations of the simple roots that keep their Gram matrix, each
    extended linearly through the simple coordinates of the roots (all of
    them permute the roots)."""
    simples = simple_roots(r)
    k = len(simples)
    gram = [[sum(a * b for a, b in zip(r.roots[i], r.roots[j])) for j in simples] for i in simples]
    coords = simple_coordinates(r)
    out = []
    for perm in itertools.permutations(range(k)):
        if perm == tuple(range(k)) or any(gram[perm[i]][perm[j]] != gram[i][j] for i in range(k) for j in range(k)):
            continue
        cols = list(zip(*(r.roots[simples[i]] for i in perm)))
        out.append(tuple(r.index[tuple(dot(row, col) for col in cols)] for row in coords))
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


def canonical_form(r: RootSystem, q, group: str = "weyl", budget: int | None = 2_000_000) -> frozenset[int]:
    """Lexicographically least image of the set under the chosen group (the
    member of its orbit with the least sorted tuple of root vectors), by Linton's smallest-image search
    down the stabiliser chain.  ``budget`` counts the candidate images the
    search generates; past it OrbitBudgetExceeded is raised, and None means
    no limit."""
    cands = {frozenset(q)}
    made = 0
    for k, level in enumerate(_chain(r, group)):
        # the least image contains k exactly when some candidate can be moved
        # onto k by the stabiliser of 0..k-1; the candidates all agree on 0..k-1
        if len(level) == 1:
            cands = {c for c in cands if k in c} or cands
            continue
        pairs = [(t, c) for c in cands for t in c if t in level]
        if not pairs:
            pairs = [(t, c) for c in cands for t in level]
        made += len(pairs)
        if budget is not None and made > budget:
            raise OrbitBudgetExceeded(f"canonical image search exceeded {budget} candidates")
        cands = {frozenset(map(level[t].__getitem__, c)) for t, c in pairs}
    return min(cands, key=sorted)


def _chain(r: RootSystem, group: str) -> tuple[dict[int, tuple[int, ...]], ...]:
    """Stabiliser chain of the group for the base 0, 1, ..., n-1 (root-index
    order, which is the order of the root vectors because they are stored
    sorted): level k maps each point t of the orbit of k under the pointwise
    stabiliser of 0..k-1 to the inverse of a transversal element sending k to
    t.  It stops at the last level with more than one point; built once per
    root system and group."""
    return _cached(r, "chain:" + group, lambda: _schreier_sims(generators(r, group), r.nroots))


def _schreier_sims(gens, n: int) -> tuple[dict[int, tuple[int, ...]], ...]:
    """Deterministic Schreier-Sims (Seress, Permutation Group Algorithms,
    2003) for the base 0..n-1.  Levels are completed from the deepest
    up: every Schreier generator of level k is sifted through the levels
    below it, and a residue that does not sift becomes a strong generator of
    every level down to the point where it stuck, whose levels are redone."""
    ident = tuple(range(n))

    def compose(a, b):  # a after b
        return tuple(map(a.__getitem__, b))

    strong = [[] for _ in range(n)]  # level k: the strong generators fixing 0..k-1
    trans = [{k: (ident, ident)} for k in range(n)]  # level k: t -> (u_t, u_t^-1)
    tested = [set() for _ in range(n)]

    def add(g):
        j = next(i for i in range(n) if g[i] != i)
        for k in range(j + 1):
            strong[k].append(g)
        return j

    def sift(h, k):
        for j in range(k, n):
            if h[j] != j:
                u = trans[j].get(h[j])
                if u is None:
                    return h
                h = compose(u[1], h)
        return None

    for g in gens:
        if g != ident:
            add(g)
    k = n - 1
    while k >= 0:
        orbit = trans[k]
        pts = list(orbit)
        for t in pts:  # extend the orbit, keeping the transversal already chosen
            u = orbit[t][0]
            for s in strong[k]:
                if s[t] not in orbit:
                    su = compose(s, u)
                    orbit[s[t]] = (su, _inverse(su))
                    pts.append(s[t])
        redo = None
        for t in pts:
            u = orbit[t][0]
            for i, s in enumerate(strong[k]):
                if (t, i) in tested[k]:
                    continue
                tested[k].add((t, i))
                h = sift(compose(orbit[s[t]][1], compose(s, u)), k + 1)
                if h is not None:
                    redo = add(h)
                    break
            if redo is not None:
                break
        k = k - 1 if redo is None else redo
    last = max((k for k in range(n) if len(trans[k]) > 1), default=-1)
    return tuple({t: uinv for t, (u, uinv) in level.items()} for level in trans[: last + 1])


def _inverse(g) -> tuple[int, ...]:
    out = [0] * len(g)
    for i, j in enumerate(g):
        out[j] = i
    return tuple(out)


def set_orbit(r: RootSystem, q, group: str = "weyl", budget: int | None = 2_000_000) -> set[frozenset[int]]:
    """Full orbit of the set, for orbit sizes and the orbit dedup of the
    clique enumeration, with each member built once.  Simple reflections move
    Q until its root sum, which is W-equivariant, is a dominant weight lam; BFS under its stabiliser W_J, generated by the s_j
    with lam_j = 0 (Chevalley), gives the fibre W_J Q.  The orbit is the
    disjoint union of the fibre's images under the minimal coset
    representatives of W_J, walked as the reverse-search tree of W lam (Snow,
    ACM TOMS 16, 1990; Avis-Fukuda 1996): a weight's parent is its reflection
    at its first negative label.  For 'aut', where W is normal, each diagram
    automorphism that moves Q out of the orbit adds its image of the W-orbit.
    OrbitBudgetExceeded is raised exactly when the orbit has more than
    ``budget`` sets; None means no limit."""
    labels, cartan = _labels(r), cartan_matrix(r)
    n, limit = len(cartan), math.inf if budget is None else budget
    refl = generators(r, group)[:n]
    cur = q = tuple(q)
    lam = [sum(c) for c in zip(*(labels[b] for b in cur))] or [0] * n
    while (i := next((k for k, x in enumerate(lam) if x < 0), None)) is not None:
        cur, x = [refl[i][b] for b in cur], lam[i]
        lam = [a - x * c for a, c in zip(lam, cartan[i])]

    def grow(new):
        orbit.update(new)
        if len(orbit) > limit:
            raise OrbitBudgetExceeded(f"set orbit exceeded {budget} nodes")

    fibre, orbit = [frozenset(cur)], set()
    grow(fibre)
    stab = [g for g, x in zip(refl, lam) if x == 0]
    for s in fibre:
        for g in stab:
            if (img := frozenset(map(g.__getitem__, s))) not in orbit:
                fibre.append(img)
                grow((img,))
    # node (nu, p, fib): nu's first negative label is at p (n at lam); s_i raises only
    # i's neighbours, so s_i nu is a child if i < p, and can be if i is p's later neighbour
    later = [[j for j in range(i + 1, n) if cartan[i][j]] for i in range(n)] + [[]]
    stack = [(lam, n, fibre)]
    while stack:
        nu, p, fib = stack.pop()
        for i in itertools.chain(range(p), later[p]):
            if (x := nu[i]) <= 0 or i > p and nu[p] < x * cartan[i][p]:
                continue
            child = [a - x * c for a, c in zip(nu, cartan[i])]
            if i < p or min(child[:i]) >= 0:
                g = refl[i]
                grow(img := [frozenset(map(g.__getitem__, s)) for s in fib])
                stack.append((child, i, img))
    if group == "aut":
        w_orbit = list(orbit)
        for g in diagram_automorphisms(r):
            if frozenset(map(g.__getitem__, q)) not in orbit:
                grow([frozenset(map(g.__getitem__, s)) for s in w_orbit])
    return orbit


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
    inv = _inverse(g)
    for _ in range(r.nroots // 2 + 1):
        s = next((p for a, p in steps if not _lex_positive(r.roots[inv[a]])), None)
        if s is None:
            return all(i == k for k, i in enumerate(inv))
        inv = [inv[k] for k in s]
    raise ValueError("permutation is not an automorphism of the root system")


def sets_equivalent(r: RootSystem, q1, q2, group: str = "weyl") -> bool:
    """True iff some element of the chosen group maps q1 onto q2: the sets
    have the same size and the same canonical form.  Each of the two
    canonical-image searches runs under canonical_form's default budget
    (candidate images generated), and OrbitBudgetExceeded is raised past it."""
    q1, q2 = frozenset(q1), frozenset(q2)
    return len(q1) == len(q2) and canonical_form(r, q1, group) == canonical_form(r, q2, group)
