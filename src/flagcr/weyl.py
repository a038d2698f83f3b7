"""Weyl-group and automorphism-group actions on roots and root sets:
reflections, orbits of sets, canonical forms and equivalence testing.

A group element is the permutation it induces on the root list: a tuple g of
root indices, g[i] the index of the image of root i.  The simple roots, each
root's integer coordinates on them, the simple reflections and the diagram
automorphisms are built once per root system, in integer arithmetic, and kept
on it.  A stabiliser chain of W, also built once, gives the canonical form of
a set (its least image, found without walking the orbit); each level's group
is the reflection subgroup of the roots orthogonal to the base points before
it (Steinberg), and the Aut form is the least W-image of the set's images
under the diagram automorphisms.  The same search counts the group elements
that reach the least image, so it also gives the order of the set's
stabiliser and, with the group's order, its orbit size (counted_form); two
sets are equivalent when their canonical forms agree.  These searches, the
clique search of classify.enumerate_maximal and classify.subset_universe
stop at one budget, BUDGET, which only enumerate --budget overrides.
set_orbit enumerates a set orbit once per member, through the W-orbit of its
dominant root sum, walked on weights packed into one integer each; no module
of the package calls it, and it serves the benchmark (perfbench/workloads.py)
and the tests as their oracle of orbits.
Membership of one element in W is decided by the chamber walk on
permutations; in_weyl has no caller in the package and stays only because
the benchmark tracer (perfbench/tracer.py) wraps it.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import itemgetter
from typing import NamedTuple

from .intlat import column_solver
from .rootsys import RootSystem, _cached, dot, root_sum


# candidate images, orbit members, clique-search nodes or subsets
BUDGET = 2_000_000


class BudgetExceeded(RuntimeError):
    """A search stopped at its budget; ``partial`` holds what it completed."""

    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


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
        if not any(root_sum(r, i, r.negation[a]) in pset for a in pos if a != i):
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
        solver = column_solver([r.roots[s] for s in simple_roots(r)], r.ambient_dim)
        return tuple(solver.lift(solver.transform(v)) for v in r.roots)

    return _cached(r, "coordinates", build)


def diagram_automorphisms(r: RootSystem) -> list[tuple[int, ...]]:
    """Nontrivial diagram automorphisms lifted to root-system isometries
    (identity on the orthogonal complement of the root span), as root
    permutations; computed once per root system."""
    return list(_cached(r, "diagram", lambda: _diagram_automorphisms(r)))


def _diagram_automorphisms(r: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The permutations of the simple roots that keep their Gram matrix, in
    lexicographic order, each extended linearly through the simple
    coordinates of the roots (all of them permute the roots).  A prefix is
    extended only while it keeps the Gram matrix, so the walk visits no
    permutation of the k! that fails on its first entries; B, C, F4 and G2
    have none, and build no simple coordinates."""
    simples = simple_roots(r)
    k = len(simples)
    gram = [[sum(a * b for a, b in zip(r.roots[i], r.roots[j])) for j in simples] for i in simples]
    out = []
    stack = [()]
    while stack:  # depth first, each prefix's extensions pushed in reverse
        prefix = stack.pop()
        if len(prefix) < k:
            stack.extend(prefix + (t,) for t in reversed(_gram_extensions(gram, prefix)))
        elif prefix != tuple(range(k)):
            cols = list(zip(*(r.roots[simples[i]] for i in prefix)))
            out.append(tuple(r.index[tuple(dot(row, col) for col in cols)] for row in simple_coordinates(r)))
    return tuple(out)


def _gram_extensions(gram, prefix) -> list[int]:
    """The t that extend the prefix p of a permutation to one that still keeps
    the Gram matrix on its first i + 1 entries, i = len(p): t is new,
    gram[t][t] == gram[i][i] and gram[t][p[j]] == gram[i][j] for j < i."""
    i = len(prefix)
    return [t for t in range(len(gram)) if t not in prefix and gram[t][t] == gram[i][i]
            and all(gram[t][prefix[j]] == gram[i][j] for j in range(i))]


def generators(r: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The simple reflections, built once per root system."""
    return _cached(r, "reflections", lambda: tuple(reflection_perm(r, s) for s in simple_roots(r)))


def _check_group(group: str) -> None:
    if group not in ("weyl", "aut"):
        raise ValueError("group must be 'weyl' or 'aut'")


class CountedForm(NamedTuple):
    """A set's least image under a group, the order of its stabiliser there,
    the order of the group, and the candidate images the search generated."""

    image: frozenset[int]
    stabiliser: int
    order: int
    candidates: int

    @property
    def orbit_size(self) -> int:
        return self.order // self.stabiliser


def canonical_form(r: RootSystem, q, group: str = "weyl", budget: int = BUDGET) -> frozenset[int]:
    """Lexicographically least image of the set under the chosen group (the
    member of its orbit with the least sorted tuple of root vectors): the
    image of counted_form, under the same budget."""
    return counted_form(r, q, group, budget).image


def counted_form(r: RootSystem, q, group: str = "weyl", budget: int = BUDGET) -> CountedForm:
    """The least image of the set, by Linton's smallest-image search down the
    stabiliser chain of W (Linton, Finding the smallest image of a set,
    ISSAC 2004), with the order of its stabiliser.  Aut is W extended by the
    diagram automorphisms, so for 'aut' the search starts from the set and
    its images under them, and their least W-image is the least Aut-image.

    Every group element is one product of a transversal element per level,
    so each candidate carries the number of products that reach it: a pair
    of a transversal element and a candidate adds the candidate's count to
    its image, and the seeds count 1 each.  The
    search drops only products whose image cannot be least, so the count of
    the least image is the number of elements mapping the set onto it, the
    order of its stabiliser; the group's order is the product of the level
    sizes, times 1 + |Gamma| for 'aut'.  ``budget`` counts the candidate
    images the search generates; past it BudgetExceeded is raised."""
    _check_group(group)
    seeds = [frozenset(q)]
    if group == "aut":
        seeds += [frozenset(map(g.__getitem__, q)) for g in diagram_automorphisms(r)]
    cands: dict[frozenset[int], int] = Counter(seeds)
    made = 0
    for k, level in enumerate(_chain(r)):
        # the least image contains k exactly when some candidate can be moved
        # onto k by the stabiliser of 0..k-1; the candidates all agree on 0..k-1
        if len(level) == 1:
            cands = {c: n for c, n in cands.items() if k in c} or cands
            continue
        pairs = [(level[t], c, n) for c, n in cands.items() for t in c if t in level]
        if not pairs:
            pairs = [(g, c, n) for c, n in cands.items() for g in level.values()]
        made += len(pairs)
        if made > budget:
            raise BudgetExceeded(f"canonical image search exceeded {budget} candidates")
        cands = {}
        get = cands.get
        for g, c, n in pairs:
            img = frozenset(map(g.__getitem__, c))
            cands[img] = get(img, 0) + n
    image = min(cands, key=sorted)
    order = math.prod(map(len, _chain(r))) * len(seeds)
    return CountedForm(image, cands[image], order, made)


def _chain(r: RootSystem) -> tuple[dict[int, tuple[int, ...]], ...]:
    """Stabiliser chain of W for the base 0, 1, ..., n-1 (root-index order,
    which is the order of the root vectors because they are stored sorted):
    level k maps each point t of the orbit of k under the pointwise
    stabiliser of 0..k-1 to the inverse of a transversal element sending k to
    t.  That stabiliser is generated by the reflections it contains
    (Steinberg; Humphreys, Reflection Groups and Coxeter Groups, 1.12), the
    reflections in the roots orthogonal to 0..k-1, so the orbit is a
    breadth-first search under the reflections in the simple roots of those
    positive roots.  A level is one point exactly when every root of its
    subsystem is orthogonal to its base point, so the subsystem of the next
    level is the same; the chain stops where that subsystem is empty, and so
    its last level has more than one point.  Built once per root system."""
    def build():
        levels, perp = [], positive_roots(r)
        while perp:  # else the stabiliser of 0..k-1 is trivial
            k = len(levels)
            gens = [reflection_perm(r, s) for s in simple_roots(r, perp)]
            level, pts = {k: tuple(range(r.nroots))}, [k]
            for t in pts:
                for s in gens:
                    if s[t] not in level:  # s is an involution: level[t] o s sends s[t] to k
                        level[s[t]] = tuple(map(level[t].__getitem__, s))
                        pts.append(s[t])
            levels.append(level)
            perp = [b for b in perp if dot(r.roots[b], r.roots[k]) == 0]
        return tuple(levels)

    return _cached(r, "chain", build)


def _inverse(g) -> tuple[int, ...]:
    out = [0] * len(g)
    for i, j in enumerate(g):
        out[j] = i
    return tuple(out)


def set_orbit(r: RootSystem, q, group: str = "weyl", budget: int = BUDGET) -> set[frozenset[int]]:
    """Full orbit of the set, with each member built once: the oracle that
    counted_form's orbit sizes are tested against.  Simple reflections move
    Q until its root sum, which is W-equivariant, is a dominant weight lam; BFS under its stabiliser W_J, generated by the s_j
    with lam_j = 0 (Chevalley), gives the fibre W_J Q.  The orbit is the
    disjoint union of the fibre's images under the minimal coset
    representatives of W_J, walked as the reverse-search tree of W lam (Snow,
    ACM TOMS 16, 1990; Avis-Fukuda 1996): a weight's parent is its reflection
    at its first negative label.  For 'aut', where W is normal, each diagram
    automorphism that moves Q out of the orbit adds its image of the W-orbit.

    The tree walk runs on integers.  A weight of W lam is one int whose field
    k, w bits wide, holds label k plus off = 2^(w-1).  Every such weight is the
    root sum of some w(Q), so label k is a sum of |Q| Cartan integers
    <beta, alpha_k^vee>, each in [-3, 3]: |label| <= 3|Q| < off, and every
    field lies in [1, 2^w - 1].  So a reflection is one multiply and subtract
    of a packed Cartan row, a label is a shift and a mask, and the labels
    before i are all >= 0 exactly when the top bits of their fields are set.
    During the walk a member is a tuple of root indices, imaged under a
    reflection g by itemgetter(*s)(g), and frozen once, as its node is made.

    BudgetExceeded is raised exactly when the orbit has more than
    ``budget`` sets."""
    _check_group(group)
    labels, cartan = _labels(r), cartan_matrix(r)
    n = len(cartan)
    refl = generators(r)
    cur = q = tuple(q)
    lam = [sum(c) for c in zip(*(labels[b] for b in cur))] or [0] * n
    while (i := next((k for k, x in enumerate(lam) if x < 0), None)) is not None:
        cur, x = [refl[i][b] for b in cur], lam[i]
        lam = [a - x * c for a, c in zip(lam, cartan[i])]

    def grow(new):
        orbit.update(new)
        if len(orbit) > budget:
            raise BudgetExceeded(f"set orbit exceeded {budget} nodes")

    fibre, orbit = [frozenset(cur)], set()
    grow(fibre)
    stab = [g for g, x in zip(refl, lam) if x == 0]
    for s in fibre:
        for g in stab:
            if (img := frozenset(map(g.__getitem__, s))) not in orbit:
                fibre.append(img)
                grow((img,))
    w = (3 * len(q)).bit_length() + 1
    off, mask = 1 << (w - 1), (1 << w) - 1
    # per simple root i: i, its field's shift, its packed Cartan row, the top
    # bits of the fields before it, and its reflection
    steps = [(i, i * w, sum(c << (j * w) for j, c in enumerate(row)), sum(off << (j * w) for j in range(i)), g)
             for i, (row, g) in enumerate(zip(cartan, refl))]
    # node (nu, p, members): nu's first negative label is at p (n at lam); s_i
    # raises only i's neighbours, so s_i nu is a child if i < p, and can be if
    # i is p's later neighbour
    cands = [[steps[i] for i in range(p)] + [steps[j] for j in range(p + 1, n) if cartan[p][j]] for p in range(n)]
    cands.append(steps)
    # itemgetter of one index returns the root, not a tuple: a one-root
    # member carries its root twice.  The empty set, of root sum 0, has no
    # tree nodes
    pad = 2 if len(q) == 1 else 1
    stack = [(sum((x + off) << (k * w) for k, x in enumerate(lam)), n, [tuple(s) * pad for s in fibre])]
    while stack:
        nu, p, members = stack.pop()
        for i, shift, row, top, g in cands[p]:
            if (x := (nu >> shift & mask) - off) > 0 and (child := nu - x * row) & top == top:
                img = [itemgetter(*s)(g) for s in members]
                grow(map(frozenset, img))
                stack.append((child, i, img))
    if group == "aut":
        w_orbit = list(orbit)
        for g in diagram_automorphisms(r):
            if frozenset(map(g.__getitem__, q)) not in orbit:
                grow([frozenset(map(g.__getitem__, s)) for s in w_orbit])
    return orbit


def root_orbit(r: RootSystem, idx: int, gen_perms) -> frozenset[int]:
    """The orbit of one root under the group the permutations generate."""
    seen, pts = {idx}, [idx]
    for t in pts:
        for p in gen_perms:
            if p[t] not in seen:
                seen.add(p[t])
                pts.append(p[t])
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
    canonical-image searches runs under BUDGET (candidate images
    generated), and BudgetExceeded is raised past it."""
    _check_group(group)
    q1, q2 = frozenset(q1), frozenset(q2)
    return len(q1) == len(q2) and canonical_form(r, q1, group) == canonical_form(r, q2, group)
