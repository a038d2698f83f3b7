import math
import random
from fractions import Fraction

import pytest
from ambient_matrix import matrix_of
from weyl_words import random_element

from flagcr import weyl
from flagcr.classify import enumerate_maximal
from flagcr.gaussq import Factored
from flagcr.rootsys import TYPES, build_root_system, find_root, roots_set
from flagcr.weyl import (
    apply_matrix_cols,
    canonical_form,
    cartan_matrix,
    diagram_automorphisms,
    generators,
    in_weyl,
    reflection_perm,
    sets_equivalent,
    set_orbit,
    simple_coordinates,
    simple_roots,
)


def _bfs_orbit(rs, q, group):
    """Oracle: the orbit of a set by breadth-first search under the simple
    reflections, plus the diagram automorphisms for 'aut'."""
    gens = generators(rs, group)
    start = frozenset(q)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                img = frozenset(map(g.__getitem__, cur))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def test_reflect_basics():
    a2 = build_root_system("A", 3)
    i = find_root(a2, (1, -1, 0))
    s = reflection_perm(a2, i)
    assert s[i] == a2.neg(i)
    assert all(s[s[k]] == k for k in range(a2.nroots))
    # s_{e1-e2}(e2-e3) = e1-e3
    assert s[find_root(a2, (0, 1, -1))] == find_root(a2, (1, 0, -1))
    # the vector orthogonal to the root span is fixed
    assert apply_matrix_cols(matrix_of(a2, s), (1, 1, 1)) == (1, 1, 1)


def test_simple_roots_counts():
    for tag, rank, expect in [("A", 4, 3), ("B", 3, 3), ("G2", None, 2), ("F4", None, 4), ("D", 4, 4)]:
        rs = build_root_system(tag, rank)
        s = simple_roots(rs)
        assert len(s) == expect
        cm = cartan_matrix(rs)
        assert all(cm[i][i] == 2 for i in range(len(s)))


def test_diagram_automorphisms_orders():
    assert len(diagram_automorphisms(build_root_system("A", 4))) == 1
    assert len(diagram_automorphisms(build_root_system("B", 3))) == 0
    assert len(diagram_automorphisms(build_root_system("D", 4))) == 5
    assert len(diagram_automorphisms(build_root_system("D", 5))) == 1
    assert len(diagram_automorphisms(build_root_system("G2"))) == 0
    assert len(diagram_automorphisms(build_root_system("E6"))) == 1


def test_canonical_form_idempotent_and_orbit_constant():
    a2 = build_root_system("A", 3)
    q = roots_set(a2, [(0, 1, -1)])
    c = canonical_form(a2, q)
    assert canonical_form(a2, c) == c
    # single-root sets of A2 are one W-orbit
    q2 = roots_set(a2, [(1, -1, 0)])
    assert canonical_form(a2, q2) == c
    rng = random.Random(5)
    b3 = build_root_system("B", 3)
    q3 = roots_set(b3, [(1, 0, 0), (1, 1, 0)])
    c3 = canonical_form(b3, q3)
    for _ in range(20):
        g = random_element(b3, rng)
        moved = frozenset(g[i] for i in q3)
        assert canonical_form(b3, moved) == c3


def test_a3_q1_q3_equivalence():
    a3 = build_root_system("A", 4)
    q1 = roots_set(a3, [(1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)])
    q3 = roots_set(a3, [(1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)])
    assert not sets_equivalent(a3, q1, q3, "weyl")
    assert sets_equivalent(a3, q1, q3, "aut")
    # oracle: full orbit enumeration over |W| = 24
    orbit = set_orbit(a3, q1, "weyl")
    assert frozenset(q3) not in orbit
    orbit_aut = set_orbit(a3, q1, "aut")
    assert frozenset(q3) in orbit_aut


def test_d4_q4_vs_qminus4():
    d4 = build_root_system("D", 4)
    q4 = roots_set(d4, [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)])
    qm4 = roots_set(
        d4,
        [(1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, -1), (0, 1, 0, -1), (0, 0, 1, -1)],
    )
    assert not sets_equivalent(d4, q4, qm4, "weyl")
    assert sets_equivalent(d4, q4, qm4, "aut")


def test_trivial_equivalences():
    b2 = build_root_system("B", 2)
    q = roots_set(b2, [(1, 0)])
    assert sets_equivalent(b2, q, q, "weyl")
    q2 = roots_set(b2, [(1, 0), (1, 1)])
    assert not sets_equivalent(b2, q, q2, "weyl")


def test_in_weyl():
    a3 = build_root_system("A", 4)
    for g in generators(a3, "weyl"):
        assert in_weyl(a3, g)
    flip = diagram_automorphisms(a3)[0]
    assert not in_weyl(a3, flip)
    rng = random.Random(1)
    for _ in range(5):
        g = random_element(a3, rng)
        assert in_weyl(a3, g)


def test_canonical_form_budget():
    import pytest

    from flagcr.weyl import OrbitBudgetExceeded

    f4 = build_root_system("F4")
    q = roots_set(f4, [(1, 0, 0, 0), (1, 1, 0, 0)])
    with pytest.raises(OrbitBudgetExceeded):
        canonical_form(f4, q, budget=3)
    with pytest.raises(OrbitBudgetExceeded):
        set_orbit(f4, q, budget=3)
    # no budget: the whole orbit, whose least set is the canonical form
    orbit = set_orbit(f4, q, budget=None)
    assert frozenset(q) in orbit
    assert canonical_form(f4, q, budget=None) == min(orbit, key=lambda s: sorted(f4.roots[i] for i in s))


# A2-A5 (build_root_system("A", n) is A_{n-1}), B2-B4, C2-C4, D4, D5, G2, F4, E6
ORBIT_SYSTEMS = [("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3),
                 ("C", 4), ("D", 4), ("D", 5), ("G2", None), ("F4", None), ("E6", None)]


def _orbit_inputs(rs, rng, n_random):
    """The empty set, every single root, every {beta, -beta}, the positive
    system and all of R (root sum 0: the stabiliser is all of W), and random
    subsets of 1-8 roots."""
    pos = weyl.positive_roots(rs)
    sets = [(), *((i,) for i in range(rs.nroots)), *((i, rs.neg(i)) for i in pos), tuple(pos), tuple(range(rs.nroots))]
    return sets + [tuple(rng.sample(range(rs.nroots), rng.randint(1, min(8, rs.nroots)))) for _ in range(n_random)]


@pytest.mark.parametrize("tag,rank", ORBIT_SYSTEMS, ids=[f"{t}{n or ''}" for t, n in ORBIT_SYSTEMS])
def test_set_orbit_matches_bfs_oracle(tag, rank):
    rs = build_root_system(tag, rank)
    rng = random.Random(f"orbit-{tag}{rank}")
    for q in _orbit_inputs(rs, rng, 1 if tag == "E6" else 12):
        # on E6 the oracle takes seconds per group for the positive system and
        # a random set (orbits of 51,840 to 103,680 sets), so those two run
        # under W only; the E6 Aut orbits of the enumerated classes are
        # compared with the oracle in the canonical-form test below
        big = tag == "E6" and 2 < len(q) < rs.nroots
        for group in ("weyl",) if big else ("weyl", "aut"):
            assert set_orbit(rs, q, group) == _bfs_orbit(rs, q, group), (group, sorted(q))


def test_set_orbit_builds_each_set_once(monkeypatch):
    # the root sum of the positive system is regular: its stabiliser is
    # trivial, the fibre is one set and the tree walk reaches every other
    # member of the orbit (all |W| positive systems) exactly once
    built = []
    monkeypatch.setattr(weyl, "frozenset", lambda it=(): built.append(1) or frozenset(it), raising=False)
    for tag, rank, order in [("A", 5, 120), ("B", 4, 384), ("D", 5, 1920), ("G2", None, 12), ("F4", None, 1152)]:
        rs = build_root_system(tag, rank)
        built.clear()
        assert len(set_orbit(rs, weyl.positive_roots(rs))) == order
        assert len(built) == order, tag


@pytest.mark.parametrize("tag,rank,group", [("B", 3, "weyl"), ("D", 5, "weyl"), ("F4", None, "weyl"),
                                            ("A", 5, "aut"), ("D", 4, "weyl"), ("D", 4, "aut")])
def test_set_orbit_budget_is_exact(tag, rank, group):
    # OrbitBudgetExceeded exactly when the orbit has more sets than the
    # budget, whether the count passes it in the fibre, in the tree or, for
    # 'aut', in the union over the diagram automorphisms
    rs = build_root_system(tag, rank)
    rng = random.Random(f"budget-{tag}{rank}{group}")
    unions = 0
    for q in _orbit_inputs(rs, rng, 12)[:: 3 if rs.nroots > 20 else 1]:
        orbit = set_orbit(rs, q, group, None)
        assert set_orbit(rs, q, group, len(orbit)) == orbit
        with pytest.raises(weyl.OrbitBudgetExceeded):
            set_orbit(rs, q, group, len(orbit) - 1)
        unions += group == "aut" and len(orbit) > len(set_orbit(rs, q, "weyl"))
    if group == "aut":
        assert unions > 0
    if (tag, group) == ("D", "aut"):
        # triality: Q_4 and its images make three W-orbits
        q4 = roots_set(rs, [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)])
        orbit = set_orbit(rs, q4, "aut")
        assert len(orbit) == 3 * len(set_orbit(rs, q4, "weyl"))
        assert set_orbit(rs, q4, "aut", len(orbit)) == orbit
        with pytest.raises(weyl.OrbitBudgetExceeded):
            set_orbit(rs, q4, "aut", len(orbit) - 1)


def test_equivalence_agrees_with_orbit_bfs():
    rng = random.Random(31)
    for tag, rank in [("A", 3), ("B", 2), ("G2", None), ("D", 4), ("A", 5), ("F4", None), ("E6", None)]:
        rs = build_root_system(tag, rank)
        for _ in range(6):
            size = rng.randint(1, 3)
            q1 = frozenset(rng.sample(range(rs.nroots), size))
            q2 = frozenset(rng.sample(range(rs.nroots), size))
            for group in ("weyl", "aut"):
                want = frozenset(q2) in _bfs_orbit(rs, q1, group)
                assert sets_equivalent(rs, q1, q2, group) == want
                # an image of q1 is equivalent to it
                g = random_element(rs, rng, group=group)
                assert sets_equivalent(rs, q1, [g[i] for i in q1], group)
    # the D5 class pair exchanged by the diagram automorphism: the twisted
    # image is Aut- but not W-equivalent to the class representative
    d5 = build_root_system("D", 5)
    twist = diagram_automorphisms(d5)[0]
    pairs = [(c.canonical, frozenset(twist[i] for i in c.canonical)) for c in enumerate_maximal(d5)]
    twisted = [(q, tq) for q, tq in pairs if tq not in set_orbit(d5, q, "weyl")]
    assert twisted
    for q, tq in twisted:
        assert tq in set_orbit(d5, q, "aut")
        assert not sets_equivalent(d5, q, tq, "weyl")
        assert sets_equivalent(d5, q, tq, "aut")


# (type, rank, |W|, |Aut|)
GROUP_ORDERS = [
    ("A", 2, 2, 2), ("A", 3, 6, 12), ("A", 4, 24, 48), ("A", 5, 120, 240), ("A", 6, 720, 1440),
    ("B", 2, 8, 8), ("B", 3, 48, 48), ("B", 4, 384, 384), ("B", 5, 3840, 3840),
    ("C", 2, 8, 8), ("C", 3, 48, 48), ("C", 4, 384, 384), ("C", 5, 3840, 3840),
    ("D", 4, 192, 1152), ("D", 5, 1920, 3840), ("G2", None, 12, 12), ("F4", None, 1152, 1152),
    ("E6", None, 51840, 103680), ("E7", None, 2903040, 2903040), ("E8", None, 696729600, 696729600),
]


@pytest.mark.parametrize("tag,rank,w_order,aut_order", GROUP_ORDERS, ids=[f"{t}{n or ''}" for t, n, *_ in GROUP_ORDERS])
def test_chain_orders(tag, rank, w_order, aut_order):
    rs = build_root_system(tag, rank)
    for group, order in (("weyl", w_order), ("aut", aut_order)):
        chain = weyl._chain(rs, group)
        assert math.prod(len(level) for level in chain) == order, group
        assert len(chain[-1]) > 1
        for k, level in enumerate(chain):
            for t, uinv in level.items():
                # u_t^-1 fixes 0..k-1 and sends t to k
                assert uinv[t] == k and all(uinv[i] == i for i in range(k))
        assert weyl._chain(rs, group) is chain


def test_schreier_sims_from_other_generating_sets():
    # the simple reflections already generate every point stabiliser of the
    # chain; generators conjugated by a random element, or a few random
    # products, do not, and the Schreier generators must fill the levels
    rng = random.Random(11)
    for tag, rank, group, order in [("B", 4, "weyl", 384), ("D", 4, "aut", 1152), ("F4", None, "weyl", 1152),
                                    ("E6", None, "aut", 103680)]:
        rs = build_root_system(tag, rank)
        g = random_element(rs, rng, length=30, group=group)
        ginv = weyl._inverse(g)
        conjugated = [tuple(g[s[ginv[i]]] for i in range(rs.nroots)) for s in generators(rs, group)]
        assert math.prod(len(level) for level in weyl._schreier_sims(conjugated, rs.nroots)) == order, tag
        if order < 2000:
            # three random products may generate a proper subgroup
            products = [random_element(rs, rng, length=25, group=group) for _ in range(3)]
            chain = weyl._schreier_sims(products, rs.nroots)
            assert math.prod(len(level) for level in chain) == len(_closure(products)), tag


def test_roots_stored_sorted():
    # the chain's base 0, 1, ..., n-1 is set_key order, and enumerate_maximal
    # sorts index tuples for root tuples, only because of this
    for tag in TYPES:
        for rank in (None,) if tag in ("G2", "F4", "E6", "E7", "E8") else (3, 4, 5, 6):
            rs = build_root_system(tag, rank)
            assert list(rs.roots) == sorted(rs.roots), (tag, rank)
            assert len(rs.index) == rs.nroots
            assert all(rs.index[v] == i for i, v in enumerate(rs.roots)), (tag, rank)


def set_key(rs, q) -> tuple:
    """Order of sets that canonical forms minimise: the sorted root vectors."""
    return tuple(sorted(rs.roots[i] for i in q))


def _bfs_min(rs, q, group):
    return min(_bfs_orbit(rs, q, group), key=lambda s: set_key(rs, s))


@pytest.mark.parametrize("tag,rank", [("A", 3), ("A", 4), ("A", 5), ("B", 3), ("B", 4), ("C", 3), ("C", 4),
                                      ("D", 4), ("D", 5), ("G2", None), ("F4", None), ("E6", None)])
def test_canonical_form_matches_bfs_on_enumerated_classes(enumerated, tag, rank):
    rng = random.Random(17)
    for group in ("weyl", "aut"):
        rs, classes = enumerated(tag, rank, group)
        for c in classes:
            orbit = _bfs_orbit(rs, c.canonical, group)
            # the orbit sizes that enumerate prints
            assert c.orbit_size == len(orbit) and set_orbit(rs, c.canonical, group) == orbit
            want = min(orbit, key=lambda s: set_key(rs, s))
            assert c.canonical == tuple(sorted(want))
            assert canonical_form(rs, c.canonical, group) == want
            for _ in range(2):
                g = random_element(rs, rng, group=group)
                assert canonical_form(rs, [g[i] for i in c.canonical], group) == want


def test_canonical_form_matches_bfs_on_random_sets():
    rng = random.Random(23)
    disjoint_from_first_orbit = 0
    for tag, rank in [("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G2", None), ("F4", None)]:
        rs = build_root_system(tag, rank)
        for group in ("weyl", "aut"):
            first_orbit = weyl._chain(rs, group)[0]
            for _ in range(12):
                q = frozenset(rng.sample(range(rs.nroots), rng.randint(1, min(12, rs.nroots))))
                # a set missing the orbit of root 0 sends the search through
                # every point of that orbit at level 0
                disjoint_from_first_orbit += not any(i in first_orbit for i in q)
                assert canonical_form(rs, q, group) == _bfs_min(rs, q, group), (tag, group, sorted(q))
    assert disjoint_from_first_orbit >= 5


def _closure(gens):
    """All products of the permutations gens (a finite group), by BFS."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = tuple(s[i] for i in g)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def test_in_weyl_exactly_on_w():
    # oracle: W as the closure of the simple reflections, Aut as the closure
    # with the diagram automorphisms added
    for tag, rank, w_order, aut_order in [("A", 4, 24, 48), ("B", 3, 48, 48), ("D", 4, 192, 1152), ("G2", None, 12, 12)]:
        rs = build_root_system(tag, rank)
        w = _closure([reflection_perm(rs, s) for s in simple_roots(rs)])
        aut = _closure([reflection_perm(rs, s) for s in simple_roots(rs)] + diagram_automorphisms(rs))
        assert (len(w), len(aut)) == (w_order, aut_order), tag
        for g in aut:
            assert in_weyl(rs, g) == (g in w), (tag, g)


def test_generators_are_isometries_and_match_matrix_of():
    for tag, rank in [("A", 5), ("B", 4), ("C", 3), ("D", 4), ("D", 5), ("G2", None), ("F4", None),
                      ("E6", None), ("E7", None), ("E8", None)]:
        rs = build_root_system(tag, rank)
        gram = [[sum(a * b for a, b in zip(u, v)) for v in rs.roots] for u in rs.roots]
        for g in generators(rs, "aut"):
            assert sorted(g) == list(range(rs.nroots))
            assert all(gram[g[i]][g[j]] == gram[i][j] for i in range(rs.nroots) for j in range(rs.nroots)), tag
            cols = matrix_of(rs, g)
            assert all(apply_matrix_cols(cols, v) == rs.roots[g[i]] for i, v in enumerate(rs.roots)), tag


def test_generators_built_once(monkeypatch):
    # "diagram" counts the simple-coordinate table, which only the diagram
    # automorphisms read
    built = {"reflections": 0, "diagram": 0}
    reflection_perm_, column_solver = weyl.reflection_perm, weyl.column_solver

    def counting_reflection(r, i):
        built["reflections"] += 1
        return reflection_perm_(r, i)

    def counting_solver(columns):
        built["diagram"] += 1
        return column_solver(columns)

    monkeypatch.setattr(weyl, "reflection_perm", counting_reflection)
    monkeypatch.setattr(weyl, "column_solver", counting_solver)
    d4 = build_root_system("D", 4)
    q = roots_set(d4, [(1, 1, 0, 0), (1, 0, 1, 0)])
    orbit = set_orbit(d4, q)
    assert built == {"reflections": 4, "diagram": 0}
    assert set_orbit(d4, q) == orbit
    canonical_form(d4, q)
    random_element(d4, random.Random(3))
    assert built == {"reflections": 4, "diagram": 0}
    set_orbit(d4, q, "aut")
    set_orbit(d4, q, "aut")
    assert built == {"reflections": 4, "diagram": 1}


NINE = [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", None), ("F4", None), ("E6", None), ("E7", None), ("E8", None)]


@pytest.mark.parametrize("tag,rank", NINE)
def test_simple_coordinates_are_integral_and_of_one_sign(tag, rank):
    rs = build_root_system(tag, rank)
    simples = simple_roots(rs)
    coords = simple_coordinates(rs)
    assert len(coords) == rs.nroots
    for i, row in enumerate(coords):
        assert len(row) == len(simples) and all(type(c) is int for c in row)
        assert all(c >= 0 for c in row) or all(c <= 0 for c in row), (tag, rs.roots[i], row)
        assert tuple(sum(c * rs.roots[s][k] for c, s in zip(row, simples)) for k in range(rs.ambient_dim)) == rs.roots[i]
    assert all(coords[s] == tuple(int(t == s) for t in simples) for s in simples)


def _fraction_base_map(r, base):
    """Oracle: each root's coordinates in the base solved over Q, as integer
    numerators over a common denominator; the returned function takes the
    images of the base roots and gives the root permutation of the isometry
    they define, or None when some root is not sent to a root."""
    f = Factored([[r.roots[b][k] for b in base] for k in range(r.ambient_dim)], Fraction)
    coords = [f.solve(v) for v in r.roots]
    den = math.lcm(*(x.denominator for c in coords for x in c))
    nums = [[int(x * den) for x in c] for c in coords]

    def perm_of(images):
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


def _gram_preserving_permutations(gram):
    """The permutations p with gram[p[i]][p[j]] == gram[i][j], in
    lexicographic order, by extending prefixes that keep the Gram matrix."""
    k = len(gram)

    def extend(prefix):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        i = len(prefix)
        for t in range(k):
            if t not in prefix and all(gram[t][prefix[j]] == gram[i][j] for j in range(i)) and gram[t][t] == gram[i][i]:
                yield from extend(prefix + [t])

    return extend([])


@pytest.mark.parametrize("tag,rank", [("A", n) for n in range(4, 11)] + [("D", n) for n in range(4, 9)] + [("E6", None)])
def test_diagram_automorphisms_match_fraction_oracle(tag, rank):
    rs = build_root_system(tag, rank)
    simples = simple_roots(rs)
    gram = [[sum(a * b for a, b in zip(rs.roots[i], rs.roots[j])) for j in simples] for i in simples]
    perm_of = _fraction_base_map(rs, simples)
    want = [perm_of([simples[i] for i in p]) for p in _gram_preserving_permutations(gram)][1:]
    assert None not in want
    assert diagram_automorphisms(rs) == want
