import random

from flagcr.rootsys import build_root_system, find_root, roots_set
from flagcr.weyl import (
    apply_matrix_cols,
    canonical_form,
    cartan_matrix,
    diagram_automorphisms,
    generators,
    in_weyl,
    matrix_of,
    random_element,
    reflection_perm,
    sets_equivalent,
    set_orbit,
    simple_roots,
)


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
        cm = cartan_matrix(rs, s)
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


def test_equivalence_agrees_with_orbit_bfs():
    rng = random.Random(31)
    for tag, rank in [("A", 3), ("B", 2), ("G2", None), ("D", 4), ("A", 5)]:
        rs = build_root_system(tag, rank)
        for _ in range(6):
            size = rng.randint(1, 3)
            q1 = frozenset(rng.sample(range(rs.nroots), size))
            q2 = frozenset(rng.sample(range(rs.nroots), size))
            for group in ("weyl", "aut"):
                want = frozenset(q2) in set_orbit(rs, q1, group)
                assert sets_equivalent(rs, q1, q2, group) == want


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
    from flagcr import weyl

    built = {"reflections": 0, "diagram": 0}
    reflection_perm_, base_map = weyl.reflection_perm, weyl._base_map

    def counting_reflection(r, i):
        built["reflections"] += 1
        return reflection_perm_(r, i)

    def counting_base_map(r, base):
        built["diagram"] += 1
        return base_map(r, base)

    monkeypatch.setattr(weyl, "reflection_perm", counting_reflection)
    monkeypatch.setattr(weyl, "_base_map", counting_base_map)
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
