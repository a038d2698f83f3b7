import math
import random
from fractions import Fraction

import pytest
from ambient_matrix import apply_cols, matrix_of
from weyl_words import group_generators, random_element

from flagcr import weyl
from flagcr.classify import enumerate_maximal
from flagcr.gaussq import Factored
from flagcr.rootsys import TYPES, build_root_system, find_root, roots_set
from flagcr.weyl import (
    BudgetExceeded,
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
    gens = group_generators(rs, group)
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
    assert apply_cols(matrix_of(a2, s), (1, 1, 1)) == (1, 1, 1)


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
    # only 'weyl' and 'aut' name a group, also where the sizes alone decide
    for group in ("W", "Aut", ""):
        for call in (lambda: canonical_form(b2, q, group), lambda: set_orbit(b2, q, group),
                     lambda: sets_equivalent(b2, q, q, group), lambda: sets_equivalent(b2, q, q2, group)):
            with pytest.raises(ValueError):
                call()


def test_in_weyl():
    a3 = build_root_system("A", 4)
    for g in generators(a3):
        assert in_weyl(a3, g)
    flip = diagram_automorphisms(a3)[0]
    assert not in_weyl(a3, flip)
    rng = random.Random(1)
    for _ in range(5):
        g = random_element(a3, rng)
        assert in_weyl(a3, g)


def test_canonical_form_budget():
    f4 = build_root_system("F4")
    q = roots_set(f4, [(1, 0, 0, 0), (1, 1, 0, 0)])
    with pytest.raises(BudgetExceeded):
        canonical_form(f4, q, budget=3)
    with pytest.raises(BudgetExceeded):
        set_orbit(f4, q, budget=3)
    # the default budget: the whole orbit, whose least set is the canonical form
    orbit = set_orbit(f4, q)
    assert frozenset(q) in orbit
    assert canonical_form(f4, q) == min(orbit, key=lambda s: sorted(f4.roots[i] for i in s))


@pytest.mark.parametrize("search", [canonical_form, set_orbit])
def test_budget_stop_is_the_one_cli_exception(search):
    # the group searches stop with the same BudgetExceeded that classify
    # raises and the CLI turns into exit 2
    from flagcr import cli, classify

    e6 = build_root_system("E6")
    with pytest.raises(BudgetExceeded) as e:
        search(e6, roots_set(e6, [(1, 1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0)]), budget=1)
    assert e.value.partial is None
    assert BudgetExceeded is classify.BudgetExceeded is cli.BudgetExceeded


# A2-A5 (build_root_system("A", n) is A_{n-1}), B2-B4, C2-C4, D4, D5, G2, F4, E6
ORBIT_SYSTEMS = [("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3),
                 ("C", 4), ("D", 4), ("D", 5), ("G2", None), ("F4", None), ("E6", None)]
# E7 and E8, whose orbits are compared on small ones only
LARGE_SYSTEMS = [("E7", None), ("E8", None)]


def _orbit_inputs(rs, rng, n_random):
    """The empty set, every single root, every {beta, -beta}, the positive
    system and all of R (root sum 0: the stabiliser is all of W), and random
    subsets of 1-8 roots."""
    pos = weyl.positive_roots(rs)
    sets = [(), *((i,) for i in range(rs.nroots)), *((i, rs.neg(i)) for i in pos), tuple(pos), tuple(range(rs.nroots))]
    return sets + [tuple(rng.sample(range(rs.nroots), rng.randint(1, min(8, rs.nroots)))) for _ in range(n_random)]


def _small_orbit_inputs(rs, rng, k):
    """The empty set, k seeded single roots, k seeded {beta, -beta} and all
    of R: orbits of at most |R| sets."""
    pos = weyl.positive_roots(rs)
    return [(), *((i,) for i in rng.sample(range(rs.nroots), k)), *((i, rs.neg(i)) for i in rng.sample(pos, k)),
            tuple(range(rs.nroots))]


def _coroot_labels(rs):
    """Each root's Cartan integers <beta, alpha^vee> against the simple
    roots, from the root vectors."""
    alphas = [rs.roots[a] for a in simple_roots(rs)]
    return [tuple(2 * sum(x * a for x, a in zip(v, alpha)) // sum(a * a for a in alpha) for alpha in alphas)
            for v in rs.roots]


@pytest.mark.parametrize("tag,rank", ORBIT_SYSTEMS + LARGE_SYSTEMS,
                         ids=[f"{t}{n or ''}" for t, n in ORBIT_SYSTEMS + LARGE_SYSTEMS])
def test_set_orbit_matches_bfs_oracle(tag, rank):
    rs = build_root_system(tag, rank)
    rng = random.Random(f"orbit-{tag}{rank}")
    large = (tag, rank) in LARGE_SYSTEMS
    labels = _coroot_labels(rs)
    for q in _small_orbit_inputs(rs, rng, 6) if large else _orbit_inputs(rs, rng, 1 if tag == "E6" else 12):
        # on E6 the oracle takes seconds per group for the positive system and
        # a random set (orbits of 51,840 to 103,680 sets), so those two run
        # under W only; the E6 Aut orbits of the enumerated classes are
        # compared with the oracle in the canonical-form test below
        big = tag == "E6" and 2 < len(q) < rs.nroots
        for group in ("weyl",) if big else ("weyl", "aut"):
            orbit = _bfs_orbit(rs, q, group)
            assert set_orbit(rs, q, group) == orbit, (group, sorted(q))
        # the packing bound of set_orbit's integer walk: every label of the
        # root sum of every member lies within 3|Q|
        sums = {tuple(map(sum, zip(*(labels[b] for b in s)))) for s in orbit}
        assert all(abs(x) <= 3 * len(q) for label in sums for x in label), sorted(q)


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
    # BudgetExceeded exactly when the orbit has more sets than the
    # budget, whether the count passes it in the fibre, in the tree or, for
    # 'aut', in the union over the diagram automorphisms
    rs = build_root_system(tag, rank)
    rng = random.Random(f"budget-{tag}{rank}{group}")
    unions = 0
    for q in _orbit_inputs(rs, rng, 12)[:: 3 if rs.nroots > 20 else 1]:
        orbit = set_orbit(rs, q, group)
        assert set_orbit(rs, q, group, len(orbit)) == orbit
        with pytest.raises(BudgetExceeded):
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
        with pytest.raises(BudgetExceeded):
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
    chain = weyl._chain(rs)
    assert math.prod(len(level) for level in chain) == w_order
    # Aut is W extended by the diagram automorphisms, none of which lies in W
    assert w_order * (1 + len(diagram_automorphisms(rs))) == aut_order
    assert len(chain[-1]) > 1
    for k, level in enumerate(chain):
        for t, uinv in level.items():
            # u_t^-1 fixes 0..k-1 and sends t to k
            assert uinv[t] == k and all(uinv[i] == i for i in range(k))
    assert weyl._chain(rs) is chain


@pytest.mark.parametrize("tag,rank", [("A", 5), ("B", 3), ("C", 3), ("D", 4), ("G2", None), ("F4", None)])
def test_chain_levels_are_steinberg_orbits(tag, rank):
    # oracle: W as the closure of the simple reflections; level k holds the
    # orbit of root k under the elements of W that fix roots 0..k-1, and the
    # levels after the last are single points
    rs = build_root_system(tag, rank)
    w = _closure(generators(rs))
    chain = weyl._chain(rs)
    for k in range(rs.nroots):
        stab = [g for g in w if all(g[i] == i for i in range(k))]
        orbit = {g[k] for g in stab}
        assert set(chain[k]) == orbit if k < len(chain) else orbit == {k}, (tag, k)
        if len(stab) == 1:
            break


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


@pytest.mark.parametrize("tag,rank,group", [("E7", None, "weyl"), ("E8", None, "weyl"), ("E6", None, "aut"),
                                            ("D", 4, "aut")])
def test_canonical_form_is_least_orbit_member(tag, rank, group):
    # E7's chain is the one with single-point levels inside it (sizes 126,
    # 32, 15, 8, 1, 3, 1, 1, 1, 1, 2); the sets are those of the set_orbit
    # oracle test, whose orbits set_orbit gives exactly
    rs = build_root_system(tag, rank)
    rng = random.Random(f"orbit-{tag}{rank}")
    large = (tag, rank) in LARGE_SYSTEMS
    inputs = _small_orbit_inputs(rs, rng, 6) if large else _orbit_inputs(rs, rng, 1 if tag == "E6" else 12)
    for q in inputs:
        want = min(set_orbit(rs, q, group), key=sorted)
        assert canonical_form(rs, q, group) == want, sorted(q)
        for _ in range(2):
            g = random_element(rs, rng, group=group)
            assert canonical_form(rs, [g[i] for i in q], group) == want, sorted(q)


def test_canonical_form_matches_bfs_on_random_sets():
    rng = random.Random(23)
    disjoint_from_first_orbit = 0
    for tag, rank in [("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G2", None), ("F4", None)]:
        rs = build_root_system(tag, rank)
        for group in ("weyl", "aut"):
            first_orbit = weyl._chain(rs)[0]
            for _ in range(12):
                q = frozenset(rng.sample(range(rs.nroots), rng.randint(1, min(12, rs.nroots))))
                # a set missing the orbit of root 0 sends the search through
                # every point of that orbit at level 0
                disjoint_from_first_orbit += not any(i in first_orbit for i in q)
                assert canonical_form(rs, q, group) == _bfs_min(rs, q, group), (tag, group, sorted(q))
    assert disjoint_from_first_orbit >= 5


# build_root_system("A", n) is A_{n-1}: A2-A6, B3-B5, C3-C5, D4-D6, G2, F4, E6
COUNTED_SYSTEMS = [("A", n) for n in range(3, 8)] + [("B", n) for n in (3, 4, 5)] + [("C", n) for n in (3, 4, 5)] \
    + [("D", n) for n in (4, 5, 6)] + [("G2", None), ("F4", None), ("E6", None)]


@pytest.mark.parametrize("tag,rank", COUNTED_SYSTEMS, ids=[f"{t}{n or ''}" for t, n in COUNTED_SYSTEMS])
def test_counted_form_orbit_is_the_walked_orbit(enumerated, tag, rank):
    # |G| / |Stab_G(Q)| is the size of the orbit set_orbit walks, and the
    # image is its least member, on the class representatives, the empty
    # set, single roots, sets orthogonal to a root (which span no more than
    # a hyperplane) and random sets
    rs = build_root_system(tag, rank)
    rng = random.Random(f"counted-{tag}{rank}")
    beta = rng.randrange(rs.nroots)
    perp = [i for i, v in enumerate(rs.roots) if sum(a * b for a, b in zip(v, rs.roots[beta])) == 0]
    n_random = 2 if tag == "E6" else 8
    sets = [(), *((i,) for i in rng.sample(range(rs.nroots), 3)),
            *(tuple(rng.sample(perp, rng.randint(1, min(6, len(perp))))) for _ in range(3) if perp),
            *(tuple(rng.sample(range(rs.nroots), rng.randint(2, min(10, rs.nroots)))) for _ in range(n_random))]
    for group in ("weyl", "aut"):
        for q in [c.canonical for c in enumerated(tag, rank, group)[1]] + sets:
            form = weyl.counted_form(rs, q, group)
            orbit = set_orbit(rs, q, group)
            assert form.order % form.stabiliser == 0, (group, sorted(q))
            assert form.orbit_size == len(orbit), (group, sorted(q))
            assert form.image == min(orbit, key=sorted) == canonical_form(rs, q, group)


@pytest.mark.parametrize("tag,rank", LARGE_SYSTEMS, ids=[t for t, _ in LARGE_SYSTEMS])
def test_counted_form_orbit_is_the_walked_orbit_on_small_orbits(tag, rank):
    # E7's chain has single-point levels inside it, which keep the counts of
    # the candidates they keep; the sets are those of the set_orbit oracle
    # test, orbits of at most |R| sets
    rs = build_root_system(tag, rank)
    for q in _small_orbit_inputs(rs, random.Random(f"orbit-{tag}{rank}"), 6):
        form = weyl.counted_form(rs, q)
        assert form.orbit_size == len(set_orbit(rs, q)) and form.order % form.stabiliser == 0, sorted(q)


@pytest.mark.parametrize("tag,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", None)])
def test_counted_form_stabiliser_matches_the_group(tag, rank):
    # oracle: the elements of W, and of Aut, listed by closure, that map the
    # set onto itself; and the group orders
    rs = build_root_system(tag, rank)
    w = _closure(generators(rs))
    aut = _closure(list(generators(rs)) + diagram_automorphisms(rs))
    rng = random.Random(f"stabiliser-{tag}{rank}")
    for q in [(), (0,), tuple(weyl.positive_roots(rs))] + [tuple(rng.sample(range(rs.nroots), k)) for k in (2, 3, 4, 5)]:
        for group, elements in (("weyl", w), ("aut", aut)):
            form = weyl.counted_form(rs, q, group)
            assert form.order == len(elements)
            assert form.stabiliser == sum(frozenset(g[i] for i in q) == frozenset(q) for g in elements), (group, q)


def test_counted_form_candidates_are_the_budget():
    # the candidates it reports are the least budget it finishes in
    rs = build_root_system("F4")
    rng = random.Random(5)
    for q in [(), (3,), tuple(rng.sample(range(rs.nroots), 6))]:
        for group in ("weyl", "aut"):
            form = weyl.counted_form(rs, q, group)
            assert weyl.counted_form(rs, q, group, form.candidates) == form
            with pytest.raises(BudgetExceeded):
                weyl.counted_form(rs, q, group, form.candidates - 1)


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
        for g in group_generators(rs, "aut"):
            assert sorted(g) == list(range(rs.nroots))
            assert all(gram[g[i]][g[j]] == gram[i][j] for i in range(rs.nroots) for j in range(rs.nroots)), tag
            cols = matrix_of(rs, g)
            assert all(apply_cols(cols, v) == rs.roots[g[i]] for i, v in enumerate(rs.roots)), tag


def test_generators_built_once(monkeypatch, fresh_systems):
    # "diagram" counts the simple-coordinate table, which only the diagram
    # automorphisms read; the reflections past the four simple ones are the
    # chain's, built by the first canonical form and by no later search
    built = {"reflections": 0, "diagram": 0}
    reflection_perm_, column_solver = weyl.reflection_perm, weyl.column_solver

    def counting_reflection(r, i):
        built["reflections"] += 1
        return reflection_perm_(r, i)

    def counting_solver(columns, n):
        built["diagram"] += 1
        return column_solver(columns, n)

    monkeypatch.setattr(weyl, "reflection_perm", counting_reflection)
    monkeypatch.setattr(weyl, "column_solver", counting_solver)
    d4 = build_root_system("D", 4)
    q = roots_set(d4, [(1, 1, 0, 0), (1, 0, 1, 0)])
    orbit = set_orbit(d4, q)
    assert built == {"reflections": 4, "diagram": 0}
    assert set_orbit(d4, q) == orbit
    random_element(d4, random.Random(3))
    assert built == {"reflections": 4, "diagram": 0}
    canonical_form(d4, q)
    chain_built = dict(built)
    assert chain_built["reflections"] > 4 and chain_built["diagram"] == 0
    canonical_form(d4, q)
    sets_equivalent(d4, q, q)
    assert built == chain_built
    set_orbit(d4, q, "aut")
    set_orbit(d4, q, "aut")
    canonical_form(d4, q, "aut")
    assert built == {"reflections": chain_built["reflections"], "diagram": 1}


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
    f = Factored([r.roots[b] for b in base], r.ambient_dim, Fraction)
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


@pytest.mark.parametrize("tag,rank", [("A", n) for n in range(4, 11)] + [("D", n) for n in range(4, 9)]
                         + [("E6", None), ("E7", None), ("E8", None)])
def test_diagram_automorphisms_match_fraction_oracle(tag, rank):
    rs = build_root_system(tag, rank)
    simples = simple_roots(rs)
    gram = [[sum(a * b for a, b in zip(rs.roots[i], rs.roots[j])) for j in simples] for i in simples]
    perm_of = _fraction_base_map(rs, simples)
    want = [perm_of([simples[i] for i in p]) for p in _gram_preserving_permutations(gram)][1:]
    assert None not in want
    assert diagram_automorphisms(rs) == want


def test_diagram_automorphisms_extend_only_gram_keeping_prefixes(monkeypatch, fresh_systems):
    # A9's simple roots in root order are a path, and a prefix keeps the Gram
    # matrix only when it runs along the path in one direction: the empty
    # prefix, the 9 single nodes and the 2 (10 - m) runs of each length m in
    # 2..8 are extended: 80 prefixes, against the 9! = 362,880 permutations
    # of the simple roots
    examined = []
    extensions = weyl._gram_extensions

    def counting(gram, prefix):
        examined.append(prefix)
        return extensions(gram, prefix)

    monkeypatch.setattr(weyl, "_gram_extensions", counting)
    a9 = build_root_system("A", 10)
    assert len(diagram_automorphisms(a9)) == 1
    assert len(examined) == 1 + 9 + sum(2 * (10 - m) for m in range(2, 9)) == 80
