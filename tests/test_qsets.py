import functools
import hashlib
import itertools
import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcr import qsets
from flagcr.classify import e8_example_set, e8_examples, maximal_cliques
from flagcr.intlat import SNFSolver, column_solver
from flagcr.qsets import (
    NOT_FUNDAMENTAL,
    DegreeCoset,
    MethodDisagreement,
    compat_graph,
    compatible,
    degree_set,
    has_j,
    has_weak_j,
    is_fundamental,
    is_lb,
    is_symmetric,
    kernel_degree_gcd,
    property_report,
    q_star_11,
)
from flagcr.rootsys import (
    GradingElement,
    build_root_system,
    dot,
    evaluate,
    evaluate_int,
    find_root,
    roots_set,
    rootset_from_json,
    scaled,
)
from test_intlat import lifted_congruence
from weyl_words import random_element

H = Fraction(1, 2)


def g2_sets():
    g2 = build_root_system("G2")
    q0 = roots_set(g2, [(1, 0, -1), (2, -1, -1)])
    q1 = roots_set(g2, [(1, 0, -1), (2, -1, -1), (1, -2, 1)])
    q2 = roots_set(g2, [(1, 0, -1), (2, -1, -1), (1, 1, -2)])
    return g2, q0, q1, q2


def test_is_lb_examples():
    a2 = build_root_system("A", 3)
    assert is_lb(a2, roots_set(a2, [(1, -1, 0)]))
    assert not is_lb(a2, roots_set(a2, [(1, -1, 0), (0, 1, -1)]))
    # A_{n-1} catalog sets Q_p are lb
    a4 = build_root_system("A", 5)
    for p in range(1, 5):
        q = roots_set(
            a4,
            [
                tuple(1 if k == i else -1 if k == j else 0 for k in range(5))
                for i in range(p)
                for j in range(p, 5)
            ],
        )
        assert is_lb(a4, q)
        assert is_fundamental(a4, q)


def test_is_fundamental_examples():
    a2 = build_root_system("A", 3)
    q1 = roots_set(a2, [(1, -1, 0), (1, 0, -1)])
    assert is_fundamental(a2, q1)
    assert not is_fundamental(a2, roots_set(a2, [(1, -1, 0)]))
    g2, q0, _, _ = g2_sets()
    assert is_lb(g2, q0)
    assert is_fundamental(g2, q0)


def test_degree_set_examples():
    a2 = build_root_system("A", 3)
    q1 = roots_set(a2, [(1, -1, 0), (1, 0, -1)])
    member = find_root(a2, (1, -1, 0))
    coset = degree_set(a2, q1, member)
    assert coset.contains(1)
    # e2 - e3 = (e1-e3) - (e1-e2): degree 0
    other = find_root(a2, (0, 1, -1))
    c2 = degree_set(a2, q1, other)
    assert c2.contains(0)
    # gamma not in Z[Q]
    single = roots_set(a2, [(1, -1, 0)])
    assert degree_set(a2, single, other).empty


def test_degree_coset_contains():
    # an empty coset holds no degree, step 0 only its base, step > 0 the
    # progression base + step*Z
    degrees = range(-6, 7)
    assert [h for h in degrees if DegreeCoset(empty=True).contains(h)] == []
    assert [h for h in degrees if DegreeCoset(empty=False, base=2).contains(h)] == [2]
    assert [h for h in degrees if DegreeCoset(empty=False, base=1, step=3).contains(h)] == [-5, -2, 1, 4]


def test_q_star_11():
    a2 = build_root_system("A", 3)
    assert q_star_11(a2, roots_set(a2, [(1, -1, 0)])) == frozenset()
    q1 = roots_set(a2, [(1, -1, 0), (1, 0, -1)])
    star = q_star_11(a2, q1)
    assert find_root(a2, (0, 1, -1)) in star
    assert find_root(a2, (0, -1, 1)) in star
    e8 = build_root_system("E8")
    b0 = find_root(e8, [H] * 8)
    b12 = find_root(e8, [-H, -H] + [H] * 6)
    q = frozenset([b0] + [find_root(e8, [-H if k in (i, j) else H for k in range(8)]) for i, j in itertools.combinations(range(8), 2)])
    star8 = q_star_11(e8, q)
    assert find_root(e8, (1, 1, 0, 0, 0, 0, 0, 0)) in star8


def test_g2_stratification_members():
    g2, q0, q1, q2 = g2_sets()
    s1, w1 = is_symmetric(g2, q1)
    assert s1 and w1 is not None
    s2 = is_symmetric(g2, q2)
    assert s2[0] is False
    wk, wit = has_weak_j(g2, q0)
    assert wk and wit is not None
    jj, ew = has_j(g2, q0)
    assert jj
    for i in sorted(q0):
        assert evaluate_int(g2.roots[i], ew) == 1
    # Q_1^4 is symmetric but not weak-J (it lies outside Q_Upsilon)
    assert has_weak_j(g2, q1)[0] is False


def test_not_fundamental_outcome():
    a2 = build_root_system("A", 3)
    single = roots_set(a2, [(1, -1, 0)])
    assert is_symmetric(a2, single) is NOT_FUNDAMENTAL
    assert has_j(a2, frozenset()) is NOT_FUNDAMENTAL
    with pytest.raises(TypeError):
        bool(NOT_FUNDAMENTAL)


def test_an_all_fundamental_sets_symmetric():
    # (A_{n-1}): Q_s = Q: every fundamental lb set is symmetric
    for n in (3, 4):
        rs = build_root_system("A", n)
        for size in (n - 1, n):
            for combo in itertools.combinations(range(rs.nroots), size):
                q = frozenset(combo)
                if not is_lb(rs, q) or not is_fundamental(rs, q):
                    continue
                assert is_symmetric(rs, q)[0] is True


def test_compat_graph_examples():
    a2 = build_root_system("A", 3)
    nbr = compat_graph(a2)
    i = find_root(a2, (1, -1, 0))
    j = find_root(a2, (1, 0, -1))
    assert nbr[i] >> j & 1
    assert not nbr[i] >> a2.neg(i) & 1
    f4 = build_root_system("F4")
    clique = roots_set(
        f4,
        [(1, 0, 0, 0), (H, H, H, H), (H, H, H, -H), (1, 0, 1, 0), (1, 0, -1, 0), (0, 1, 0, 1), (0, 1, 0, -1)],
    )
    assert is_lb(f4, clique)


@pytest.mark.parametrize(
    "tag,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", None), ("F4", None), ("E6", None), ("E7", None), ("E8", None)]
)
def test_compat_graph_masks_are_the_compatible_relation(tag, rank):
    rs = build_root_system(tag, rank)
    nbr = compat_graph(rs)
    assert len(nbr) == rs.nroots
    assert all(0 <= mask < 1 << rs.nroots for mask in nbr)
    for i in range(rs.nroots):
        assert not nbr[i] >> i & 1
        for j in range(rs.nroots):
            if i != j:
                assert bool(nbr[i] >> j & 1) == compatible(rs, i, j) == bool(nbr[j] >> i & 1), (tag, i, j)
    # built once: a second call reads the kept table
    assert compat_graph(rs) == nbr and rs._tables["compat"] == tuple(nbr)


def test_weyl_invariance_of_predicates():
    rng = random.Random(99)
    g2, q0, q1, q2 = g2_sets()
    base = property_report(g2, q1)
    for _ in range(10):
        g = random_element(g2, rng)
        moved = frozenset(g[i] for i in q1)
        rep = property_report(g2, moved)
        assert (rep.symmetric, rep.weak_j, rep.j_property) == (
            base.symmetric,
            base.weak_j,
            base.j_property,
        )


def q_star_bounded(r, q, h: int, max_terms: int = 6) -> frozenset[int]:
    """Explicit Q*_h by bounded enumeration: expressions with at most
    ``max_terms`` summands +-beta."""
    qs = sorted(q)
    zero = tuple(0 for _ in range(r.ambient_dim))
    states = {(zero, 0)}
    found = set()
    for _ in range(max_terms):
        nxt = set()
        for vec, deg in states:
            for i in qs:
                for sgn in (1, -1):
                    v2 = tuple(x + sgn * y for x, y in zip(vec, r.roots[i]))
                    nxt.add((v2, deg + sgn))
        states |= nxt
        for vec, deg in nxt:
            if deg == h and vec in r.index:
                found.add(r.index[vec])
    return frozenset(found)


def test_q_star_symmetry_and_bounded_oracle():
    g2, q0, _, _ = g2_sets()
    # Q*_{-h} = -Q*_h via bounded enumeration
    for h in (0, 1, 2):
        plus = q_star_bounded(g2, q0, h, max_terms=4)
        minus = q_star_bounded(g2, q0, -h, max_terms=4)
        assert {g2.neg(i) for i in plus} == minus
    # bounded enumeration agrees with the coset predictions it can reach
    for h in (-2, -1, 0, 1, 2):
        explicit = q_star_bounded(g2, q0, h, max_terms=4)
        for idx in explicit:
            assert degree_set(g2, q0, idx).contains(h)


def test_kernel_gcd_matches_j():
    g2, q0, q1, _ = g2_sets()
    assert kernel_degree_gcd(g2, q0) == 0
    assert has_j(g2, q0)[0] is True
    assert kernel_degree_gcd(g2, q1) % 2 == 0
    assert kernel_degree_gcd(g2, q1) % 4 != 0


def test_difference_roots_nonempty_for_proper_sets():
    # fundamental lb-sets with Q u -Q != R have nonempty Q*_{1,1}
    for tag, rank in [("A", 3), ("B", 2), ("G2", None)]:
        rs = build_root_system(tag, rank)
        for size in (2, 3):
            for combo in itertools.combinations(range(rs.nroots), size):
                q = frozenset(combo)
                if not is_lb(rs, q) or not is_fundamental(rs, q):
                    continue
                if len(q) * 2 < rs.nroots:
                    assert q_star_11(rs, q), q


def _fundamental_oracle(r, q):
    """Every root, not only a basis of the root lattice, lies in Z[Q]."""
    solver = column_solver([list(r.roots[i]) for i in sorted(q)], r.ambient_dim)
    return all(solver.solve(list(v)) is not None for v in r.roots)


@pytest.mark.parametrize("tag,rank,limit", [("G2", None, None), ("B", 3, None), ("F4", None, None), ("E6", None, 500)])
def test_is_fundamental_matches_all_roots_oracle(tag, rank, limit):
    # maximal cliques, and each with its first root dropped so that
    # non-fundamental sets are tested too
    rs, cliques = _system_and_cliques(tag)
    outcomes = set()
    for clique in cliques[:limit]:
        for q in (clique, clique[1:]):
            got = is_fundamental(rs, q)
            assert got == _fundamental_oracle(rs, q), q
            outcomes.add(got)
    assert outcomes == {True, False}


@functools.lru_cache(maxsize=None)
def _system_and_cliques(tag):
    rs = build_root_system(tag, 3 if tag == "B" else None)
    return rs, maximal_cliques(compat_graph(rs))


@settings(max_examples=100, deadline=None)
@given(tag=st.sampled_from(["G2", "B", "F4"]), data=st.data())
def test_property_report_matches_single_predicates(tag, data):
    # W-images of maximal cliques, of cliques with roots dropped (often not
    # fundamental) and of cliques with a root added (often not lb)
    rs, cliques = _system_and_cliques(tag)
    clique = data.draw(st.sampled_from(cliques))
    q = set(clique) - data.draw(st.sets(st.sampled_from(clique), max_size=4))
    if data.draw(st.booleans()):
        q.add(data.draw(st.integers(0, rs.nroots - 1)))
    g = random_element(rs, random.Random(data.draw(st.integers(0, 2**32))))
    q = frozenset(g[i] for i in q)
    rep = property_report(rs, q)
    assert rep.is_lb == is_lb(rs, q)
    assert rep.is_fundamental == is_fundamental(rs, q)
    for predicate, verdict, witness in (
        (is_symmetric, rep.symmetric, rep.witness_mod2),
        (has_weak_j, rep.weak_j, rep.witness_mod4),
        (has_j, rep.j_property, rep.witness_exact),
    ):
        got = predicate(rs, q)
        if rep.is_lb and rep.is_fundamental:
            assert got == (verdict, witness)
        else:
            assert got is NOT_FUNDAMENTAL and verdict is None and witness is None


@pytest.mark.parametrize("tag,rank", [("A", 3), ("F4", None), ("E8", None)])
def test_witness_outside_coweight_lattice_is_rejected(tag, rank):
    # E = alpha^vee / 2 takes the value 1 on alpha, so the exact and the
    # congruence checks pass on Q = {alpha}; it is half-integral on some
    # other root, hence not in the coweight lattice
    rs = build_root_system(tag, rank)
    alpha = rs.roots[0]
    # the coroot 2 alpha / (alpha|alpha), with (alpha|alpha) = dot / 4 on the doubled roots
    coroot = tuple(Fraction(2 * x, dot(alpha, alpha)) for x in alpha)
    e = GradingElement((0,) * rs.rank, *scaled(coroot))
    assert evaluate(alpha, e) == 1
    assert any(evaluate(root, e).denominator != 1 for root in rs.roots)
    for modulus in (2, 4, None):
        with pytest.raises(AssertionError, match="coweight lattice"):
            qsets._verify_witness(rs, [0], e, modulus)


def test_both_routes_run_on_every_decision(monkeypatch):
    # with route B forced to find no solution, route A still says symmetric
    g2, _, q1, _ = g2_sets()
    assert is_symmetric(g2, q1)[0] is True
    monkeypatch.setattr(SNFSolver, "lift_mod", lambda *args: None)
    with pytest.raises(MethodDisagreement):
        property_report(g2, q1)
    with pytest.raises(MethodDisagreement):
        is_symmetric(g2, q1)


WITNESS_SYSTEMS = [("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("D", 4), ("G2", None), ("F4", None)]


@pytest.mark.parametrize("tag,rank", WITNESS_SYSTEMS, ids=[f"{t}{r or ''}" for t, r in WITNESS_SYSTEMS])
def test_congruence_witnesses_match_lifted_oracle(enumerated, tag, rank):
    # the mod-2 and mod-4 witnesses of every maximal class and of two seeded
    # W-images of it are exactly those of the [A | mI] lift of alpha(E) = 1
    rs, classes = enumerated(tag, rank, "weyl")
    rng = random.Random(f"{tag}{rank}")
    for cls in classes:
        images = [random_element(rs, rng) for _ in range(2)]
        for q in [cls.canonical] + [sorted(g[i] for i in cls.canonical) for g in images]:
            rep = property_report(rs, q)
            rows = [rs.coweight_values[i] for i in sorted(q)]
            for m, witness in ((2, rep.witness_mod2), (4, rep.witness_mod4)):
                want = lifted_congruence(rows, [1] * len(rows), m)
                assert (None if witness is None else list(witness.coords)) == want, (q, m)


def _q_star_11_by_differences(r, q):
    """Q*_{1,1} from the tuple difference beta1 - beta2 of every pair, looked
    up in the root index: the oracle for the sum-table lookup."""
    out = set()
    qs = sorted(q)
    for a in range(len(qs)):
        for b in range(a + 1, len(qs)):
            idx = r.index.get(tuple(x - y for x, y in zip(r.roots[qs[a]], r.roots[qs[b]])))
            if idx is not None:
                out.add(idx)
                out.add(r.neg(idx))
    return frozenset(out)


def test_q_star_11_matches_difference_oracle():
    # every maximal clique of F4; on E6, whose 59,238 cliques would take
    # seconds, every pair of roots (Q*_{1,1} is a union over pairs) and every
    # 20th clique; on E8, seeded random subsets of every size up to 40
    rs, cliques = _system_and_cliques("F4")
    for q in cliques:
        assert q_star_11(rs, q) == _q_star_11_by_differences(rs, q), q
    rs, cliques = _system_and_cliques("E6")
    for pair in itertools.combinations(range(rs.nroots), 2):
        assert q_star_11(rs, pair) == _q_star_11_by_differences(rs, pair), pair
    for q in cliques[::20]:
        assert q_star_11(rs, q) == _q_star_11_by_differences(rs, q), q
    rs = build_root_system("E8")
    rng = random.Random("q-star-E8")
    for size in range(41):
        for _ in range(5):
            q = rng.sample(range(rs.nroots), size)
            assert q_star_11(rs, q) == _q_star_11_by_differences(rs, q), q


def _greedy_maximal_lb(r, rng):
    """A maximal lb-set: the roots in a seeded order, each kept when it is
    compatible with every root kept so far."""
    order = list(range(r.nroots))
    rng.shuffle(order)
    q = []
    for i in order:
        if all(compatible(r, i, j) for j in q):
            q.append(i)
    return sorted(q)


# SHA-256 of the property reports below, recorded before fundamentality
# became a feasibility test and route B a single transformed right-hand side
WITNESS_PIN = "1eb474fb21df42c2a40f2abf5d36c5f5be9907dccc62055d331237e9ca8ae8b1"


def witness_pin_digest(enumerated):
    """SHA-256 of property_report(...).to_jsonable() over two seeded W-images
    each of: the maximal classes of F4 and E6, the maximal E7 set of the
    check-E7-maximal golden, the nine E8 examples and two seeded greedy
    maximal lb-sets each of E7 and E8."""
    rng = random.Random("witness-pin")
    sets = [enumerated(tag, None, "weyl") for tag in ("F4", "E6")]
    sets = [(rs, cls.canonical) for rs, classes in sets for cls in classes]
    golden = os.path.join(os.path.dirname(__file__), "golden", "check-E7-maximal.json")
    with open(golden) as f:
        e7, q7 = rootset_from_json(f.read())
    e8 = build_root_system("E8")
    sets += [(e7, q7)] + [(e8, e8_example_set(ex)) for ex in e8_examples()]
    sets += [(rs, _greedy_maximal_lb(rs, rng)) for rs in (e7, e7, e8, e8)]
    reports = []
    for rs, q in sets:
        for _ in range(2):
            g = random_element(rs, rng)
            reports.append(property_report(rs, sorted(g[i] for i in q)).to_jsonable())
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


def test_witness_pin(enumerated):
    # verdicts and witness coordinates of exceptional maximal sets did not move
    assert witness_pin_digest(enumerated) == WITNESS_PIN
