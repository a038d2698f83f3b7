import ast
import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction
from operator import sub

import pytest

from flagcr import classify, qsets, weyl
from flagcr.cli import main
from flagcr.classify import (
    XI,
    AnchorViolation,
    BudgetExceeded,
    CatalogClaimFailed,
    MassIdentityViolation,
    b3_counterexample,
    beta0,
    catalog,
    construct_q,
    e8_example_set,
    e8_examples,
    enumerate_maximal,
    f4_counterexample,
    grading_level_set,
    grading_table,
    maximal_cliques,
    maximal_symmetric_classes,
    orbit_lemma_expected,
    printed_orbit_61,
    q_prime_p,
    spin,
    verify_grading,
)
from flagcr.qsets import compat_graph, is_fundamental, is_lb
from flagcr.rootsys import build_root_system, dot, evaluate_int, find_root, root_sum, root_system_of_rank, roots_set
from flagcr.weyl import (
    canonical_form,
    generators,
    reflection_perm,
    root_orbit,
    set_orbit,
    sets_equivalent,
)

H = Fraction(1, 2)


def _epair(i, j):
    return tuple(1 if k + 1 in (i, j) else 0 for k in range(8))


# maximal orthogonal frames of roots in S^l_i; construct_q anchors below are
# prefixes of these
ORTH_FRAMES = {
    (6, 2): [_epair(1, 5), _epair(2, 4), spin((1, 2, 6, 7)), spin((4, 5, 6, 7))],
    (7, 1): [spin((6, 8)), spin((1, 7)), spin((2, 5, 6, 7)), spin((3, 4, 6, 7))],
    (7, 2): [
        _epair(1, 2),
        _epair(3, 4),
        _epair(5, 6),
        spin((1, 3, 5, 7)),
        spin((1, 4, 6, 7)),
        spin((2, 3, 6, 7)),
        spin((2, 4, 5, 7)),
    ],
    (8, 1): [
        beta0(),
        spin((1, 2, 3, 4)),
        spin((1, 2, 5, 6)),
        spin((1, 2, 7, 8)),
        spin((1, 3, 5, 8)),
        spin((1, 3, 6, 7)),
        spin((2, 3, 5, 7)),
        spin((2, 3, 6, 8)),
    ],
    (8, 2): [spin((1, 2)), spin((3, 4)), spin((5, 6)), spin((7, 8))],
}


def test_enumerate_counts():
    for tag, rank, want in [("A", 3, 2), ("A", 4, 3), ("C", 2, 1), ("C", 3, 1), ("C", 4, 1), ("G2", None, 2)]:
        rs = build_root_system(tag, rank)
        assert len(enumerate_maximal(rs)) == want
    # truth for F4 is 8 classes mod W; the source catalog lists five with a
    # W-equivalent pair among them (see decisions ledger)
    assert len(enumerate_maximal(build_root_system("F4"))) == 8


def test_enumerate_budget():
    f4 = build_root_system("F4")
    with pytest.raises(BudgetExceeded):
        enumerate_maximal(f4, budget=10)
    # a stop in the clique search carries no classes (not the raw cliques)
    with pytest.raises(BudgetExceeded) as e:
        enumerate_maximal(f4, budget=100)
    assert e.value.partial == []
    assert isinstance(e.value.__cause__, BudgetExceeded)


@pytest.mark.parametrize(
    "tag,n,quotient",
    [("A", n, "weyl") for n in (4, 5, 6)]
    + [("B", n, "weyl") for n in (3, 4)]
    + [("C", n, "weyl") for n in (3, 4, 5)]
    + [("D", n, "weyl") for n in (4, 5)]
    + [("G2", None, "weyl"), ("F4", None, "weyl"), ("D", 4, "aut")],
)
def test_enumerate_classes_cover_the_fundamental_cliques(tag, n, quotient):
    # oracle: fundamentality tested on every maximal clique, as an
    # enumeration that filters before it dedups would
    rs = build_root_system(tag, n)
    nbr = compat_graph(rs)
    fundamental = [c for c in maximal_cliques(nbr, range(len(nbr))) if is_fundamental(rs, c)]
    classes = enumerate_maximal(rs, quotient)
    assert sum(c.orbit_size for c in classes) == len(fundamental)
    assert all(c.report.is_fundamental and is_fundamental(rs, c.canonical) for c in classes)
    # the representative is the least member of its orbit
    assert all(frozenset(c.canonical) == canonical_form(rs, c.canonical, quotient) for c in classes)


def _least_budget(run):
    """The least budget in 1..2,000,000 with which run(budget) raises no
    BudgetExceeded, by bisection."""
    lo, hi = 1, 2_000_000
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            run(mid)
            hi = mid
        except BudgetExceeded:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("tag,n", [("F4", None), ("D", 5)])
def test_enumerate_finishes_at_the_least_clique_budget(enumerated, monkeypatch, tag, n):
    # enumerate finishes at the least budget the search through the orbit
    # leaders finishes in, plus the candidate images of the counted forms
    # after it, and at no smaller one
    rs, classes = enumerated(tag, n, "weyl")
    nbr, leaders = compat_graph(rs), _leaders(rs)
    lo = _least_budget(lambda budget: maximal_cliques(nbr, leaders, budget))
    with pytest.raises(BudgetExceeded):
        maximal_cliques(nbr, leaders, lo - 1)
    spent = sum(form.candidates for _, form in _recorded_forms(monkeypatch, rs, "weyl")[1])
    assert _least_budget(lambda budget: enumerate_maximal(rs, budget=budget)) == lo + spent
    got = enumerate_maximal(rs, budget=lo + spent)
    assert [(c.canonical, c.orbit_size) for c in got] == [(c.canonical, c.orbit_size) for c in classes]


def _bfs_root_orbits(rs):
    """Oracle: the W-orbits of the roots by breadth-first search under the
    simple reflections, in the order of their least roots."""
    gens, remaining, out = generators(rs), set(range(rs.nroots)), []
    while remaining:
        out.append(root_orbit(rs, min(remaining), gens))
        remaining -= out[-1]
    return tuple(out)


def _leaders(rs):
    """The least root of each W-orbit of roots."""
    return [min(o) for o in _bfs_root_orbits(rs)]


@pytest.mark.parametrize(
    "tag,n",
    [("A", n) for n in range(3, 9)] + [("B", n) for n in range(2, 7)] + [("C", n) for n in range(2, 7)]
    + [("D", n) for n in range(3, 8)] + [(t, None) for t in ("G2", "F4", "E6", "E7", "E8")],
)
def test_root_orbits_are_the_length_classes(tag, n):
    # W is transitive on the roots of one length, so the orbits read off the
    # lengths are the breadth-first ones
    rs = build_root_system(tag, n)
    assert classify._root_orbits(rs) == _bfs_root_orbits(rs)


def _difference_key(rs, cl):
    """Oracle for enumerate_maximal's bucket key, from the root vectors: |C|
    and the sorted counts, for i in C, of the j in C with alpha_j - alpha_i a
    root or zero."""
    vs = [rs.roots[i] for i in cl]
    return len(vs), tuple(sorted(sum(v == u or tuple(map(sub, v, u)) in rs.index for v in vs) for u in vs))


def _recorded_forms(monkeypatch, rs, quotient):
    """enumerate_maximal's classes, with the (clique, counted form) of each
    counted_form call it made, in order."""
    calls = []

    def recording(r, q, group, budget):
        form = weyl.counted_form(r, q, group, budget)
        calls.append((tuple(q), form))
        return form

    with monkeypatch.context() as m:
        m.setattr(classify, "counted_form", recording)
        return enumerate_maximal(rs, quotient), calls


@pytest.mark.parametrize("tag,n,quotient", [("F4", None, "weyl"), ("D", 4, "aut"), ("A", 7, "weyl")])
def test_enumerate_budget_counts_the_counted_form_candidates(enumerated, monkeypatch, tag, n, quotient):
    # the budget is charged the search nodes, then each counted form's
    # candidates: it finishes at exactly their sum, and a stop inside the
    # k-th form carries exactly the classes of the buckets spent before it
    rs, classes = enumerated(tag, n, quotient)
    nodes = maximal_cliques(compat_graph(rs), through=_leaders(rs)).nodes
    got, calls = _recorded_forms(monkeypatch, rs, quotient)
    assert [(c.canonical, c.orbit_size, c.report) for c in got] == [
        (c.canonical, c.orbit_size, c.report) for c in classes]
    # the buckets are walked one at a time, and each holds a class
    keys = [_difference_key(rs, q) for q, _ in calls]
    assert len(set(keys)) == len(list(itertools.groupby(keys)))
    assert {_difference_key(rs, c.canonical) for c in classes} == set(keys)
    assert len(calls) >= len(classes)
    last = {key: k for k, key in enumerate(keys)}
    spent = list(itertools.accumulate(form.candidates for _, form in calls))
    assert [(c.canonical, c.orbit_size) for c in enumerate_maximal(rs, quotient, nodes + spent[-1])] == [
        (c.canonical, c.orbit_size) for c in classes]
    for k in range(len(calls)):
        with pytest.raises(BudgetExceeded, match="counted forms exceeded") as e:
            enumerate_maximal(rs, quotient, nodes + spent[k] - 1)
        certified = [c.canonical for c in classes if last[_difference_key(rs, c.canonical)] < k]
        assert [c.canonical for c in e.value.partial] == certified
        assert isinstance(e.value.__cause__, BudgetExceeded)
        assert str(e.value.__cause__).startswith("canonical image search exceeded")


def test_enumerate_counted_form_stop_prints_the_certified_classes(enumerated, monkeypatch, capsys):
    rs, classes = enumerated("F4", None, "weyl")
    nodes = maximal_cliques(compat_graph(rs), through=_leaders(rs)).nodes
    calls = _recorded_forms(monkeypatch, rs, "weyl")[1]
    last = _difference_key(rs, calls[-1][0])
    want = [[list(rs.roots[i]) for i in c.canonical] for c in classes if _difference_key(rs, c.canonical) != last]
    assert 0 < len(want) < len(classes)
    budget = nodes + sum(form.candidates for _, form in calls) - 1
    capsys.readouterr()
    assert main(["enumerate", "--type", "F4", "--budget", str(budget)]) == 2
    captured = capsys.readouterr()
    data = json.loads(captured.out)
    assert data["exhaustive"] is False
    assert [c["roots"] for c in data["results"]["classes"]] == want
    assert "counted forms exceeded" in captured.err


@pytest.mark.parametrize("tag,n,quotient,factor", [
    ("F4", None, "weyl", 2), ("D", 4, "aut", 2), ("D", 5, "weyl", 2), ("F4", None, "weyl", 0.5), ("D", 4, "aut", 0.5),
    ("D", 5, "weyl", 0.5), ("E6", None, "weyl", 0.5), ("A", 6, "weyl", 0.5), ("D", 4, "weyl", 0.5)])
def test_a_corrupted_stabiliser_breaks_the_mass_identity(monkeypatch, tag, n, quotient, factor):
    # a stabiliser count off by a factor of 2 in the counted form of any one
    # class gives an orbit size that the counts of searched cliques refute: a
    # doubled one leaves cliques over, a halved one takes more than its
    # bucket holds.  Where the bucket holds another class of the same mass, a
    # halved one can end the walk before it reaches the second; in the
    # buckets of D5, E6, A5 and D4 under W where it does, the second is the
    # image of a found class under a diagram automorphism, and the closure
    # check on those images finds it missing
    rs = build_root_system(tag, n)
    calls = _recorded_forms(monkeypatch, rs, quotient)[1]
    firsts = {}
    for k, (_, form) in enumerate(calls):
        firsts.setdefault(form.image, (k, form))
    for k, form in firsts.values():
        stabiliser = form.stabiliser * factor
        assert stabiliser == int(stabiliser)
        made = []

        def corrupting(r, q, group, budget, k=k, stabiliser=int(stabiliser), made=made):
            form = weyl.counted_form(r, q, group, budget)
            made.append(form)
            return form._replace(stabiliser=stabiliser) if len(made) == k + 1 else form

        monkeypatch.setattr(classify, "counted_form", corrupting)
        with pytest.raises(MassIdentityViolation):
            enumerate_maximal(rs, quotient)


def _full_graph_classes(rs, cliques, quotient):
    """Oracle: every maximal clique searched, then scanned in sorted order;
    the first clique of each orbit not yet seen is its least member."""
    seen, classes = set(), []
    for cl in sorted(cliques):
        if frozenset(cl) not in seen:
            orbit = set_orbit(rs, cl, quotient)
            seen |= orbit
            classes.append((cl, len(orbit), qsets.property_report(rs, cl)))
    return classes


CLIQUE_COUNTS = {("E6", None): 59_238, ("D", 6): 10_036}


@pytest.mark.parametrize(
    "tag,n",
    [("A", n) for n in (3, 4, 5, 6)] + [("B", n) for n in (3, 4, 5)] + [("C", n) for n in (3, 4, 5)]
    + [("D", n) for n in (4, 5, 6)] + [("G2", None), ("F4", None), ("E6", None)],
)
def test_enumerate_matches_the_full_graph_route(enumerated, tag, n):
    rs = enumerated(tag, n, "weyl")[0]
    nbr = compat_graph(rs)
    cliques = maximal_cliques(nbr, range(len(nbr)))
    for quotient in ("weyl", "aut"):
        got = enumerated(tag, n, quotient)[1]
        assert [(c.canonical, c.orbit_size, c.report) for c in got] == _full_graph_classes(rs, cliques, quotient)
        assert sum(c.orbit_size for c in got) == len(cliques)
    if (tag, n) in CLIQUE_COUNTS:
        assert len(cliques) == CLIQUE_COUNTS[tag, n]


def _adjacency(nbr):
    """The neighbour masks as a dict of neighbour sets."""
    return {i: {j for j in range(len(nbr)) if mask >> j & 1} for i, mask in enumerate(nbr)}


def _set_maximal_cliques(adj, budget=None):
    """Oracle: pivoting Bron-Kerbosch on Python sets, the pivot the first
    node of P | X in set order with the most neighbours in P."""
    found = []
    nodes = 0

    def bk(r, p, x):
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(f"clique search exceeded {budget} nodes", found)
        if not p and not x:
            found.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            bk(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    bk(set(), set(adj), set())
    return found


CLIQUE_TYPES = [("A", 4), ("A", 6), ("B", 3), ("B", 4), ("C", 3), ("C", 5), ("D", 4), ("D", 5), ("G2", None), ("F4", None)]


@pytest.mark.parametrize("tag,n", CLIQUE_TYPES)
def test_maximal_cliques_match_set_oracle(tag, n):
    nbr = compat_graph(build_root_system(tag, n))
    got = maximal_cliques(nbr, range(len(nbr)))
    want = _set_maximal_cliques(_adjacency(nbr))
    assert all(c == tuple(sorted(c)) for c in got)
    assert len(set(got)) == len(got)
    assert set(got) == set(want)


def test_maximal_cliques_on_random_mask_graphs_match_set_oracle():
    rng, pick = random.Random(5), random.Random(6)
    for _ in range(30):
        nbr = [0] * rng.randint(1, 24)
        for u, v in itertools.combinations(range(len(nbr)), 2):
            if rng.random() < 0.5:
                nbr[u] |= 1 << v
                nbr[v] |= 1 << u
        want = _set_maximal_cliques(_adjacency(nbr))
        assert sorted(maximal_cliques(nbr, range(len(nbr)))) == sorted(want)
        v = pick.randrange(len(nbr))
        assert sorted(maximal_cliques(nbr, through=[v])) == sorted(c for c in want if v in c)
        # through several vertices, each clique that meets them is found once
        vs = pick.sample(range(len(nbr)), min(3, len(nbr)))
        assert sorted(maximal_cliques(nbr, through=vs)) == sorted(c for c in want if set(vs) & set(c))
    # the empty graph's one maximal clique, (), meets no vertex
    assert maximal_cliques([], range(0)) == []


def test_clique_budget_stop_carries_maximal_cliques():
    nbr = compat_graph(build_root_system("F4"))
    everything = set(_set_maximal_cliques(_adjacency(nbr)))
    for budget in (20, 200, 2000):
        with pytest.raises(BudgetExceeded) as e:
            maximal_cliques(nbr, range(len(nbr)), budget)
        partial = e.value.partial
        assert partial and len(set(partial)) == len(partial) < len(everything)
        assert set(partial) <= everything


@pytest.mark.parametrize("tag,n", [("A", 6), ("B", 5), ("C", 5), ("D", 6), ("G2", None), ("F4", None), ("E6", None), ("E7", None), ("E8", None)])
def test_greedy_maximal_cliques_are_fundamental(tag, n):
    # a clique grown in random root order until no root fits is maximal, and
    # every maximal clique is fundamental (proof at enumerate_maximal)
    rs = build_root_system(tag, n)
    rng = random.Random(f"greedy:{tag}:{n}")
    for _ in range(25):
        order = list(range(rs.nroots))
        rng.shuffle(order)
        q = []
        for i in order:
            if all(qsets.compatible(rs, i, j) for j in q):
                q.append(i)
        assert is_fundamental(rs, q)


def test_e6_aut_classes_are_unions_of_weyl_classes(enumerated):
    e6, weyl = enumerated("E6", None, "weyl")
    aut = enumerated("E6", None, "aut")[1]
    assert (len(weyl), len(aut)) == (13, 10)
    merged: dict[frozenset[int], int] = {}
    for c in weyl:
        key = canonical_form(e6, c.canonical, "aut")
        merged[key] = merged.get(key, 0) + c.orbit_size
    assert merged == {frozenset(c.canonical): c.orbit_size for c in aut}


def test_e6_construct_q_is_an_enumerated_class(enumerated):
    from flagcr.classify import _is_maximal_clique

    e6 = build_root_system("E6")
    q = construct_q(6, 2, ORTH_FRAMES[(6, 2)][:1])
    assert is_lb(e6, q) and _is_maximal_clique(e6, q)
    assert canonical_form(e6, q) in {frozenset(c.canonical) for c in enumerated("E6", None, "weyl")[1]}


def all_cliques(nbr: list[int]):
    """Every nonempty clique of the graph of neighbour masks, each exactly once."""
    out: list[tuple[int, ...]] = []

    def grow(prefix: list[int], allowed: list[int]):
        for k, v in enumerate(allowed):
            cur = prefix + [v]
            out.append(tuple(cur))
            grow(cur, [w for w in allowed[k + 1 :] if nbr[v] >> w & 1])

    grow([], list(range(len(nbr))))
    return out


def test_all_cliques_small():
    a2 = build_root_system("A", 3)
    cl = all_cliques(compat_graph(a2))
    assert len(set(cl)) == len(cl)
    assert all(is_lb(a2, c) for c in cl)
    # singletons + pairs: 6 roots, 6 maximal 2-cliques = 6 + 6
    assert len(cl) == 12


def test_catalog_a_and_c():
    # build_root_system("A", n) takes the ambient dimension n, so A4 here is
    # A_3, the system of enumerate --type A --rank 3
    a3 = build_root_system("A", 4)
    entries = catalog(a3, "all")
    assert [e.parameters["p"] for e in entries] == [1, 2, 3]
    assert root_system_of_rank("A", 3).roots == a3.roots
    sym = catalog(a3, "symmetric")
    assert len(sym) == 3
    c = catalog(build_root_system("C", 3), "symmetric")
    assert len(c) == 1 and len(c[0].indices) == 6


def test_catalog_b_d_match_enumeration():
    # the generator (with maximality filter and canonical-form dedup) must
    # reproduce exactly the enumerated classes
    for tag, n in [("B", 2), ("B", 3), ("B", 4), ("D", 4), ("B", 5), ("D", 5)]:
        rs = build_root_system(tag, n)
        cat = catalog(rs, "all")
        classes = enumerate_maximal(rs)
        assert len(cat) == len(classes), (tag, n, len(cat), len(classes))
        for entry in cat:
            q = frozenset(entry.indices)
            assert any(sets_equivalent(rs, q, frozenset(c.canonical), "weyl") for c in classes)


# parameters of every B4/D4 catalog entry, in catalog order: the dedup keeps
# the first generated member of each W-class
CATALOG_PARAMETERS = {
    ("B", "all"): [
        {"i0": 1, "p": 1, "q": (4,)},
        {"i0": 2, "p": 2, "q": (4,)},
        {"i0": 1, "p": 2, "q": (3, 4)},
        {"i0": 1, "p": 3, "q": (4,)},
        {"i0": 3, "p": 3, "q": (4,)},
        {"i0": 4, "p": 4, "q": ()},
    ],
    ("B", "symmetric"): [{"i0": 1, "p": 1, "q": (4,)}],
    ("D", "all"): [{"p": 1, "q": (4,)}, {"p": 2, "q": (3, 4)}, {"p": 3, "q": (4,)}, {"p": 4, "q": ()}, {"label": "-n"}],
    ("D", "symmetric"): [{"p": 1, "q": (4,)}, {"label": "n"}, {"label": "-n"}],
}


@pytest.mark.parametrize("tag,which", list(CATALOG_PARAMETERS), ids=[f"{t}4-{w}" for t, w in CATALOG_PARAMETERS])
def test_catalog_b_d_keeps_first_of_each_class(tag, which):
    assert [e.parameters for e in catalog(build_root_system(tag, 4), which)] == CATALOG_PARAMETERS[tag, which]


# every entry of every catalog: label, root indices, parameters, claims and
# source, keyed "<type><rank>-<which>"
with open(os.path.join(os.path.dirname(__file__), "catalog_entries.json")) as f:
    CATALOG_ENTRIES = json.load(f)


@pytest.mark.parametrize("key", list(CATALOG_ENTRIES))
def test_catalog_entries_as_recorded(key):
    tag, which = key.split("-")
    type_tag, rank = (tag, None) if tag in ("G2", "F4") else (tag[0], int(tag[1:]))
    rs = build_root_system(type_tag, rank)
    got = [[e.label, list(e.indices), e.parameters, e.claims, e.source] for e in catalog(rs, which)]
    assert json.loads(json.dumps(got)) == CATALOG_ENTRIES[key]


def test_catalog_g2_f4():
    g2, f4 = build_root_system("G2"), build_root_system("F4")
    assert len(catalog(g2, "all")) == 2
    g2s = catalog(g2, "symmetric")
    assert {e.label for e in g2s} == {"Q4_1", "Q4_0"}
    assert len(catalog(f4, "all")) == 5
    f4s = catalog(f4, "symmetric")
    assert len(f4s) == 1 and len(f4s[0].indices) == 7


def test_catalog_claim_failure_surfaces():
    # deliberately broken claim raises CatalogClaimFailed
    from flagcr.classify import CatalogEntry, _verify_entry

    g2 = build_root_system("G2")
    q42 = roots_set(g2, [(1, 0, -1), (2, -1, -1), (1, 1, -2)])
    entry = CatalogEntry("bogus", tuple(sorted(q42)), {}, {"symmetric": True}, "test")
    with pytest.raises(CatalogClaimFailed):
        _verify_entry(g2, entry)


def test_grading_tables():
    for pair in XI:
        ok, fails = verify_grading(*pair)
        assert ok, (pair, fails[:3])
        t = grading_table(*pair)
        assert t.r_part | t.s_part == frozenset(range(t.system.nroots))
        assert not (t.r_part & t.s_part)


def test_construct_q_examples():
    e8 = build_root_system("E8")
    q = construct_q(8, 1, [beta0()])
    assert len(q) == 29
    expect = {find_root(e8, beta0())} | {
        find_root(e8, spin((i, j))) for i, j in itertools.combinations(range(1, 9), 2)
    }
    assert set(q) == expect
    # non-uniqueness witness
    q2 = construct_q(8, 1, [spin((1, 2)), spin((3, 4)), spin((5, 6)), spin((7, 8))])
    assert set(q2) == expect
    # the printed identity holds modulo W only: both sides are maximal and a
    # W-element maps one onto the other (decisions ledger)
    lhs = construct_q(8, 1, [beta0(), spin((1, 2))])
    rhs = construct_q(8, 1, [beta0(), spin((1, 2, 3, 4)), spin((1, 2, 5, 6)), spin((1, 2, 7, 8))])
    assert set(lhs) != set(rhs)
    assert _w81_equivalent(e8, frozenset(lhs), frozenset(rhs))


def _w81_equivalent(e8, q1, q2):
    """W-equivalence via a BFS word in reflections by integer-type roots
    (these preserve S^8_1)."""
    table = grading_table(8, 1)
    gens = [reflection_perm(e8, i) for i in sorted(table.r_part)[:32]]
    from collections import deque

    seen = {q1}
    dq = deque([q1])
    while dq:
        cur = dq.popleft()
        if cur == q2:
            return True
        for p in gens:
            img = frozenset(p[i] for i in cur)
            if img not in seen:
                seen.add(img)
                dq.append(img)
        if len(seen) > 200000:
            break
    return q2 in seen


def test_example7_witness_is_E82():
    e8 = build_root_system("E8")
    q7 = construct_q(8, 2, [spin((7, 8)), spin((5, 6))])
    from fractions import Fraction as F

    coords = e8.ambient_to_coweight_coords([F(1, 2)] * 8)
    e = e8.grading_element(coords)
    assert all(evaluate_int(e8.roots[i], e) == 1 for i in q7)


def test_construct_q_example7_exact():
    e8 = build_root_system("E8")
    q7 = construct_q(8, 2, [spin((7, 8)), spin((5, 6))])
    exp = {find_root(e8, spin((5, 6))), find_root(e8, spin((7, 8)))}
    exp |= {find_root(e8, spin((i, r))) for i in range(1, 7) for r in (7, 8)}
    for i, j in itertools.combinations(range(1, 7), 2):
        if (i, j) != (5, 6):
            exp.add(find_root(e8, tuple(1 if k + 1 in (i, j) else 0 for k in range(8))))
    assert set(q7) == exp
    assert len(q7) == 28


def test_anchor_violation():
    with pytest.raises(AnchorViolation):
        construct_q(8, 1, [spin((1, 2)), spin((3, 4, 5, 6, 7, 8))])
    with pytest.raises(AnchorViolation):
        construct_q(8, 1, [(1, 1, 0, 0, 0, 0, 0, 0)])  # not in S^8_1


def test_e8_examples_patterns():
    e8 = build_root_system("E8")
    for ex in e8_examples():
        q = e8_example_set(ex)
        s = qsets.is_symmetric(e8, q)
        w = qsets.has_weak_j(e8, q)
        j = qsets.has_j(e8, q)
        assert (s[0], w[0], j[0]) == ex["pattern"], ex["label"]
        if ex["mod4_witness"] is not None:
            coords = e8.ambient_to_coweight_coords(ex["mod4_witness"])
            e = e8.grading_element(coords)
            assert all(evaluate_int(e8.roots[i], e) % 4 == 1 for i in q)


def test_example4_j_witness_is_E81():
    e8 = build_root_system("E8")
    ex4 = next(e for e in e8_examples() if e["label"] == "4")
    q = e8_example_set(ex4)
    coords = e8.ambient_to_coweight_coords([0, 0, 0, 0, 0, 0, 0, 2])
    e = e8.grading_element(coords)
    assert all(evaluate_int(e8.roots[i], e) == 1 for i in q)


def test_q_prime_parity():
    e8 = build_root_system("E8")
    for p in range(1, 9):
        q = q_prime_p(p)
        got = qsets.is_symmetric(e8, q)
        assert got[0] == (p % 2 == 0), p


def construct_q_stages(l: int, i: int, anchors) -> list[frozenset[int]]:
    """Intermediate accumulation stages of construct_q: stages[p] is the set
    after sweeping the first p anchor shells (stages[0] = the anchor set)."""
    from flagcr.classify import _sweep

    table = grading_table(l, i)
    r = table.system
    return _sweep(r, table.s_part, [a if isinstance(a, int) else find_root(r, a) for a in anchors])


def test_orthogonal_anchor_split():
    # for maximal constructed sets with orthogonal anchors, the split
    # Q = Q^p u (Q n {a_1..a_p}^perp) holds for 1 <= p < k
    e8 = build_root_system("E8")
    for pair, k in [((8, 2), 4), ((8, 1), 4)]:
        frame = ORTH_FRAMES[pair][:k]
        idxs = [find_root(e8, a) for a in frame]
        stages = construct_q_stages(*pair, frame)
        full = stages[-1]
        for p in range(1, k):
            perp = {
                q
                for q in full
                if all(dot(e8.roots[q], e8.roots[a]) == 0 for a in idxs[:p])
            }
            assert full == stages[p] | perp, (pair, p)


def _all_reflection_orbits(pair):
    """Oracle: the orbits on S^l_i of the group generated by the reflections
    in every root of the R-part."""
    t = grading_table(*pair)
    gens = [reflection_perm(t.system, i) for i in sorted(t.r_part)]
    orbits = set()
    remaining = set(t.s_part)
    while remaining:
        o = root_orbit(t.system, min(remaining), gens)
        orbits.add(frozenset(o & t.s_part))
        remaining -= o
    return orbits


@pytest.mark.parametrize("pair", XI)
def test_s_part_orbits_of_the_base_reflections(pair):
    # the reflections in the R-part's simple roots generate its Weyl group
    assert classify.s_part_orbits(*pair) == _all_reflection_orbits(pair)


def test_orbit_lemma_61_73():
    # two-orbit decompositions of S^6_1 and S^7_3 under W^l_i
    for pair in ((6, 1), (7, 3)):
        orbits = _all_reflection_orbits(pair)
        assert len(orbits) == 2, pair
        assert orbits == set(orbit_lemma_expected(pair)), pair
    # the printed S^6_1 orbit lists are exact
    o1, o2 = printed_orbit_61()
    exp = orbit_lemma_expected((6, 1))
    assert {frozenset(o1), frozenset(o2)} == set(exp)
    # both printed (6,1) orbits are in Q_0(E6)
    e6 = build_root_system("E6")
    for o in (o1, o2):
        got = qsets.has_j(e6, o)
        assert got[0] is True


def test_shell_sets_symmetric_not_weak():
    # the level-1 shells Q_{l,i,a0} are maximal symmetric without weak-J
    e8 = build_root_system("E8")
    for pair, a0 in [((8, 1), beta0()), ((8, 2), spin((7, 8)))]:
        q = construct_q(*pair, [a0])
        s = qsets.is_symmetric(e8, q)
        w = qsets.has_weak_j(e8, q)
        assert s[0] is True and w[0] is False


def test_counterexamples_to_catalog_collapse():
    # these falsify the published Q_s = Q_0 collapse claims; see ledger
    r, q = b3_counterexample()
    assert is_lb(r, q) and is_fundamental(r, q)
    assert qsets.is_symmetric(r, q)[0] is True
    assert qsets.has_weak_j(r, q)[0] is False
    assert qsets.has_j(r, q)[0] is False
    r4, q4 = f4_counterexample()
    assert qsets.is_symmetric(r4, q4)[0] is True
    assert qsets.has_weak_j(r4, q4)[0] is False


def test_maximal_symmetric_landscape_small():
    b3 = build_root_system("B", 3)
    classes = maximal_symmetric_classes(b3)
    assert len(classes) == 2
    assert sorted(c["j"] for c in classes) == [False, True]
    # the catalog (the published list) covers only the J class: the non-J
    # maximal symmetric class is the documented gap in the source
    cat = catalog(b3, "symmetric")
    assert len(cat) == 1


def test_enumerate_aut_quotient_merges_d4():
    # under the full automorphism group the mirror classes of D4 merge
    d4 = build_root_system("D", 4)
    w_classes = enumerate_maximal(d4, "weyl")
    aut_classes = enumerate_maximal(d4, "aut")
    assert len(aut_classes) < len(w_classes)


CHEVALLEY_SPECS = [("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G2", None)]


@pytest.mark.parametrize(
    "spec", CHEVALLEY_SPECS, ids=[f"{t}{r - 1 if t == 'A' else r}" if r else t for t, r in CHEVALLEY_SPECS]
)
def test_chevalley_presentation_axioms(spec):
    # the flag presentation satisfies Jacobi and the conjugation axioms
    # exhaustively, and its basis is a Chevalley basis: alpha(h_alpha) = 2,
    # nu(x_alpha) = -x_{-alpha}, nu(h) = -h, and [x_a, x_b] = N x_{a+b} with
    # |N| = p + 1 for the a-string b - p a, ..., b through b
    from flagcr.gaussq import C_ZERO, CNum
    from flagcr.presets import flag_preset

    fp = flag_preset(*spec)
    fp.pres._validate()
    r, pres, x = fp.system, fp.pres, fp.root_vec
    for hv in fp.cartan_vec:
        assert pres.nu(hv) == tuple(-t for t in hv)
    for a in range(r.nroots):
        ma = r.neg(a)
        assert pres.nu(x[a]) == tuple(-t for t in x[ma])
        h = pres.bracket(x[a], x[ma])
        assert pres.nu(h) == tuple(-t for t in h)
        assert pres.bracket(h, x[a]) == tuple(CNum.of(2) * t for t in x[a])
        for b in range(r.nroots):
            if b in (a, ma):
                continue
            got = pres.bracket(x[a], x[b])
            c = root_sum(r, a, b)
            if c is None:
                assert all(t == C_ZERO for t in got)
                continue
            p = 0
            while tuple(v - (p + 1) * u for u, v in zip(r.roots[a], r.roots[b])) in r.index:
                p += 1
            n = next(t for t in got if t)
            assert got == tuple(n * t for t in x[c])
            assert n.im == 0 and abs(n.re) == p + 1


def _verify_paper(section):
    """verify-paper's exit code and its row lines under --format table, which
    end in one JSON summary line, and the rows of classify.verify_paper."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-paper", "--section", section, "--format", "table"])
    *lines, summary = out.getvalue().splitlines(keepends=True)
    assert set(json.loads(summary)) == {"pass", "fail", "known_discrepancies"}
    return code, "".join(lines), classify.verify_paper(section)


def test_known_discrepancies_listed():
    ids = list(classify.KNOWN_DISCREPANCIES)
    assert {"f4-count", "classical-collapse", "f4-collapse", "e8-example-4", "e8-example-6"} <= set(ids)
    # verify-paper reports each registered discrepancy once, by its id and
    # with its registered claim
    code, _, rows = _verify_paper("all")
    assert code == 0
    known = [r for r in rows if "discrepancy_id" in r]
    assert sorted(r["discrepancy_id"] for r in known) == sorted(ids)
    assert all(r["status"] == "known-discrepancy" for r in known)
    assert all(r["claim"] == classify.KNOWN_DISCREPANCIES[r["discrepancy_id"]][0] for r in known)
    assert [r for r in rows if r["status"] != "pass"] == known


def test_an_unregistered_failing_claim_fails(monkeypatch):
    monkeypatch.setattr(classify, "verify_grading", lambda l, i: (False, [f"root of E{l}"]))
    code, lines, rows = _verify_paper("gradings")
    assert code == 1
    assert f"[FAIL] Z2-grading table (6,1)  -- root of E6\n" in lines
    failed = [r for r in rows if r["claim"].startswith("Z2-grading table")]
    assert len(failed) == len(XI)
    assert all(r["status"] == "FAIL" and "discrepancy_id" not in r for r in failed)


def test_a_registered_claim_that_holds_passes(monkeypatch):
    monkeypatch.setattr(classify, "bn_constraint_discrepancy", lambda n: [(1, 2, 3, n)])
    claim, detail = classify.KNOWN_DISCREPANCIES["bn-dn-constraints"]
    code, lines, rows = _verify_paper("6")
    assert code == 0
    assert f"[PASS] {claim}  -- {detail}\n" in lines
    assert [r for r in rows if r["claim"] == claim] == [{"claim": claim, "status": "pass", "detail": detail}]


@pytest.mark.parametrize("section", ["8", "", "All"])
def test_verify_paper_refuses_an_unknown_section(section):
    with pytest.raises(ValueError, match=f"section must be one of 6, 7, gradings, e8-examples or all, got {section!r}"):
        classify.verify_paper(section)


def test_registered_claims_are_stated_only_in_classify():
    # every other module reads a falsified claim's text off the registry
    claims = [claim for claim, _ in classify.KNOWN_DISCREPANCIES.values()]
    src = os.path.dirname(classify.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "classify.py":
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read())
            strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
            assert not [c for c in claims for s in strings if c in s], name
