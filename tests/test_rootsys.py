import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcr.gaussq import Factored, solve_linear
from flagcr.intlat import column_solver, hermite_basis, smith_normal_form
from flagcr.rootsys import (
    GradingElement,
    InvalidRank,
    build_root_system,
    coroot,
    dot,
    evaluate,
    evaluate_int,
    find_root,
    inner,
    root_sum,
    roots_set,
    rootset_from_json,
    rootset_to_json,
)

COUNTS = {
    ("A", 3): 6,
    ("A", 4): 12,
    ("A", 5): 20,
    ("B", 2): 8,
    ("B", 3): 18,
    ("B", 4): 32,
    ("C", 3): 18,
    ("C", 4): 32,
    ("D", 4): 24,
    ("D", 5): 40,
    ("G2", None): 12,
    ("F4", None): 48,
    ("E6", None): 72,
    ("E7", None): 126,
    ("E8", None): 240,
}


@pytest.mark.parametrize("tag,rank", sorted(COUNTS, key=str))
def test_root_counts(tag, rank):
    rs = build_root_system(tag, rank)
    assert rs.nroots == COUNTS[(tag, rank)]


def test_invalid_ranks():
    with pytest.raises(InvalidRank):
        build_root_system("A", 1)
    with pytest.raises(InvalidRank):
        build_root_system("D", 2)
    with pytest.raises(InvalidRank):
        build_root_system("G2", 3)
    with pytest.raises(InvalidRank):
        build_root_system("H", 2)


@pytest.mark.parametrize("tag,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", None), ("F4", None), ("E6", None), ("E7", None), ("E8", None)])
def test_negation_closure_and_cartan_integers(tag, rank):
    rs = build_root_system(tag, rank)
    for i, v in enumerate(rs.roots):
        assert rs.neg(i) is not None
    for a in rs.roots[:: max(1, rs.nroots // 20)]:
        for b in rs.roots[:: max(1, rs.nroots // 20)]:
            c = 2 * inner(a, b) / inner(b, b)
            assert c.denominator == 1


def test_inner_examples():
    a2 = build_root_system("A", 3)
    r = find_root(a2, (1, -1, 0))
    assert inner(a2.roots[r], a2.roots[r]) == 2
    e8 = build_root_system("E8")
    b0 = find_root(e8, [Fraction(1, 2)] * 8)
    b12 = find_root(e8, [-Fraction(1, 2), -Fraction(1, 2)] + [Fraction(1, 2)] * 6)
    # expand half-coordinates by hand: 6*(1/4) - 2*(1/4) = 1
    assert inner(e8.roots[b0], e8.roots[b12]) == 1
    b4 = build_root_system("B", 4)
    e1 = find_root(b4, (1, 0, 0, 0))
    e1e2 = find_root(b4, (1, 1, 0, 0))
    assert inner(b4.roots[e1], b4.roots[e1e2]) == 1


def test_root_sum():
    a2 = build_root_system("A", 3)
    i = find_root(a2, (1, -1, 0))
    j = find_root(a2, (0, 1, -1))
    k = find_root(a2, (1, 0, -1))
    assert root_sum(a2, i, j) == k
    assert root_sum(a2, i, k) is None


def test_g2_short_plus_short_is_root():
    # the sum of two short roots, when their sum is nonzero, is always a root
    g2 = build_root_system("G2")
    short = [i for i, v in enumerate(g2.roots) if inner(v, v) == 2]
    assert len(short) == 6
    for i in short:
        for j in short:
            if g2.neg(i) == j:
                continue
            s = tuple(a + b for a, b in zip(g2.roots[i], g2.roots[j]))
            if i == j:
                continue
            assert s in g2.index, (g2.roots[i], g2.roots[j])
    lng = [i for i, v in enumerate(g2.roots) if inner(v, v) == 6]
    e1me3 = find_root(g2, (1, 0, -1))
    lroot = find_root(g2, (-1, 2, -1))
    assert root_sum(g2, e1me3, lroot) is None


def test_e_series_inclusion():
    e6 = build_root_system("E6")
    e7 = build_root_system("E7")
    e8 = build_root_system("E8")
    s6 = set(e6.roots)
    s7 = set(e7.roots)
    s8 = set(e8.roots)
    assert s6 < s7 < s8


# order of the fundamental group P/Q, used to validate the coweight lattice
FUNDAMENTAL_GROUP_ORDER = {
    "A": lambda n: n,  # n = ambient dimension, type A_{n-1}
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "G2": lambda n: 1,
    "F4": lambda n: 1,
    "E6": lambda n: 3,
    "E7": lambda n: 2,
    "E8": lambda n: 1,
}


def coweight_index(r) -> int:
    """Index of the coroot lattice inside the coweight lattice (equals the
    order of the fundamental group for the nine supported types)."""
    coroots = [coroot(v) for v in r.roots]
    lcm = math.lcm(*(x.denominator for vec in itertools.chain(coroots, r.coweight_basis) for x in vec))
    cor_basis = hermite_basis([[int(x * lcm) for x in c] for c in coroots])
    cw_cols = [[int(x * lcm) for x in v] for v in r.coweight_basis]
    solver = column_solver(cw_cols)
    coords = []
    for v in cor_basis:
        sol = solver.solve(list(v))
        if sol is None:
            raise ValueError("coroot lattice not contained in coweight lattice")
        coords.append(list(sol.particular))
    s, _, _ = smith_normal_form(coords)
    idx = 1
    for i in range(min(len(s), len(s[0]) if s else 0)):
        if s[i][i] == 0:
            raise ValueError("coroot lattice has lower rank than coweight lattice")
        idx *= s[i][i]
    return abs(idx)


@pytest.mark.parametrize(
    "tag,rank",
    [("A", 2), ("A", 4), ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("G2", None), ("F4", None), ("E6", None), ("E7", None), ("E8", None)],
)
def test_coweight_lattice(tag, rank):
    rs = build_root_system(tag, rank)
    assert len(rs.coweight_basis) == rs.rank
    for basis_vec in rs.coweight_basis:
        for v in rs.roots:
            val = evaluate(v, basis_vec)
            assert val.denominator == 1
    n = rank if rank is not None else 0
    assert coweight_index(rs) == FUNDAMENTAL_GROUP_ORDER[tag](n)


def test_coweight_a1():
    a1 = build_root_system("A", 2)
    (basis_vec,) = a1.coweight_basis
    assert basis_vec in ((Fraction(1, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1, 2)))


def test_e8_grading_vector_in_lattice():
    e8 = build_root_system("E8")
    coords = e8.ambient_to_coweight_coords([0, 0, 0, 0, 0, 0, 0, 2])
    assert coords is not None
    e = e8.grading_element(coords)
    assert e.ambient == tuple(Fraction(x) for x in (0, 0, 0, 0, 0, 0, 0, 2))
    # all e_i(E)=1/2 is also in the lattice and gives e1+e2 -> 1
    coords2 = e8.ambient_to_coweight_coords([Fraction(1, 2)] * 8)
    assert coords2 is not None
    e2 = e8.grading_element(coords2)
    r = find_root(e8, (1, 1, 0, 0, 0, 0, 0, 0))
    assert evaluate_int(e8.roots[r], e2) == 1


def test_evaluate_f4_example():
    f4 = build_root_system("F4")
    coords = f4.ambient_to_coweight_coords([1, 1, 0, 0])
    e = f4.grading_element(coords)
    r1 = find_root(f4, (1, 0, 0, 0))
    b0 = find_root(f4, [Fraction(1, 2)] * 4)
    assert evaluate_int(f4.roots[r1], e) == 1
    assert evaluate_int(f4.roots[b0], e) == 1
    zero = f4.grading_element([0] * f4.rank)
    assert evaluate_int(f4.roots[r1], zero) == 0


def test_rootset_json_roundtrip():
    f4 = build_root_system("F4")
    q = roots_set(f4, [(1, 0, 0, 0), [Fraction(1, 2)] * 4])
    text = rootset_to_json(f4, q)
    rs2, q2 = rootset_from_json(text)
    assert rs2.type_tag == "F4"
    assert {rs2.roots[i] for i in q2} == {f4.roots[i] for i in q}


# one system of each of the nine types
NINE = [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", None), ("F4", None), ("E6", None), ("E7", None), ("E8", None)]


@functools.lru_cache(maxsize=None)
def _system(tag, rank):
    return build_root_system(tag, rank)


def _oracle_ambient(rs, coords):
    """The coweight combination sum_k c_k omega_k, summed in Fractions."""
    amb = [Fraction(0)] * rs.ambient_dim
    for c, basis_vec in zip(coords, rs.coweight_basis):
        for k in range(rs.ambient_dim):
            amb[k] += c * basis_vec[k]
    return tuple(amb)


def _oracle_evaluate(alpha, ambient):
    """alpha(E) = dot(stored alpha, ambient) / 2, one Fraction per coordinate."""
    return Fraction(sum(a * Fraction(x) for a, x in zip(alpha, ambient)), 2)


def _assert_pairing_matches_oracle(rs, e):
    # roots, and the lattice basis, which is not made of roots
    for alpha in list(rs.roots) + [tuple(b) for b in rs.lattice_basis]:
        want = _oracle_evaluate(alpha, e.ambient)
        assert evaluate(alpha, e) == want
        if want.denominator == 1:
            assert evaluate_int(alpha, e) == want
        else:
            with pytest.raises(ValueError, match="does not evaluate integrally"):
                evaluate_int(alpha, e)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_pairing_matches_fraction_oracle(data):
    tag, rank = data.draw(st.sampled_from(NINE))
    rs = _system(tag, rank)
    coords = data.draw(st.lists(st.integers(-60, 60), min_size=rs.rank, max_size=rs.rank))
    e = rs.grading_element(coords)
    assert e.ambient == _oracle_ambient(rs, coords)
    assert all(Fraction(x, e.den) == y for x, y in zip(e.num, e.ambient))
    _assert_pairing_matches_oracle(rs, e)
    # built from ambient only, the numerators are derived; they take no part
    # in equality, hashing or repr
    direct = GradingElement(e.coords, e.ambient)
    assert (direct, hash(direct), repr(direct)) == (e, hash(e), repr(e))
    _assert_pairing_matches_oracle(rs, direct)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_direct_grading_element_matches_fraction_oracle(data):
    # arbitrary rational ambient vectors, mostly off the coweight lattice, as
    # in test_witness_outside_coweight_lattice_is_rejected
    tag, rank = data.draw(st.sampled_from(NINE))
    rs = _system(tag, rank)
    entry = st.fractions(min_value=-8, max_value=8, max_denominator=12)
    ambient = tuple(data.draw(st.lists(entry, min_size=rs.ambient_dim, max_size=rs.ambient_dim)))
    e = GradingElement((0,) * rs.rank, ambient)
    assert e.den > 0 and all(Fraction(x, e.den) == y for x, y in zip(e.num, ambient))
    _assert_pairing_matches_oracle(rs, e)


@pytest.mark.parametrize("tag,rank", NINE)
def test_negation_table_is_tuple_negation_and_an_involution(tag, rank):
    rs = _system(tag, rank)
    assert len(rs.negation) == rs.nroots
    for i, v in enumerate(rs.roots):
        assert rs.roots[rs.neg(i)] == tuple(-x for x in v)
        assert rs.neg(rs.neg(i)) == i


# Oracles: the coweight basis as the Gram matrix inverted over Q with the
# dual vectors summed in Fractions, and coweight coordinates by one solve
# over Q, against the one integer Smith form the root-system build uses.

ALL_TYPES = (
    [("A", n) for n in range(3, 11)]
    + [(t, n) for t in ("B", "C") for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [(t, None) for t in ("G2", "F4", "E6", "E7", "E8")]
)


def _fraction_coweight_basis(dbasis):
    r, n = len(dbasis), len(dbasis[0])
    gram = [[Fraction(dot(dbasis[i], dbasis[j]), 2) for j in range(r)] for i in range(r)]
    inv = Factored(gram, Fraction).inverse()
    dual = []
    for j in range(r):
        vec = [Fraction(0)] * n
        for i in range(r):
            for k in range(n):
                vec[k] += inv[j][i] * dbasis[i][k]
        dual.append(tuple(vec))
    return dual


def _fraction_coweight_coords(rs, ambient):
    rows = [[v[k] for v in rs.coweight_basis] for k in range(rs.ambient_dim)]
    sol = solve_linear(rows, ambient, Fraction)
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


@pytest.mark.parametrize("tag,rank", ALL_TYPES)
def test_coweight_basis_matches_fraction_oracle(tag, rank):
    rs = build_root_system(tag, rank)
    assert rs.lattice_basis == hermite_basis([list(v) for v in rs.roots])
    cw = _fraction_coweight_basis(rs.lattice_basis)
    den = math.lcm(*(x.denominator for w in cw for x in w))
    cw_num = [tuple(int(x * den) for x in w) for w in cw]
    assert rs.coweight_basis == cw
    assert rs.coweight_scaled == (list(zip(*cw_num)), den)
    assert rs.coweight_values == [tuple(_oracle_evaluate(v, w) for w in cw) for v in rs.roots]


@pytest.mark.parametrize("tag,rank", NINE + [("A", 7), ("B", 5), ("C", 4), ("D", 6)])
def test_coweight_coords_match_fraction_oracle(tag, rank):
    rs = _system(tag, rank)
    rng = random.Random(f"coweight-coords:{tag}:{rank}")
    got = []
    for _ in range(25):
        coords = [rng.randint(-9, 9) for _ in range(rs.rank)]
        on = rs.grading_element(coords).ambient
        # lattice points, their fractions (in the span, mostly off the
        # lattice), and rational vectors (off the span in type A)
        cases = [on, tuple(x / rng.choice((2, 3, 4)) for x in on)]
        cases.append(tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rs.ambient_dim)))
        if tag == "A":
            cases.append(tuple(x + Fraction(1, 2) for x in on))
        for ambient in cases:
            want = _fraction_coweight_coords(rs, ambient)
            assert rs.ambient_to_coweight_coords(ambient) == want
            got.append(want)
        assert got[-len(cases)] == tuple(coords)
    assert None in got
    with pytest.raises(ValueError, match="dimension"):
        rs.ambient_to_coweight_coords((0,) * (rs.ambient_dim + 1))
