import functools
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcr.gaussq import Factored, solve_linear
from flagcr.intlat import column_solver, hermite_basis, smith_normal_form
from flagcr.qsets import compat_graph
from flagcr.rootsys import (
    GradingElement,
    InvalidRank,
    build_root_system,
    dot,
    evaluate,
    evaluate_int,
    find_root,
    root_sum,
    roots_set,
    rootset_from_json,
    rootset_to_json,
    scaled,
)


def inner(a, b):
    """The inner product in the original (undoubled) normalization."""
    return Fraction(dot(a, b), 4)


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


# SHA-256 of json.dumps(roots) for each (type, build parameter), recorded from
# the per-family builders that preceded the shared parts, so the stored roots
# and every table derived from their order stay byte-identical
ROOT_DIGESTS = {
    ("A", 2): "5a26645cd1647a0c7fb4cdd16fb73471938538ae8099bf334cb8580e9f9288a3",
    ("A", 3): "cdccf3b11c3c2bb846917875141059e0e518cf543e18cbf0af1c3bb0c7f4c15b",
    ("A", 4): "3d2933a978e767471dc97453b56e2bf0f01e3511cb8200e015edcad84a70afcb",
    ("A", 5): "8e927ec593ad360b553cc55c2ad88afdfc664f6b3f867a0b80f600be75677bd9",
    ("A", 6): "30834b700f4ffcfa3c8c91766096e41e2be178b85d77b1e0ee4a5fb76a0f9653",
    ("A", 7): "70655514974780c54511a63de1c14204845e47862d2c37633ffd54e2f7bd29e4",
    ("A", 8): "2c51f670d7bcd504ba21c4e675ee9b11095dee568321ad6f554b85d14ffa990e",
    ("A", 9): "1e448fc740dce89667207951a0f850147b0030479ff0b85f0bc999f1f7fa6727",
    ("A", 10): "3fba2656d4fc9514b12a3123bfa5b47fe1852419a82c05a21b9c4e4d15b0751b",
    ("B", 2): "0d998100a24c17581ac8e5a6b1c57801de32bd6a8c8968a5d4d4dcfb5e290b48",
    ("B", 3): "bafd8dbb04bbf482885594ce35a0bd846d8853dee08f914be0fdf459e68ccabb",
    ("B", 4): "530ff7c7cf0f09d7a95ce6b861e4d2d65afe591e852c3bd78718b1511e46f36f",
    ("B", 5): "65c2e9dc849d329cab9bf3637ef4d3386fc738f4d4a3694c7b082d993222e145",
    ("B", 6): "ce7825548a5f4a8653da9aa83a65ebfe93d44e51c667994cafc9c4e7ab6347f0",
    ("B", 7): "7da4d303cf18602834dbb8b67445c9a1cd6ac31027e82defac474339519a8b5b",
    ("C", 2): "b67768aaf909040c7a73b4ed1072d3188a6bfeffed55b63cf3fad1c0bf7220e8",
    ("C", 3): "751e12b703e8731a8c0ab8bb53efb2d33f7c3df9e6a63fc410348a04ae497775",
    ("C", 4): "314079a9a6278beb4b2713f3e1ecfe3066f112e644a16ac271b6f71984742c7c",
    ("C", 5): "4bde35a18c2711b6cbc3ea344da7052bc4a32927d5d48b0b61e0ffad2ac34ff1",
    ("C", 6): "3b521b31195487e0d45a2ce70ba58fe4d3b9e5ddf71b8ff8c5b0e22a3450ae7c",
    ("C", 7): "91879ac6fee355629369f3bb38ff0260253269966b6cae748f8afd0db624f685",
    ("D", 3): "ed4f14ffd11434d54ccaf6796db4caab2681e89a0a5b59df9b25ff94de5c6a00",
    ("D", 4): "d129a8c393067d82566a89d12533360c2a2271c6ea709697600ba150d98c95d4",
    ("D", 5): "d7541562361d5961a422146c33ce9205985cd7e7ec5ed12b467a10bf5cd7d280",
    ("D", 6): "66e5ff290a5a25d8c43d2b225d952545754be014412f2f563d23b0148510780c",
    ("D", 7): "4c04fb577242609bce4adb93e000cf6acd3e54c3dd7677ee2a0c8736f3a16843",
    ("D", 8): "fa2562c84f96b1975f2b97d7b705580ac43321958731e6a45c5f87ff78aa8cae",
    ("G2", None): "64736663946d6f4133ded483059df41c5b65cf17b69cb5156836bb39538c53b1",
    ("F4", None): "dbd62256d53a8c49908091ef09de3ed99073db1e8e8862a57979025e10aaac93",
    ("E6", None): "3fddd18b15bf199b6920b6537c370a7a2d491427055b6fa8e01ed2a281c3c753",
    ("E7", None): "f9a2f4d7c12f3e7ec8b39bf54d7e8e18c1cde75bc336896f29f66ea092786c18",
    ("E8", None): "714838ef1ef7b326ebb208486eb04cd318b8beca8de6a5357d44989399493494",
}


@pytest.mark.parametrize("tag,rank", list(ROOT_DIGESTS), ids=[f"{t}{n or ''}" for t, n in ROOT_DIGESTS])
def test_stored_roots_are_pinned(tag, rank):
    roots = build_root_system(tag, rank).roots
    assert hashlib.sha256(json.dumps(roots).encode()).hexdigest() == ROOT_DIGESTS[(tag, rank)]


def test_invalid_ranks(fresh_systems):
    # every call raises again: a failed call leaves no system behind
    for _ in range(2):
        for args in [("A", 1), ("A", None), ("D", 2), ("G2", 3), ("H", 2)]:
            with pytest.raises(InvalidRank):
                build_root_system(*args)
        # a rank whose roots cannot be allocated fails at the first vector
        with pytest.raises(InvalidRank, match="A_99999999999999 is too large"):
            build_root_system("A", 10**14)
    assert fresh_systems == {}


def test_one_shared_system_per_type_and_n():
    assert build_root_system("F4") is build_root_system("F4", 4)
    assert build_root_system("B", 3) is build_root_system("B", 3)
    assert build_root_system("B", 3) is not build_root_system("C", 3)
    assert build_root_system("A", 4) is not build_root_system("A", 5)


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


def test_kept_tables_do_not_change_equality(fresh_systems):
    # the sum table and the derived tables fill on use; two builds of one
    # system stay equal whichever of them has been used
    one = build_root_system("B", 3)
    fresh_systems.clear()
    two = build_root_system("B", 3)
    assert one is not two and one == two
    root_sum(one, 0, 1)
    assert one == two
    compat_graph(two)
    assert one._sum_table != two._sum_table and one == two


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


def ambient_of(e) -> tuple[Fraction, ...]:
    """The ambient vector num/den of a grading element, in Fractions."""
    return tuple(Fraction(x, e.den) for x in e.num)


def coweight_basis(r) -> list[tuple[Fraction, ...]]:
    """The coweight basis vectors as Fractions, from their scaled columns."""
    cols, den = r.coweight_scaled
    return [tuple(Fraction(x, den) for x in w) for w in zip(*cols)]


def coweight_index(r) -> int:
    """Index of the coroot lattice inside the coweight lattice (equals the
    order of the fundamental group for the nine supported types)."""
    # the coroot 2 alpha / (alpha|alpha), with (alpha|alpha) = dot / 4 on the doubled roots
    coroots = [tuple(Fraction(4 * a, dot(v, v)) for a in v) for v in r.roots]
    cw = coweight_basis(r)
    lcm = math.lcm(*(x.denominator for vec in itertools.chain(coroots, cw) for x in vec))
    cor_basis = hermite_basis([[int(x * lcm) for x in c] for c in coroots])
    cw_cols = [[int(x * lcm) for x in v] for v in cw]
    solver = column_solver(cw_cols, r.ambient_dim)
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
    assert len(coweight_basis(rs)) == rs.rank
    for basis_vec in coweight_basis(rs):
        for v in rs.roots:
            val = evaluate(v, basis_vec)
            assert val.denominator == 1
    n = rank if rank is not None else 0
    assert coweight_index(rs) == FUNDAMENTAL_GROUP_ORDER[tag](n)


def test_coweight_a1():
    a1 = build_root_system("A", 2)
    (basis_vec,) = coweight_basis(a1)
    assert basis_vec in ((Fraction(1, 2), Fraction(-1, 2)), (Fraction(-1, 2), Fraction(1, 2)))


def test_e8_grading_vector_in_lattice():
    e8 = build_root_system("E8")
    coords = e8.ambient_to_coweight_coords([0, 0, 0, 0, 0, 0, 0, 2])
    assert coords is not None
    e = e8.grading_element(coords)
    assert ambient_of(e) == tuple(Fraction(x) for x in (0, 0, 0, 0, 0, 0, 0, 2))
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
    for c, basis_vec in zip(coords, coweight_basis(rs)):
        for k in range(rs.ambient_dim):
            amb[k] += c * basis_vec[k]
    return tuple(amb)


def _oracle_evaluate(alpha, ambient):
    """alpha(E) = dot(stored alpha, ambient) / 2, one Fraction per coordinate."""
    return Fraction(sum(a * Fraction(x) for a, x in zip(alpha, ambient)), 2)


def _assert_pairing_matches_oracle(rs, e):
    # roots, and the lattice basis, which is not made of roots
    for alpha in list(rs.roots) + [tuple(b) for b in rs.lattice_basis]:
        want = _oracle_evaluate(alpha, ambient_of(e))
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
    assert ambient_of(e) == _oracle_ambient(rs, coords)
    _assert_pairing_matches_oracle(rs, e)
    # over the least denominator of the ambient vector, which need not be the
    # coweight one, the numerators take no part in equality, hashing or repr
    direct = GradingElement(e.coords, *scaled(ambient_of(e)))
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
    e = GradingElement((0,) * rs.rank, *scaled(ambient))
    assert e.den > 0 and ambient_of(e) == ambient
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
    rows = [[v[k] for v in coweight_basis(rs)] for k in range(rs.ambient_dim)]
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
    assert coweight_basis(rs) == cw
    assert rs.coweight_scaled == (list(zip(*cw_num)), den)
    assert rs.coweight_values == [tuple(_oracle_evaluate(v, w) for w in cw) for v in rs.roots]


@pytest.mark.parametrize("tag,rank", NINE + [("A", 7), ("B", 5), ("C", 4), ("D", 6)])
def test_coweight_coords_match_fraction_oracle(tag, rank):
    rs = _system(tag, rank)
    rng = random.Random(f"coweight-coords:{tag}:{rank}")
    got = []
    for _ in range(25):
        coords = [rng.randint(-9, 9) for _ in range(rs.rank)]
        on = ambient_of(rs.grading_element(coords))
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
