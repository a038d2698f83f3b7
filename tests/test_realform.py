import itertools
import json
import os
from fractions import Fraction

import pytest
from ambient_matrix import apply_cols

from flagcr.intlat import column_solver
from flagcr.realform import (
    NoRegularVector,
    _is_base,
    a_reverse_conjugation,
    adapted_simple_system,
    check_eq_ha,
    compact_conjugation,
    conjugation_from_matrix,
    regular_max_structure,
    split_r_n,
    verify_lemma_lb,
)
from flagcr.rootsys import build_root_system, find_root, roots_set, rootset_to_json
from flagcr.weyl import positive_roots, simple_roots

H = Fraction(1, 2)


def test_compact_form_positive_system():
    a2 = build_root_system("A", 3)
    sigma = compact_conjugation(a2)
    pos = frozenset(positive_roots(a2))
    assert check_eq_ha(a2, pos, sigma)
    assert not check_eq_ha(a2, frozenset(range(a2.nroots)), sigma)
    qr, qn = split_r_n(a2, pos)
    assert qr == frozenset() and qn == pos
    rep = verify_lemma_lb(a2, pos, sigma)
    assert rep["ok"]


def test_fixed_root_conjugation_never_partitions():
    # swap e1 <-> e2 on A3 fixes the root e3 - e4, so no Q can work
    a3 = build_root_system("A", 4)
    n = a3.ambient_dim
    cols = []
    swap = {0: 1, 1: 0, 2: 2, 3: 3}
    for j in range(n):
        col = [Fraction(0)] * n
        col[swap[j]] = Fraction(1)
        cols.append(tuple(col))
    sigma = conjugation_from_matrix(a3, cols)
    import itertools

    pos = frozenset(positive_roots(a3))
    assert not check_eq_ha(a3, pos, sigma)
    # a handful of closed candidates
    import random

    rng = random.Random(3)
    for _ in range(50):
        q = frozenset(rng.sample(range(a3.nroots), a3.nroots // 2))
        assert not check_eq_ha(a3, q, sigma)


def test_split_r_n_basics():
    b2 = build_root_system("B", 2)
    alpha = find_root(b2, (1, -1))
    beta = find_root(b2, (0, 1))
    q = frozenset({alpha, b2.neg(alpha), beta})
    qr, qn = split_r_n(b2, q)
    assert qr == frozenset({alpha, b2.neg(alpha)})
    assert qn == frozenset({beta})
    full = frozenset(range(b2.nroots))
    qr2, qn2 = split_r_n(b2, full)
    assert qr2 == full and not qn2


def a3_reverse_q():
    """The closed Q with Q^r = {+-(e1-e2)} for the sl(4,R)-type conjugation."""
    a3 = build_root_system("A", 4)
    sigma = a_reverse_conjugation(a3)
    q = roots_set(
        a3,
        [(1, -1, 0, 0), (-1, 1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1), (0, 1, -1, 0), (0, 1, 0, -1)],
    )
    return a3, sigma, q


def test_a_reverse_lemma():
    a3, sigma, q = a3_reverse_q()
    assert check_eq_ha(a3, q, sigma)
    rep = verify_lemma_lb(a3, q, sigma)
    assert rep["ok"], rep
    qr, qn = split_r_n(a3, q)
    assert len(qr) == 2 and len(qn) == 4


def test_adapted_simple_system_compact():
    # compact form: standard simple system, p = 0, all conjugates negative
    for tag, rank in [("A", 3), ("B", 2)]:
        rs = build_root_system(tag, rank)
        sigma = compact_conjugation(rs)
        pos = frozenset(positive_roots(rs))
        out = adapted_simple_system(rs, pos, sigma)
        assert out["ok"], out["checks"]
        assert out["p"] == 0
        assert len(out["simples"]) == rs.rank


def test_adapted_simple_system_a_reverse():
    a3, sigma, q = a3_reverse_q()
    out = adapted_simple_system(a3, q, sigma)
    assert out["ok"], out["checks"]
    assert out["p"] == 1
    ell = len(out["simples"])
    assert ell == 3
    # the labeling condition conj(a_i) = -a_{l+1-i} for i <= p
    i0 = out["simples"][0]
    assert sigma.bar(i0) == a3.neg(out["simples"][ell - 1])


def test_regular_max_structure_even_rank():
    # compact A2 (rank 2): m = graph of a complex structure, codim 0
    a2 = build_root_system("A", 3)
    sigma = compact_conjugation(a2)
    pos = frozenset(positive_roots(a2))
    # h0 = i*(trace-zero reals); take X = i*(1,-1,0)-dual direction:
    # m spanned by X + i J X with J by pairing the 2-dim h0; a generic line works
    re = (Fraction(1), Fraction(-1), Fraction(0))
    im = (Fraction(0), Fraction(1), Fraction(-1))
    out = regular_max_structure(a2, sigma, pos, [(re, im)])
    assert out["dim_ok"] and out["m_meets_mbar_trivially"]
    assert out["cr_codim"] == 0
    assert out["ok"]


def test_regular_max_structure_odd_rank():
    a3 = build_root_system("A", 4)
    sigma = compact_conjugation(a3)
    pos = frozenset(positive_roots(a3))
    re = (Fraction(1), Fraction(-1), Fraction(0), Fraction(0))
    im = (Fraction(0), Fraction(1), Fraction(-1), Fraction(0))
    out = regular_max_structure(a3, sigma, pos, [(re, im)])
    assert out["dim_ok"]
    assert out["cr_codim"] == 1


def test_sigma_equivariance():
    # verify_lemma_lb(Q, sigma) <=> verify_lemma_lb(wQ, w sigma w^-1)
    import random

    from ambient_matrix import inverse, matrix_of
    from weyl_words import random_element

    a3, sigma, q = a3_reverse_q()
    rng = random.Random(17)
    base = verify_lemma_lb(a3, q, sigma)["ok"]
    for _ in range(5):
        g = random_element(a3, rng, length=6)
        moved = frozenset(g[i] for i in q)
        # conjugated sigma: w sigma w^-1 as a matrix
        n = a3.ambient_dim
        ginv_cols = []
        # invert g by applying to basis and solving: W elements are orthogonal
        # with rational entries; build inverse via transpose of the matrix
        import itertools

        from fractions import Fraction

        g_cols = matrix_of(a3, g)
        gmat = [[g_cols[j][i] for j in range(n)] for i in range(n)]
        ginv = inverse(gmat, Fraction)
        ginv_cols = [tuple(ginv[i][j] for i in range(n)) for j in range(n)]
        new_cols = []
        for j in range(n):
            e = [Fraction(0)] * n
            e[j] = Fraction(1)
            v = apply_cols(ginv_cols, e)
            v = apply_cols(sigma.cols, v)
            v = apply_cols(g_cols, v)
            new_cols.append(v)
        sigma2 = conjugation_from_matrix(a3, new_cols)
        assert verify_lemma_lb(a3, moved, sigma2)["ok"] == base


def test_regular_max_structure_rejects_real_m():
    a2 = build_root_system("A", 3)
    sigma = compact_conjugation(a2)
    pos = frozenset(positive_roots(a2))
    re = (Fraction(1), Fraction(-1), Fraction(0))
    im = (Fraction(0), Fraction(0), Fraction(0))
    out = regular_max_structure(a2, sigma, pos, [(re, im)])
    assert not out["m_meets_mbar_trivially"]
    assert not out["ok"]


@pytest.mark.parametrize(
    "row,message",
    [
        (((1, -1), (0, 0)), "vector 0 has 2 coordinates, not 3"),
        (((1, -1, 0, 0), (0, 0, 0, 0)), "vector 0 has 4 coordinates, not 3"),
        (((1, -1, 0), (0, 1)), "zip"),
    ],
    ids=["short", "long", "re and im of different lengths"],
)
def test_regular_max_structure_refuses_a_malformed_m_row(row, message):
    # A2 lives in an ambient space of dimension 3: an m row of another width,
    # or with re and im of different widths, is refused, not cut to fit
    a2 = build_root_system("A", 3)
    sigma = compact_conjugation(a2)
    pos = frozenset(positive_roots(a2))
    with pytest.raises(ValueError, match=message):
        regular_max_structure(a2, sigma, pos, [row])



@pytest.mark.parametrize("op", ["lemma", "adapted"])
@pytest.mark.parametrize("case", ["F4-compact", "A3-reverse"])
def test_realform_command_decides_the_lemma_once(case, op, tmp_path, monkeypatch, capsys):
    # one realform command runs the structure lemma once and the partition
    # test at most twice (the command's own and the lemma's); neither op
    # factors an integer matrix, since the adapted system reads the base of
    # Q^r off its indecomposable roots
    from flagcr import cli, intlat, realform

    calls = {"verify_lemma_lb": 0, "check_eq_ha": 0, "smith_normal_form": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(realform, "verify_lemma_lb")
    counting(realform, "check_eq_ha")
    counting(intlat, "smith_normal_form")
    if case == "F4-compact":
        path, conj = os.path.join(os.path.dirname(__file__), "golden", "realform-F4-positive.json"), "compact"
    else:
        a3, _, q = a3_reverse_q()
        path, conj = tmp_path / "q.json", "a-reverse:m=2"
        path.write_text(rootset_to_json(a3, q))
    assert cli.main(["realform", "--roots", str(path), "--conjugation", conj, "--op", op]) == 0
    out = json.loads(capsys.readouterr().out)["results"]
    assert out["lemma"]["ok"] and ("adapted" in out) == (op == "adapted")
    assert calls == {"verify_lemma_lb": 1, "check_eq_ha": 2, "smith_normal_form": 0}


def _simple_for_subsystem(r, head, qr):
    """Oracle for _is_base: head is a base of the root subsystem Q^r when its
    roots are independent and every root of Q^r is an all-nonnegative or
    all-nonpositive integer combination of them, one integer solve per root."""
    if not head:
        return not qr
    solver = column_solver([r.roots[i] for i in head], r.ambient_dim)
    if solver.kernel_basis:
        return False
    for i in qr:
        sol = solver.solve(list(r.roots[i]))
        if sol is None:
            return False
        ks = sol.particular
        if not (all(k >= 0 for k in ks) or all(k <= 0 for k in ks)):
            return False
    return True


def _partition_sets(r, sigma):
    """Every closed Q with Q n conj(Q) = 0 and Q u conj(Q) = R, by brute force
    over the choices of one root from each conjugate pair."""
    pairs = sorted({tuple(sorted((i, sigma.bar(i)))) for i in range(r.nroots)})
    return [frozenset(pick) for pick in itertools.product(*pairs) if check_eq_ha(r, pick, sigma)]


def _adapted_cases():
    # every partition-compatible Q of A2, A3 and A4 (ambient dimension 3, 4
    # and 5) under the reversal, then W-images of the positive system under
    # the compact conjugation
    import random

    from weyl_words import random_element

    for n, count in [(3, 2), (4, 16), (5, 16)]:
        r = build_root_system("A", n)
        sigma = a_reverse_conjugation(r)
        qs = _partition_sets(r, sigma)
        assert len(qs) == count
        yield from ((r, sigma, q) for q in qs)
    rng = random.Random(29)
    for tag, n in [("B", 3), ("D", 4), ("F4", None)]:
        r = build_root_system(tag, n)
        sigma = compact_conjugation(r)
        pos = positive_roots(r)
        for _ in range(3):
            g = random_element(r, rng)
            yield r, sigma, frozenset(g[i] for i in pos)


def test_is_base_agrees_with_integer_solve_on_adapted_systems():
    # head_spans_qr reads the base of Q^r off its positive part; the integer
    # solve decides the same on every head the adapted system builds
    for r, sigma, q in _adapted_cases():
        out = adapted_simple_system(r, q, sigma)
        qr, _ = split_r_n(r, q)
        head = out["simples"][: out["p"]]
        assert out["checks"]["head_spans_qr"] == _simple_for_subsystem(r, head, qr)
        assert out["ok"]


def _subsystem(r, specs):
    """A root subsystem given by the ambient vectors of its positive roots:
    (its roots, its positive roots)."""
    pos = sorted(roots_set(r, specs))
    return frozenset(pos) | {r.neg(i) for i in pos}, pos


@pytest.mark.parametrize("tag,n,specs", [
    ("A", 4, None), ("B", 3, None), ("D", 4, None), ("F4", None, None), ("G2", None, None),
    ("A", 5, [(1, -1, 0, 0, 0), (0, 1, -1, 0, 0), (1, 0, -1, 0, 0)]),
    ("B", 3, [(1, -1, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)]),
])
def test_is_base_agrees_with_integer_solve_on_constructed_heads(tag, n, specs):
    # heads drawn from the positive part: the base in another order is one;
    # a proper subset, the base with one root swapped for a decomposable
    # positive root, and the base plus a decomposable root are not
    r = build_root_system(tag, n)
    if specs is None:
        qr, pos = frozenset(range(r.nroots)), positive_roots(r)
    else:
        qr, pos = _subsystem(r, specs)
    base = simple_roots(r, pos)
    decomposable = [i for i in pos if i not in base]
    heads = [(base[::-1], True), (base[:-1], False), (base + decomposable[:1], False)]
    heads += [(base[:k] + [d] + base[k + 1 :], False) for k in range(len(base)) for d in decomposable[:2]]
    for head, want in heads:
        assert _is_base(r, head, pos) == _simple_for_subsystem(r, head, qr) == want, head


def _fraction_conjugation_perm(r, cols):
    """Oracle: the root permutation of an involution, found by applying its
    Fraction columns, None when it is not one or does not permute the roots."""
    n = r.ambient_dim
    for k in range(n):
        e = [Fraction(int(i == k)) for i in range(n)]
        if list(apply_cols(cols, apply_cols(cols, e))) != e:
            return None
    perm = []
    for v in r.roots:
        img = apply_cols(cols, v)
        if any(x.denominator != 1 for x in img) or tuple(map(int, img)) not in r.index:
            return None
        perm.append(r.index[tuple(map(int, img))])
    return tuple(perm)


def _reflection_cols(alpha):
    # s_alpha(v) = v - 2 (alpha|v)/(alpha|alpha) alpha, columns on the unit vectors
    n = len(alpha)
    norm = sum(a * a for a in alpha)
    return [tuple(Fraction(int(i == j)) - Fraction(2 * alpha[j] * alpha[i], norm) for i in range(n)) for j in range(n)]


@pytest.mark.parametrize("tag,n", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G2", None), ("F4", None)])
def test_conjugation_from_matrix_matches_fraction_oracle(tag, n):
    # root reflections (half-integer entries on F4) and one of them times the
    # compact conjugation are involutions that permute the roots
    r = build_root_system(tag, n)
    minus = [tuple(-x for x in c) for c in _reflection_cols(r.roots[0])]
    for cols in [_reflection_cols(v) for v in r.roots] + [minus]:
        sigma = conjugation_from_matrix(r, cols)
        assert sigma.perm == _fraction_conjugation_perm(r, sigma.cols)
        assert sigma.cols == tuple(tuple(Fraction(x) for x in c) for c in cols)


def test_conjugation_from_matrix_rejects():
    a3 = build_root_system("A", 4)
    n = a3.ambient_dim
    unit = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    # twice the identity, and a 4-cycle of coordinates: not involutions
    cycle = [unit[(j + 1) % n] for j in range(n)]
    for cols in ([[2 * x for x in c] for c in unit], cycle):
        assert _fraction_conjugation_perm(a3, cols) is None
        with pytest.raises(ValueError, match="not an involution"):
            conjugation_from_matrix(a3, cols)
    # involutions that move roots off the roots: e_1 -> -e_1 sends e_1 - e_2
    # to -e_1 - e_2, and the reflection in (1, 1, 1, 0) sends e_1 - e_4 to
    # (1/3, -2/3, -2/3, -1)
    flip = [[-x for x in unit[0]]] + unit[1:]
    for cols in (flip, _reflection_cols((1, 1, 1, 0))):
        assert _fraction_conjugation_perm(a3, cols) is None
        with pytest.raises(ValueError, match="does not permute the root list"):
            conjugation_from_matrix(a3, cols)
