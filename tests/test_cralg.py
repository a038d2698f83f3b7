import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from flagcr import classify, cralg, gaussq, qsets
from flagcr.cralg import (
    _generated,
    CRAlgebra,
    LieAlgebraPresentation,
    NotADerivation,
    NotAHomomorphism,
    NotAnAutomorphism,
    NotAnIdeal,
    NotCharacteristic,
    PreconditionViolation,
    anticanonical,
    bracket_spaces,
    check_cr_symmetric,
    check_j_property,
    check_weak_j,
    closure_extension,
    cr_dim_codim,
    cspan,
    exact_exponential,
    fibration_compatible,
    ideal_closure,
    induced_base_fiber,
    is_effective,
    is_fundamental_cr,
    is_levi_nondegenerate,
    largest_ideal_in,
    morphism_classify,
    real_points,
    scalar_levi_form,
    vector_levi_form,
)
from flagcr.gaussq import C_I, C_ONE, C_ZERO, CMatrix, CNum, RMatrix, complexify_vector, realify_vector
from flagcr.presets import PRESET_BUILDERS, exam_bf, flag_preset, get_preset, heisenberg, sl2, su2, su2_flag
from flagcr.rootsys import build_root_system, find_root, roots_set
from flagcr.weyl import positive_roots, simple_roots


def ident(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def test_presentation_validation():
    # broken Jacobi is rejected
    bad = {(0, 1): [(2, C_ONE)], (0, 2): [(0, C_ONE)], (1, 2): [(1, C_ONE)]}
    with pytest.raises(ValueError):
        LieAlgebraPresentation(3, bad, ident(3))
    # [X, Y] = iT with nu the conjugation of the coordinates: nu [X, Y] = -iT
    # but [nu X, nu Y] = iT, so nu is not an automorphism
    with pytest.raises(ValueError, match="conjugation is not a Lie automorphism"):
        LieAlgebraPresentation(3, {(0, 1): [(2, C_I)]}, ident(3))


def _conj_rows(pres):
    return [[pres.conj_cols[j][i] for j in range(pres.dim)] for i in range(pres.dim)]


@pytest.mark.parametrize("spec", [("A", 3), ("G2", None)], ids=["A3", "G2"])
def test_corrupted_flag_presentation_rejected(spec):
    # one root-root constant with its sign flipped breaks Jacobi; one conj
    # entry changed breaks the conjugation axioms
    fp = flag_preset(*spec)
    pres, rank = fp.pres, fp.system.rank
    LieAlgebraPresentation(pres.dim, pres.table, _conj_rows(pres))
    key = next(key for key, pairs in sorted(pres.table.items()) if key[0] >= rank and pairs[0][0] >= rank)
    flipped = dict(pres.table)
    flipped[key] = [(k, -c) for k, c in pres.table[key]]
    with pytest.raises(ValueError, match="Jacobi identity fails"):
        LieAlgebraPresentation(pres.dim, flipped, _conj_rows(pres))
    conj = _conj_rows(pres)
    conj[0][0] = -conj[0][0]
    with pytest.raises(ValueError, match="conjugation is not"):
        LieAlgebraPresentation(pres.dim, pres.table, conj)


ROUNDTRIP = {"heisenberg": lambda: heisenberg().pres, "exam-bf": lambda: exam_bf()[0].pres}
ROUNDTRIP.update({
    f"{t}{r - 1 if t == 'A' else r}" if r else t: (lambda t=t, r=r: flag_preset(t, r).pres)
    for t, r in [("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G2", None)]
})


@pytest.mark.parametrize("name", list(ROUNDTRIP))
def test_presentation_json_roundtrip(name):
    # to_json -> from_json gives the same bytes and every basis bracket back
    pres = ROUNDTRIP[name]()
    text = pres.to_json()
    again = LieAlgebraPresentation.from_json(text)
    assert again.to_json() == text
    b = cralg._std_basis(pres.dim)
    assert all(again.bracket(x, y) == pres.bracket(x, y) for x in b for y in b)


@pytest.mark.parametrize("spec", [("A", 3), ("B", 2), ("G2", None)], ids=["sl3", "so5", "G2"])
def test_bracket_is_the_bilinear_expansion(spec):
    pres = flag_preset(*spec).pres
    n = pres.dim
    b = cralg._std_basis(n)
    rng = random.Random(31)

    def gaussian():
        return CNum(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))

    for _ in range(4):
        x = tuple(gaussian() if rng.random() < 0.6 else C_ZERO for _ in range(n))
        y = tuple(gaussian() if rng.random() < 0.6 else C_ZERO for _ in range(n))
        want = [C_ZERO] * n
        for i in range(n):
            for j in range(n):
                want = [w + x[i] * y[j] * c for w, c in zip(want, pres.bracket(b[i], b[j]))]
        assert pres.bracket(x, y) == tuple(want)


def test_heisenberg_suite():
    h = heisenberg()
    assert cr_dim_codim(h) == (1, 1)
    assert is_fundamental_cr(h)
    assert is_levi_nondegenerate(h)
    assert is_effective(h)
    m = scalar_levi_form(h, [0, 0, 1])
    assert len(m) == 1 and m[0][0] == CNum(Fraction(-2))
    m2 = scalar_levi_form(h, [0, 0, 2])
    assert m2[0][0] == CNum(Fraction(-4))
    with pytest.raises(NotCharacteristic):
        scalar_levi_form(h, [1, 0, 0])
    v = vector_levi_form(h, (C_ONE, C_I, C_ZERO))
    assert any(v)
    z_in_cap = (C_ZERO, C_ZERO, C_ZERO)
    assert not any(vector_levi_form(h, z_in_cap))


def test_levi_form_hermitian_everywhere():
    for a, xi in [(heisenberg(), [0, 0, 1]), (su2_flag(), None)]:
        if xi is None:
            # find a characteristic covector: annihilate (q+qbar) n g0
            n = len(a.pres.g0_basis())
            xi = None
            for k in range(n):
                cand = [1 if t == k else 0 for t in range(n)]
                try:
                    scalar_levi_form(a, cand)
                    xi = cand
                    break
                except NotCharacteristic:
                    continue
            if xi is None:
                continue
        m = scalar_levi_form(a, xi)
        for i in range(len(m)):
            for j in range(len(m)):
                assert m[i][j] == m[j][i].conj()


def test_totally_real_levi():
    # q = complexified g0 of the torus only: totally real example on sl2
    pres = sl2()
    q = cspan(pres, [(C_ONE, C_ZERO, C_ZERO)])
    a = CRAlgebra(pres, q)
    assert cr_dim_codim(a)[0] == 0
    assert is_levi_nondegenerate(a)  # vacuously
    m = scalar_levi_form(a, [0, 1, 0])
    assert m == []


def test_levi_flat_not_nondegenerate():
    # abelian 4-dim algebra with a complex line: Levi-flat
    pres = LieAlgebraPresentation(2, {}, ident(2))
    q = cspan(pres, [(C_ONE, C_I)])
    a = CRAlgebra(pres, q)
    assert cr_dim_codim(a)[0] == 1
    assert not is_levi_nondegenerate(a)


def test_effective_brute_force_small():
    # largest-ideal computation against independent maximality verification
    cases = [heisenberg(), su2_flag(), exam_bf()[0]]
    for a in cases:
        ideal = largest_ideal_in(a)
        pres = a.pres
        i0 = a.q_cap_qbar()
        # (i) it is an ideal inside i0
        assert i0.contains_space(ideal)
        assert ideal.contains_space(bracket_spaces(pres, cralg.full_space(pres), ideal))
        # (ii) maximality: adding any real complement direction of i0 escapes i0
        for r in real_points(pres, i0):
            cand = ideal.sum(CMatrix(pres.dim, [r]))
            if cand.rank() == ideal.rank():
                continue
            closure = ideal_closure(pres, cand)
            assert not i0.contains_space(closure)


def test_heisenberg_center_not_effective():
    # i0 containing the center of the Heisenberg algebra is not effective
    h = heisenberg()
    pres = h.pres
    q = cspan(pres, [(C_ONE, C_I, C_ZERO), (C_ZERO, C_ZERO, C_ONE)])
    a = CRAlgebra(pres, q)
    assert not is_effective(a)
    assert largest_ideal_in(a).rank() == 1


def test_simple_algebra_effective():
    a = su2_flag()
    assert is_effective(a)


def test_su2_killing_negative_definite():
    pres = su2()
    basis = pres.g0_basis()
    for u in basis:
        k = pres.killing(u, u)
        assert k.im == 0 and k.re < 0


def _ad(pres, x):
    """Oracle: the matrix of ad(x), whose columns are the brackets with the
    basis vectors."""
    return [pres.bracket(x, b) for b in cralg._std_basis(pres.dim)]


def _two_ad_killing(adx, ady):
    """Oracle: tr(ad x ad y) from the two matrices."""
    tot = C_ZERO
    for i, col in enumerate(ady):
        for k, z in enumerate(col):
            if z:
                tot = tot + adx[k][i] * z
    return tot


KILLING_FLAGS = {"A3": ("A", 3), "B2": ("B", 2), "G2": ("G2", None), "D4": ("D", 4)}


def _killing_case(name):
    """(presentation, the q n qbar of its CR algebras): a small preset's own,
    or those of the CR-symmetric maximal classes of a flag preset."""
    if name in PRESET_BUILDERS:
        a = PRESET_BUILDERS[name]()
        return a.pres, [a.q_cap_qbar()]
    fp = flag_preset(*KILLING_FLAGS[name])
    classes = [c for c in classify.enumerate_maximal(fp.system) if c.report.symmetric]
    assert classes
    return fp.pres, [fp.cr_algebra(sorted(c.canonical)).q_cap_qbar() for c in classes]


@pytest.mark.parametrize("name", list(PRESET_BUILDERS) + list(KILLING_FLAGS))
def test_killing_gram_matches_two_ad_formula(name):
    # on every basis pair, and on every pair of real points of i0, where
    # check_cr_symmetric evaluates it
    pres, caps = _killing_case(name)
    basis = cralg._std_basis(pres.dim)
    ads = [_ad(pres, b) for b in basis]
    for u, au in zip(basis, ads):
        for v, av in zip(basis, ads):
            assert pres.killing(u, v) == _two_ad_killing(au, av)
    for cap in caps:
        pts = real_points(pres, cap)
        pads = [_ad(pres, u) for u in pts]
        for u, au in zip(pts, pads):
            for v, av in zip(pts, pads):
                assert pres.killing(u, v) == _two_ad_killing(au, av)


def test_exam_bf_fibration_fails():
    a, radical = exam_bf()
    assert not fibration_compatible(a, radical)
    with pytest.raises(NotAnIdeal):
        fibration_compatible(a, cspan(a.pres, [(1, 0, 0, 0, 0)]))  # sl2 line is no ideal


def test_fibration_trivial_cases():
    h = heisenberg()
    zero = CMatrix(h.pres.dim, [])
    assert fibration_compatible(h, zero)
    g0 = cralg.full_space(h.pres)
    assert fibration_compatible(h, g0)
    base, fiber = induced_base_fiber(h, g0)
    assert cr_dim_codim(base) == (0, 0)


def test_heisenberg_center_fibration():
    # J rotating (X, Y): weak-J holds, the center is an invariant ideal
    h = heisenberg()
    j = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    assert check_j_property(h, j)
    center = cspan(h.pres, [(0, 0, 1)])
    assert fibration_compatible(h, center)
    base, fiber = induced_base_fiber(h, center)
    assert cr_dim_codim(base) == (1, 0)
    assert cr_dim_codim(fiber) == (0, 1)


def test_j_and_weak_j_on_flags():
    fg = flag_preset("G2")
    g2 = fg.system
    q40 = sorted(roots_set(g2, [(1, 0, -1), (2, -1, -1)]))
    a40 = fg.cr_algebra(q40)
    ok, e = qsets.has_j(g2, frozenset(q40))
    assert ok
    jm = fg.j_derivation(e)
    assert check_j_property(a40, jm)
    assert check_weak_j(a40, exact_exponential(fg.pres, jm))
    n = fg.pres.dim
    zero = [[0] * n for _ in range(n)]
    assert not check_j_property(a40, zero)
    with pytest.raises(NotADerivation):
        bad = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        bad[0][1] = 7
        check_j_property(a40, bad)


def test_weak_j_identity_fails_on_positive_cr_dim():
    h = heisenberg()
    n = h.pres.dim
    iden = [[C_ONE if i == j else C_ZERO for j in range(n)] for i in range(n)]
    assert check_weak_j(h, iden) is False


def test_weak_j_via_mod4_witness():
    fg = flag_preset("G2")
    g2 = fg.system
    q40 = sorted(roots_set(g2, [(1, 0, -1), (2, -1, -1)]))
    a40 = fg.cr_algebra(q40)
    ok, e4 = qsets.has_weak_j(g2, frozenset(q40))
    assert ok
    jm = fg.j_derivation(e4)
    assert check_weak_j(a40, exact_exponential(fg.pres, jm))


def test_cr_symmetric_flag():
    fg = flag_preset("A", 3)
    rs = fg.system
    pos = positive_roots(rs)
    # Q_1 = {e1-e2, e1-e3} is symmetric with an exact witness
    q1 = sorted(roots_set(rs, [(1, -1, 0), (1, 0, -1)]))
    ok, e2 = qsets.is_symmetric(rs, frozenset(q1))
    assert ok
    a = fg.cr_algebra(q1)
    lam = fg.symmetry_involution(e2)
    rep = check_cr_symmetric(a, lam)
    assert rep["ok"], rep
    # identity fails on CR-dim > 0
    n = fg.pres.dim
    iden = [[C_ONE if i == j else C_ZERO for j in range(n)] for i in range(n)]
    rep2 = check_cr_symmetric(a, iden)
    assert rep2["z_plus_lz_in_cap"] is False


def test_j_implies_weak_on_presets():
    # any J with the derivation property yields a passing Upsilon
    h = heisenberg()
    j = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    assert check_j_property(h, j)
    assert check_weak_j(h, exact_exponential(h.pres, j))


def test_anticanonical_heisenberg():
    h = heisenberg()
    rep = anticanonical(h)
    assert rep["ok"]
    # normalizer of C(X+iY) in g0 is the center RT
    assert rep["a0"].rank() == 1
    assert rep["a0"].contains((C_ZERO, C_ZERO, C_ONE))
    assert rep["item5"]["q_is_ideal"] is False


def test_anticanonical_flag_cartan_normalizes():
    fa = flag_preset("A", 3)
    pos = positive_roots(fa.system)
    a = fa.cr_algebra(sorted(pos))  # borel
    rep = anticanonical(a)
    assert rep["ok"]
    # the compact torus normalizes the borel: a0 contains t0 (rank >= 2)
    assert rep["a0"].rank() >= 2


def test_cartan_element_refuses_ambient_vectors_of_another_length():
    # a short or long vector was once zipped down to the ambient dimension
    fa = flag_preset("A", 3)
    for bad in ([1, 0], [1, 0, 0, 5]):
        with pytest.raises(ValueError, match=f"has {len(bad)} coordinates, not the ambient dimension 3"):
            fa.cartan_element(bad)
    assert fa.cartan_element([1, 0, 0]) != fa.cartan_element([1, 0, -1])


def test_anticanonical_ideal_case():
    # q an ideal -> q' = g
    pres = LieAlgebraPresentation(2, {}, ident(2))
    q = cspan(pres, [(C_ONE, C_I)])
    a = CRAlgebra(pres, q)
    rep = anticanonical(a)
    assert rep["item5"]["q_is_ideal"] is True
    assert rep["item5"]["qprime_is_g"] is True
    assert rep["item5"]["a0_is_g0"] is True


def test_closure_extension():
    fa = flag_preset("A", 3)
    rs = fa.system
    neg = [rs.neg(i) for i in positive_roots(rs)]
    hline = fa.cartan_element([1, 0, -1])
    q = cspan(fa.pres, [hline] + [fa.root_vec[i] for i in neg])
    a = CRAlgebra(fa.pres, q)
    t0 = cspan(fa.pres, list(fa.cartan_vec))
    ext = closure_extension(a, t0)
    assert cr_dim_codim(ext) == (3, 0)  # the borel: totally complex
    # identity extension
    same = closure_extension(a, a.q_cap_qbar())
    assert same.q == a.q
    # violating the bracket preconditions errors: add a compact root
    # direction X_a - X_{-a} to i0'
    pos0 = positive_roots(rs)[0]
    xa = fa.root_vec[pos0]
    xma = fa.root_vec[rs.neg(pos0)]
    vec = tuple(x - y for x, y in zip(xa, xma))
    with pytest.raises(PreconditionViolation):
        closure_extension(a, a.q_cap_qbar().sum(cspan(fa.pres, [vec])))


def test_closure_extension_precondition_names():
    h = heisenberg()
    # i0' = R X: [i0', q]: [X, X+iY] = iT not in q -> violation
    i0p = cspan(h.pres, [(1, 0, 0)])
    with pytest.raises(PreconditionViolation):
        closure_extension(h, i0p)


def _extension_morphism():
    """(a, its closure extension by t0, the identity on g0): an equivariant
    submersion."""
    fa = flag_preset("A", 3)
    rs = fa.system
    neg = [rs.neg(i) for i in positive_roots(rs)]
    hline = fa.cartan_element([1, 0, -1])
    q = cspan(fa.pres, [hline] + [fa.root_vec[i] for i in neg])
    a = CRAlgebra(fa.pres, q)
    t0 = cspan(fa.pres, list(fa.cartan_vec))
    return a, closure_extension(a, t0), ident(fa.pres.dim)


def test_morphism_classify():
    h = heisenberg()
    out = morphism_classify(h, h, ident(3))
    assert out["kind"] == "LocalIsomorphism"
    # zero map: q maps into q' trivially; not an immersion or submersion
    zero = [[0] * 3 for _ in range(3)]
    out2 = morphism_classify(h, h, zero)
    assert out2["kind"] in ("Morphism", "NotAMorphism")
    # equivariant submersion from closure extension
    out3 = morphism_classify(*_extension_morphism())
    assert out3["kind"] == "Submersion"
    # fiber is totally real here (fiber q inside cartan)
    assert out3["fiber_q"].rank() <= 1


def test_morphism_classify_not_a_morphism():
    # the identity of sl(2) does not take span(H, E) into span(H, F)
    p = sl2()
    borel = CRAlgebra(p, cspan(p, [(1, 0, 0), (0, 1, 0)]))
    opposite = CRAlgebra(p, cspan(p, [(1, 0, 0), (0, 0, 1)]))
    assert morphism_classify(borel, opposite, ident(3))["kind"] == "NotAMorphism"


def test_morphism_classify_immersion():
    # sl(2) onto the root subalgebra of e1 - e2 in sl(3), Borel to Borel: it
    # is injective and pulls q' and q' n qbar' back to q and q n qbar, and
    # its image is a proper subalgebra, so it is not a submersion
    s, t = flag_preset("A", 2), flag_preset("A", 3)
    b, a = find_root(s.system, (1, -1)), find_root(t.system, (1, -1, 0))
    mb, ma = s.system.neg(b), t.system.neg(a)
    # h0 = [x_b, x_-b] goes to [x_a, x_-a]
    images = {0: t.pres.bracket(t.root_vec[a], t.root_vec[ma]), 1 + b: t.root_vec[a], 1 + mb: t.root_vec[ma]}
    phi = [[images[j][i] for j in range(3)] for i in range(t.pres.dim)]
    src, tgt = s.cr_algebra(positive_roots(s.system)), t.cr_algebra(positive_roots(t.system))
    assert morphism_classify(src, tgt, phi)["kind"] == "Immersion"


def test_psd_indefinite():
    # a negative diagonal entry, and an indefinite form with zero diagonal
    assert cralg._psd([[1, 0], [0, -1]]) == (False, None)
    assert cralg._psd([[0, 1], [1, 0]]) == (False, None)


def test_psd_radical():
    assert cralg._psd([[2, 0], [0, 3]]) == (True, [])
    psd, rad = cralg._psd([[1, 1], [1, 1]])
    assert psd and rad == [(-1, 1)]


def _det(m) -> Fraction:
    """Leibniz formula in exact Fractions: the oracle eliminates nothing."""
    n = len(m)
    total = Fraction(0)
    for p in itertools.permutations(range(n)):
        sign = (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        total += sign * math.prod(Fraction(m[i][p[i]]) for i in range(n))
    return total


def _minor_rank(m) -> int:
    """The size of the largest nonzero minor."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            if any(_det([[m[i][j] for j in ci] for i in ri]) for ci in itertools.combinations(range(cols), k)):
                return k
    return 0


def _random_symmetric(rng, n):
    """A symmetric integer matrix: random entries, a Gram matrix B^T B of k
    random rows (singular for k < n), or such a Gram matrix perturbed in one
    symmetric pair of entries."""
    kind = rng.choice(("entries", "gram", "perturbed"))
    if kind == "entries":
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-3, 3)
        return a
    b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))]
    a = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
    if kind == "perturbed":
        i, j, d = rng.randrange(n), rng.randrange(n), rng.choice((-1, 1))
        a[i][j] += d
        a[j][i] += d if i != j else 0
    return a


def test_psd_matches_principal_minor_oracle():
    # semidefinite exactly when every principal minor is >= 0; the radical
    # is then a basis of the kernel, of n - rank A vectors
    rng = random.Random("psd-principal-minors")
    seen = Counter()
    for _ in range(300):
        n = rng.randint(1, 5)
        a = _random_symmetric(rng, n)
        psd, rad = cralg._psd(a)
        minors = (_det([[a[i][j] for j in idx] for i in idx])
                  for k in range(1, n + 1) for idx in itertools.combinations(range(n), k))
        assert psd == all(d >= 0 for d in minors), a
        if not psd:
            assert rad is None
            seen["indefinite"] += 1
            continue
        assert all(sum(row[j] * r[j] for j in range(n)) == 0 for r in rad for row in a), a
        assert len(rad) == n - _minor_rank(a) == _minor_rank(rad), a
        seen["singular" if rad else "definite"] += 1
    assert min(seen[k] for k in ("indefinite", "singular", "definite")) >= 30, seen


@pytest.mark.parametrize("spec", [("A", 3), ("G2", None)], ids=["A3", "G2"])
def test_flag_preset_is_kept_on_its_root_system(fresh_systems, spec):
    # a new store of root systems gives a new preset, on the new system
    first = flag_preset(*spec)
    fresh_systems.clear()
    fp = flag_preset(*spec)
    assert fp is not first and fp.system is build_root_system(*spec)
    assert flag_preset(*spec) is fp


def test_weak_j_implies_compatible_property():
    # randomized small solvable examples: weak-J with invariant ideal
    # implies the compatibility identity (checked from its two sides)
    from flagcr.cralg import weak_j_implies_compatible

    rng = random.Random(12)
    h = heisenberg()
    upsilon = exact_exponential(h.pres, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    center = cspan(h.pres, [(0, 0, 1)])
    assert check_weak_j(h, upsilon)
    assert weak_j_implies_compatible(h, center, upsilon)
    # extremes: zero ideal and the full algebra
    assert weak_j_implies_compatible(h, CMatrix(h.pres.dim, []), upsilon)
    assert weak_j_implies_compatible(h, cralg.full_space(h.pres), upsilon)
    # re-evaluation stability under basis shuffling
    for _ in range(5):
        rows = list(center.rows)
        rng.shuffle(rows)
        assert fibration_compatible(h, CMatrix(h.pres.dim, rows))
    # J that is not weak-J-compatible raises: exp(0) is the identity
    with pytest.raises(PreconditionViolation):
        n = 3
        weak_j_implies_compatible(h, center, exact_exponential(h.pres, [[0] * n for _ in range(n)]))


def test_flag_predicates_match_qsets():
    # cross-module consistency: fundamental <-> lattice-span condition
    fg = flag_preset("G2")
    g2 = fg.system
    q40 = sorted(roots_set(g2, [(1, 0, -1), (2, -1, -1)]))
    assert qsets.is_fundamental(g2, frozenset(q40)) == is_fundamental_cr(fg.cr_algebra(q40))
    single = sorted(roots_set(g2, [(1, 0, -1)]))
    assert qsets.is_fundamental(g2, frozenset(single)) == is_fundamental_cr(fg.cr_algebra(single))


def test_get_preset_names():
    assert cr_dim_codim(get_preset("heisenberg")) == (1, 1)
    assert cr_dim_codim(get_preset("exam-bf"))[0] == 1
    a = get_preset("flag:G2:Q40")
    assert is_fundamental_cr(a)
    b = get_preset("flag:A:3")
    assert cr_dim_codim(b)[1] == 0  # borel: totally complex


def _naive_generated(pres, space):
    # oracle: add the brackets of all ordered pairs until the rank is stable
    while True:
        vecs = space.rows
        nxt = space.sum(cspan(pres, [pres.bracket(u, w) for u in vecs for w in vecs]))
        if nxt.rank() == space.rank():
            return space
        space = nxt


def _naive_ideal(pres, space):
    gens = pres.g0_basis()
    while True:
        vecs = space.rows
        nxt = space.sum(cspan(pres, [pres.bracket(g, v) for g in gens for v in vecs]))
        if nxt.rank() == space.rank():
            return space
        space = nxt


def _closure_seeds(fp, rng, gaussian):
    """Cartan subspace, Borel minus a simple and minus the highest root, a
    few root vectors (with and without a Cartan element), random real and
    Gaussian combinations of the basis, and q + qbar of the Borel."""
    pres, rs = fp.pres, fp.system
    pos = sorted(positive_roots(rs))
    cartan = [v for v in fp.cartan_vec if any(v)]
    simple = simple_roots(rs)[0]
    highest = max(pos, key=lambda i: tuple(rs.roots[i]))  # lexicographic order refines dominance
    seeds = [cspan(pres, cartan)] + [fp.q_subspace([i for i in pos if i != j]) for j in (simple, highest)]
    for k in range(4):
        picks = rng.sample(range(len(rs.roots)), 2 + k % 2)
        seeds.append(cspan(pres, [fp.root_vec[i] for i in picks] + cartan[: k % 2]))
    for _ in range(2):
        vecs = [[rng.randint(-2, 2) for _ in range(pres.dim)] for _ in range(2)]
        seeds.append(cspan(pres, vecs))
    if gaussian:
        seeds.append(cspan(pres, [[CNum(Fraction(x), Fraction(rng.randint(-2, 2))) for x in v] for v in vecs]))
    seeds.append(fp.cr_algebra(pos).q_plus_qbar())
    return seeds


# a Gaussian seed generates all of g, and the naive oracle takes seconds on
# one for G2; there the Borel's q + qbar covers the full-rank stop
@pytest.mark.parametrize("spec,gaussian", [(("A", 3), True), (("B", 2), True), (("G2", None), False)],
                         ids=["sl3", "so5", "G2"])
def test_semi_naive_closure_matches_fixed_point(spec, gaussian):
    fp = flag_preset(*spec)
    pres = fp.pres
    rng = random.Random(3)
    proper = 0
    seeds = _closure_seeds(fp, rng, gaussian)
    for seed in seeds:
        got = _generated(pres, seed)
        assert got == _naive_generated(pres, seed)
        proper += got.rank() < pres.dim
    assert 3 <= proper < len(seeds)
    g0 = pres.g0_basis()
    for seed in [CMatrix(pres.dim, []), cspan(pres, g0[:1]), cspan(pres, rng.sample(g0, 2))]:
        assert ideal_closure(pres, seed) == _naive_ideal(pres, seed)


def test_semi_naive_ideal_closure_proper_ideals():
    for a in (heisenberg(), exam_bf()[0]):
        pres = a.pres
        for seed in [cspan(pres, [b]) for b in pres.g0_basis()] + [a.q_cap_qbar()]:
            got = ideal_closure(pres, seed)
            assert got == _naive_ideal(pres, seed)
            assert got.contains_space(seed)


def test_derived_spaces_computed_once(monkeypatch):
    fg = flag_preset("A", 3)
    rs = fg.system
    q1 = sorted(roots_set(rs, [(1, -1, 0), (1, 0, -1)]))
    lam = fg.symmetry_involution(qsets.is_symmetric(rs, frozenset(q1))[1])

    def run(a):
        return is_fundamental_cr(a), cr_dim_codim(a), check_cr_symmetric(a, lam)

    a = fg.cr_algebra(q1)
    first = run(a)
    calls = []
    for module, name in ((cralg, "conj_space"), (cralg, "Factored"), (gaussq, "Factored")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    assert run(a) == first
    assert calls == []
    # a fresh algebra builds its spaces again, with the same results
    assert run(fg.cr_algebra(q1)) == first
    assert "conj_space" in calls


def test_zero_q_images_keep_their_width():
    # the image of q = 0 is the zero space of g, not a space of width 0
    h = heisenberg()
    a = CRAlgebra(h.pres, CMatrix(3, []))
    iden = [[C_ONE if i == j else C_ZERO for j in range(3)] for i in range(3)]
    assert check_weak_j(a, iden)
    assert check_cr_symmetric(a, iden)["preserves_q"]


def test_singular_maps_are_not_automorphisms():
    # the zero map preserves every bracket, but it is not bijective
    a = CRAlgebra(heisenberg().pres, CMatrix(3, []))
    zero = [[C_ZERO] * 3 for _ in range(3)]
    iden = [[C_ONE if i == j else C_ZERO for j in range(3)] for i in range(3)]
    with pytest.raises(NotAnAutomorphism, match="span"):
        check_weak_j(a, zero)
    assert check_cr_symmetric(a, zero)["automorphism"] is False
    assert check_weak_j(a, iden)
    assert check_cr_symmetric(a, iden)["automorphism"] is True


def _misshapen_map_cases():
    # (id, call taking the matrix, matrix, message): a map given by rows must
    # be dim x dim, or target x source for a morphism; heisenberg has dim 3
    # and exam-bf dim 5
    h, bf = heisenberg(), exam_bf()[0]
    wide, tall = [[0, 0, 0, 7]] * 3, [[0] * 3] * 4
    calls = [
        ("check_j_property", lambda m: check_j_property(h, m), "J"),
        ("check_weak_j", lambda m: check_weak_j(h, m), "Upsilon"),
        ("check_cr_symmetric", lambda m: check_cr_symmetric(h, m), "lambda"),
        ("exact_exponential", lambda m: exact_exponential(h.pres, m), "J"),
    ]
    cases = []
    for name, call, label in calls:
        shape = f"{label} must be a 3 x 3 matrix, not one with rows of lengths"
        cases.append((f"{name}-3x4", call, wide, f"{shape} [4, 4, 4]"))
        cases.append((f"{name}-4x3", call, tall, f"{shape} [3, 3, 3, 3]"))
    shape = "phi must be a 5 x 3 matrix, not one with rows of lengths"
    cases.append(("morphism_classify-3x3", lambda m: morphism_classify(h, bf, m), ident(3), f"{shape} [3, 3, 3]"))
    cases.append(("morphism_classify-3x5", lambda m: morphism_classify(h, bf, m), [[0] * 5] * 3, f"{shape} [5, 5, 5]"))
    return cases


MISSHAPEN_MAPS = _misshapen_map_cases()


@pytest.mark.parametrize("call,matrix,message", [c[1:] for c in MISSHAPEN_MAPS], ids=[c[0] for c in MISSHAPEN_MAPS])
def test_a_misshapen_map_is_refused(call, matrix, message):
    with pytest.raises(ValueError) as caught:
        call(matrix)
    assert type(caught.value) is ValueError and message in str(caught.value)


def test_a_space_of_another_width_is_refused():
    # a q or an ideal must lie in g: width-5 spaces on heisenberg (dim 3)
    from flagcr.cralg import weak_j_implies_compatible

    h = heisenberg()
    wide = CMatrix(5, [(1, 0, 0, 0, 0)])
    with pytest.raises(ValueError, match="q has 5 coordinates, but g has dimension 3"):
        CRAlgebra(h.pres, wide)
    with pytest.raises(ValueError, match="the ideal has 5 coordinates, but g has dimension 3"):
        fibration_compatible(h, wide)
    upsilon = exact_exponential(h.pres, [[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="the ideal has 5 coordinates, but g has dimension 3"):
        weak_j_implies_compatible(h, CMatrix(5, []), upsilon)
    with pytest.raises(ValueError, match="space has 5 coordinates, not 3"):
        induced_base_fiber(h, wide)


def test_preserves_g0_needs_a_bijection_commuting_with_nu():
    # on heisenberg: the rotation by pi and the identity map g0 onto itself;
    # X, Y -> iX, iY with T -> -T is an automorphism of g that moves g0, and
    # the zero map is not onto
    a = heisenberg()
    i, one = C_I, C_ONE
    cases = [([[-one, 0, 0], [0, -one, 0], [0, 0, one]], True), (ident(3), True),
             ([[i, 0, 0], [0, i, 0], [0, 0, -one]], False), ([[0] * 3 for _ in range(3)], False)]
    for lam, want in cases:
        rep = check_cr_symmetric(a, lam)
        assert rep["preserves_g0"] is want
        assert rep["g0_splits"] is want


def test_weak_j_rejects_a_map_that_moves_g0():
    # Upsilon = diag(-i, -i, -1) maps q = C(X + iY) onto itself with
    # Z - i Upsilon(Z) = 0 and preserves the bracket of g, but it does not
    # commute with nu, so it is not an automorphism of g0
    from flagcr.cralg import weak_j_implies_compatible

    h = heisenberg()
    i, one = C_I, C_ONE
    upsilon = [[-i, 0, 0], [0, -i, 0], [0, 0, -one]]
    assert check_cr_symmetric(h, upsilon)["preserves_g0"] is False
    with pytest.raises(NotAnAutomorphism, match="nu"):
        check_weak_j(h, upsilon)
    with pytest.raises(NotAnAutomorphism, match="nu"):
        weak_j_implies_compatible(h, cspan(h.pres, [(0, 0, 1)]), upsilon)


def test_weak_j_implies_compatible_checks_invariance_on_both_routes():
    # the rotation of (X, Y) fixing T moves the ideal <X, T>, whether given
    # as the automorphism Upsilon or as the derivation J with exp(pi J/2) = Upsilon
    from flagcr.cralg import weak_j_implies_compatible

    h = heisenberg()
    ideal = cspan(h.pres, [(1, 0, 0), (0, 0, 1)])
    upsilon = [[0, -1, 0], [1, 0, 0], [0, 0, 1]]
    j = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]
    for u in (upsilon, exact_exponential(h.pres, j)):
        assert check_weak_j(h, u)
        with pytest.raises(PreconditionViolation, match="Upsilon-invariant"):
            weak_j_implies_compatible(h, ideal, u)
        assert weak_j_implies_compatible(h, cspan(h.pres, [(0, 0, 1)]), u)


def _kernel_eigenspace(n, apply, c):
    # oracle: the kernel of T - c I, with columns the images of the 2n real
    # unit vectors
    cols = []
    for i in range(2 * n):
        unit = [C_ZERO] * n
        unit[i // 2] = C_ONE if i % 2 == 0 else C_I
        img = apply(tuple(unit))
        cols.append(realify_vector(tuple(x - c * y for x, y in zip(img, unit))))
    basis = gaussq.kernel(cols, 2 * n, Fraction)
    return RMatrix(2 * n, basis)


def _augmented_pull(sp, tp, apply, space):
    # oracle: {v : phi(v) in space} from the kernel of [phi | -rows of space]
    n2s = 2 * sp.dim
    cols = [realify_vector(apply(tuple(z * x for x in b))) for b in cralg._std_basis(sp.dim) for z in (C_ONE, C_I)]
    cols += [[-Fraction(x) for x in w] for w in space.rows]
    return RMatrix(n2s, [k[:n2s] for k in gaussq.kernel(cols, 2 * tp.dim, Fraction)])


def _realified(space):
    # a complex space as the real row space of the rows v, iv
    rows = [realify_vector(w) for v in space.rows for w in (v, tuple(C_I * x for x in v))]
    return RMatrix(2 * space.ncols, rows)


def _complexified(space, n):
    # the complex span of realified rows
    return CMatrix(n, [complexify_vector(r) for r in space.rows])


@pytest.mark.parametrize("spec", [("A", 3), ("B", 2), ("G2", None)], ids=["sl3", "so5", "G2"])
def test_eigenspace_preimage_matches_kernel_oracle(spec):
    # nu (c = 1) against g0_basis, every symmetry involution of a maximal
    # class (c = +-1) and every J derivation (c = ik, k in -2..2), with G2's
    # Q40 for a G2 J, against the complexified oracle
    fp = flag_preset(*spec)
    pres, rs = fp.pres, fp.system
    n = pres.dim
    g0 = _kernel_eigenspace(n, pres.nu, C_ONE)
    assert [complexify_vector(r) for r in g0.rows] == pres.g0_basis()
    qs = [frozenset(c.canonical) for c in classify.enumerate_maximal(rs)]
    if spec[0] == "G2":
        qs.append(frozenset(roots_set(rs, [(1, 0, -1), (2, -1, -1)])))
    maps = []
    for q in qs:
        ok, e = qsets.is_symmetric(rs, q)
        if ok:
            lam = cralg._columns(fp.symmetry_involution(e), n, n, "lambda")
            maps += [(lam, C_ONE), (lam, -C_ONE)]
        ok, e = qsets.has_j(rs, q)
        if ok:
            j = cralg._columns(fp.j_derivation(e), n, n, "J")
            cralg._check_derivation(pres, j)
            maps += [(j, CNum(Fraction(0), Fraction(k))) for k in range(-2, 3)]
    assert len(maps) >= 7
    for cols, c in maps:
        oracle = _kernel_eigenspace(n, lambda v: gaussq._apply(cols, v, n), c)
        assert cralg._eigenspace(cols, c) == _complexified(oracle, n)


def test_morphism_fibers_match_augmented_pull():
    h = heisenberg()
    cases = [(h, h, ident(3)), (h, h, [[0] * 3 for _ in range(3)]), _extension_morphism()]
    for src, tgt, phi0 in cases:
        sp, tp = src.pres, tgt.pres
        cols = cralg._columns(phi0, tp.dim, sp.dim, "phi")

        def apply(v):
            return gaussq._apply(cols, v, tp.dim)

        out = morphism_classify(src, tgt, phi0)
        g0s, g0t = (_kernel_eigenspace(p.dim, p.nu, C_ONE) for p in (sp, tp))
        g0pp = _augmented_pull(sp, tp, apply, _realified(tgt.q).intersect(g0t)).intersect(g0s)
        assert out["fiber_g0"] == _complexified(g0pp, sp.dim)
        qpp = _realified(src.q).intersect(_augmented_pull(sp, tp, apply, _realified(tgt.q_cap_qbar())))
        assert out["fiber_q"] == _complexified(qpp, sp.dim)


def test_non_real_maps_are_rejected():
    # on heisenberg (nu = complex conjugation of the coordinates) diag(i, i, 2i)
    # is a derivation and diag(i, i, -1) an automorphism of g, but neither
    # commutes with nu, so neither is the complexification of a map of g0
    h = heisenberg()
    j = [[C_I, 0, 0], [0, C_I, 0], [0, 0, 2 * C_I]]
    with pytest.raises(NotADerivation, match="nu"):
        check_j_property(h, j)
    with pytest.raises(NotADerivation, match="nu"):
        exact_exponential(h.pres, j)
    phi = [[C_I, 0, 0], [0, C_I, 0], [0, 0, -C_ONE]]
    with pytest.raises(NotAHomomorphism, match="conjugations"):
        morphism_classify(h, h, phi)


def test_maps_breaking_a_zero_bracket_are_rejected():
    # heisenberg + R on X, Y, T, Z stores only [X, Y] = T.  Z -> Z + X keeps
    # that bracket but sends [Y, Z] = 0 to [Y, X] = -T, and the derivation
    # Z -> X breaks Leibniz on the same pair
    pres = LieAlgebraPresentation(4, {(0, 1): [(2, 1)]}, ident(4), labels=["X", "Y", "T", "Z"])
    a = CRAlgebra(pres, cspan(pres, [(1, C_I, 0, 0)]))
    shear = ident(4)
    shear[0][3] = 1
    with pytest.raises(NotAnAutomorphism, match="basis pair 1,3"):
        check_weak_j(a, shear)
    assert check_cr_symmetric(a, shear)["automorphism"] is False
    d = [[0] * 4 for _ in range(4)]
    d[0][3] = 1
    with pytest.raises(NotADerivation, match="Leibniz fails on basis pair 1,3"):
        check_j_property(a, d)


def _g0_map(src, tgt, mat):
    """Oracle: the complex-linear map from src to tgt presentation coordinates
    whose matrix on the g0 bases is the rational matrix mat."""
    sbasis, tbasis = src.g0_basis(), tgt.g0_basis()
    imgs = [gaussq._apply(tbasis, [mat[i][j] for i in range(len(tbasis))], tgt.dim) for j in range(len(sbasis))]
    cols = [gaussq._apply(imgs, src.g0_coords(e), tgt.dim) for e in cralg._std_basis(src.dim)]
    return lambda v: gaussq._apply(cols, v, tgt.dim)


def _g0_j_derivation(fp, e):
    """Oracle: J = ad(-i H_E) as a rational matrix on the g0 basis, one
    g0-coordinate solve per basis vector."""
    pres = fp.pres
    mih = tuple(-C_I * x for x in fp.cartan_element([Fraction(x, e.den) for x in e.num]))
    cols = []
    for b in pres.g0_basis():
        c = pres.g0_coords(pres.bracket(mih, b))
        assert all(z.im == 0 for z in c), "ad(-iH) does not preserve g0"
        cols.append([z.re for z in c])
    return [list(row) for row in zip(*cols)]


@pytest.mark.parametrize("spec", [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3)],
                         ids=["A3", "A4", "B2", "B3", "C3"])
def test_diagonal_j_derivation_matches_g0_basis_oracle(spec):
    # every J class among the maximal classes: the diagonal J on the
    # presentation basis is the map of the g0-basis construction
    fp = flag_preset(*spec)
    pres, rs = fp.pres, fp.system
    units = cralg._std_basis(pres.dim)
    checked = 0
    for c in classify.enumerate_maximal(rs):
        ok, e = qsets.has_j(rs, frozenset(c.canonical))
        if ok:
            want = _g0_map(pres, pres, _g0_j_derivation(fp, e))
            assert cralg._columns(fp.j_derivation(e), pres.dim, pres.dim, "J") == [want(u) for u in units]
            checked += 1
    assert checked


# g0_basis() of five presets, recorded before subspaces moved to complex
# coordinates: {coordinate: value} for the nonzero coordinates of each vector
G0_BASIS = {
    "heisenberg": [{0: "1"}, {1: "1"}, {2: "1"}],
    "su2-flag": [{0: "1"}, {1: "1"}, {2: "1"}],
    "exam-bf": [{0: "1"}, {1: "1"}, {2: "1"}, {3: "1"}, {4: "1"}],
    "flag:A:3": [{0: "1i"}, {1: "1i"}, {2: "1", 7: "-1"}, {2: "1i", 7: "1i"}, {3: "1", 6: "-1"}, {3: "1i", 6: "1i"},
                 {4: "1", 5: "-1"}, {4: "1i", 5: "1i"}],
    "flag:G2": [{0: "1i"}, {1: "1i"}, {2: "1", 13: "-1"}, {2: "1i", 13: "1i"}, {3: "1", 12: "-1"}, {3: "1i", 12: "1i"},
                {4: "1", 11: "-1"}, {4: "1i", 11: "1i"}, {5: "1", 10: "-1"}, {5: "1i", 10: "1i"}, {6: "1", 9: "-1"},
                {6: "1i", 9: "1i"}, {7: "1", 8: "-1"}, {7: "1i", 8: "1i"}],
}


@pytest.mark.parametrize("name", list(G0_BASIS))
def test_g0_basis_is_pinned(name):
    # --xi coordinates and the levi goldens are written in it
    got = [{k: str(z) for k, z in enumerate(v) if z} for v in get_preset(name).pres.g0_basis()]
    assert got == G0_BASIS[name]


# (cr_dim_codim, complex rank of q n qbar, anticanonical normalizer_dim),
# recorded before subspaces moved to complex coordinates
RECORDED = {
    "heisenberg": ((1, 1), 0, 1),
    "sl2": ((0, 1), 2, 2),
    "su2-flag": ((1, 0), 1, 1),
    "exam-bf": ((1, 2), 1, 1),
    "A3-class0": ((2, 2), 2, 2),
    "A3-class1": ((2, 2), 2, 2),
    "B2-class0": ((3, 2), 2, 2),
    "G2-class0": ((3, 6), 2, 2),
    "G2-class1": ((3, 6), 2, 2),
}
FLAG_SPECS = {"A3": ("A", 3), "B2": ("B", 2), "G2": ("G2", None)}


def _recorded_case(name):
    # every preset, and every enumerated maximal class of the three flag presets
    assert set(PRESET_BUILDERS) <= set(RECORDED)
    if name in PRESET_BUILDERS:
        return PRESET_BUILDERS[name]()
    tag, k = name.split("-class")
    fp = flag_preset(*FLAG_SPECS[tag])
    classes = classify.enumerate_maximal(fp.system)
    assert len(classes) == sum(key.startswith(tag + "-") for key in RECORDED)
    return fp.cr_algebra(sorted(classes[int(k)].canonical))


@pytest.mark.parametrize("name", list(RECORDED))
def test_real_points_and_complex_spaces(name):
    a = _recorded_case(name)
    pres, n = a.pres, a.pres.dim
    a0 = anticanonical(a)["a0"]
    assert (cr_dim_codim(a), a.q_cap_qbar().rank(), a0.rank()) == RECORDED[name]
    for space in (a.q_cap_qbar(), a.q_plus_qbar(), a0, cralg.full_space(pres)):
        pts = real_points(pres, space)
        assert all(pres.nu(v) == v for v in pts)
        assert len(pts) == space.rank() and cspan(pres, pts) == space
    # the realified route: g0 as the kernel of nu - 1, i0 = q n g0,
    # (q + qbar) n g0, and a0 = {v in g0 : [v, w] in q for w in q} by pulls
    g0 = _kernel_eigenspace(n, pres.nu, C_ONE)
    q = _realified(a.q)
    qbar = RMatrix(2 * n, [realify_vector(pres.nu(complexify_vector(r))) for r in q.rows])
    assert a.q_cap_qbar() == _complexified(q.intersect(g0), n)
    assert a.q_plus_qbar() == _complexified(q.sum(qbar).intersect(g0), n)
    normalizer = g0
    for w in a.q.rows:
        normalizer = normalizer.intersect(_augmented_pull(pres, pres, lambda v, w=w: pres.bracket(v, w), q))
    assert a0 == _complexified(normalizer, n)
