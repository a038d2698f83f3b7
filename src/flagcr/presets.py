"""Preset CR algebras: Heisenberg, sl(2), su(2), the abelian-extension
no-go example, and flag presets built from exact matrix models of the
classical algebras (with G2 obtained by folding so(8) along a triality
lift).

Flag presets expose, for a root system built by rootsys, the basis vector of
each root space and the Cartan element realizing a given ambient functional,
so combinatorial witnesses transfer to honest derivations/automorphisms of
the presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .cralg import (
    CRAlgebra,
    LieAlgebraPresentation,
    _g0_coords_solver,
    cspan,
    realified_eigenspace,
    rspan,
    sub_presentation,
)
from .gaussq import C_I, C_ONE, C_ZERO, CNum, Factored, RMatrix, kernel, solve_linear
from .intlat import solve_congruence
from .rootsys import RootSystem, build_root_system, evaluate
from .weyl import diagram_automorphisms, matrix_of


def _table(entries, dim):
    out = {}
    for (i, j), pairs in entries.items():
        v = [C_ZERO] * dim
        for k, c in pairs:
            v[k] = CNum.of(Fraction(c))
        out[(i, j)] = tuple(v)
    return out


def _conj_identity(dim):
    return [[C_ONE if i == j else C_ZERO for j in range(dim)] for i in range(dim)]


def heisenberg() -> CRAlgebra:
    """g0 = <X, Y, T>, [X, Y] = T; q = C (X + iY)."""
    pres = LieAlgebraPresentation(
        3, _table({(0, 1): [(2, 1)]}, 3), _conj_identity(3), labels=["X", "Y", "T"]
    )
    q = cspan(pres, [(C_ONE, C_I, C_ZERO)])
    return CRAlgebra(pres, q)


def sl2() -> LieAlgebraPresentation:
    """sl(2, R): H, E, F with [H,E] = 2E, [H,F] = -2F, [E,F] = H."""
    return LieAlgebraPresentation(
        3,
        _table({(0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)]}, 3),
        _conj_identity(3),
        labels=["H", "E", "F"],
    )


def su2() -> LieAlgebraPresentation:
    """su(2) as u1, u2, u3 with cyclic brackets."""
    return LieAlgebraPresentation(
        3,
        _table({(0, 1): [(2, 1)], (1, 2): [(0, 1)], (0, 2): [(1, -1)]}, 3),
        _conj_identity(3),
        labels=["u1", "u2", "u3"],
    )


def su2_flag() -> CRAlgebra:
    """(su(2), borel): the sphere CR structure; q = C(u1 + i u2) + C u3?  No:
    q must satisfy q n g0 = t0 = R u3; take q = C u3 + C (u1 + i u2)."""
    pres = su2()
    q = cspan(pres, [(C_ZERO, C_ZERO, C_ONE), (C_ONE, C_I, C_ZERO)])
    return CRAlgebra(pres, q)


def exam_bf() -> tuple[CRAlgebra, RMatrix]:
    """The abelian extension sl(2,R) + R^2 with q = C{X + i X.v0 : X in
    borel}, v0 = first basis vector; returns (CR algebra, the radical V as a
    realified subspace).  The Levi-Malcev compatibility identity fails here.
    """
    # basis: H, E, F, v1, v2
    entries = {
        (0, 1): [(1, 2)],
        (0, 2): [(2, -2)],
        (1, 2): [(0, 1)],
        (0, 3): [(3, 1)],
        (0, 4): [(4, -1)],
        (1, 4): [(3, 1)],
        (2, 3): [(4, 1)],
    }
    pres = LieAlgebraPresentation(5, _table(entries, 5), _conj_identity(5), labels=["H", "E", "F", "v1", "v2"])
    # a0 = span{H, E}; v0 = v1: H.v0 = v1, E.v0 = 0
    q = cspan(
        pres,
        [
            (C_ONE, C_ZERO, C_ZERO, C_I, C_ZERO),  # H + i v1
            (C_ZERO, C_ONE, C_ZERO, C_ZERO, C_ZERO),  # E
        ],
    )
    radical = rspan(pres, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    return CRAlgebra(pres, q), radical


# ---------------------------------------------------------------------------
# matrix models


class _MatrixModel:
    """Lie algebra of matrices over CNum with a distinguished basis."""

    def __init__(self, size, basis_mats, labels):
        self.size = size
        self.mats = basis_mats
        self.labels = labels
        self._basis = Factored([[m[i][j] for m in basis_mats] for i in range(size) for j in range(size)], CNum.of)

    def coords(self, mat):
        sol = self._basis.solve([mat[i][j] for i in range(self.size) for j in range(self.size)])
        if sol is None:
            raise ValueError("matrix not in the span of the basis")
        return tuple(sol)

    def presentation(self, validate=True) -> LieAlgebraPresentation:
        n = len(self.mats)
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                br = _mat_bracket(self.mats[i], self.mats[j])
                table[(i, j)] = self.coords(br)
        conj_cols = [self.coords(_mat_nu(m)) for m in self.mats]
        conj_matrix = [[conj_cols[j][i] for j in range(n)] for i in range(n)]
        return LieAlgebraPresentation(n, table, conj_matrix, labels=self.labels, validate=validate)


def _zeros(n):
    return [[C_ZERO for _ in range(n)] for _ in range(n)]


def _mat_bracket(a, b):
    n = len(a)
    out = _zeros(n)
    for i in range(n):
        for k in range(n):
            if a[i][k]:
                for j in range(n):
                    if b[k][j]:
                        out[i][j] = out[i][j] + a[i][k] * b[k][j]
    for i in range(n):
        for k in range(n):
            if b[i][k]:
                for j in range(n):
                    if a[k][j]:
                        out[i][j] = out[i][j] - b[i][k] * a[k][j]
    return out


def _mat_nu(a):
    """Compact-form conjugation nu(M) = -conj(M)^T."""
    n = len(a)
    return [[-a[j][i].conj() for j in range(n)] for i in range(n)]


def _e(n, i, j, c=1):
    m = _zeros(n)
    m[i][j] = CNum.of(Fraction(c))
    return m


def _madd(*ms):
    n = len(ms[0])
    out = _zeros(n)
    for m in ms:
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + m[i][j]
    return out


@dataclass
class FlagPreset:
    system: RootSystem
    pres: LieAlgebraPresentation
    root_vec: dict = field(repr=False)  # root index -> CNum coordinate vector
    cartan_vec: list = field(repr=False)  # ambient coordinate -> Cartan coordinate vectors

    def cartan_element(self, ambient):
        """Element H with alpha(H) = evaluate(alpha, ambient) for all roots,
        as a CNum coordinate vector."""
        out = [C_ZERO] * self.pres.dim
        for x, hvec in zip(ambient, self.cartan_vec):
            f = CNum.of(Fraction(x))
            if f:
                for t in range(self.pres.dim):
                    out[t] = out[t] + f * hvec[t]
        return tuple(out)

    def q_subspace(self, q_indices) -> RMatrix:
        """q = h + sum of the root spaces of Q (realified)."""
        vecs = [v for v in self.cartan_vec if any(v)]
        vecs += [self.root_vec[i] for i in sorted(q_indices)]
        return cspan(self.pres, vecs)

    def cr_algebra(self, q_indices) -> CRAlgebra:
        return CRAlgebra(self.pres, self.q_subspace(q_indices))

    def j_derivation(self, grading_element):
        """J = ad(-i H_E) as a rational matrix on the g0 basis."""
        h = self.cartan_element(grading_element.ambient)
        mih = tuple(CNum(Fraction(0), Fraction(-1)) * x for x in h)
        basis = self.pres.g0_basis()
        coords = _g0_coords_solver(self.pres)
        cols = []
        for b in basis:
            img = self.pres.bracket(mih, b)
            c = coords(img)
            col = []
            for z in c:
                if z.im != 0:
                    raise ValueError("ad(-iH) does not preserve g0")
                col.append(z.re)
            cols.append(col)
        n = len(basis)
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def symmetry_involution(self, grading_element):
        """lambda = Ad(exp(i pi E)): acts by (-1)^{alpha(E)} on root spaces."""
        from .rootsys import evaluate_int

        n = self.pres.dim
        cols = [[C_ZERO] * n for _ in range(n)]
        # build on the basis h-part (fixed) and root vectors (sign)
        basis_vecs = []
        signs = []
        for hv in self.cartan_vec:
            if any(hv):
                basis_vecs.append(hv)
                signs.append(C_ONE)
        for idx in range(self.system.nroots):
            basis_vecs.append(self.root_vec[idx])
            k = evaluate_int(self.system.roots[idx], grading_element)
            signs.append(C_ONE if k % 2 == 0 else -C_ONE)
        # change of basis
        m = len(basis_vecs)
        change = Factored([[basis_vecs[j][i] for j in range(m)] for i in range(n)], CNum.of)
        lam_cols = []
        for t in range(n):
            unit = [C_ZERO] * n
            unit[t] = C_ONE
            sol = change.solve(unit)
            img = [C_ZERO] * n
            for c, s, bv in zip(sol, signs, basis_vecs):
                f = c * s
                if f:
                    for u in range(n):
                        img[u] = img[u] + f * bv[u]
            lam_cols.append(img)
        return [[lam_cols[j][i] for j in range(n)] for i in range(n)]


def _classical_model(type_tag: str, n: int) -> tuple[_MatrixModel, RootSystem, dict]:
    rs = build_root_system(type_tag, n)
    if type_tag == "A":
        size = n
        cartan = [ _madd(_e(size, i, i), _e(size, i + 1, i + 1, -1)) for i in range(n - 1)]
        def rootmat(v):
            # v doubled coords: e_i - e_j
            i = v.index(2)
            j = v.index(-2)
            return _e(size, i, j)
        # trace-zero realization of the coordinate functionals
        third = Fraction(1, size)
        hdual = [
            _madd(_e(size, i, i), *[_e(size, k, k, -third) for k in range(size)])
            for i in range(size)
        ]
    elif type_tag in ("B", "D"):
        size = 2 * n + 1 if type_tag == "B" else 2 * n
        def opp(i):
            return size - 1 - i
        cartan = [_madd(_e(size, i, i), _e(size, opp(i), opp(i), -1)) for i in range(n)]
        def rootmat(v):
            nz = [(k, x) for k, x in enumerate(v) if x]
            if len(nz) == 1:
                (i, x) = nz[0]
                if x == 2:
                    return _madd(_e(size, i, n), _e(size, n, opp(i), -1))
                return _madd(_e(size, n, i), _e(size, opp(i), n, -1))
            (i, xi), (j, xj) = nz
            if xi == 2 and xj == -2:
                return _madd(_e(size, i, j), _e(size, opp(j), opp(i), -1))
            if xi == -2 and xj == 2:
                return _madd(_e(size, j, i), _e(size, opp(i), opp(j), -1))
            if xi == 2 and xj == 2:
                return _madd(_e(size, i, opp(j)), _e(size, j, opp(i), -1))
            return _madd(_e(size, opp(j), i), _e(size, opp(i), j, -1))
        hdual = [_madd(_e(size, i, i), _e(size, opp(i), opp(i), -1)) for i in range(n)]
    elif type_tag == "C":
        size = 2 * n
        def opp(i):
            return size - 1 - i
        cartan = [_madd(_e(size, i, i), _e(size, opp(i), opp(i), -1)) for i in range(n)]
        def rootmat(v):
            nz = [(k, x) for k, x in enumerate(v) if x]
            if len(nz) == 1:
                (i, x) = nz[0]
                if x == 4:
                    return _e(size, i, opp(i))
                return _e(size, opp(i), i)
            (i, xi), (j, xj) = nz
            if xi == 2 and xj == -2:
                return _madd(_e(size, i, j), _e(size, opp(j), opp(i), -1))
            if xi == -2 and xj == 2:
                return _madd(_e(size, j, i), _e(size, opp(i), opp(j), -1))
            if xi == 2 and xj == 2:
                return _madd(_e(size, i, opp(j)), _e(size, j, opp(i)))
            return _madd(_e(size, opp(j), i), _e(size, opp(i), j))
        hdual = [_madd(_e(size, i, i), _e(size, opp(i), opp(i), -1)) for i in range(n)]
    else:
        raise ValueError(type_tag)
    mats = []
    labels = []
    for k, h in enumerate(cartan):
        mats.append(h)
        labels.append(f"h{k}")
    for idx, v in enumerate(rs.roots):
        mats.append(rootmat(v))
        labels.append(f"x{idx}")
    model = _MatrixModel(size, mats, labels)
    return model, rs, {"hdual": hdual, "rootmat": rootmat}


_FLAG_CACHE: dict = {}


def flag_preset(type_tag: str, rank: int | None = None) -> FlagPreset:
    key = (type_tag, rank)
    if key in _FLAG_CACHE:
        return _FLAG_CACHE[key]
    if type_tag == "G2":
        out = _g2_preset()
    else:
        model, rs, extra = _classical_model(type_tag, rank)
        pres = model.presentation()
        nh = rs.rank
        root_vec = {}
        for idx in range(rs.nroots):
            vec = [C_ZERO] * pres.dim
            vec[nh + idx] = C_ONE
            root_vec[idx] = tuple(vec)
        cartan_vec = []
        for h in extra["hdual"]:
            cartan_vec.append(model.coords(h))
        out = FlagPreset(rs, pres, root_vec, cartan_vec)
        _verify_flag(out)
    _FLAG_CACHE[key] = out
    return out


def _verify_flag(fp: FlagPreset):
    """The Cartan vectors must reproduce alpha(H) on every root vector."""
    pres = fp.pres
    rs = fp.system
    for k in range(rs.ambient_dim):
        amb = [Fraction(0)] * rs.ambient_dim
        amb[k] = Fraction(1)
        h = fp.cartan_element(amb)
        for idx in range(rs.nroots):
            x = fp.root_vec[idx]
            lhs = pres.bracket(h, x)
            want = evaluate(rs.roots[idx], tuple(amb))
            rhs = tuple(CNum(want) * t for t in x)
            if lhs != rhs:
                raise AssertionError(f"flag preset mis-grades root {rs.roots[idx]}")


# ---------------------------------------------------------------------------
# G2 by folding so(8)


def _g2_preset() -> FlagPreset:
    model, d4, extra = _classical_model("D", 4)
    pres = model.presentation()
    nh = 4
    # order-3 diagram automorphism of D4: g^3 = id and g != id
    ident = tuple(range(d4.nroots))
    perm = next((g for g in diagram_automorphisms(d4) if g != ident and tuple(g[g[g[i]]] for i in ident) == ident), None)
    assert perm is not None, "no triality automorphism found"
    # tri_cols[k] = tri(e_k): the ambient matrix of the triality tri = perm
    tri_cols = matrix_of(d4, perm)
    # sign corrections c_alpha = (-1)^{x_alpha} solved mod 2
    nroots = d4.nroots
    rows = []
    rhs = []
    basis = [tuple(C_ONE if k == i else C_ZERO for k in range(pres.dim)) for i in range(pres.dim)]

    def xvec(idx):
        return basis[nh + idx]

    def ratio_bit(i, j, k):
        """bit of N_{si,sj}/N_{i,j} where [x_i, x_j] = N x_k."""
        bij = pres.bracket(xvec(i), xvec(j))
        n1 = bij[nh + k]
        bss = pres.bracket(xvec(perm[i]), xvec(perm[j]))
        n2 = bss[nh + perm[k]]
        r = n1 / n2
        assert r.im == 0 and abs(r.re) == 1, "triality does not preserve |N|"
        return 0 if r.re == 1 else 1

    from .rootsys import root_sum

    eqs = []
    bvec = []
    for i in range(nroots):
        for j in range(i + 1, nroots):
            k = root_sum(d4, i, j)
            if k is None:
                continue
            row = [0] * nroots
            row[i] ^= 1
            row[j] ^= 1
            row[k] ^= 1
            eqs.append(row)
            bvec.append(ratio_bit(i, j, k))
    for i in range(nroots):
        row = [0] * nroots
        row[i] ^= 1
        row[d4.neg(i)] ^= 1
        eqs.append(row)
        bvec.append(0)
        row2 = [0] * nroots
        row2[i] ^= 1
        row2[perm[i]] ^= 1
        row2[perm[perm[i]]] ^= 1
        eqs.append(row2)
        bvec.append(0)
    sol = solve_congruence(eqs, bvec, 2)
    assert sol is not None, "triality sign system unsolvable"
    sign = [C_ONE if s % 2 == 0 else -C_ONE for s in sol]

    # shat on coordinates: cartan part via the ambient matrix of tri
    def shat(v):
        out = [C_ZERO] * pres.dim
        # cartan: coordinates 0..3 correspond to hdual-ish basis h0..h3
        # transport: H_amb -> H_{tri(amb)}
        amb = [v[k] for k in range(nh)]
        # h_k = E_kk - E_opp: corresponds to ambient e_k; express tri(e_k)
        for k in range(nh):
            if not amb[k]:
                continue
            for t in range(nh):
                out[t] = out[t] + amb[k] * CNum.of(tri_cols[k][t])
        for idx in range(nroots):
            c = v[nh + idx]
            if c:
                out[nh + perm[idx]] = out[nh + perm[idx]] + c * sign[idx]
        return tuple(out)

    # verify shat is an order-3 automorphism commuting with nu
    for i in range(pres.dim):
        b = basis[i]
        if shat(shat(shat(b))) != b:
            raise AssertionError("triality lift is not of order 3")
        if pres.nu(shat(b)) != shat(pres.nu(b)):
            raise AssertionError("triality lift does not commute with the conjugation")
    for i in range(pres.dim):
        for j in range(i + 1, pres.dim):
            if shat(pres.bracket(basis[i], basis[j])) != pres.bracket(shat(basis[i]), shat(basis[j])):
                raise AssertionError("triality lift is not an automorphism")

    # fixed subalgebra
    fixed = realified_eigenspace(pres.dim, shat, C_ONE)
    assert fixed.rank() == 28, f"fixed subalgebra has wrong dimension {fixed.rank()}"

    sub, embed, project = sub_presentation(pres, fixed)
    assert sub.dim == 14

    # Cartan of the fold: images of fixed Cartan vectors
    g2 = build_root_system("G2")
    # fixed Cartan = ambient vectors fixed by tri
    hfix = kernel([[tri_cols[j][i] - (1 if i == j else 0) for j in range(4)] for i in range(4)], Fraction)
    assert len(hfix) == 2
    def h_of_amb(amb):
        v = [C_ZERO] * pres.dim
        for k in range(4):
            v[k] = CNum.of(Fraction(amb[k]))
        return tuple(v)

    h1 = project(h_of_amb(hfix[0]))
    h2 = project(h_of_amb(hfix[1]))
    # joint eigen-decomposition of (ad h1, ad h2) on the fold
    sub_basis = [tuple(C_ONE if k == i else C_ZERO for k in range(14)) for i in range(14)]
    pairs = {}
    id_cols1 = [sub.bracket(h1, b) for b in sub_basis]
    id_cols2 = [sub.bracket(h2, b) for b in sub_basis]
    # restricted roots of the D4 roots: alpha|_{hfix}
    weights = {}
    for idx in range(nroots):
        lam1 = evaluate(d4.roots[idx], tuple(hfix[0]))
        lam2 = evaluate(d4.roots[idx], tuple(hfix[1]))
        weights.setdefault((lam1, lam2), []).append(idx)
    assert len([w for w in weights if w != (0, 0)]) == 12
    # root vectors of the fold: orbit sums
    fold_vec = {}
    for w, idxs in weights.items():
        if w == (0, 0):
            continue
        orbit = set()
        for idx in idxs:
            if idx in orbit:
                continue
            o = [idx, perm[idx], perm[perm[idx]]]
            if o[1] == idx:
                o = [idx]
            vec = [C_ZERO] * pres.dim
            seen = set()
            for t, oi in enumerate(o):
                if oi in seen:
                    continue
                seen.add(oi)
                # accumulate shat^t applied to x_idx
                val = xvec(idx)
                for _ in range(t):
                    val = shat(val)
                for u in range(pres.dim):
                    vec[u] = vec[u] + val[u]
            orbit.update(o)
            fold_vec[w] = project(tuple(vec))
            break
    # match restricted weights to our G2 roots by re-expressing both sides
    # over a simple-root basis
    g2_map = _match_g2(g2, list(fold_vec.keys()), hfix)
    root_vec = {}
    for w, vec in fold_vec.items():
        root_vec[g2_map[w]] = vec
    assert len(root_vec) == 12
    # Cartan vectors for our G2 ambient coordinates: find H with
    # alpha(H) = evaluate(alpha, e_k) for all alpha
    cartan_vec = []
    for k in range(3):
        amb = [Fraction(0)] * 3
        amb[k] = Fraction(1)
        # solve: H = a*h1 + b*h2 with restricted values matching two
        # independent roots
        ridx = sorted(root_vec)
        from .rootsys import inner

        a_b = _solve_cartan_coeffs(g2, d4, g2_map, hfix, amb, ridx)
        vec = tuple(CNum.of(a_b[0]) * x + CNum.of(a_b[1]) * y for x, y in zip(h1, h2))
        cartan_vec.append(vec)
    out = FlagPreset(g2, sub, root_vec, cartan_vec)
    _verify_flag(out)
    return out


def _match_g2(g2: RootSystem, weights, hfix):
    """Bijection (restricted weight pair) -> our G2 root index, linear in the
    weight and sending the weight set onto the root set."""
    # pick two independent weights as a basis, try mapping them to candidate
    # root pairs, extend linearly, accept the bijection that works
    ws = sorted(weights)
    basis = None
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            a, b = ws[i], ws[j]
            det = a[0] * b[1] - a[1] * b[0]
            if det != 0:
                basis = (a, b)
                break
        if basis:
            break
    a, b = basis
    det = a[0] * b[1] - a[1] * b[0]
    wset = set(ws)
    for ra in range(g2.nroots):
        for rb in range(g2.nroots):
            if ra == rb:
                continue
            out = {}
            ok = True
            for w in ws:
                # solve w = s*a + t*b
                s = (w[0] * b[1] - w[1] * b[0]) / det
                t = (a[0] * w[1] - a[1] * w[0]) / det
                target = tuple(
                    s * Fraction(x) + t * Fraction(y)
                    for x, y in zip(g2.roots[ra], g2.roots[rb])
                )
                key = tuple(target)
                if any(v.denominator != 1 for v in key):
                    ok = False
                    break
                key = tuple(int(v) for v in key)
                if key not in g2.index:
                    ok = False
                    break
                out[w] = g2.index[key]
            if ok and len(set(out.values())) == len(ws):
                return out
    raise AssertionError("could not identify the folded root system with G2")


def _solve_cartan_coeffs(g2, d4, g2_map, hfix, amb, ridx):
    """Coefficients (a, b) with alpha(a h1 + b h2) = evaluate(alpha, amb)."""
    inv_map = {v: k for k, v in g2_map.items()}
    rows = []
    rhs = []
    for idx in ridx[:3]:
        w = inv_map[idx]
        rows.append([Fraction(w[0]), Fraction(w[1])])
        rhs.append(evaluate(g2.roots[idx], tuple(amb)))
    sol = solve_linear(rows, rhs, Fraction)
    assert sol is not None
    return sol


PRESET_BUILDERS = {
    "heisenberg": lambda: heisenberg(),
    "sl2": None,
    "su2": None,
    "su2-flag": lambda: su2_flag(),
    "exam-bf": lambda: exam_bf()[0],
}


def get_preset(name: str) -> CRAlgebra:
    """CLI preset lookup: heisenberg, su2-flag, exam-bf, flag:TYPE[:RANK][:Qspec]."""
    if name in PRESET_BUILDERS and PRESET_BUILDERS[name]:
        return PRESET_BUILDERS[name]()
    if name.startswith("flag:"):
        parts = name.split(":")
        tag = parts[1]
        rank = None
        qspec = None
        rest = parts[2:]
        for p in rest:
            if p.isdigit():
                rank = int(p)
            else:
                qspec = p
        fp = flag_preset(tag, rank)
        q_indices = _named_q(fp.system, qspec)
        return fp.cr_algebra(q_indices)
    raise KeyError(f"unknown preset {name!r}")


def _named_q(rs: RootSystem, qspec: str | None):
    from .weyl import positive_roots

    if qspec in (None, "borel"):
        return positive_roots(rs)
    if rs.type_tag == "G2" and qspec in ("Q40", "Q41", "Q42"):
        from .rootsys import roots_set

        table = {
            "Q40": [(1, 0, -1), (2, -1, -1)],
            "Q41": [(1, 0, -1), (2, -1, -1), (1, -2, 1)],
            "Q42": [(1, 0, -1), (2, -1, -1), (1, 1, -2)],
        }
        return sorted(roots_set(rs, table[qspec]))
    if qspec == "cartan":
        return []
    raise KeyError(f"unknown Q spec {qspec!r}")


PRESET_BUILDERS["sl2"] = lambda: CRAlgebra(
    sl2(), cspan(sl2(), [(C_ONE, C_ZERO, C_ZERO), (C_ZERO, C_ONE, C_ZERO)])
)
PRESET_BUILDERS["su2"] = lambda: su2_flag()
