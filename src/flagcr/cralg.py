"""Structure-constants CR algebras over exact Gaussian rationals.

A presentation carries a complex Lie algebra g (basis-indexed structure
constants), together with an antilinear involutive automorphism nu whose
fixed set is the real form g0.  A CR algebra is such a presentation plus a
complex subalgebra q; all predicates, Levi forms, J / weak-J / CR-symmetry
verification, fibration compatibility and the anticanonical construction are
exact subspace computations.

Elements are CNum coordinate tuples in the presentation basis; subspaces are
held in realified coordinates (re_1, im_1, ..., re_n, im_n) so real and
complex subspaces live in one lattice of RMatrix row spaces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .gaussq import C_I, C_ONE, C_ZERO, CNum, Factored, RMatrix, complexify_vector, kernel, realify_vector


class NotADerivation(ValueError):
    pass


class NotAnAutomorphism(ValueError):
    pass


class NotAnIdeal(ValueError):
    pass


class NotAHomomorphism(ValueError):
    pass


class NonExactExponential(ValueError):
    pass


class NotCharacteristic(ValueError):
    pass


class PreconditionViolation(ValueError):
    pass


def _czero_vec(n):
    return tuple(C_ZERO for _ in range(n))


class LieAlgebraPresentation:
    """dim, labels, structure constants and the real-form conjugation."""

    def __init__(self, dim, bracket_table, conj_matrix, labels=None, validate=True):
        self.dim = dim
        self.labels = list(labels) if labels else [f"b{k}" for k in range(dim)]
        # bracket_table: dict (i, j) -> CNum vector for i < j
        self.table = {}
        for (i, j), v in bracket_table.items():
            vec = tuple(CNum.of(x) for x in v)
            if i < j:
                self.table[(i, j)] = vec
            elif j < i:
                self.table[(j, i)] = tuple(-x for x in vec)
        self.conj_cols = tuple(
            tuple(CNum.of(conj_matrix[i][j]) for i in range(dim)) for j in range(dim)
        )
        if validate:
            self._validate()
        self._g0 = None
        self._killing = None

    # -- core algebra ------------------------------------------------------
    def basis_bracket(self, i, j):
        if i == j:
            return _czero_vec(self.dim)
        if i < j:
            return self.table.get((i, j), _czero_vec(self.dim))
        v = self.table.get((j, i), _czero_vec(self.dim))
        return tuple(-x for x in v)

    def bracket(self, x, y):
        n = self.dim
        out = [C_ZERO] * n
        for i in range(n):
            if not x[i]:
                continue
            for j in range(n):
                if not y[j]:
                    continue
                cij = self.basis_bracket(i, j)
                f = x[i] * y[j]
                for k in range(n):
                    if cij[k]:
                        out[k] = out[k] + f * cij[k]
        return tuple(out)

    def nu(self, v):
        """Antilinear conjugation nu(v) = N conj(v)."""
        n = self.dim
        out = [C_ZERO] * n
        for j in range(n):
            c = CNum.of(v[j]).conj()
            if not c:
                continue
            col = self.conj_cols[j]
            for i in range(n):
                if col[i]:
                    out[i] = out[i] + c * col[i]
        return tuple(out)

    def _validate(self):
        n = self.dim
        basis = [tuple(C_ONE if k == i else C_ZERO for k in range(n)) for i in range(n)]
        # Jacobi
        for i in range(n):
            for j in range(i + 1, n):
                bij = self.basis_bracket(i, j)
                for k in range(j + 1, n):
                    t1 = self.bracket(basis[i], self.basis_bracket(j, k))
                    t2 = self.bracket(basis[j], self.basis_bracket(k, i))
                    t3 = self.bracket(basis[k], bij)
                    if any(a + b + c for a, b, c in zip(t1, t2, t3)):
                        raise ValueError(f"Jacobi identity fails on basis triple {i},{j},{k}")
        # conjugation: involutive antilinear automorphism
        for i in range(n):
            if self.nu(self.nu(basis[i])) != basis[i]:
                raise ValueError("conjugation is not an involution")
        for i in range(n):
            for j in range(i + 1, n):
                lhs = self.nu(self.basis_bracket(i, j))
                rhs = self.bracket(self.nu(basis[i]), self.nu(basis[j]))
                if lhs != rhs:
                    raise ValueError("conjugation is not a Lie automorphism")

    def g0_subspace(self) -> RMatrix:
        """Fixed points of nu as a realified row space (real dimension n)."""
        if self._g0 is None:
            self._g0 = realified_eigenspace(self.dim, self.nu, C_ONE)
        return self._g0

    def g0_basis(self):
        """Fixed vectors as CNum tuples (a C-basis of g as well)."""
        return [complexify_vector(r) for r in self.g0_subspace().rows]

    def ad(self, x):
        """Complex matrix of ad(x) (columns = images of basis vectors)."""
        n = self.dim
        basis = [tuple(C_ONE if k == i else C_ZERO for k in range(n)) for i in range(n)]
        return [self.bracket(x, b) for b in basis]  # list of column vectors

    def killing(self, x, y):
        adx = self.ad(x)
        ady = self.ad(y)
        n = self.dim
        tot = C_ZERO
        for i in range(n):
            col = ady[i]
            for k in range(n):
                if col[k]:
                    tot = tot + adx[k][i] * col[k]
        return tot

    def to_json(self):
        entries = []
        for (i, j), vec in sorted(self.table.items()):
            for k, z in enumerate(vec):
                if z:
                    entries.append([i, j, k, str(z.re), str(z.im)])
        conj = [[[str(self.conj_cols[j][i].re), str(self.conj_cols[j][i].im)] for j in range(self.dim)] for i in range(self.dim)]
        return json.dumps({"dim": self.dim, "labels": self.labels, "c": entries, "conj": conj}, sort_keys=True)

    @staticmethod
    def from_json(text):
        data = json.loads(text)
        n = data["dim"]
        table = {}
        for i, j, k, re, im in data["c"]:
            vec = list(table.setdefault((i, j), [C_ZERO] * n))
            vec[k] = CNum(Fraction(re), Fraction(im))
            table[(i, j)] = vec
        conj = [[CNum(Fraction(data["conj"][i][j][0]), Fraction(data["conj"][i][j][1])) for j in range(n)] for i in range(n)]
        return LieAlgebraPresentation(n, table, conj, data.get("labels"))


def cspan(pres: LieAlgebraPresentation, vectors) -> RMatrix:
    """Complex span of CNum vectors as a realified row space."""
    rows = []
    for v in vectors:
        v = tuple(CNum.of(x) for x in v)
        rows.append(realify_vector(v))
        rows.append(realify_vector(tuple(C_I * x for x in v)))
    return RMatrix(rows) if rows else RMatrix.empty(2 * pres.dim)


def rspan(pres: LieAlgebraPresentation, vectors) -> RMatrix:
    rows = [realify_vector(tuple(CNum.of(x) for x in v)) for v in vectors]
    return RMatrix(rows) if rows else RMatrix.empty(2 * pres.dim)


def conj_space(pres: LieAlgebraPresentation, space: RMatrix) -> RMatrix:
    rows = [realify_vector(pres.nu(complexify_vector(r))) for r in space.rows]
    return RMatrix(rows) if rows else RMatrix.empty(2 * pres.dim)


def realified_eigenspace(n, apply, c) -> RMatrix:
    """{v : T v = c v} in realified coordinates, for an R-linear map T on
    CNum n-vectors given by apply: the kernel of T - c I, with columns the
    images of the 2n real unit vectors."""
    cols = []
    for i in range(2 * n):
        unit = [C_ZERO] * n
        unit[i // 2] = C_ONE if i % 2 == 0 else C_I
        img = apply(tuple(unit))
        cols.append(realify_vector(tuple(x - c * y for x, y in zip(img, unit))))
    basis = kernel([[col[t] for col in cols] for t in range(2 * n)], Fraction)
    return RMatrix(basis) if basis else RMatrix.empty(2 * n)


def bracket_spaces(pres: LieAlgebraPresentation, a: RMatrix, b: RMatrix) -> RMatrix:
    rows = []
    for ra in a.rows:
        va = complexify_vector(ra)
        for rb in b.rows:
            vb = complexify_vector(rb)
            rows.append(realify_vector(pres.bracket(va, vb)))
    rows = [r for r in rows if any(r)]
    return RMatrix(rows) if rows else RMatrix.empty(2 * pres.dim)


def is_subalgebra(pres, space: RMatrix) -> bool:
    return space.contains_space(bracket_spaces(pres, space, space))


@dataclass
class CRAlgebra:
    pres: LieAlgebraPresentation
    q: RMatrix = field(repr=False)

    def __post_init__(self):
        n = self.pres.dim
        # q must be a complex subspace closed under the bracket
        for r in self.q.rows:
            iv = realify_vector(tuple(C_I * x for x in complexify_vector(r)))
            if not self.q.contains(iv):
                raise ValueError("q is not a complex subspace")
        if not is_subalgebra(self.pres, self.q):
            raise ValueError("q is not closed under the bracket")

    @property
    def qbar(self) -> RMatrix:
        return conj_space(self.pres, self.q)

    def q_cap_qbar(self) -> RMatrix:
        return self.q.intersect(self.qbar)

    def q_plus_qbar(self) -> RMatrix:
        return self.q.sum(self.qbar)

    def isotropy(self) -> RMatrix:
        """i0 = q n g0 (realified)."""
        return self.q.intersect(self.pres.g0_subspace())


def cr_dim_codim(a: CRAlgebra) -> tuple[int, int]:
    qd = a.q.rank()
    cap = a.q_cap_qbar().rank()
    plus = a.q_plus_qbar().rank()
    crdim = (qd - cap) // 2
    crcodim = a.pres.dim - plus // 2
    return crdim, crcodim


def is_fundamental_cr(a: CRAlgebra) -> bool:
    """The subalgebra generated by q + qbar equals g."""
    v = a.q_plus_qbar()
    while True:
        nxt = v.sum(bracket_spaces(a.pres, v, v))
        if nxt.rank() == v.rank():
            break
        v = nxt
    return v.rank() == 2 * a.pres.dim


def is_levi_nondegenerate(a: CRAlgebra) -> bool:
    """{Z in q : ad(Z)(qbar) in q + qbar} equals q n qbar."""
    pres = a.pres
    qb = a.qbar.rows
    s = a.q_plus_qbar()
    deg = _solve_subspace_condition(
        pres,
        a.q,
        lambda v: [pres.bracket(v, complexify_vector(w)) for w in qb],
        s,
    )
    return deg == a.q_cap_qbar()


def _solve_subspace_condition(pres, domain: RMatrix, images_fn, target: RMatrix) -> RMatrix:
    """{v in domain : every vector of images_fn(v) lies in target}."""
    rows = domain.rows
    if not rows:
        return domain
    # unknowns: coefficients c_k over the domain basis (real); one condition
    # per image m and coordinate: sum_k c_k residue(image m of row k) = 0
    residues = [[target.residue(realify_vector(img)) for img in images_fn(complexify_vector(r))] for r in rows]
    nimg = len(residues[0])
    n2 = 2 * pres.dim
    mat_rows = [[res[m][coord] for res in residues] for m in range(nimg) for coord in range(n2)]
    ker = kernel(mat_rows, Fraction) if mat_rows else [
        tuple(Fraction(1) if i == k else Fraction(0) for i in range(len(rows))) for k in range(len(rows))
    ]
    out_rows = []
    for coeffs in ker:
        vec = [Fraction(0)] * n2
        for k, c in enumerate(coeffs):
            if c:
                for t in range(n2):
                    vec[t] += c * rows[k][t]
        if any(vec):
            out_rows.append(vec)
    return RMatrix(out_rows) if out_rows else RMatrix.empty(n2)


def largest_ideal_in(a: CRAlgebra, space: RMatrix | None = None) -> RMatrix:
    """Largest ideal of g0 contained in the given real subspace (default i0),
    by the descending fixed point a_{k+1} = {X in a_k : [g0, X] in a_k}."""
    pres = a.pres
    g0 = pres.g0_subspace()
    cur = a.isotropy() if space is None else space
    gens = [complexify_vector(r) for r in g0.rows]
    while True:
        nxt = _solve_subspace_condition(pres, cur, lambda v: [pres.bracket(g, v) for g in gens], cur)
        if nxt.rank() == cur.rank():
            return nxt
        cur = nxt


def is_effective(a: CRAlgebra) -> bool:
    return largest_ideal_in(a).rank() == 0


def ideal_closure(pres: LieAlgebraPresentation, seed: RMatrix) -> RMatrix:
    """Smallest ideal of g0 containing the (real) seed subspace."""
    g0 = pres.g0_subspace()
    gens = [complexify_vector(r) for r in g0.rows]
    cur = seed
    while True:
        nxt = cur.sum(
            RMatrix(
                [realify_vector(pres.bracket(g, complexify_vector(r))) for g in gens for r in cur.rows]
            )
            if cur.rows
            else cur
        )
        if nxt.rank() == cur.rank():
            return nxt
        cur = nxt


def _g0_coords_solver(pres: LieAlgebraPresentation):
    """Express complex vectors in the C-basis given by the g0 basis."""
    basis = pres.g0_basis()
    return Factored([[b[i] for b in basis] for i in range(pres.dim)], CNum.of).solve


def scalar_levi_form(a: CRAlgebra, xi) -> list[list[CNum]]:
    """Hermitian matrix [-i xi([Z_a, conj Z_b])] on a basis of q mod q n qbar.

    xi: rational coefficients on the g0 basis (a real covector), required to
    annihilate (q + qbar) n g0.
    """
    pres = a.pres
    xi = [Fraction(x) for x in xi]
    g0 = pres.g0_subspace()
    char_space = a.q_plus_qbar().intersect(g0)
    coords = _g0_coords_solver(pres)
    def xi_c(v):
        c = coords(v)
        tot = C_ZERO
        for w, z in zip(xi, c):
            tot = tot + CNum.of(w) * z
        return tot

    for r in char_space.rows:
        if xi_c(complexify_vector(r)):
            raise NotCharacteristic("xi does not annihilate (q+qbar) n g0")
    cap = a.q_cap_qbar()
    zs = []
    probe = cap
    for r in a.q.rows:
        if not probe.contains(r):
            v = complexify_vector(r)
            # keep complex-independence: also absorb i*v
            probe = probe.sum(cspan(pres, [v]))
            zs.append(v)
    m = []
    for za in zs:
        row = []
        for zb in zs:
            val = CNum(Fraction(0), Fraction(-1)) * xi_c(pres.bracket(za, pres.nu(zb)))
            row.append(val)
        m.append(row)
    return m


def vector_levi_form(a: CRAlgebra, z) -> tuple[Fraction, ...]:
    """Residue of i[conj z, z] modulo (q + qbar) n g0, in realified
    coordinates (zero tuple means the trivial class)."""
    pres = a.pres
    z = tuple(CNum.of(x) for x in z)
    v = pres.bracket(pres.nu(z), z)
    v = tuple(C_I * x for x in v)
    cut = a.q_plus_qbar().intersect(pres.g0_subspace())
    return tuple(cut.residue(realify_vector(v)))


def _check_derivation(pres, jmat):
    """jmat: rational matrix on g0-basis coordinates; returns the complex
    matrix map on presentation coordinates."""
    basis = pres.g0_basis()
    n = len(basis)
    imgs = []
    for j in range(n):
        img = [C_ZERO] * pres.dim
        for i in range(n):
            f = CNum.of(Fraction(jmat[i][j]))
            if f:
                for t in range(pres.dim):
                    img[t] = img[t] + f * basis[i][t]
        imgs.append(tuple(img))
    coords = _g0_coords_solver(pres)
    def apply(v):
        c = coords(v)
        out = [C_ZERO] * pres.dim
        for j, z in enumerate(c):
            if z:
                for t in range(pres.dim):
                    out[t] = out[t] + z * imgs[j][t]
        return tuple(out)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = apply(pres.bracket(basis[i], basis[j]))
            rhs1 = pres.bracket(apply(basis[i]), basis[j])
            rhs2 = pres.bracket(basis[i], apply(basis[j]))
            if lhs != tuple(x + y for x, y in zip(rhs1, rhs2)):
                raise NotADerivation(f"Leibniz fails on g0 basis pair {i},{j}")
    return apply


def check_j_property(a: CRAlgebra, jmat) -> bool:
    """J(i0) in i0 and X + i J(X) in q; verified in the complexified form
    J(q) in q, Z - i J(Z) in q n qbar on a basis of q."""
    apply_j = _check_derivation(a.pres, jmat)
    cap = a.q_cap_qbar()
    for r in a.q.rows:
        v = complexify_vector(r)
        jv = apply_j(v)
        if not a.q.contains(realify_vector(jv)):
            return False
        w = tuple(x - C_I * y for x, y in zip(v, jv))
        if not cap.contains(realify_vector(w)):
            return False
    return True


def _check_automorphism(pres, apply):
    basis = [tuple(C_ONE if k == i else C_ZERO for k in range(pres.dim)) for i in range(pres.dim)]
    for i in range(pres.dim):
        for j in range(i + 1, pres.dim):
            lhs = apply(pres.basis_bracket(i, j))
            rhs = pres.bracket(apply(basis[i]), apply(basis[j]))
            if lhs != rhs:
                raise NotAnAutomorphism(f"fails on basis pair {i},{j}")


def exact_exponential(pres: LieAlgebraPresentation, jmat):
    """Upsilon = exp(pi J / 2) for a semisimple derivation with spectrum in
    iZ: acts as i^k on the eigenspace of ik; NonExactExponential otherwise."""
    apply_j = _check_derivation(pres, jmat)
    n = pres.dim
    basis = [tuple(C_ONE if k == i else C_ZERO for k in range(n)) for i in range(n)]
    jcols = [apply_j(b) for b in basis]
    bound = 0
    for col in jcols:
        s = sum(abs(x.re) + abs(x.im) for x in col)
        bound = max(bound, int(s) + 1)
    pieces = []
    total = RMatrix.empty(2 * n)
    for k in range(-bound, bound + 1):
        space = realified_eigenspace(n, apply_j, CNum(Fraction(0), Fraction(k)))
        if space.rank():
            pieces.append((k, space))
            total = total.sum(space)
    if total.rank() != 2 * n:
        raise NonExactExponential("derivation is not semisimple with spectrum in iZ")
    ipow = {0: C_ONE, 1: C_I, 2: -C_ONE, 3: -C_I}
    # express v in the union of the eigenbases, factored once
    eigvecs = [(k, r) for k, space in pieces for r in space.rows]
    eigen = Factored([[r[i] for _, r in eigvecs] for i in range(2 * n)], Fraction)

    def apply_u(v):
        sol = eigen.solve(realify_vector(tuple(CNum.of(x) for x in v)))
        if sol is None:
            raise NonExactExponential("eigenbasis does not span")
        out = [C_ZERO] * n
        for c, (k, r) in zip(sol, eigvecs):
            if c:
                comp = complexify_vector(r)
                f = ipow[k % 4] * CNum.of(c)
                for t in range(n):
                    out[t] = out[t] + f * comp[t]
        return tuple(out)

    return apply_u


def check_weak_j(a: CRAlgebra, upsilon=None, jmat=None) -> bool:
    """Upsilon(q) = q and Z - i Upsilon(Z) in q n qbar.

    Either an automorphism matrix (CNum, presentation coordinates) or a
    derivation J with iZ spectrum (then Upsilon = exp(pi J/2) exactly)."""
    pres = a.pres
    if upsilon is not None:
        cols = [tuple(CNum.of(upsilon[i][j]) for i in range(pres.dim)) for j in range(pres.dim)]
        def apply_u(v):
            out = [C_ZERO] * pres.dim
            for j, z in enumerate(v):
                z = CNum.of(z)
                if z:
                    for t in range(pres.dim):
                        out[t] = out[t] + z * cols[j][t]
            return tuple(out)
        _check_automorphism(pres, apply_u)
    elif jmat is not None:
        apply_u = exact_exponential(pres, jmat)
        _check_automorphism(pres, apply_u)
    else:
        raise ValueError("need upsilon or jmat")
    img = RMatrix([realify_vector(apply_u(complexify_vector(r))) for r in a.q.rows])
    if img != a.q:
        return False
    cap = a.q_cap_qbar()
    for r in a.q.rows:
        v = complexify_vector(r)
        w = tuple(x - C_I * y for x, y in zip(v, apply_u(v)))
        if not cap.contains(realify_vector(w)):
            return False
    return True


def _psd(matrix_rows) -> tuple[bool, RMatrix]:
    """(is positive semidefinite, radical) for a symmetric rational matrix."""
    n = len(matrix_rows)
    a = [[Fraction(x) for x in row] for row in matrix_rows]
    basis = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    rad_rows = []
    used = [False] * n

    def form(u, v):
        return sum(u[i] * a[i][j] * v[j] for i in range(n) for j in range(n))

    vecs = [row[:] for row in basis]
    pos = []
    while vecs:
        v = vecs.pop(0)
        q = form(v, v)
        if q < 0:
            return False, RMatrix.empty(n)
        if q == 0:
            # must pair to zero with everything for PSD; check later
            rad_rows.append(v)
            continue
        pos.append(v)
        vecs = [[w[i] - form(w, v) / q * v[i] for i in range(n)] for w in vecs]
    for v in rad_rows:
        for u in pos + rad_rows:
            if form(v, u) != 0:
                return False, RMatrix.empty(n)
    rad = RMatrix([r for r in rad_rows if any(r)]) if rad_rows else RMatrix.empty(n)
    return True, rad


def check_cr_symmetric(a: CRAlgebra, lam) -> dict:
    """All clauses of the CR-symmetry definition for an involution lambda
    (CNum matrix in presentation coordinates), plus the induced Z2-gradation
    compatibility, the bracket corollary, and almost-compactness of i0."""
    pres = a.pres
    n = pres.dim
    cols = [tuple(CNum.of(lam[i][j]) for i in range(n)) for j in range(n)]

    def apply_l(v):
        out = [C_ZERO] * n
        for j, z in enumerate(v):
            z = CNum.of(z)
            if z:
                for t in range(n):
                    out[t] = out[t] + z * cols[j][t]
        return tuple(out)

    basis = [tuple(C_ONE if k == i else C_ZERO for k in range(n)) for i in range(n)]
    report = {}
    report["involution"] = all(apply_l(apply_l(b)) == b for b in basis)
    try:
        _check_automorphism(pres, apply_l)
        report["automorphism"] = True
    except NotAnAutomorphism:
        report["automorphism"] = False
    g0 = pres.g0_subspace()
    img_g0 = RMatrix([realify_vector(apply_l(complexify_vector(r))) for r in g0.rows])
    report["preserves_g0"] = img_g0 == g0
    img_q = RMatrix([realify_vector(apply_l(complexify_vector(r))) for r in a.q.rows])
    report["preserves_q"] = img_q == a.q
    # ker(Id - lambda) inside the subalgebra generated by q + qbar
    qnat = a.q_plus_qbar()
    while True:
        nxt = qnat.sum(bracket_spaces(pres, qnat, qnat))
        if nxt.rank() == qnat.rank():
            break
        qnat = nxt
    fixed = realified_eigenspace(n, apply_l, C_ONE)
    report["fixed_in_qnat"] = qnat.contains_space(fixed)
    cap = a.q_cap_qbar()
    ok = True
    for r in a.q.rows:
        v = complexify_vector(r)
        w = tuple(x + y for x, y in zip(v, apply_l(v)))
        if not cap.contains(realify_vector(w)):
            ok = False
    report["z_plus_lz_in_cap"] = ok
    # gradation compatibility: q and g0 split into (+1) and (-1) eigenparts
    minus = realified_eigenspace(n, apply_l, -C_ONE)
    # bracket corollary: the odd part of q brackets into q n qbar (the
    # clause Z + lambda(Z) in cap makes the even part of q sit in cap, so
    # this is the content of the printed [Z1, Z2] in q n qbar)
    q_odd = a.q.intersect(minus)
    ok = True
    for r1 in q_odd.rows:
        for r2 in q_odd.rows:
            w = pres.bracket(complexify_vector(r1), complexify_vector(r2))
            if not cap.contains(realify_vector(w)):
                ok = False
    report["brackets_in_cap"] = ok
    report["q_splits"] = (
        a.q.intersect(fixed).rank() + a.q.intersect(minus).rank() == a.q.rank()
    )
    report["g0_splits"] = (
        g0.intersect(fixed).rank() + g0.intersect(minus).rank() == g0.rank()
    )
    # almost-compactness of i0: Killing form psd-negative with radical in the
    # radical of the ambient Killing form
    i0 = a.isotropy()
    ivecs = [complexify_vector(r) for r in i0.rows]
    k = [[-_re(pres.killing(u, v)) for v in ivecs] for u in ivecs]
    psd, rad = _psd(k)
    report["killing_negative_semidefinite"] = psd
    if psd and rad.rank():
        g0vecs = [complexify_vector(r) for r in g0.rows]
        ok = True
        for rrow in rad.rows:
            x = [C_ZERO] * n
            for c, iv in zip(rrow, ivecs):
                if c:
                    for t in range(n):
                        x[t] = x[t] + CNum.of(c) * iv[t]
            for gv in g0vecs:
                if pres.killing(tuple(x), gv):
                    ok = False
        report["radical_in_ambient_radical"] = ok
    else:
        report["radical_in_ambient_radical"] = True
    report["ok"] = all(v for k_, v in report.items() if k_ != "ok")
    return report


def _re(z: CNum) -> Fraction:
    if z.im != 0:
        raise ValueError("Killing form value is not real on real vectors")
    return z.re


def fibration_compatible(a: CRAlgebra, ideal_rows: RMatrix) -> bool:
    """(q n qbar) + a == (q + a) n (qbar + a) for the complexified ideal."""
    pres = a.pres
    g0 = pres.g0_subspace()
    if not g0.contains_space(ideal_rows):
        raise NotAnIdeal("subspace is not contained in g0")
    br = bracket_spaces(pres, g0, ideal_rows)
    if not ideal_rows.contains_space(br):
        raise NotAnIdeal("subspace is not an ideal of g0")
    ac = ideal_rows.sum(
        RMatrix([realify_vector(tuple(C_I * x for x in complexify_vector(r))) for r in ideal_rows.rows])
        if ideal_rows.rows
        else ideal_rows
    )
    lhs = a.q_cap_qbar().sum(ac)
    rhs = a.q.sum(ac).intersect(a.qbar.sum(ac))
    return lhs == rhs


def weak_j_implies_compatible(a: CRAlgebra, ideal_rows: RMatrix, jmat=None, upsilon=None) -> bool:
    """Test-harness operation: for an Upsilon-invariant ideal and a weak-J
    structure, the fibration-compatibility identity must hold; returns the
    verification outcome of fibration_compatible after checking the
    hypotheses."""
    pres = a.pres
    if upsilon is not None or jmat is not None:
        if not check_weak_j(a, upsilon=upsilon, jmat=jmat):
            raise PreconditionViolation("structure does not have the weak-J property")
        apply_u = exact_exponential(pres, jmat) if jmat is not None else None
        if apply_u is not None and ideal_rows.rows:
            img = RMatrix([realify_vector(apply_u(complexify_vector(r))) for r in ideal_rows.rows])
            if img != ideal_rows:
                raise PreconditionViolation("ideal is not Upsilon-invariant")
    return fibration_compatible(a, ideal_rows)


def induced_base_fiber(a: CRAlgebra, ideal_rows: RMatrix):
    """Base (g0, q + a) on the same presentation and the fiber presentation
    (a0, q n a) on the complexified ideal."""
    pres = a.pres
    ac = ideal_rows.sum(
        RMatrix([realify_vector(tuple(C_I * x for x in complexify_vector(r))) for r in ideal_rows.rows])
        if ideal_rows.rows
        else ideal_rows
    )
    base = CRAlgebra(pres, a.q.sum(ac))
    sub_pres, embed, project = sub_presentation(pres, ac)
    fib_q_rows = [project(complexify_vector(r)) for r in a.q.intersect(ac).rows]
    fib_q = RMatrix([realify_vector(v) for v in fib_q_rows]) if fib_q_rows else RMatrix.empty(2 * sub_pres.dim)
    fiber = CRAlgebra(sub_pres, fib_q)
    return base, fiber


def sub_presentation(pres: LieAlgebraPresentation, space: RMatrix):
    """Presentation of a nu-stable complex subalgebra given by its realified
    row space; returns (presentation, embed, project)."""
    # complex basis cb: the complexified rows that are independent of the
    # earlier ones, i.e. the pivot columns of the matrix having them as columns
    vecs = [complexify_vector(r) for r in space.rows]
    span = Factored([[v[i] for v in vecs] for i in range(pres.dim)], CNum.of)
    cb = [vecs[p] for p in span.pivots]
    m = len(cb)

    def project(v):
        sol = span.solve(v)
        if sol is None:
            raise ValueError("vector outside the subalgebra")
        return tuple(sol[p] for p in span.pivots)

    def embed(c):
        out = [C_ZERO] * pres.dim
        for j, z in enumerate(c):
            z = CNum.of(z)
            if z:
                for t in range(pres.dim):
                    out[t] = out[t] + z * cb[j][t]
        return tuple(out)

    table = {}
    for i in range(m):
        for j in range(i + 1, m):
            table[(i, j)] = project(pres.bracket(cb[i], cb[j]))
    conj_cols = [project(pres.nu(cb[j])) for j in range(m)]
    conj_matrix = [[conj_cols[j][i] for j in range(m)] for i in range(m)]
    sub = LieAlgebraPresentation(m, table, conj_matrix, validate=False)
    return sub, embed, project


def anticanonical(a: CRAlgebra) -> dict:
    """Real normalizer a0 = N_{g0}(q), q' = q + C a0, with the verification
    items of the anticanonical fibration."""
    pres = a.pres
    g0 = pres.g0_subspace()
    qrows = [complexify_vector(r) for r in a.q.rows]
    a0 = _solve_subspace_condition(pres, g0, lambda v: [pres.bracket(v, w) for w in qrows], a.q)
    ac = a0.sum(
        RMatrix([realify_vector(tuple(C_I * x for x in complexify_vector(r))) for r in a0.rows])
        if a0.rows
        else a0
    )
    qprime = a.q.sum(ac)
    report = {"a0": a0, "q_prime": qprime}
    report["q_in_qprime"] = qprime.contains_space(a.q)
    report["qprime_cap_g0_is_a0"] = qprime.intersect(g0) == a0
    report["qprime_subalgebra"] = is_subalgebra(pres, qprime)
    qpb = conj_space(pres, qprime)
    cap_q_qpb = a.q.intersect(qpb)
    report["a_cap_q_is_q_cap_qprimebar"] = ac.intersect(a.q) == cap_q_qpb
    lf = bracket_spaces(pres, cap_q_qpb, a.qbar.intersect(qprime))
    report["levi_flat_fiber"] = a.q_cap_qbar().contains_space(lf)
    # item (5) equivalences
    i = a0.rank() == g0.rank()
    ii = qprime.rank() == 2 * pres.dim
    br = bracket_spaces(pres, RMatrix([realify_vector(b) for b in _std_basis(pres)]), a.q)
    iii = a.q.contains_space(br)
    iv = ideal_closure(pres, a0) == a0
    report["item5"] = {"a0_is_g0": i, "qprime_is_g": ii, "q_is_ideal": iii, "a0_is_ideal": iv}
    report["item5_consistent"] = (i == ii == iii) and (not i or iv)
    report["ok"] = all(
        report[k]
        for k in (
            "q_in_qprime",
            "qprime_cap_g0_is_a0",
            "qprime_subalgebra",
            "a_cap_q_is_q_cap_qprimebar",
            "levi_flat_fiber",
            "item5_consistent",
        )
    )
    return report


def _std_basis(pres):
    return [tuple(C_ONE if k == i else C_ZERO for k in range(pres.dim)) for i in range(pres.dim)]


def closure_extension(a: CRAlgebra, i0_prime: RMatrix) -> CRAlgebra:
    """Extended CR algebra (g0, q + C i0') for a caller-supplied i0' with
    i0 in i0', [i0', i0'] in i0, [i0', q] in q; verifies the equivariant map
    is an algebraic CR submersion with Levi-flat fiber."""
    pres = a.pres
    i0 = a.isotropy()
    if not i0_prime.contains_space(i0):
        raise PreconditionViolation("i0 not contained in i0'")
    if not i0.contains_space(bracket_spaces(pres, i0_prime, i0_prime)):
        raise PreconditionViolation("[i0', i0'] not contained in i0")
    if not a.q.contains_space(bracket_spaces(pres, i0_prime, a.q)):
        raise PreconditionViolation("[i0', q] not contained in q")
    ac = i0_prime.sum(
        RMatrix([realify_vector(tuple(C_I * x for x in complexify_vector(r))) for r in i0_prime.rows])
        if i0_prime.rows
        else i0_prime
    )
    qprime = a.q.sum(ac)
    out = CRAlgebra(pres, qprime)
    # submersion: q' = q + i' is a subalgebra (guaranteed by construction
    # check in CRAlgebra) and phi(q) + q' n qbar' = q' trivially for phi = id
    qpb = conj_space(pres, qprime)
    lf = bracket_spaces(pres, a.q.intersect(qpb), a.qbar.intersect(qprime))
    if not a.q_cap_qbar().contains_space(lf):
        raise PreconditionViolation("fiber is not Levi-flat")
    return out


def morphism_classify(src: CRAlgebra, tgt: CRAlgebra, phi0) -> dict:
    """Classify a Lie algebra homomorphism phi0 (rational matrix from src g0
    coordinates to tgt g0 coordinates) as a CR-algebras morphism."""
    sp, tp = src.pres, tgt.pres
    sbasis = sp.g0_basis()
    tbasis = tp.g0_basis()
    imgs = []
    for j in range(len(sbasis)):
        v = [C_ZERO] * tp.dim
        for i in range(len(tbasis)):
            c = Fraction(phi0[i][j])
            if c:
                for t in range(tp.dim):
                    v[t] = v[t] + CNum.of(c) * tbasis[i][t]
        imgs.append(tuple(v))
    coords = _g0_coords_solver(sp)

    def apply(v):
        c = coords(v)
        out = [C_ZERO] * tp.dim
        for j, z in enumerate(c):
            if z:
                for t in range(tp.dim):
                    out[t] = out[t] + z * imgs[j][t]
        return tuple(out)

    for i in range(len(sbasis)):
        for j in range(i + 1, len(sbasis)):
            if apply(sp.bracket(sbasis[i], sbasis[j])) != tp.bracket(apply(sbasis[i]), apply(sbasis[j])):
                raise NotAHomomorphism(f"fails on g0 basis pair {i},{j}")

    def push(space: RMatrix) -> RMatrix:
        rows = [realify_vector(apply(complexify_vector(r))) for r in space.rows]
        rows = [r for r in rows if any(r)]
        return RMatrix(rows) if rows else RMatrix.empty(2 * tp.dim)

    def pull(space: RMatrix) -> RMatrix:
        # {v : phi(v) in space}
        n2s, n2t = 2 * sp.dim, 2 * tp.dim
        cols = []
        for i in range(n2s):
            cv = [C_ZERO] * sp.dim
            cv[i // 2] = C_ONE if i % 2 == 0 else C_I
            cols.append(realify_vector(apply(tuple(cv))))
        wrows = list(space.rows)
        mat = []
        for t in range(n2t):
            mat.append([cols[c][t] for c in range(n2s)] + [-Fraction(w[t]) for w in wrows])
        vecs = [k[:n2s] for k in kernel(mat, Fraction)]
        vecs = [v for v in vecs if any(v)]
        return RMatrix(vecs) if vecs else RMatrix.empty(n2s)

    tcap = tgt.q_cap_qbar()
    scap = src.q_cap_qbar()
    is_morphism = tgt.q.contains_space(push(src.q))
    immersion = (pull(tcap) == scap) and (pull(tgt.q) == src.q)
    full_rows = []
    for b in _std_basis(sp):
        full_rows.append(realify_vector(b))
        full_rows.append(realify_vector(tuple(C_I * x for x in b)))
    full = RMatrix(full_rows)
    submersion = (
        push(full).sum(tcap).rank() == 2 * tp.dim
        and push(src.q).sum(tcap) == tgt.q
    )
    if not is_morphism:
        kind = "NotAMorphism"
    elif immersion and submersion:
        kind = "LocalIsomorphism"
    elif immersion:
        kind = "Immersion"
    elif submersion:
        kind = "Submersion"
    else:
        kind = "Morphism"
    # fiber CR algebra (g0'' = phi0^{-1}(q' n g0'), q'' = q n phi^{-1}(q' n qbar'))
    g0pp = pull(tgt.q.intersect(tp.g0_subspace())).intersect(sp.g0_subspace())
    qpp = src.q.intersect(pull(tcap))
    return {"kind": kind, "fiber_g0": g0pp, "fiber_q": qpp}
