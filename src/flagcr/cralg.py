"""Structure-constants CR algebras over exact Gaussian rationals.

A presentation carries a complex Lie algebra g (a sparse table of its
nonzero structure constants in one basis), together with an antilinear involutive automorphism nu whose
fixed set is the real form g0.  A CR algebra is such a presentation plus a
complex subalgebra q; all predicates, Levi forms, J / weak-J / CR-symmetry
verification, fibration compatibility and the anticanonical construction are
exact subspace computations.

Elements are CNum coordinate tuples in the presentation basis, and every
subspace is a CMatrix row space of g = C (x) g0.  A real subspace V of g0 is
held as its complexification V + iV, a nu-stable complex subspace of complex
rank dim_R V: i0 = q n g0 is q n qbar, (q + qbar) n g0 is q + qbar, g0 is all
of g, and a real condition {v in g0 : P(v)} with P C-linear is W n nu(W) for
W = {v in g : P(v)}.  Real vectors are read off such a space by real_points;
g0_basis() is the one realified row space of the module.

Names that no CLI op reaches state a notion or claim of the paper:
check_j_property, check_weak_j and check_cr_symmetric verify the J, weak-J
and CR-symmetric structures that a combinatorial witness transfers to a flag
preset (the benchmark's cr workload runs the first and the last);
vector_levi_form is the vector-valued Levi form; closure_extension is the
extension (g0, q + C i0') of the canonical fibrations; morphism_classify
sorts a morphism into immersion, submersion and local isomorphism;
weak_j_implies_compatible states that a weak-J structure makes every
Upsilon-invariant ideal give a compatible fibration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .gaussq import C_I, C_ONE, C_ZERO, CMatrix, CNum, Factored, RMatrix, _insert, _rref, complexify_vector, kernel, realify_vector


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


def _std_basis(n):
    """The unit vectors of C^n as CNum tuples."""
    return [tuple(C_ONE if k == i else C_ZERO for k in range(n)) for i in range(n)]


def _apply(cols, v, n):
    """sum_j v[j] cols[j] as a CNum n-vector, skipping the zero coordinates
    of v and of the columns: every linear map of this module is applied here."""
    out = [C_ZERO] * n
    for z, col in zip(v, cols):
        if z:
            z = CNum.of(z)
            for t, c in enumerate(col):
                if c:
                    out[t] = out[t] + z * c
    return tuple(out)


def _matrix_map(m, n):
    """v -> M v for the n x n matrix M given by its rows."""
    cols = [tuple(CNum.of(m[i][j]) for i in range(n)) for j in range(n)]
    return lambda v: _apply(cols, v, n)


def _preserves_bracket(src, tgt, apply, basis, error):
    """apply([u, v]) = [apply(u), apply(v)] on every pair of the basis (of
    src); raises error naming the first pair where it fails."""
    imgs = [apply(b) for b in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if apply(src.bracket(basis[i], basis[j])) != tgt.bracket(imgs[i], imgs[j]):
                raise error(f"fails on basis pair {i},{j}")


class LieAlgebraPresentation:
    """dim, labels, structure constants and the real-form conjugation.

    ``table`` maps (i, j) to pairs (k, c) with [b_i, b_j] = sum of c b_k.  Only
    the nonzero constants are stored, under i < j: a j < i key is stored
    negated, and entries for one coordinate add up.  ``conj`` is the matrix
    of nu by rows.  Every presentation is checked on construction: the Jacobi
    identity on every basis triple, and nu an involutive antilinear
    automorphism."""

    def __init__(self, dim, table, conj, labels=None):
        self.dim = dim
        self.labels = list(labels) if labels else [f"b{k}" for k in range(dim)]
        rows = {}
        for (i, j), pairs in table.items():
            for k, c in pairs:
                if not all(0 <= t < dim for t in (i, j, k)):
                    raise ValueError(f"structure constant ({i}, {j}) -> {k}: index outside 0..{dim - 1}")
                if i == j:
                    raise ValueError(f"structure constant ({i}, {j}) -> {k}: i = j, but [b_i, b_i] = 0")
                row = rows.setdefault((min(i, j), max(i, j)), {})
                row[k] = row.get(k, C_ZERO) + (CNum.of(c) if i < j else -CNum.of(c))
        self.table = {}
        for key, row in sorted(rows.items()):
            if pairs := tuple((k, c) for k, c in sorted(row.items()) if c):
                self.table[key] = pairs
        if len(conj) != dim or any(len(row) != dim for row in conj):
            raise ValueError(f"conj must be a {dim} x {dim} matrix")
        self.conj_cols = tuple(tuple(CNum.of(conj[i][j]) for i in range(dim)) for j in range(dim))
        self._validate()
        self._g0_basis = None
        self._g0_coords = None
        self._killing = None

    # -- core algebra ------------------------------------------------------
    def bracket(self, x, y):
        table = self.table
        out = [C_ZERO] * self.dim
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if not a:
                continue
            for j, b in ys:
                pairs = table.get((i, j) if i < j else (j, i))
                if pairs:
                    f = a * b if i < j else -(a * b)
                    for k, c in pairs:
                        out[k] = out[k] + f * c
        return tuple(out)

    def nu(self, v):
        """Antilinear conjugation nu(v) = N conj(v)."""
        return _apply(self.conj_cols, [CNum.of(z).conj() for z in v], self.dim)

    def _validate(self):
        n, table = self.dim, self.table
        # Jacobi: [b_i, [b_j, b_k]] - [b_j, [b_i, b_k]] + [b_k, [b_i, b_j]] = 0,
        # summed over the stored entries of the inner and the outer bracket
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = {}
                    for a, p, q, sign in ((i, j, k, 1), (j, i, k, -1), (k, i, j, 1)):
                        for m, c in table.get((p, q), ()):
                            f = c if (a < m) == (sign > 0) else -c
                            for t, d in table.get((min(a, m), max(a, m)), ()):
                                acc[t] = acc.get(t, C_ZERO) + f * d
                    if any(acc.values()):
                        raise ValueError(f"Jacobi identity fails on basis triple {i},{j},{k}")
        basis = _std_basis(n)
        if any(self.nu(self.nu(b)) != b for b in basis):
            raise ValueError("conjugation is not an involution")
        _preserves_bracket(self, self, self.nu, basis, lambda m: ValueError(f"conjugation is not a Lie automorphism: {m}"))

    def g0_basis(self):
        """The fixed vectors of nu (a C-basis of g as well) as CNum tuples: the
        rows of the reduced echelon form of g0 in realified coordinates
        (re_1, im_1, ..., re_n, im_n), in which --xi and J are written."""
        if self._g0_basis is None:
            real = RMatrix([realify_vector(v) for v in real_points(self, full_space(self))])
            self._g0_basis = [complexify_vector(r) for r in real.rows]
        return self._g0_basis

    def g0_coords(self, v):
        """Coordinates in the C-basis g0_basis(), factored once per presentation."""
        if self._g0_coords is None:
            basis = self.g0_basis()
            self._g0_coords = Factored([[b[i] for b in basis] for i in range(self.dim)], CNum.of)
        return self._g0_coords.solve(v)

    def killing(self, x, y):
        """The Killing form tr(ad x ad y) = sum of x_i K[i][j] y_j over the
        Gram matrix K of the basis, built on first use."""
        if self._killing is None:
            self._killing = self._killing_gram()
        ys = [(j, b) for j, b in enumerate(y) if b]
        tot = C_ZERO
        for i, a in enumerate(x):
            if a:
                row = self._killing[i]
                for j, b in ys:
                    if row[j]:
                        tot = tot + a * row[j] * b
        return tot

    def _killing_gram(self):
        """K[i][j] = tr(ad b_i ad b_j) = sum over k, l of c^k_{il} c^l_{jk},
        read off the stored structure constants."""
        n = self.dim
        # ad[i][(k, l)]: the coefficient of b_k in [b_i, b_l]
        ad = [{} for _ in range(n)]
        for (i, j), pairs in self.table.items():
            for k, c in pairs:
                ad[i][(k, j)] = c
                ad[j][(k, i)] = -c
        gram = [[C_ZERO] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                t = C_ZERO
                for (k, l), c in ad[i].items():
                    if d := ad[j].get((l, k)):
                        t = t + c * d
                gram[i][j] = gram[j][i] = t
        return gram

    def to_json(self):
        entries = [[i, j, k, str(c.re), str(c.im)] for (i, j), pairs in sorted(self.table.items()) for k, c in pairs]
        conj = [[[str(self.conj_cols[j][i].re), str(self.conj_cols[j][i].im)] for j in range(self.dim)] for i in range(self.dim)]
        return json.dumps({"dim": self.dim, "labels": self.labels, "c": entries, "conj": conj}, sort_keys=True)

    @staticmethod
    def from_json(text):
        """Inverse of to_json; malformed input raises ValueError naming the
        part at fault."""
        data = json.loads(text)
        if not isinstance(data, dict) or not {"dim", "c", "conj"} <= data.keys():
            raise ValueError("expected a JSON object with keys dim, c and conj")
        n, entries, conj = data["dim"], data["c"], data["conj"]
        if not (type(n) is int and n >= 0):
            raise ValueError(f"dim must be a non-negative integer, got {n!r}")
        if not (isinstance(entries, list) and isinstance(conj, list) and all(isinstance(r, list) for r in conj)):
            raise ValueError("c must be a list of entries and conj a list of rows")
        table = {}
        for e in entries:
            if not (isinstance(e, list) and len(e) == 5 and all(type(t) is int for t in e[:3])):
                raise ValueError(f"structure constant {e!r} is not [i, j, k, re, im] with integer i, j, k")
            table.setdefault((e[0], e[1]), []).append((e[2], CNum.from_pair(e[3:], f"structure constant {e!r}")))
        conj = [[CNum.from_pair(z, f"conj[{i}][{j}]") for j, z in enumerate(row)] for i, row in enumerate(conj)]
        labels = data.get("labels")
        if labels is not None and not (isinstance(labels, list) and len(labels) == n):
            raise ValueError(f"labels must be a list of {n} names")
        return LieAlgebraPresentation(n, table, conj, labels)


def _span(n, rows) -> CMatrix:
    """Row space of the nonzero rows, of width n also when there are none:
    every subspace this module builds is made here."""
    rows = [r for r in rows if any(r)]
    return CMatrix(rows) if rows else CMatrix.empty(n)


def _image(space: CMatrix, apply, dim) -> CMatrix:
    """The image of a space under a C-linear or antilinear map into CNum
    dim-vectors: the span of the images of its rows."""
    return _span(dim, (apply(r) for r in space.rows))


def _preimage(domain: CMatrix, images_fn, target: CMatrix) -> CMatrix:
    """{v in domain : every vector of images_fn(v) lies in target}, for a
    C-linear images_fn."""
    rows = domain.rows
    # unknowns: coefficients c_k over the domain basis; one condition per
    # image m and coordinate: sum_k c_k residue(image m of row k) = 0
    residues = [[target.residue(img) for img in images_fn(r)] for r in rows]
    n_images = len(residues[0]) if rows else 0
    mat_rows = [[res[m][t] for res in residues] for m in range(n_images) for t in range(target.ncols)]
    if not mat_rows:
        return domain
    return _span(domain.ncols, (_apply(rows, c, domain.ncols) for c in kernel(mat_rows, CNum.of)))


def cspan(pres: LieAlgebraPresentation, vectors) -> CMatrix:
    """Complex span of CNum vectors."""
    for t, v in enumerate(vectors):
        if len(v) != pres.dim:
            raise ValueError(f"vector {t} has {len(v)} coordinates, not {pres.dim}")
    return _span(pres.dim, vectors)


def full_space(pres: LieAlgebraPresentation) -> CMatrix:
    """All of g: the complexification of g0."""
    return _span(pres.dim, _std_basis(pres.dim))


def conj_space(pres: LieAlgebraPresentation, space: CMatrix) -> CMatrix:
    return _image(space, pres.nu, pres.dim)


def real_points(pres: LieAlgebraPresentation, space: CMatrix) -> list:
    """nu-fixed vectors whose complex span is the nu-stable space: independent
    ones among w + nu(w) and i(w - nu(w)) over the rows w of the space, which
    span its real points over R."""
    rows, pivots, out = [], [], []
    for w in space.rows:
        nw = pres.nu(w)
        for v in (tuple(x + y for x, y in zip(w, nw)), tuple(C_I * (x - y) for x, y in zip(w, nw))):
            if len(out) < space.rank() and _insert(rows, pivots, v) is not None:
                out.append(v)
    return out


def _eigenspace(images, c) -> CMatrix:
    """{v : T v = c v} for a C-linear map T on CNum n-vectors given by the
    images of the unit vectors: the kernel of the matrix with columns
    T e_j - c e_j."""
    n = len(images)
    cols = [tuple(x - c if t == j else x for t, x in enumerate(img)) for j, img in enumerate(images)]
    return _span(n, kernel([[col[t] for col in cols] for t in range(n)], CNum.of))


def bracket_spaces(pres: LieAlgebraPresentation, a: CMatrix, b: CMatrix) -> CMatrix:
    """[a, b]; for a is b only its row pairs i < j, which span it by antisymmetry."""
    pairs = ((u, w) for i, u in enumerate(a.rows) for w in (b.rows[i + 1 :] if a is b else b.rows))
    return _span(pres.dim, (pres.bracket(u, w) for u, w in pairs))


def is_subalgebra(pres, space: CMatrix) -> bool:
    return space.contains_space(bracket_spaces(pres, space, space))


def _ascend(space: CMatrix, images) -> CMatrix:
    """Smallest space containing space and closed under a bilinear step,
    computed semi-naively (de Graaf, Lie Algebras: Theory and Algorithms,
    2000): images(new, old) yields what a round must add, where new spans the
    vectors the last round added and new + old the space before it.  Each
    image joins the echelon basis at once unless it lies in it; the loop
    ends when a round adds nothing or the space is the whole ambient one."""
    rows, pivots = [list(r) for r in space.rows], list(space.pivots)
    old, new = [], list(space.rows)
    while new and len(rows) < space.ncols:
        added = []
        for v in images(new, old):
            if (row := _insert(rows, pivots, v)) is not None:
                added.append(row)
                if len(rows) == space.ncols:
                    break
        old, new = old + new, added
    return _span(space.ncols, rows) if len(rows) > space.rank() else space


def _generated(pres, space: CMatrix) -> CMatrix:
    """The subalgebra generated by a subspace: new x old and new x new, i < j."""

    def images(new, old):
        for i, u in enumerate(new):
            for w in old + new[i + 1 :]:
                yield pres.bracket(u, w)

    return _ascend(space, images)


@dataclass
class CRAlgebra:
    pres: LieAlgebraPresentation
    q: CMatrix = field(repr=False)

    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_subalgebra(self.pres, self.q):
            raise ValueError("q is not closed under the bracket")

    def _once(self, key, build):
        """A space derived from (g0, q), built on first use and kept."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    @property
    def qbar(self) -> CMatrix:
        return self._once("qbar", lambda: conj_space(self.pres, self.q))

    def q_cap_qbar(self) -> CMatrix:
        """q n qbar, the complexification of i0 = q n g0."""
        return self._once("cap", lambda: self.q.intersect(self.qbar))

    def q_plus_qbar(self) -> CMatrix:
        """q + qbar, the complexification of (q + qbar) n g0."""
        return self._once("plus", lambda: self.q.sum(self.qbar))

    def q_nat(self) -> CMatrix:
        """The subalgebra generated by q + qbar."""
        return self._once("nat", lambda: _generated(self.pres, self.q_plus_qbar()))


def cr_dim_codim(a: CRAlgebra) -> tuple[int, int]:
    return a.q.rank() - a.q_cap_qbar().rank(), a.pres.dim - a.q_plus_qbar().rank()


def is_fundamental_cr(a: CRAlgebra) -> bool:
    """The subalgebra generated by q + qbar equals g."""
    return a.q_nat().rank() == a.pres.dim


def is_levi_nondegenerate(a: CRAlgebra) -> bool:
    """{Z in q : ad(Z)(qbar) in q + qbar} equals q n qbar."""
    pres, qb = a.pres, a.qbar.rows
    deg = _preimage(a.q, lambda v: [pres.bracket(v, w) for w in qb], a.q_plus_qbar())
    return deg == a.q_cap_qbar()


def largest_ideal_in(a: CRAlgebra) -> CMatrix:
    """Largest ideal of g0 contained in i0, complexified, by the descending
    fixed point a_{k+1} = {X in a_k : [g, X] in a_k} from a_0 = q n qbar,
    which stays nu-stable."""
    pres = a.pres
    cur = a.q_cap_qbar()
    gens = _std_basis(pres.dim)
    while True:
        nxt = _preimage(cur, lambda v: [pres.bracket(g, v) for g in gens], cur)
        if nxt.rank() == cur.rank():
            return nxt
        cur = nxt


def is_effective(a: CRAlgebra) -> bool:
    return largest_ideal_in(a).rank() == 0


def ideal_closure(pres: LieAlgebraPresentation, seed: CMatrix) -> CMatrix:
    """Smallest ideal of g containing the seed subspace: g x new, over the
    presentation basis; for a nu-stable seed, the complexified ideal of g0
    generated by its real points."""
    gens = _std_basis(pres.dim)

    def images(new, old):
        for v in new:
            for g in gens:
                yield pres.bracket(g, v)

    return _ascend(seed, images)


def _xi_value(pres, xi, v) -> CNum:
    """xi(v) for a real covector xi on the g0 basis, extended C-linearly."""
    return sum((CNum.of(Fraction(w)) * z for w, z in zip(xi, pres.g0_coords(v)) if w), C_ZERO)


def is_characteristic(a: CRAlgebra, xi) -> bool:
    """xi annihilates (q + qbar) n g0, that is (C-linearly) q + qbar."""
    return not any(_xi_value(a.pres, xi, r) for r in a.q_plus_qbar().rows)


def scalar_levi_form(a: CRAlgebra, xi) -> list[list[CNum]]:
    """Hermitian matrix [-i xi([Z_a, conj Z_b])] on a basis of q mod q n qbar.

    xi: rational coefficients on the g0 basis (a real covector), required to
    annihilate (q + qbar) n g0.
    """
    pres = a.pres
    if not is_characteristic(a, xi):
        raise NotCharacteristic("xi does not annihilate (q+qbar) n g0")
    zs = []
    probe = a.q_cap_qbar()
    for v in a.q.rows:
        if not probe.contains(v):
            probe = probe.sum(cspan(pres, [v]))
            zs.append(v)
    m = []
    for za in zs:
        row = []
        for zb in zs:
            val = CNum(Fraction(0), Fraction(-1)) * _xi_value(pres, xi, pres.bracket(za, pres.nu(zb)))
            row.append(val)
        m.append(row)
    return m


def vector_levi_form(a: CRAlgebra, z) -> tuple[CNum, ...]:
    """Residue of the real vector i[conj z, z] modulo q + qbar, which holds
    it exactly when (q + qbar) n g0 does (zero tuple means the trivial class)."""
    pres = a.pres
    z = tuple(CNum.of(x) for x in z)
    v = pres.bracket(pres.nu(z), z)
    return tuple(a.q_plus_qbar().residue(C_I * x for x in v))


def _g0_map(src, tgt, mat):
    """The complex-linear map from src to tgt presentation coordinates whose
    matrix on the g0 bases is the rational matrix mat."""
    sbasis, tbasis = src.g0_basis(), tgt.g0_basis()
    imgs = [_apply(tbasis, [mat[i][j] for i in range(len(tbasis))], tgt.dim) for j in range(len(sbasis))]
    # its columns on the presentation basis, one g0-coordinate solve each
    cols = [_apply(imgs, src.g0_coords(e), tgt.dim) for e in _std_basis(src.dim)]
    return lambda v: _apply(cols, v, tgt.dim)


def _check_derivation(pres, jmat):
    """jmat: rational matrix on g0-basis coordinates; returns the complex
    map on presentation coordinates once the Leibniz rule holds.  The map and
    the rule are C-linear, so the presentation basis serves as well as g0's."""
    apply = _g0_map(pres, pres, jmat)
    basis = _std_basis(pres.dim)
    imgs = [apply(b) for b in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            lhs = apply(pres.bracket(basis[i], basis[j]))
            rhs = zip(pres.bracket(imgs[i], basis[j]), pres.bracket(basis[i], imgs[j]))
            if lhs != tuple(x + y for x, y in rhs):
                raise NotADerivation(f"Leibniz fails on basis pair {i},{j}")
    return apply


def check_j_property(a: CRAlgebra, jmat) -> bool:
    """J(i0) in i0 and X + i J(X) in q; verified in the complexified form
    J(q) in q, Z - i J(Z) in q n qbar on a basis of q."""
    apply_j = _check_derivation(a.pres, jmat)
    return all(a.q.contains(apply_j(v)) for v in a.q.rows) and _shift_in_cap(a, apply_j, -C_I)


def _shift_in_cap(a: CRAlgebra, apply, c) -> bool:
    """Z + c T(Z) lies in q n qbar for every Z of the basis of q."""
    cap = a.q_cap_qbar()
    return all(cap.contains(tuple(x + c * y for x, y in zip(v, apply(v)))) for v in a.q.rows)


def exact_exponential(pres: LieAlgebraPresentation, jmat):
    """Upsilon = exp(pi J / 2) for a semisimple derivation with spectrum in
    iZ: acts as i^k on the eigenspace of ik; NonExactExponential otherwise."""
    apply_j = _check_derivation(pres, jmat)
    n = pres.dim
    # J applied once to the unit vectors, for every eigenvalue
    images = [apply_j(e) for e in _std_basis(n)]
    bound = max((int(sum(abs(x.re) + abs(x.im) for x in col)) + 1 for col in images), default=0)
    # eigenspaces of distinct eigenvalues are independent: they span C^n
    # exactly when their dimensions add up to it
    pieces = [(k, _eigenspace(images, CNum(Fraction(0), Fraction(k)))) for k in range(-bound, bound + 1)]
    if sum(space.rank() for _, space in pieces) != n:
        raise NonExactExponential("derivation is not semisimple with spectrum in iZ")
    # express v in the union of the eigenbases, factored once; the
    # eigenvector of ik goes to i^k times itself
    eigvecs = [(k, r) for k, space in pieces for r in space.rows]
    eigen = Factored([[r[i] for _, r in eigvecs] for i in range(n)], CNum.of)
    ipow = (C_ONE, C_I, -C_ONE, -C_I)
    cols = [tuple(ipow[k % 4] * x for x in r) for k, r in eigvecs]
    return lambda v: _apply(cols, eigen.solve(v), n)


def _upsilon_map(pres, upsilon, jmat):
    """Upsilon as a map: an automorphism matrix (CNum, presentation
    coordinates), or exp(pi J/2) for a derivation J with iZ spectrum."""
    if upsilon is not None:
        return _matrix_map(upsilon, pres.dim)
    if jmat is not None:
        return exact_exponential(pres, jmat)
    raise ValueError("need upsilon or jmat")


def check_weak_j(a: CRAlgebra, upsilon=None, jmat=None) -> bool:
    """Upsilon(q) = q and Z - i Upsilon(Z) in q n qbar, for Upsilon given
    by either an automorphism matrix or a derivation (see _upsilon_map)."""
    return _is_weak_j(a, _upsilon_map(a.pres, upsilon, jmat))


def _is_weak_j(a: CRAlgebra, apply_u) -> bool:
    pres = a.pres
    _check_automorphism(pres, apply_u)
    return _image(a.q, apply_u, pres.dim) == a.q and _shift_in_cap(a, apply_u, -C_I)


def _check_automorphism(pres, apply):
    """A Lie automorphism is bijective, so the basis images span g over C (the
    zero map preserves every bracket), and preserves the bracket."""
    basis = _std_basis(pres.dim)
    if len(_rref([apply(b) for b in basis])[1]) != pres.dim:
        raise NotAnAutomorphism("the basis images do not span g")
    _preserves_bracket(pres, pres, apply, basis, NotAnAutomorphism)


def _preserves_real(pres, space: CMatrix, apply) -> bool:
    """A C-linear map takes the real points of a nu-stable space onto
    themselves exactly when it maps the space onto itself and commutes with
    nu on its rows (both sides are antilinear)."""
    return _image(space, apply, pres.dim) == space and all(apply(pres.nu(w)) == pres.nu(apply(w)) for w in space.rows)


def _psd(matrix_rows) -> tuple[bool, list | None]:
    """(is positive semidefinite, a basis of the radical or None) for a
    symmetric rational matrix."""
    n = len(matrix_rows)
    a = [[Fraction(x) for x in row] for row in matrix_rows]
    rad_rows = []

    def form(u, v):
        return sum(u[i] * a[i][j] * v[j] for i in range(n) for j in range(n))

    vecs = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pos = []
    while vecs:
        v = vecs.pop(0)
        q = form(v, v)
        if q < 0:
            return False, None
        if q == 0:
            # must pair to zero with everything for PSD; check later
            rad_rows.append(v)
            continue
        pos.append(v)
        vecs = [[w[i] - form(w, v) / q * v[i] for i in range(n)] for w in vecs]
    for v in rad_rows:
        for u in pos + rad_rows:
            if form(v, u) != 0:
                return False, None
    return True, rad_rows


def check_cr_symmetric(a: CRAlgebra, lam) -> dict:
    """All clauses of the CR-symmetry definition for an involution lambda
    (CNum matrix in presentation coordinates), plus the induced Z2-gradation
    compatibility, the bracket corollary, and almost-compactness of i0."""
    pres = a.pres
    n = pres.dim
    apply_l = _matrix_map(lam, n)
    basis = _std_basis(n)
    report = {}
    report["involution"] = all(apply_l(apply_l(b)) == b for b in basis)
    try:
        _check_automorphism(pres, apply_l)
        report["automorphism"] = True
    except NotAnAutomorphism:
        report["automorphism"] = False
    report["preserves_g0"] = _preserves_real(pres, full_space(pres), apply_l)
    report["preserves_q"] = _image(a.q, apply_l, n) == a.q
    # ker(Id - lambda) inside the subalgebra generated by q + qbar
    images = [apply_l(b) for b in basis]
    fixed = _eigenspace(images, C_ONE)
    report["fixed_in_qnat"] = a.q_nat().contains_space(fixed)
    cap = a.q_cap_qbar()
    report["z_plus_lz_in_cap"] = _shift_in_cap(a, apply_l, C_ONE)
    # gradation compatibility: q and g0 split into (+1) and (-1) eigenparts
    minus = _eigenspace(images, -C_ONE)
    # bracket corollary: the odd part of q brackets into q n qbar (the
    # clause Z + lambda(Z) in cap makes the even part of q sit in cap, so
    # this is the content of the printed [Z1, Z2] in q n qbar)
    q_odd = a.q.intersect(minus)
    report["brackets_in_cap"] = cap.contains_space(bracket_spaces(pres, q_odd, q_odd))
    report["q_splits"] = (
        a.q.intersect(fixed).rank() + a.q.intersect(minus).rank() == a.q.rank()
    )
    # g0 is the sum of its (+1) and (-1) parts exactly when lambda maps g0
    # onto itself (so both eigenspaces are nu-stable) and they add up to g
    report["g0_splits"] = report["preserves_g0"] and fixed.rank() + minus.rank() == n
    # almost-compactness of i0: Killing form psd-negative with radical in the
    # radical of the ambient Killing form
    ivecs = real_points(pres, cap)
    k = [[-_re(pres.killing(u, v)) for v in ivecs] for u in ivecs]
    psd, rad = _psd(k)
    report["killing_negative_semidefinite"] = psd
    report["radical_in_ambient_radical"] = not psd or not any(
        pres.killing(_apply(ivecs, r, n), b) for r in rad for b in basis
    )
    report["ok"] = all(v for k_, v in report.items() if k_ != "ok")
    return report


def _re(z: CNum) -> Fraction:
    if z.im != 0:
        raise ValueError("Killing form value is not real on real vectors")
    return z.re


def fibration_compatible(a: CRAlgebra, ideal: CMatrix) -> bool:
    """(q n qbar) + a == (q + a) n (qbar + a) for an ideal of g0 given by its
    complexification a."""
    pres = a.pres
    if conj_space(pres, ideal) != ideal:
        raise NotAnIdeal("subspace is not nu-stable, so not the complexification of a subspace of g0")
    if not ideal.contains_space(bracket_spaces(pres, full_space(pres), ideal)):
        raise NotAnIdeal("subspace is not an ideal of g0")
    lhs = a.q_cap_qbar().sum(ideal)
    rhs = a.q.sum(ideal).intersect(a.qbar.sum(ideal))
    return lhs == rhs


def weak_j_implies_compatible(a: CRAlgebra, ideal: CMatrix, jmat=None, upsilon=None) -> bool:
    """For an Upsilon-invariant ideal and a weak-J structure, the
    fibration-compatibility identity must hold; returns the verification
    outcome of fibration_compatible after checking the hypotheses."""
    pres = a.pres
    if upsilon is not None or jmat is not None:
        apply_u = _upsilon_map(pres, upsilon, jmat)
        if not _is_weak_j(a, apply_u):
            raise PreconditionViolation("structure does not have the weak-J property")
        if not _preserves_real(pres, ideal, apply_u):
            raise PreconditionViolation("ideal is not Upsilon-invariant")
    return fibration_compatible(a, ideal)


def induced_base_fiber(a: CRAlgebra, ideal: CMatrix):
    """Base (g0, q + a) on the same presentation and the fiber presentation
    (a0, q n a) on the complexified ideal a."""
    pres = a.pres
    base = CRAlgebra(pres, a.q.sum(ideal))
    sub_pres, embed, project = sub_presentation(pres, ideal)
    fiber = CRAlgebra(sub_pres, _image(a.q.intersect(ideal), project, sub_pres.dim))
    return base, fiber


def sub_presentation(pres: LieAlgebraPresentation, space: CMatrix):
    """Presentation of a nu-stable complex subalgebra on the rows of its
    reduced echelon form; returns (presentation, embed, project).  A vector of
    the space is the combination of the rows with its pivot coordinates."""
    cb, m = space.rows, space.rank()

    def project(v):
        if not space.contains(v):
            raise ValueError("vector outside the subalgebra")
        return tuple(v[p] for p in space.pivots)

    table = {(i, j): enumerate(project(pres.bracket(cb[i], cb[j]))) for i in range(m) for j in range(i + 1, m)}
    conj_cols = [project(pres.nu(v)) for v in cb]
    sub = LieAlgebraPresentation(m, table, [[col[i] for col in conj_cols] for i in range(m)])
    return sub, lambda c: _apply(cb, c, pres.dim), project


def anticanonical(a: CRAlgebra) -> dict:
    """Real normalizer a0 = N_{g0}(q), q' = q + C a0, with the verification
    items of the anticanonical fibration; a0 is held as its complexification
    N_g(q) n nu(N_g(q))."""
    pres = a.pres
    full = full_space(pres)
    normalizer = _preimage(full, lambda v: [pres.bracket(v, w) for w in a.q.rows], a.q)
    a0 = normalizer.intersect(conj_space(pres, normalizer))
    qprime = a.q.sum(a0)
    qpb = conj_space(pres, qprime)
    report = {"a0": a0, "q_prime": qprime}
    report["q_in_qprime"] = qprime.contains_space(a.q)
    report["qprime_cap_g0_is_a0"] = qprime.intersect(qpb) == a0
    report["qprime_subalgebra"] = is_subalgebra(pres, qprime)
    cap_q_qpb = a.q.intersect(qpb)
    report["a_cap_q_is_q_cap_qprimebar"] = a0.intersect(a.q) == cap_q_qpb
    lf = bracket_spaces(pres, cap_q_qpb, a.qbar.intersect(qprime))
    report["levi_flat_fiber"] = a.q_cap_qbar().contains_space(lf)
    # item (5) equivalences
    i = a0.rank() == pres.dim
    ii = qprime.rank() == pres.dim
    iii = a.q.contains_space(bracket_spaces(pres, full, a.q))
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


def closure_extension(a: CRAlgebra, i0_prime: CMatrix) -> CRAlgebra:
    """Extended CR algebra (g0, q + C i0') for a caller-supplied i0' (given by
    its complexification) with i0 in i0', [i0', i0'] in i0, [i0', q] in q;
    verifies the equivariant map is an algebraic CR submersion with
    Levi-flat fiber."""
    pres = a.pres
    i0 = a.q_cap_qbar()
    if not i0_prime.contains_space(i0):
        raise PreconditionViolation("i0 not contained in i0'")
    if not i0.contains_space(bracket_spaces(pres, i0_prime, i0_prime)):
        raise PreconditionViolation("[i0', i0'] not contained in i0")
    if not a.q.contains_space(bracket_spaces(pres, i0_prime, a.q)):
        raise PreconditionViolation("[i0', q] not contained in q")
    qprime = a.q.sum(i0_prime)
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
    apply = _g0_map(sp, tp, phi0)
    _preserves_bracket(sp, tp, apply, _std_basis(sp.dim), NotAHomomorphism)
    full = full_space(sp)

    def pull(space: CMatrix) -> CMatrix:
        return _preimage(full, lambda v: [apply(v)], space)

    tcap = tgt.q_cap_qbar()
    pulled_cap = pull(tcap)
    push_q = _image(src.q, apply, tp.dim)
    is_morphism = tgt.q.contains_space(push_q)
    immersion = pulled_cap == src.q_cap_qbar() and pull(tgt.q) == src.q
    submersion = _image(full, apply, tp.dim).sum(tcap).rank() == tp.dim and push_q.sum(tcap) == tgt.q
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
    # fiber CR algebra: g0'' = phi0^{-1}(q' n g0') is complexified to
    # phi^{-1}(q' n qbar'), as phi maps g0 into g0'; q'' = q n phi^{-1}(q' n qbar')
    return {"kind": kind, "fiber_g0": pulled_cap, "fiber_q": src.q.intersect(pulled_cap)}
