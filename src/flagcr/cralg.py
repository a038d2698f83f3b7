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
W = {v in g : P(v)}.  Real vectors are read off such a space by real_points.
The module has no elimination of its own: all of them, the semidefiniteness
test of the Killing form on i0 included, go through gaussq.
Every linear map (J, Upsilon, lambda, a morphism phi) is a CNum matrix on the
presentation bases, which callers give by rows and the module keeps as its
columns, the images of the unit vectors; a map that must be real (J,
Upsilon, phi) is checked to commute with nu, and a bracket identity is
checked on every basis pair with [b_i, b_j] read off the stored table.
g0_basis() is the one realified row space of the module, and only the
covector --xi is written in it.

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
from functools import cached_property

from .gaussq import C_I, C_ONE, C_ZERO, CMatrix, CNum, Factored, RMatrix, _apply, _insert, _reduce, _rref, complexify_vector, kernel, realify_vector


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


def _columns(m, rows, cols, name):
    """The columns of the rows x cols matrix m given by its rows, as CNum
    tuples; ValueError naming m and its shape if it has another."""
    if (lengths := [len(row) for row in m]) != [cols] * rows:
        raise ValueError(f"{name} must be a {rows} x {cols} matrix, not one with rows of lengths {lengths}")
    return [tuple(CNum.of(row[j]) for row in m) for j in range(cols)]


def _check_pairs(table, cols, rhs, error):
    """T [b_i, b_j] = rhs(i, j) on every basis pair i < j, for the map T with
    columns cols and [b_i, b_j] read off the table of stored structure
    constants; raises error of a message naming the first pair where it
    fails."""
    n = len(cols)
    for i in range(n):
        for j in range(i + 1, n):
            v = [C_ZERO] * n
            for k, c in table.get((i, j), ()):
                v[k] = c
            if _apply(cols, v, len(cols[i])) != rhs(i, j):
                raise error(f"fails on basis pair {i},{j}")


def _is_real(src, tgt, cols) -> bool:
    """T nu = nu' T on the unit vectors, where nu b_j is column j of nu, for
    the C-linear map T with columns cols: both sides are antilinear, so this
    makes T take real points to real points."""
    return all(_apply(cols, nb, tgt.dim) == tgt.nu(col) for nb, col in zip(src.conj_cols, cols))


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
        self.conj_cols = _columns(conj, dim, dim, "conj")
        self._validate()

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
        cols = self.conj_cols
        if any(self.nu(col) != b for col, b in zip(cols, _std_basis(n))):
            raise ValueError("conjugation is not an involution")
        # nu is antilinear: nu [b_i, b_j] sums the conjugated constants times
        # the columns of nu
        conj_table = {key: [(k, c.conj()) for k, c in pairs] for key, pairs in table.items()}
        _check_pairs(conj_table, cols, lambda i, j: self.bracket(cols[i], cols[j]),
                     lambda m: ValueError(f"conjugation is not a Lie automorphism: {m}"))

    @cached_property
    def _g0_rows(self):
        real = RMatrix(2 * self.dim, [realify_vector(v) for v in real_points(self, full_space(self))])
        return [complexify_vector(r) for r in real.rows]

    def g0_basis(self):
        """The fixed vectors of nu (a C-basis of g as well) as CNum tuples: the
        rows of the reduced echelon form of g0 in realified coordinates
        (re_1, im_1, ..., re_n, im_n), in which --xi is written."""
        return self._g0_rows

    @cached_property
    def _g0_solver(self):
        return Factored([[b[i] for b in self._g0_rows] for i in range(self.dim)], CNum.of)

    def g0_coords(self, v):
        """Coordinates in the C-basis g0_basis(), factored once per presentation."""
        return self._g0_solver.solve(v)

    def killing(self, x, y):
        """The Killing form tr(ad x ad y) = sum of x_i K[i][j] y_j over the
        Gram matrix K of the basis, built on first use."""
        ys = [(j, b) for j, b in enumerate(y) if b]
        tot = C_ZERO
        for i, a in enumerate(x):
            if a:
                row = self._killing_gram[i]
                for j, b in ys:
                    if row[j]:
                        tot = tot + a * row[j] * b
        return tot

    @cached_property
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


def _image(space: CMatrix, cols, dim) -> CMatrix:
    """The image of a space under the C-linear map with columns cols into
    CNum dim-vectors: the span of the images of its rows."""
    return CMatrix(dim, (_apply(cols, r, dim) for r in space.rows))


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
    return CMatrix(domain.ncols, (_apply(rows, c, domain.ncols) for c in kernel(mat_rows, CNum.of)))


def _in_g(pres: LieAlgebraPresentation, space: CMatrix, name):
    if space.ncols != pres.dim:
        raise ValueError(f"{name} has {space.ncols} coordinates, but g has dimension {pres.dim}")


def cspan(pres: LieAlgebraPresentation, vectors) -> CMatrix:
    """Complex span of CNum vectors of g."""
    return CMatrix(pres.dim, vectors)


def full_space(pres: LieAlgebraPresentation) -> CMatrix:
    """All of g: the complexification of g0."""
    return CMatrix(pres.dim, _std_basis(pres.dim))


def conj_space(pres: LieAlgebraPresentation, space: CMatrix) -> CMatrix:
    return CMatrix(pres.dim, map(pres.nu, space.rows))


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


def _eigenspace(cols, c) -> CMatrix:
    """{v : T v = c v} for the C-linear map T on CNum n-vectors with columns
    cols: the kernel of the matrix with columns T e_j - c e_j."""
    rows = [[x - c if t == j else x for j, x in enumerate(row)] for t, row in enumerate(zip(*cols))]
    return CMatrix(len(cols), kernel(rows, CNum.of))


def bracket_spaces(pres: LieAlgebraPresentation, a: CMatrix, b: CMatrix) -> CMatrix:
    """[a, b]; for a is b only its row pairs i < j, which span it by antisymmetry."""
    pairs = ((u, w) for i, u in enumerate(a.rows) for w in (b.rows[i + 1 :] if a is b else b.rows))
    return CMatrix(pres.dim, (pres.bracket(u, w) for u, w in pairs))


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
    return CMatrix(space.ncols, rows) if len(rows) > space.rank() else space


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
        _in_g(self.pres, self.q, "q")
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
    # a basis of q mod q n qbar: the rows of q new to one echelon copy of q n qbar
    cap = a.q_cap_qbar()
    rows, pivots = list(cap.rows), list(cap.pivots)
    zs = [v for v in a.q.rows if _insert(rows, pivots, v) is not None]
    return [[-C_I * _xi_value(pres, xi, pres.bracket(za, pres.nu(zb))) for zb in zs] for za in zs]


def vector_levi_form(a: CRAlgebra, z) -> tuple[CNum, ...]:
    """Residue of the real vector i[conj z, z] modulo q + qbar, which holds
    it exactly when (q + qbar) n g0 does (zero tuple means the trivial class)."""
    pres = a.pres
    z = tuple(CNum.of(x) for x in z)
    v = pres.bracket(pres.nu(z), z)
    return tuple(a.q_plus_qbar().residue(C_I * x for x in v))


def _check_derivation(pres, cols):
    """The map with columns cols (on the presentation basis) commutes with nu,
    so it is the complexification of a map of g0, and the Leibniz rule holds
    on every basis pair."""
    if not _is_real(pres, pres, cols):
        raise NotADerivation("the map does not commute with nu, so it is not a derivation of g0")
    basis = _std_basis(pres.dim)

    def leibniz(i, j):
        return tuple(x + y for x, y in zip(pres.bracket(cols[i], basis[j]), pres.bracket(basis[i], cols[j])))

    _check_pairs(pres.table, cols, leibniz, lambda m: NotADerivation(f"Leibniz {m}"))


def check_j_property(a: CRAlgebra, j) -> bool:
    """J(i0) in i0 and X + i J(X) in q for a derivation J of g0 (CNum matrix
    on the presentation basis); verified in the complexified form J(q) in q,
    Z - i J(Z) in q n qbar on a basis of q."""
    n = a.pres.dim
    cols = _columns(j, n, n, "J")
    _check_derivation(a.pres, cols)
    return all(a.q.contains(_apply(cols, v, n)) for v in a.q.rows) and _shift_in_cap(a, cols, -C_I)


def _shift_in_cap(a: CRAlgebra, cols, c) -> bool:
    """Z + c T(Z) lies in q n qbar for every Z of the basis of q, for the map
    T with columns cols."""
    cap, n = a.q_cap_qbar(), a.pres.dim
    return all(cap.contains(tuple(x + c * y for x, y in zip(v, _apply(cols, v, n)))) for v in a.q.rows)


def exact_exponential(pres: LieAlgebraPresentation, j):
    """Upsilon = exp(pi J / 2), as a CNum matrix on the presentation basis,
    for a semisimple derivation J with spectrum in iZ: it acts as i^k on the
    eigenspace of ik; NonExactExponential otherwise."""
    n = pres.dim
    cols = _columns(j, n, n, "J")
    _check_derivation(pres, cols)
    bound = max((int(sum(abs(x.re) + abs(x.im) for x in col)) + 1 for col in cols), default=0)
    # eigenspaces of distinct eigenvalues are independent: they span C^n
    # exactly when their dimensions add up to it
    pieces = [(k, _eigenspace(cols, CNum(Fraction(0), Fraction(k)))) for k in range(-bound, bound + 1)]
    if sum(space.rank() for _, space in pieces) != n:
        raise NonExactExponential("derivation is not semisimple with spectrum in iZ")
    # express v in the union of the eigenbases, factored once; the
    # eigenvector of ik goes to i^k times itself
    eigvecs = [(k, r) for k, space in pieces for r in space.rows]
    eigen = Factored([[r[i] for _, r in eigvecs] for i in range(n)], CNum.of)
    ipow = (C_ONE, C_I, -C_ONE, -C_I)
    scaled = [tuple(ipow[k % 4] * x for x in r) for k, r in eigvecs]
    units = [_apply(scaled, eigen.solve(e), n) for e in _std_basis(n)]
    return [[u[i] for u in units] for i in range(n)]


def check_weak_j(a: CRAlgebra, upsilon) -> bool:
    """Upsilon(q) = q and Z - i Upsilon(Z) in q n qbar, for an automorphism
    Upsilon of g0 (CNum matrix on the presentation basis, for instance the
    exact_exponential of a derivation); NotAnAutomorphism otherwise."""
    return _is_weak_j(a, _columns(upsilon, a.pres.dim, a.pres.dim, "Upsilon"))


def _is_weak_j(a: CRAlgebra, cols) -> bool:
    pres = a.pres
    _check_automorphism(pres, cols)
    if not _is_real(pres, pres, cols):
        raise NotAnAutomorphism("the map does not commute with nu, so it is not an automorphism of g0")
    return _image(a.q, cols, pres.dim) == a.q and _shift_in_cap(a, cols, -C_I)


def _check_automorphism(pres, cols):
    """A Lie automorphism is bijective, so its columns span g over C (the
    zero map preserves every bracket), and preserves the bracket."""
    if len(_rref(cols)[1]) != pres.dim:
        raise NotAnAutomorphism("the basis images do not span g")
    _check_pairs(pres.table, cols, lambda i, j: pres.bracket(cols[i], cols[j]), NotAnAutomorphism)


def _psd(matrix_rows) -> tuple[bool, list | None]:
    """(is positive semidefinite, a basis of the radical or None) for a
    symmetric rational matrix, by symmetric elimination through gaussq: row
    k reduced by the rows inserted before it is row k of the Schur
    complement, so the form is semidefinite exactly when each such row has
    a nonnegative diagonal entry and is zero where that entry is.  The
    radical of a semidefinite form is its kernel."""
    rows, pivots = [], []
    for k, row in enumerate(matrix_rows):
        v = _reduce(map(Fraction, row), rows, pivots)
        if v[k] < 0 or not v[k] and any(v):
            return False, None
        _insert(rows, pivots, v)
    return True, kernel(matrix_rows, Fraction)


def check_cr_symmetric(a: CRAlgebra, lam) -> dict:
    """All clauses of the CR-symmetry definition for an involution lambda
    (CNum matrix in presentation coordinates), plus the induced Z2-gradation
    compatibility, the bracket corollary, and almost-compactness of i0."""
    pres = a.pres
    n = pres.dim
    cols = _columns(lam, n, n, "lambda")
    basis = _std_basis(n)
    report = {}
    report["involution"] = all(_apply(cols, col, n) == b for col, b in zip(cols, basis))
    try:
        _check_automorphism(pres, cols)
        report["automorphism"] = True
    except NotAnAutomorphism:
        report["automorphism"] = False
    # lambda maps g0 onto itself exactly when it is bijective and real
    full = full_space(pres)
    report["preserves_g0"] = _image(full, cols, n) == full and _is_real(pres, pres, cols)
    report["preserves_q"] = _image(a.q, cols, n) == a.q
    # ker(Id - lambda) inside the subalgebra generated by q + qbar
    fixed = _eigenspace(cols, C_ONE)
    report["fixed_in_qnat"] = a.q_nat().contains_space(fixed)
    cap = a.q_cap_qbar()
    report["z_plus_lz_in_cap"] = _shift_in_cap(a, cols, C_ONE)
    # gradation compatibility: q and g0 split into (+1) and (-1) eigenparts
    minus = _eigenspace(cols, -C_ONE)
    # bracket corollary: the odd part of q brackets into q n qbar (the
    # clause Z + lambda(Z) in cap makes the even part of q sit in cap, so
    # this is the content of the printed [Z1, Z2] in q n qbar)
    q_odd = a.q.intersect(minus)
    report["brackets_in_cap"] = cap.contains_space(bracket_spaces(pres, q_odd, q_odd))
    report["q_splits"] = a.q.intersect(fixed).rank() + q_odd.rank() == a.q.rank()
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
    _in_g(pres, ideal, "the ideal")
    if conj_space(pres, ideal) != ideal:
        raise NotAnIdeal("subspace is not nu-stable, so not the complexification of a subspace of g0")
    if not ideal.contains_space(bracket_spaces(pres, full_space(pres), ideal)):
        raise NotAnIdeal("subspace is not an ideal of g0")
    lhs = a.q_cap_qbar().sum(ideal)
    rhs = a.q.sum(ideal).intersect(a.qbar.sum(ideal))
    return lhs == rhs


def weak_j_implies_compatible(a: CRAlgebra, ideal: CMatrix, upsilon) -> bool:
    """For an Upsilon-invariant ideal and a weak-J structure, the
    fibration-compatibility identity must hold; returns the verification
    outcome of fibration_compatible after checking the hypotheses on Upsilon
    (a matrix as for check_weak_j)."""
    pres = a.pres
    _in_g(pres, ideal, "the ideal")
    cols = _columns(upsilon, pres.dim, pres.dim, "Upsilon")
    if not _is_weak_j(a, cols):
        raise PreconditionViolation("structure does not have the weak-J property")
    # _is_weak_j has checked that Upsilon is real
    if _image(ideal, cols, pres.dim) != ideal:
        raise PreconditionViolation("ideal is not Upsilon-invariant")
    return fibration_compatible(a, ideal)


def induced_base_fiber(a: CRAlgebra, ideal: CMatrix):
    """Base (g0, q + a) on the same presentation and the fiber presentation
    (a0, q n a) on the complexified ideal a."""
    pres = a.pres
    base = CRAlgebra(pres, a.q.sum(ideal))
    sub_pres, embed, project = sub_presentation(pres, ideal)
    fiber = CRAlgebra(sub_pres, CMatrix(sub_pres.dim, map(project, a.q.intersect(ideal).rows)))
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


def morphism_classify(src: CRAlgebra, tgt: CRAlgebra, phi) -> dict:
    """Classify the complexification phi of a Lie algebra homomorphism
    phi0 : g0 -> g0' (CNum matrix from the src to the tgt presentation basis,
    commuting with the conjugations) as a CR-algebras morphism."""
    sp, tp = src.pres, tgt.pres
    cols = _columns(phi, tp.dim, sp.dim, "phi")
    if not _is_real(sp, tp, cols):
        raise NotAHomomorphism("the map does not commute with the conjugations, so it does not map g0 into g0'")
    _check_pairs(sp.table, cols, lambda i, j: tp.bracket(cols[i], cols[j]), NotAHomomorphism)
    full = full_space(sp)

    def pull(space: CMatrix) -> CMatrix:
        return _preimage(full, lambda v: [_apply(cols, v, tp.dim)], space)

    tcap = tgt.q_cap_qbar()
    pulled_cap = pull(tcap)
    push_q = _image(src.q, cols, tp.dim)
    is_morphism = tgt.q.contains_space(push_q)
    immersion = pulled_cap == src.q_cap_qbar() and pull(tgt.q) == src.q
    submersion = _image(full, cols, tp.dim).sum(tcap).rank() == tp.dim and push_q.sum(tcap) == tgt.q
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
