"""Preset CR algebras: Heisenberg, sl(2), su(2), the abelian-extension
no-go example, and flag presets of types A-D and G2.

A flag preset is the Chevalley basis of a root system built by rootsys
(simple coroots, then one root vector per root) with the compact
conjugation, so its real form g0 is the compact algebra and q = h + sum of
the root spaces of Q is the CR algebra of a complete flag.  It exposes the
basis vector of each root space and the Cartan element realizing a given
ambient functional, so combinatorial witnesses transfer to honest
derivations/automorphisms of the presentation.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .cralg import CRAlgebra, LieAlgebraPresentation, _std_basis, cspan
from .gaussq import C_I, C_ONE, C_ZERO, CMatrix, CNum, Factored, _apply
from .rootsys import RootSystem, _ambient, _cached, build_root_system, evaluate, evaluate_int, root_sum, roots_set
from .weyl import _coroot_pairing, positive_roots, simple_coordinates, simple_roots


def heisenberg() -> CRAlgebra:
    """g0 = <X, Y, T>, [X, Y] = T; q = C (X + iY)."""
    pres = LieAlgebraPresentation(3, {(0, 1): [(2, 1)]}, _std_basis(3), labels=["X", "Y", "T"])
    q = cspan(pres, [(C_ONE, C_I, C_ZERO)])
    return CRAlgebra(pres, q)


def sl2() -> LieAlgebraPresentation:
    """sl(2, R): H, E, F with [H,E] = 2E, [H,F] = -2F, [E,F] = H."""
    return LieAlgebraPresentation(
        3,
        {(0, 1): [(1, 2)], (0, 2): [(2, -2)], (1, 2): [(0, 1)]},
        _std_basis(3),
        labels=["H", "E", "F"],
    )


def su2() -> LieAlgebraPresentation:
    """su(2) as u1, u2, u3 with cyclic brackets."""
    return LieAlgebraPresentation(
        3,
        {(0, 1): [(2, 1)], (1, 2): [(0, 1)], (0, 2): [(1, -1)]},
        _std_basis(3),
        labels=["u1", "u2", "u3"],
    )


def su2_flag() -> CRAlgebra:
    """(su(2), borel): the sphere CR structure, q = C u3 + C (u1 + i u2), so
    that q n g0 = R u3 is the maximal torus."""
    pres = su2()
    q = cspan(pres, [(C_ZERO, C_ZERO, C_ONE), (C_ONE, C_I, C_ZERO)])
    return CRAlgebra(pres, q)


def exam_bf() -> tuple[CRAlgebra, CMatrix]:
    """The abelian extension sl(2,R) + R^2 with q = C{X + i X.v0 : X in
    borel}, v0 = first basis vector; returns (CR algebra, the radical V by
    its complexification).  The Levi-Malcev compatibility identity fails here.
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
    pres = LieAlgebraPresentation(5, entries, _std_basis(5), labels=["H", "E", "F", "v1", "v2"])
    # a0 = span{H, E}; v0 = v1: H.v0 = v1, E.v0 = 0
    q = cspan(
        pres,
        [
            (C_ONE, C_ZERO, C_ZERO, C_I, C_ZERO),  # H + i v1
            (C_ZERO, C_ONE, C_ZERO, C_ZERO, C_ZERO),  # E
        ],
    )
    radical = cspan(pres, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    return CRAlgebra(pres, q), radical


# ---------------------------------------------------------------------------
# flag presets: the Chevalley basis of a root system


class FlagPreset:
    """The Chevalley basis of the complex simple Lie algebra of a root system:
    simple coroots h0, h1, ... first, then x_alpha for every root in root
    order, with the compact conjugation nu(h) = -h, nu(x_alpha) = -x_{-alpha}.
    root_vec maps a root index to its CNum coordinate vector, cartan_vec an
    ambient coordinate to its Cartan coordinate vector."""

    def __init__(self, system: RootSystem, pres: LieAlgebraPresentation, root_vec: dict, cartan_vec: list):
        self.system, self.pres, self.root_vec, self.cartan_vec = system, pres, root_vec, cartan_vec

    def cartan_element(self, ambient):
        """Element H with alpha(H) = evaluate(alpha, ambient) for all roots,
        as a CNum coordinate vector; ValueError unless ambient has the
        ambient dimension."""
        return _apply(self.cartan_vec, _ambient(ambient, self.system.ambient_dim), self.pres.dim)

    def q_subspace(self, q_indices) -> CMatrix:
        """q = h + sum of the root spaces of Q."""
        vecs = [v for v in self.cartan_vec if any(v)]
        vecs += [self.root_vec[i] for i in sorted(q_indices)]
        return cspan(self.pres, vecs)

    def cr_algebra(self, q_indices) -> CRAlgebra:
        return CRAlgebra(self.pres, self.q_subspace(q_indices))

    def j_derivation(self, grading_element):
        """J = ad(-i H_E): 0 on the Cartan coordinates and -i alpha(E) on
        x_alpha (Carter, 4.1), a diagonal matrix on the presentation basis."""
        entries = [-C_I * evaluate(v, grading_element) for v in self.system.roots]
        return _diagonal([C_ZERO] * self.system.rank + entries)

    def symmetry_involution(self, grading_element):
        """lambda = Ad(exp(i pi E)): the identity on the Cartan coordinates
        and (-1)^{alpha(E)} on x_alpha, a diagonal matrix."""
        signs = [-C_ONE if evaluate_int(v, grading_element) % 2 else C_ONE for v in self.system.roots]
        return _diagonal([C_ONE] * self.system.rank + signs)


def _diagonal(entries):
    """The diagonal matrix with these entries, by rows."""
    return [[d if i == j else C_ZERO for j in range(len(entries))] for i, d in enumerate(entries)]


def _chevalley_preset(r: RootSystem) -> FlagPreset:
    """Chevalley basis of r (Carter, *Simple Groups of Lie Type*, 1972, 4.1-4.2).

    [h_i, x_a] = <a, s_i^v> x_a for the simple roots s_i, [x_a, x_-a] = a^v
    written in simple coroots, and [x_a, x_b] = N_ab x_{a+b}.  N is +(p+1) on
    extraspecial pairs, where b - p a is the end of the a-string through b;
    Carter's relations give the rest, with N_{-a,-b} = -N_ab.  Root order is
    lexicographic, an order compatible with addition, so the extraspecial
    pair of a positive root c is (a, c - a) for the first positive a with
    c - a a positive root."""
    simples = simple_roots(r)
    positive = positive_roots(r)
    pos = set(positive)
    rank, nroots = len(simples), r.nroots
    norm = [sum(x * x for x in v) for v in r.roots]
    # pairing[i][a] = <a, s_i^v>, the eigenvalue of h_i on x_a
    pairing = [_coroot_pairing(r, s) for s in simples]

    def diff(a, b):
        """Index of a - b when it is a root, else None."""
        return root_sum(r, a, r.negation[b])

    extraspecial = {}
    for c in positive:
        first = next((a for a in positive if diff(c, a) in pos), None)
        if first is not None:
            extraspecial[c] = first

    @functools.cache
    def n_of(a, b):
        """N_ab for roots a, b whose sum c is a root."""
        c = root_sum(r, a, b)
        if a not in pos and b not in pos:
            return -n_of(r.neg(a), r.neg(b))
        if a in pos and b in pos:
            e = extraspecial[c]
            if a == e:
                p, v = 0, diff(b, a)
                while v is not None:
                    p, v = p + 1, diff(v, a)
                return p + 1
            if b == e:
                return -n_of(b, a)
            # relation (iv) on a + b + f + g = 0 with f = -e, g = e - c
            f, g = r.neg(e), r.neg(diff(c, e))
            out = Fraction(0)
            if (be := diff(b, e)) is not None:
                out += Fraction(n_of(b, f) * n_of(a, g), norm[be])
            if (ae := diff(a, e)) is not None:
                out += Fraction(n_of(f, a) * n_of(b, g), norm[ae])
            out *= Fraction(norm[c], -n_of(f, g))
        else:
            # relation (ii) on a + b + (-c) = 0: pair -c with the root of its sign
            mc = r.neg(c)
            if (b in pos) == (mc in pos):
                out = Fraction(norm[c] * n_of(b, mc), norm[a])
            else:
                out = Fraction(norm[c] * n_of(mc, a), norm[b])
        assert out.denominator == 1, "structure constant is not an integer"
        return int(out)

    # a = sum_i k_i s_i gives a^v = sum_i k_i |s_i|^2 / |a|^2 s_i^v
    coords = simple_coordinates(r)
    coroot = [[Fraction(k * norm[s], norm[a]) for k, s in zip(coords[a], simples)] for a in range(nroots)]
    entries = {}
    for a in range(nroots):
        x = rank + a
        for i, p in enumerate(pairing):
            if c := p[a]:
                entries[(i, x)] = [(x, c)]
        ma = r.neg(a)
        if a < ma:
            entries[(x, rank + ma)] = [(i, k) for i, k in enumerate(coroot[a]) if k]
        for b in range(a + 1, nroots):
            c = root_sum(r, a, b)
            if c is not None:
                entries[(x, rank + b)] = [(rank + c, n_of(a, b))]
    dim = rank + nroots
    conj = [[C_ZERO] * dim for _ in range(dim)]
    for i in range(rank):
        conj[i][i] = -C_ONE
    for a in range(nroots):
        conj[rank + r.neg(a)][rank + a] = -C_ONE
    labels = [f"h{i}" for i in range(rank)] + [f"x{a}" for a in range(nroots)]
    pres = LieAlgebraPresentation(dim, entries, conj, labels=labels)
    # H_k = sum_i c_i h_i with s_j(H_k) = evaluate(s_j, e_k) for every simple
    # root s_j: column i of the Cartan matrix holds the s_j(h_i)
    cartan = Factored([[p[t] for t in simples] for p in pairing], rank, Fraction)
    cartan_vec = []
    for k in range(r.ambient_dim):
        sol = cartan.solve([Fraction(r.roots[s][k], 2) for s in simples])
        cartan_vec.append(tuple(CNum.of(x) for x in sol) + (C_ZERO,) * nroots)
    root_vec = dict(enumerate(_std_basis(dim)[rank:]))
    return FlagPreset(r, pres, root_vec, cartan_vec)


FLAG_TYPES = ("A", "B", "C", "D", "G2")


def flag_preset(type_tag: str, rank: int | None = None) -> FlagPreset:
    """The flag preset of type A (rank = ambient dimension n, for sl(n)), B, C,
    D (rank n) or G2 (no rank), built once and validated: Jacobi identity,
    conjugation axioms and the grading of every root vector.  It is kept on
    its shared root system, as the table "flag" (see rootsys._cached)."""
    if type_tag not in FLAG_TYPES:
        raise ValueError(f"no flag preset of type {type_tag!r}; supported types: {', '.join(FLAG_TYPES)}")
    if type_tag == "G2" and rank is not None:
        raise ValueError("G2 takes no rank")
    r = build_root_system(type_tag, rank)
    return _cached(r, "flag", lambda: _verify_flag(_chevalley_preset(r)))


def _verify_flag(fp: FlagPreset) -> FlagPreset:
    """The Cartan vectors must reproduce alpha(H) on every root vector; returns fp."""
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
    return fp


def _sl2_borel() -> CRAlgebra:
    pres = sl2()
    return CRAlgebra(pres, cspan(pres, [(C_ONE, C_ZERO, C_ZERO), (C_ZERO, C_ONE, C_ZERO)]))


PRESET_BUILDERS = {
    "heisenberg": heisenberg,
    "sl2": _sl2_borel,
    "su2-flag": su2_flag,
    "exam-bf": lambda: exam_bf()[0],
}


def get_preset(name: str) -> CRAlgebra:
    """CLI preset lookup: heisenberg, sl2, su2-flag, exam-bf, or
    flag:TYPE[:RANK][:QSPEC] with TYPE one of A, B, C, D (which need RANK) or
    G2 (which takes none), and QSPEC borel (the default), cartan, or for G2
    Q40, Q41, Q42.  RANK is flag_preset's: for A the ambient dimension, so
    flag:A:3 is sl(3), where --type A --rank 3 and root-set files mean the
    Lie rank, A_3 = sl(4)."""
    if name in PRESET_BUILDERS:
        return PRESET_BUILDERS[name]()
    if name.startswith("flag:"):
        tag, *rest = name[len("flag:") :].split(":")
        ranks = [p for p in rest if p.isdigit()]
        qspecs = [p for p in rest if not p.isdigit()]
        if len(ranks) > 1:
            raise ValueError(f"preset {name!r} gives more than one rank")
        if len(qspecs) > 1:
            raise ValueError(f"preset {name!r} gives more than one Q spec")
        fp = flag_preset(tag, int(ranks[0]) if ranks else None)
        return fp.cr_algebra(_named_q(fp.system, qspecs[0] if qspecs else None))
    raise ValueError(f"unknown preset {name!r}")


def _named_q(rs: RootSystem, qspec: str | None):
    g2_sets = {
        "Q40": [(1, 0, -1), (2, -1, -1)],
        "Q41": [(1, 0, -1), (2, -1, -1), (1, -2, 1)],
        "Q42": [(1, 0, -1), (2, -1, -1), (1, 1, -2)],
    } if rs.type_tag == "G2" else {}
    if qspec in (None, "borel"):
        return positive_roots(rs)
    if qspec == "cartan":
        return []
    if qspec in g2_sets:
        return sorted(roots_set(rs, g2_sets[qspec]))
    known = ", ".join(["borel", "cartan", *g2_sets])
    raise ValueError(f"unknown Q spec {qspec!r} for {rs.type_tag}; known: {known}")
