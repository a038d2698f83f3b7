"""Closed root sets compatible with a real-form conjugation: the partition
condition Q n conj(Q) = 0, Q u conj(Q) = R, the reductive/nilpotent split,
strong orthogonality, the parabolic closure, the adapted simple system, and
the regular maximal CR structures over a maximally compact Cartan.

A conjugation is carried as an exact rational involution of the ambient space
together with the root-index permutation it induces, both checked on integer
numerators over one denominator.  Every base, of R and of Q^r alike, is read
off a positive system as its indecomposable roots (weyl.simple_roots), so
this module solves no integer system.  regular_max_structure, which no CLI op
reaches, verifies the data of the paper's left-invariant CR structures of
maximal CR dimension on a semisimple group.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .gaussq import CMatrix, CNum, _apply, kernel
from .qsets import is_closed
from .rootsys import RootSystem, dot, root_sum, scaled
from .weyl import simple_roots


class NoRegularVector(RuntimeError):
    pass


class RootConjugation(NamedTuple):
    """Involution alpha -> conj(alpha) on the root system."""

    cols: tuple[tuple[Fraction, ...], ...]
    perm: tuple[int, ...]

    def bar(self, i: int) -> int:
        return self.perm[i]


def conjugation_from_matrix(r: RootSystem, cols) -> RootConjugation:
    """The involution with the given columns and its root permutation, or
    ValueError.  Both checks run on integer numerators over one denominator,
    M = num/den: M^2 = 1 reads num^2 = den^2 1."""
    cols = tuple(tuple(Fraction(x) for x in c) for c in cols)
    n = r.ambient_dim
    num, den = scaled([x for c in cols for x in c])
    rows = [num[k::n] for k in range(n)]
    for j in range(n):
        if [dot(row, num[j * n : j * n + n]) for row in rows] != [den * den * (k == j) for k in range(n)]:
            raise ValueError("matrix is not an involution")
    perm = []
    for v in r.roots:
        img = [dot(row, v) for row in rows]
        key = tuple(x // den for x in img)
        if any(x % den for x in img) or key not in r.index:
            raise ValueError("matrix does not permute the root list")
        perm.append(r.index[key])
    return RootConjugation(cols, tuple(perm))


def compact_conjugation(r: RootSystem) -> RootConjugation:
    """Compact-form conjugation: alpha -> -alpha."""
    return conjugation_from_matrix(r, [[-int(i == j) for i in range(r.ambient_dim)] for j in range(r.ambient_dim)])


def a_reverse_conjugation(r: RootSystem) -> RootConjugation:
    """The sl(n,R)-type conjugation of A_{n-1} induced by the reversal
    involution A -> (conj a_{n+1-i,n+1-j}); on weights e_i -> e_{n+1-i}."""
    if r.type_tag != "A":
        raise ValueError("a-reverse preset applies to type A only")
    n = r.ambient_dim
    return conjugation_from_matrix(r, [[int(i == n - 1 - j) for i in range(n)] for j in range(n)])


def check_eq_ha(r: RootSystem, q, sigma: RootConjugation) -> bool:
    """Q closed, Q and conj(Q) partition R."""
    q = frozenset(q)
    if not is_closed(r, q):
        return False
    bar = frozenset(sigma.bar(i) for i in q)
    return not (q & bar) and (q | bar) == frozenset(range(r.nroots))


def split_r_n(r: RootSystem, q) -> tuple[frozenset[int], frozenset[int]]:
    """Reductive part {a in Q : -a in Q} and nilpotent part."""
    q = frozenset(q)
    qr = frozenset(i for i in q if r.neg(i) in q)
    return qr, q - qr


def verify_lemma_lb(r: RootSystem, q, sigma: RootConjugation) -> dict:
    """Verify the structure lemma for partition-compatible closed sets:
    (1) Q^r u conj(Q) and Q^r u conj(Q)^n are closed,
    (2) Q^r and conj(Q)^r are strongly orthogonal,
    (3) P = Q u conj(Q)^r is parabolic with P^n = Q^n.
    A failed item falsifies the input, not the lemma.
    """
    if not check_eq_ha(r, q, sigma):
        raise ValueError("input does not satisfy the partition condition")
    q = frozenset(q)
    qr, qn = split_r_n(r, q)
    qbar = frozenset(sigma.bar(i) for i in q)
    qbar_r = frozenset(sigma.bar(i) for i in qr)
    qbar_n = frozenset(sigma.bar(i) for i in qn)
    report = {}
    report["closed_qr_qbar"] = is_closed(r, qr | qbar)
    report["closed_qr_qbarn"] = is_closed(r, qr | qbar_n)
    report["strongly_orthogonal"] = all(
        root_sum(r, a, b) is None and root_sum(r, a, r.neg(b)) is None for a in qr for b in qbar_r
    )
    p = q | qbar_r
    pneg = frozenset(r.neg(i) for i in p)
    pn = frozenset(i for i in p if r.neg(i) not in p)
    report["parabolic"] = is_closed(r, p) and (p | pneg) == frozenset(range(r.nroots))
    report["pn_is_qn"] = pn == qn
    report["ok"] = all(report.values())
    return report


def _defining_vector(r: RootSystem, qn, p) -> tuple[int, ...]:
    """A_0 with alpha(A_0) > 0 on P^n, = 0 on P^r, < 0 off P; taken as the
    sum of the nilpotent-part roots, an integer vector, and verified.  A
    root takes dot(alpha, A_0) / 2 on it, so the signs are those of the dot."""
    a0 = tuple(sum(r.roots[i][k] for i in qn) for k in range(r.ambient_dim))
    pr = frozenset(i for i in p if r.neg(i) in p)
    for i in range(r.nroots):
        v = dot(r.roots[i], a0)
        if i in qn and not v > 0:
            raise NoRegularVector("sum of Q^n does not define the parabolic set")
        if i in pr and v != 0:
            raise NoRegularVector("sum of Q^n does not vanish on P^r")
    return a0


def adapted_simple_system(r: RootSystem, q, sigma: RootConjugation) -> dict:
    """Simple system adapted to (Q, sigma): simple roots a_1..a_l of a
    positive system containing P, labeled so that a_1..a_p is a simple system
    for Q^r, the middle block lies in Q^n, every conj(a_i) is negative, and
    conj(a_i) = -a_{l+1-i} for i <= p.  All five conditions are re-verified
    on the output.  The result carries the verify_lemma_lb report under
    "lemma"; when the lemma fails, it is {"lemma": report, "ok": False} and
    no simple system is built."""
    lemma = verify_lemma_lb(r, q, sigma)
    if not lemma["ok"]:
        return {"lemma": lemma, "ok": False}
    q = frozenset(q)
    qr, qn = split_r_n(r, q)
    qbar_r = frozenset(sigma.bar(i) for i in qr)
    p = q | qbar_r
    a0 = _defining_vector(r, qn, p)
    n = r.ambient_dim
    # regular A_1 in the (-1)-eigenspace of sigma
    eig = _minus_eigenbasis(sigma, n)
    if not eig:
        raise NoRegularVector("conjugation has no (-1)-eigenspace")
    # every vector below is paired with roots as integer numerators over a
    # positive denominator: alpha(num/den) = dot(alpha, num) / (2 den)
    for t in range(1, 1000):
        a1 = tuple(sum((Fraction(t**j) * b[k] for j, b in enumerate(eig)), Fraction(0)) for k in range(n))
        num1, den1 = scaled(a1)
        if all(dot(v, num1) for v in r.roots):
            break
    else:
        raise NoRegularVector("no regular vector found in the (-1)-eigenspace")
    # exact epsilon per the strict-inequality argument: max |alpha(A_1)| and
    # the largest ceil(1 / alpha(A_0)) = ceil(2 / dot) over Q^n
    max_a1 = Fraction(max(abs(dot(v, num1)) for v in r.roots), 2 * den1)
    inv_a0 = max((-(-2 // dot(r.roots[i], a0)) for i in qn), default=1)
    big = int(1 + max_a1 * max(1, inv_a0))
    eps = Fraction(1, big)
    # A = A_0 + eps A_1 = (big den1 A_0 + num1) / (big den1)
    num = tuple(big * den1 * x + y for x, y in zip(a0, num1))
    vals = [dot(v, num) for v in r.roots]
    if 0 in vals:
        raise NoRegularVector("A = A0 + eps*A1 is not regular")
    simples = simple_roots(r, [i for i in range(r.nroots) if vals[i] > 0])
    # label: first the simple roots inside Q^r, then those in Q^n, then the
    # rest, ending with the partners -conj(head) in reversed order
    head = [s for s in simples if s in qr]
    mid = [s for s in simples if s in qn]
    tail = [s for s in simples if s not in q]
    partners = [r.neg(sigma.bar(h)) for h in head]
    if any(s not in tail for s in partners):
        raise ValueError("conjugate of a Q^r-simple root is not a tail simple root")
    lset = head + mid + [s for s in tail if s not in partners] + partners[::-1]
    plen = len(head)
    ell = len(lset)
    # verification of the five displayed conditions
    checks = {
        "simples_in_p": all(s in p for s in lset),
        "head_in_qr": all(s in qr for s in lset[:plen]),
        "mid_in_qn": all(s in qn for s in lset[plen : ell - plen]),
        "bars_negative": all(vals[sigma.bar(s)] < 0 for s in lset),
        "head_pairing": all(
            sigma.bar(lset[i]) == r.neg(lset[ell - 1 - i]) for i in range(plen)
        ),
        "head_spans_qr": _is_base(r, lset[:plen], [i for i in qr if vals[i] > 0]),
    }
    return {
        "lemma": lemma,
        "simples": lset,
        "p": plen,
        "a0": a0,
        "a1": a1,
        "epsilon": eps,
        "checks": checks,
        "ok": all(checks.values()),
    }


def _is_base(r: RootSystem, head, positive) -> bool:
    """head is a base of the root subsystem whose positive system is
    positive: a subset of a positive system is a base exactly when it is the
    set of its indecomposable roots (Bourbaki VI 1.6)."""
    return set(head) == set(simple_roots(r, positive))


def _minus_eigenbasis(sigma: RootConjugation, n: int):
    """Rational basis of ker(sigma + id)."""
    return kernel([[x + (1 if i == j else 0) for i, x in enumerate(col)] for j, col in enumerate(sigma.cols)], n, Fraction)


def regular_max_structure(r: RootSystem, sigma: RootConjugation, q, m_basis) -> dict:
    """Verify the data of a regular maximal-CR-dimension structure: the
    complex Cartan part m must have dim = floor(l/2), contain the Q^r-coroot
    span, and meet its conjugate trivially; reports CR dim/codim.

    m_basis: rows of Gaussian-rational ambient vectors (pairs (re, im) of
    rational ambient vectors)."""
    if not check_eq_ha(r, q, sigma):
        raise ValueError("Q fails the partition condition")
    ell = r.rank
    n = r.ambient_dim
    m = CMatrix(n, [[CNum(Fraction(x), Fraction(y)) for x, y in zip(re, im, strict=True)] for re, im in m_basis])
    report = {"dim_m": m.rank(), "expected_dim": ell // 2}
    report["dim_ok"] = m.rank() == ell // 2
    # the h-space conjugation is sigma applied to coordinatewise conj, which
    # is conj(sigma v) as sigma is real
    mbar = CMatrix(n, [[z.conj() for z in _apply(sigma.cols, v, n)] for v in m.rows])
    inter = m.intersect(mbar)
    report["m_meets_mbar_trivially"] = inter.rank() == 0
    # Q^r coroot span inside m: the coroot is a multiple of the root, and
    # membership ignores scale
    qr, _ = split_r_n(r, q)
    report["coroot_span_in_m"] = all(m.contains(r.roots[i]) for i in qr)
    crdim = m.rank() + len(q)
    crcodim = ell - 2 * m.rank()
    report["cr_dim"] = crdim
    report["cr_codim"] = crcodim
    report["codim_matches_rank_parity"] = crcodim == ell % 2
    report["ok"] = (
        report["dim_ok"] and report["m_meets_mbar_trivially"] and report["coroot_span_in_m"]
    )
    return report
