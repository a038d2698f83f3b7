"""Predicates on closed root subsets Q and the three gradation properties.

A set Q is an "lb-set" when alpha in Q implies -alpha not in Q and no two
elements sum to a root; it is fundamental when every root lies in Z[Q].  On
fundamental lb-sets three nested properties are decided, each by two
independent routes that must agree:

* CR-symmetric    <->  an E in the coweight lattice with alpha(E) odd on Q
* weak-J          <->  an E with alpha(E) = 1 mod 4 on Q
* J               <->  an E with alpha(E) = 1 exactly on Q

Each set is analysed once (lb, fundamental, the Q-expression lattice, Q*_{1,1}
and the integer coweight evaluation rows), and one decision over that
analysis, parameterised by the modulus 2, 4 or exact, serves all three
properties.  Route A analyses the coset of achievable coefficient sums over
the integer kernel of the Q-expression lattice; route B solves alpha(E) = 1
on Q from one Smith normal form U A V = S of the coweight evaluation rows,
mod 2, mod 4 and exactly, all three from U 1 formed once.  A mismatch is
always a bug and raises MethodDisagreement.

degree_set (the coset {h : gamma in Q*_h} of one root) and kernel_degree_gcd
(the step shared by those cosets) state the Q*_h sets of the paper's
definitions, which route A reads in closed form; the tests check it on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .intlat import SNFSolver, column_solver, lattice_coset_gcd
from .rootsys import GradingElement, RootSystem, _cached, dot, evaluate_int, root_sum, sorted_indices


class MethodDisagreement(AssertionError):
    """The two independent decision routes disagreed; internal bug."""


class HierarchyViolation(AssertionError):
    """j => weak-J => symmetric failed on an evaluated set; internal bug."""


class NotFundamental:
    """Distinct outcome for predicates applied off their hypothesis."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotFundamental"

    def __bool__(self):
        raise TypeError("NotFundamental outcome is not a boolean; test identity instead")


NOT_FUNDAMENTAL = NotFundamental()


def compatible(r: RootSystem, i: int, j: int) -> bool:
    """Edge relation of the lb compatibility graph."""
    if r.neg(i) == j:
        return False
    return root_sum(r, i, j) is None


def compat_graph(r: RootSystem) -> list[int]:
    """The compatibility graph over all roots as neighbour masks: bit j of
    entry i is set when roots i and j are compatible.  lb-sets are exactly
    the cliques.  Each mask starts from every root but i and -i, and each
    pair whose vector sum is a root clears its two bits (the sum of i and -i,
    the zero vector, is not a root).  Built once per root system."""
    def build():
        roots, index, n = r.roots, r.index, r.nroots
        nbr = [((1 << n) - 1) ^ (1 << i) ^ (1 << r.negation[i]) for i in range(n)]
        for i, u in enumerate(roots):
            for j in range(i + 1, n):
                if tuple(map(add, u, roots[j])) in index:
                    nbr[i] ^= 1 << j
                    nbr[j] ^= 1 << i
        return tuple(nbr)

    return list(_cached(r, "compat", build))


def is_lb(r: RootSystem, q) -> bool:
    """Q is a clique of the compatibility graph."""
    qs = sorted(q)
    return all(compatible(r, i, j) for a, i in enumerate(qs) for j in qs[a + 1 :])


def is_closed(r: RootSystem, q) -> bool:
    """Closed under root addition: a,b in Q, a+b a root => a+b in Q."""
    qs = sorted(q)
    qset = set(qs)
    for a in range(len(qs)):
        for b in range(a + 1, len(qs)):
            s = root_sum(r, qs[a], qs[b])
            if s is not None and s not in qset:
                return False
    return True


def _expression_solver(r: RootSystem, q) -> SNFSolver:
    """Solver for the system (columns = stored vectors of Q) * k = gamma."""
    return column_solver([r.roots[i] for i in sorted(q)], r.ambient_dim)


def is_fundamental(r: RootSystem, q, solver: SNFSolver | None = None) -> bool:
    """Every root lies in the integer lattice Z[Q]; it suffices that the
    Z-basis ``r.lattice_basis`` of the root lattice does.  Each basis vector b
    is a solvability test on U b against the invariant factors of Q's
    expression matrix; no solution is formed.  ``solver`` is Q's expression
    solver when the caller already has one."""
    if not q:
        return r.nroots == 0
    if solver is None:
        solver = _expression_solver(r, q)
    return all(solver.feasible(solver.transform(v)) for v in r.lattice_basis)


@dataclass(frozen=True)
class DegreeCoset:
    """Set {h : gamma in Q*_h} as the arithmetic progression base + step*Z
    (step 0 means the singleton {base}); empty when gamma is not in Z[Q]."""

    empty: bool
    base: int = 0
    step: int = 0

    def contains(self, h: int) -> bool:
        if self.empty:
            return False
        if self.step == 0:
            return h == self.base
        return (h - self.base) % self.step == 0


def degree_set(r: RootSystem, q, gamma_idx: int) -> DegreeCoset:
    """Achievable coefficient sums h with gamma = sum k_i beta_i, beta_i in Q."""
    solver = _expression_solver(r, q)
    sol = solver.solve(list(r.roots[gamma_idx]))
    if sol is None:
        return DegreeCoset(empty=True)
    base = sum(sol.particular)
    step = lattice_coset_gcd(sol.kernel_basis)
    return DegreeCoset(empty=False, base=base, step=step)


def kernel_degree_gcd(r: RootSystem, q) -> int:
    """gcd of coefficient sums over the integer kernel of the Q-expression
    lattice; the coset of every expressible root is (base + gcd*Z)."""
    return lattice_coset_gcd(_expression_solver(r, q).kernel_basis)


def q_star_11(r: RootSystem, q) -> frozenset[int]:
    """Roots of the form +-(beta1 - beta2) with beta1, beta2 in Q, read off
    the system's sum table as beta1 + (-beta2)."""
    out = set()
    qs = sorted(q)
    for a in range(len(qs)):
        for b in range(a + 1, len(qs)):
            idx = root_sum(r, qs[a], r.neg(qs[b]))
            if idx is not None:
                out.add(idx)
                out.add(r.neg(idx))
    return frozenset(out)


def _verify_witness(r: RootSystem, q, e: GradingElement, modulus: int | None):
    for i in q:
        v = evaluate_int(r.roots[i], e)
        if modulus is None:
            assert v == 1, "witness fails exact evaluation"
        else:
            assert v % modulus == 1 % modulus, "witness fails congruence"
    # every root is an integer combination of the lattice basis, so integrality
    # on the basis is integrality on R: dot(b, num) / (2 den) in Z
    for b in r.lattice_basis:
        assert dot(b, e.num) % (2 * e.den) == 0, "witness leaves the coweight lattice"


_PROPERTY = {2: "symmetric", 4: "weak-J", None: "J"}


class _Analysis:
    """What the three decisions need about (R, Q), computed once: the lb and
    fundamental hypotheses (fundamentality as a solvability test on U b, see
    is_fundamental) and, when both hold, the kernel degree gcd, Q*_{1,1}, the
    factored integer coweight evaluation rows of Q and route B's one
    right-hand side: the all-ones vector, transformed to U 1 once for the
    mod-2, mod-4 and exact decisions."""

    def __init__(self, r: RootSystem, q):
        self.r, self.q = r, sorted_indices(q)
        solver = _expression_solver(r, self.q)
        self.lb = is_lb(r, self.q)
        self.fundamental = is_fundamental(r, self.q, solver)
        self.holds = self.lb and self.fundamental
        if self.holds:
            self.gcd = lattice_coset_gcd(solver.kernel_basis)
            self.star = q_star_11(r, self.q)
            self.coweights = SNFSolver([r.coweight_values[i] for i in self.q])
            self.ones = self.coweights.transform([1] * len(self.q))

    def decide(self, m: int | None):
        """CR-symmetric (m = 2), weak-J (m = 4) or J (m = None) by both
        routes: (bool, witness-or-None), or NOT_FUNDAMENTAL off the
        lb/fundamental hypothesis."""
        if not self.holds:
            return NOT_FUNDAMENTAL
        # route A: the degree cosets of Q*_{1,1} are base 0 + gcd*Z; J needs
        # every coset to be a singleton
        verdict_a = self.gcd == 0 if m is None else (not self.star) or self.gcd % m == 0
        # route B: alpha(E) = 1 on Q (mod m, or exactly) over the coweight lattice
        x = self.coweights.lift(self.ones) if m is None else self.coweights.lift_mod(self.ones, m)
        if (x is not None) != verdict_a:
            raise MethodDisagreement(f"{_PROPERTY[m]}: coset route {verdict_a}, solver route {x is not None}")
        if x is None:
            return (False, None)
        e = self.r.grading_element(x)
        _verify_witness(self.r, self.q, e, m)
        return (True, e)


def is_symmetric(r: RootSystem, q):
    """CR-symmetry: returns (bool, witness-or-None), or NOT_FUNDAMENTAL when
    the lb/fundamental hypothesis fails."""
    return _Analysis(r, q).decide(2)


def has_weak_j(r: RootSystem, q):
    """Weak-J property (mod-4 witness); same contract as is_symmetric."""
    return _Analysis(r, q).decide(4)


def has_j(r: RootSystem, q):
    """J property (exact witness alpha(E) = 1 on Q); same contract."""
    return _Analysis(r, q).decide(None)


@dataclass
class PropertyReport:
    is_lb: bool
    is_fundamental: bool
    symmetric: bool | None = None
    weak_j: bool | None = None
    j_property: bool | None = None
    witness_mod2: GradingElement | None = None
    witness_mod4: GradingElement | None = None
    witness_exact: GradingElement | None = None

    def to_jsonable(self) -> dict:
        def w(e):
            return None if e is None else list(e.coords)

        return {
            "is_lb": self.is_lb,
            "fundamental": self.is_fundamental,
            "symmetric": self.symmetric,
            "weak_j": self.weak_j,
            "j": self.j_property,
            "witness_mod2": w(self.witness_mod2),
            "witness_mod4": w(self.witness_mod4),
            "witness_exact": w(self.witness_exact),
        }


def property_report(r: RootSystem, q) -> PropertyReport:
    """Full report; enforces the j => weak-J => symmetric hierarchy on every
    evaluation (HierarchyViolation would be an internal bug)."""
    a = _Analysis(r, q)
    rep = PropertyReport(is_lb=a.lb, is_fundamental=a.fundamental)
    if not a.holds:
        return rep
    (sym, e2), (wj, e4), (jp, ee) = (a.decide(m) for m in (2, 4, None))
    rep.symmetric, rep.weak_j, rep.j_property = sym, wj, jp
    rep.witness_mod2, rep.witness_mod4, rep.witness_exact = e2, e4, ee
    if (jp and not wj) or (wj and not sym):
        raise HierarchyViolation(f"hierarchy broken: j={jp} weak={wj} sym={sym}")
    return rep
