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
properties.  Q's expression matrix (its columns the roots of Q) has one
Smith normal form U A V = S (intlat.smith_normal_form), which carries only
the coordinate-sum row 1^T V in place of V, so every solution and kernel
vector comes out as its coefficient sum: is_fundamental reads U and the
invariant factors, and route A, degree_set and kernel_degree_gcd read only
sums.  Route A analyses the coset of achievable coefficient sums over the
integer kernel of the Q-expression lattice; route B solves alpha(E) = 1 on
Q from one Smith normal form of the coweight evaluation rows, which carries
all of V because it lifts a witness, mod 2, mod 4 and exactly, all three
from U 1 formed once.  A mismatch is always a bug and raises
MethodDisagreement; a witness that fails its own check raises
WitnessRejected.

degree_set (the coset {h : gamma in Q*_h} of one root) and kernel_degree_gcd
(the step shared by those cosets) state the Q*_h sets of the paper's
definitions, which route A reads in closed form; the tests check it on them.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .intlat import SNFSolver, column_solver
from .rootsys import GradingElement, RootSystem, _cached, dot, evaluate_int, root_sum, sorted_indices


class MethodDisagreement(AssertionError):
    """The two independent decision routes disagreed; internal bug."""


class HierarchyViolation(AssertionError):
    """j => weak-J => symmetric failed on an evaluated set; internal bug."""


class WitnessRejected(AssertionError):
    """A witness of route B failed its check on Q or left the coweight
    lattice; internal bug.  Raised, not asserted, so python -O keeps it."""


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
    return r.neg(i) != j and root_sum(r, i, j) is None


def compat_graph(r: RootSystem) -> list[int]:
    """The compatibility graph over all roots as neighbour masks: bit j of
    entry i is set when roots i and j are compatible.  lb-sets are exactly
    the cliques.  Each mask starts from every root but i and -i, and each
    pair whose vector sum is a root clears its two bits (the sum of i and -i,
    the zero vector, is not a root).  Built once per root system."""
    def build():
        n = r.nroots
        nbr = [((1 << n) - 1) ^ (1 << i) ^ (1 << r.negation[i]) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if root_sum(r, i, j) is not None:
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
    closed = {*qs, None}
    return all(root_sum(r, i, j) in closed for a, i in enumerate(qs) for j in qs[a + 1 :])


def _expression_solver(r: RootSystem, q) -> SNFSolver:
    """Solver for the system (columns = stored vectors of Q) * k = gamma that
    carries the all-ones row: each solution or kernel vector k comes out as
    its coefficient sum (sum(k),)."""
    columns = [r.roots[i] for i in sorted(q)]
    return column_solver(columns, r.ambient_dim, [[1] * len(columns)])


def _kernel_sum_gcd(solver: SNFSolver) -> int:
    """gcd of the coefficient sums over the integer kernel of an expression
    solver (0 when the kernel is 0): the sums over the kernel are gcd*Z."""
    return gcd(*(total for (total,) in solver.kernel_basis))


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


class DegreeCoset(NamedTuple):
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
    (base,) = sol.particular
    return DegreeCoset(empty=False, base=base, step=_kernel_sum_gcd(solver))


def kernel_degree_gcd(r: RootSystem, q) -> int:
    """gcd of coefficient sums over the integer kernel of the Q-expression
    lattice; the coset of every expressible root is (base + gcd*Z)."""
    return _kernel_sum_gcd(_expression_solver(r, q))


def q_star_11(r: RootSystem, q) -> frozenset[int]:
    """Roots of the form +-(beta1 - beta2) with beta1, beta2 in Q, read off
    root_sum as beta1 + (-beta2)."""
    qs = sorted(q)
    diffs = {root_sum(r, i, r.neg(j)) for a, i in enumerate(qs) for j in qs[a + 1 :]} - {None}
    return frozenset(diffs | {r.neg(d) for d in diffs})


def _verify_witness(r: RootSystem, q, e: GradingElement, modulus: int | None):
    """WitnessRejected unless alpha(E) = 1 (mod modulus, or exactly) on Q and
    E lies in the coweight lattice."""
    for i in q:
        v = evaluate_int(r.roots[i], e)
        if modulus is None:
            if v != 1:
                raise WitnessRejected("witness fails exact evaluation")
        elif v % modulus != 1 % modulus:
            raise WitnessRejected("witness fails congruence")
    # every root is an integer combination of the lattice basis, so integrality
    # on the basis is integrality on R: dot(b, num) / (2 den) in Z
    for b in r.lattice_basis:
        if dot(b, e.num) % (2 * e.den):
            raise WitnessRejected("witness leaves the coweight lattice")


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
            self.gcd = _kernel_sum_gcd(solver)
            self.star = q_star_11(r, self.q)
            self.coweights = SNFSolver([r.coweight_values[i] for i in self.q], r.rank)
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


class PropertyReport(NamedTuple):
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
    if not a.holds:
        return PropertyReport(a.lb, a.fundamental)
    (sym, e2), (wj, e4), (jp, ee) = (a.decide(m) for m in (2, 4, None))
    if (jp and not wj) or (wj and not sym):
        raise HierarchyViolation(f"hierarchy broken: j={jp} weak={wj} sym={sym}")
    return PropertyReport(a.lb, a.fundamental, sym, wj, jp, e2, e4, ee)
