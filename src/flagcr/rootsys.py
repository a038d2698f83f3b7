"""Root systems A_{n-1}, B_n, C_n, D_n, G2, F4, E6, E7, E8 in explicit
coordinates, with exact inner products and the coweight lattice
R* = {H : alpha(H) in Z for all alpha}.

Roots are stored in DOUBLED ambient coordinates (stored = 2 * coordinate), so
the half-integer roots of the E series and F4 become integer vectors.  Inner
products in the original normalization are dot(stored)/4; evaluation of a root
on an ambient vector is dot(stored, vector)/2, one integer dot product on a
grading element, which carries integer numerators over one denominator.  The
coweight basis, dual to a Z-basis of the root lattice, comes from one Smith
normal form of the integer Gram matrix, with no elimination over a field.

A root set is handled as a frozenset of root indices into ``RootSystem.roots``;
the canonical external form is the sorted index tuple.  rootset_to_json
writes the root-set file that the check and realform commands read through
rootset_from_json.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .intlat import hermite_basis, smith_normal_form

TYPES = ("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")

FIXED_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}

class InvalidRank(ValueError):
    pass


def _a_roots(n: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                v = [0] * n
                v[i], v[j] = 2, -2
                out.append(tuple(v))
    return out


def _b_roots(n: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(n):
        for s in (2, -2):
            v = [0] * n
            v[i] = s
            out.append(tuple(v))
    out.extend(_pair_roots(n))
    return out


def _c_roots(n: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(n):
        for s in (4, -4):
            v = [0] * n
            v[i] = s
            out.append(tuple(v))
    out.extend(_pair_roots(n))
    return out


def _pair_roots(n: int) -> list[tuple[int, ...]]:
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (2, -2):
                for sj in (2, -2):
                    v = [0] * n
                    v[i], v[j] = si, sj
                    out.append(tuple(v))
    return out


def _g2_roots() -> list[tuple[int, ...]]:
    out = []
    for i, j in itertools.permutations(range(3), 2):
        v = [0, 0, 0]
        v[i], v[j] = 2, -2
        out.append(tuple(v))
    for i in range(3):
        j, k = [x for x in range(3) if x != i]
        for s in (1, -1):
            v = [0, 0, 0]
            v[i], v[j], v[k] = 4 * s, -2 * s, -2 * s
            out.append(tuple(v))
    return out


def _f4_roots() -> list[tuple[int, ...]]:
    out = _b_roots(4)
    for signs in itertools.product((1, -1), repeat=4):
        out.append(tuple(signs))
    return out


def _spinor_roots(constraint) -> list[tuple[int, ...]]:
    out = []
    for signs in itertools.product((1, -1), repeat=8):
        prod = 1
        for s in signs:
            prod *= s
        if prod == 1 and constraint(signs):
            out.append(tuple(signs))
    return out


def _pairs_in(indices: list[int]) -> list[tuple[int, ...]]:
    out = []
    for a, b in itertools.combinations(indices, 2):
        for sa in (2, -2):
            for sb in (2, -2):
                v = [0] * 8
                v[a], v[b] = sa, sb
                out.append(tuple(v))
    return out


def _e8_roots() -> list[tuple[int, ...]]:
    return _pairs_in(list(range(8))) + _spinor_roots(lambda s: True)


def _e7_roots() -> list[tuple[int, ...]]:
    out = _pairs_in(list(range(6)))
    out.append((0, 0, 0, 0, 0, 0, 2, -2))
    out.append((0, 0, 0, 0, 0, 0, -2, 2))
    out.extend(_spinor_roots(lambda s: s[6] + s[7] == 0))
    return out


def _e6_roots() -> list[tuple[int, ...]]:
    out = _pairs_in(list(range(5)))
    out.extend(_spinor_roots(lambda s: s[5] == s[6] == -s[7]))
    return out


_BUILDERS = {
    "A": _a_roots,
    "B": _b_roots,
    "C": _c_roots,
    "D": _pair_roots,
    "G2": lambda n: _g2_roots(),
    "F4": lambda n: _f4_roots(),
    "E6": lambda n: _e6_roots(),
    "E7": lambda n: _e7_roots(),
    "E8": lambda n: _e8_roots(),
}


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def scaled(vec) -> tuple[tuple[int, ...], int]:
    """(num, den) with vec = num/den, num integer, den the least positive one."""
    den = math.lcm(*(Fraction(x).denominator for x in vec))
    return tuple(int(Fraction(x) * den) for x in vec), den


@dataclass(frozen=True)
class GradingElement:
    """Element of the coweight lattice R*, stored both as integer coordinates
    in the coweight basis and as the ambient rational vector, the latter also
    as integer numerators over one denominator, ambient = num/den (derived
    when not given; not compared), so alpha(E) = dot(alpha, num) / (2 den)."""

    coords: tuple[int, ...]
    ambient: tuple[Fraction, ...]
    num: tuple[int, ...] | None = field(default=None, repr=False, compare=False)
    den: int = field(default=1, repr=False, compare=False)

    def __post_init__(self):
        if self.num is None:
            num, den = scaled(self.ambient)
            object.__setattr__(self, "num", num)
            object.__setattr__(self, "den", den)


@dataclass
class RootSystem:
    type_tag: str
    rank: int
    ambient_dim: int
    roots: list[tuple[int, ...]] = field(repr=False)
    index: dict[tuple[int, ...], int] = field(repr=False)
    # Z-basis of the lattice spanned by the stored (doubled) roots
    lattice_basis: list[list[int]] = field(repr=False)
    # (columns of the coweight basis scaled to integers, their denominator)
    coweight_scaled: tuple[list[tuple[int, ...]], int] = field(repr=False)
    # coweight_values[i][k] = alpha_i(omega_k) for the coweight basis omega_k
    coweight_values: list[tuple[int, ...]] = field(repr=False)
    # negation[i] is the index of -roots[i]
    negation: list[int] = field(repr=False)
    _sum_table: dict[tuple[int, int], int | None] = field(default_factory=dict, repr=False, compare=False)
    # tables derived from the roots on first use and kept here (see _cached):
    # the compatibility masks of qsets, the simple roots, their integer
    # coordinates and the group data of weyl
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def nroots(self) -> int:
        return len(self.roots)

    def neg(self, i: int) -> int:
        return self.negation[i]

    def grading_element(self, coords) -> GradingElement:
        coords = tuple(int(c) for c in coords)
        cols, den = self.coweight_scaled
        num = tuple(dot(coords, col) for col in cols)
        return GradingElement(coords, tuple(Fraction(x, den) for x in num), num, den)

    def ambient_to_coweight_coords(self, ambient) -> tuple[int, ...] | None:
        """Integer coweight coordinates of an ambient vector, or None if it is
        not in the coweight lattice.  The coweight basis is dual to
        lattice_basis, so the coordinates are c_i = dot(b_i, H)/2; H is in the
        lattice when they are integers and sum_i c_i omega_i gives H back,
        which fails off the span of the roots."""
        if len(ambient) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        num, den = scaled(ambient)
        pairs = [divmod(dot(b, num), 2 * den) for b in self.lattice_basis]
        coords = tuple(c for c, _ in pairs)
        cols, cw_den = self.coweight_scaled
        if any(rem for _, rem in pairs) or any(dot(coords, col) * den != x * cw_den for col, x in zip(cols, num)):
            return None
        return coords


def inner(alpha: tuple[int, ...], beta: tuple[int, ...]) -> Fraction:
    """Exact inner product in the original (undoubled) normalization."""
    if len(alpha) != len(beta):
        raise ValueError("ambient dimension mismatch")
    return Fraction(dot(alpha, beta), 4)


def evaluate(alpha: tuple[int, ...], e: GradingElement | tuple) -> Fraction:
    """alpha(E) for a grading element or an ambient vector E."""
    num, den = (e.num, e.den) if isinstance(e, GradingElement) else scaled(e)
    return Fraction(dot(alpha, num), 2 * den)


def evaluate_int(alpha: tuple[int, ...], e: GradingElement) -> int:
    v, rem = divmod(dot(alpha, e.num), 2 * e.den)
    if rem:
        raise ValueError("root does not evaluate integrally")
    return v


def _cached(r: RootSystem, key: str, build):
    """The table ``key`` of the root system, built by ``build()`` on first use."""
    if key not in r._tables:
        r._tables[key] = build()
    return r._tables[key]


def root_sum(r: RootSystem, i: int, j: int) -> int | None:
    """Index of alpha_i + alpha_j when the sum is a root, else None."""
    key = (i, j) if i <= j else (j, i)
    hit = r._sum_table.get(key, -1)
    if hit != -1:
        return hit
    s = tuple(a + b for a, b in zip(r.roots[i], r.roots[j]))
    out = r.index.get(s)
    r._sum_table[key] = out
    return out


def coweight_lattice_basis(dbasis: list[list[int]]) -> tuple[list[tuple[int, ...]], int]:
    """Basis of {H in span(R) : alpha(H) in Z for all alpha}, the dual of the
    root lattice, from a Z-basis ``dbasis`` of the doubled root lattice, as
    (num, den) with omega_j = num[j]/den over the least denominator.  As
    alpha(H) = dot(stored, H)/2, omega = (G/2)^-1 dbasis for the integer Gram
    matrix G, and one Smith form U G V = S inverts it in integers:
    (G/2)^-1 = 2 V S^-1 U = V diag(2d/d_i) U / d, d the largest invariant
    factor."""
    r = len(dbasis)
    s, u, v = smith_normal_form([[dot(a, b) for b in dbasis] for a in dbasis])
    d = s[r - 1][r - 1]
    su = [[2 * d // s[i][i] * x for x in u[i]] for i in range(r)]
    n_mat = [[dot(v[j], col) for col in zip(*su)] for j in range(r)]
    num = [tuple(dot(row, col) for col in zip(*dbasis)) for row in n_mat]
    g = math.gcd(d, *(x for w in num for x in w))
    return [tuple(x // g for x in w) for w in num], d // g


def build_root_system(type_tag: str, rank: int | None = None) -> RootSystem:
    """Construct a root system in the explicit coordinates used throughout.

    For type A the parameter is the ambient dimension n (the system A_{n-1});
    for B, C, D it is n; the exceptional types have fixed rank and the
    parameter may be omitted.
    """
    if type_tag not in TYPES:
        raise InvalidRank(f"unknown type {type_tag!r}")
    if type_tag in FIXED_RANK:
        if rank is not None and rank != FIXED_RANK[type_tag]:
            raise InvalidRank(f"{type_tag} has fixed rank {FIXED_RANK[type_tag]}")
        n = FIXED_RANK[type_tag]
    else:
        if rank is None:
            raise InvalidRank(f"type {type_tag} requires a rank")
        n = rank
        if type_tag == "A" and n < 2:
            raise InvalidRank("A_{n-1} needs ambient dimension n >= 2")
        if type_tag in ("B", "C") and n < 2:
            raise InvalidRank(f"{type_tag}_n needs n >= 2")
        if type_tag == "D" and n < 3:
            raise InvalidRank("D_n needs n >= 3 (D_2 is reducible)")
    stored = sorted(_BUILDERS[type_tag](n))
    ambient = len(stored[0])
    true_rank = {"A": n - 1, "B": n, "C": n, "D": n}.get(type_tag, FIXED_RANK.get(type_tag))
    dbasis = hermite_basis([list(v) for v in stored])
    cw_num, den = coweight_lattice_basis(dbasis)
    values = [[divmod(dot(v, w), 2 * den) for w in cw_num] for v in stored]
    assert all(rem == 0 for row in values for _, rem in row), "a root is not integral on the coweight basis"
    index = {v: i for i, v in enumerate(stored)}
    return RootSystem(
        type_tag=type_tag,
        rank=true_rank,
        ambient_dim=ambient,
        roots=stored,
        index=index,
        lattice_basis=dbasis,
        coweight_scaled=(list(zip(*cw_num)), den),
        coweight_values=[tuple(x for x, _ in row) for row in values],
        negation=[index[tuple(-x for x in v)] for v in stored],
    )


def find_root(r: RootSystem, spec) -> int:
    """Index of a root given in ORIGINAL coordinates (ints, Fractions or
    halves as Fraction); convenience for tests and catalogs."""
    stored = tuple(int(Fraction(x) * 2) for x in spec)
    return r.index[stored]


def roots_set(r: RootSystem, specs) -> frozenset[int]:
    return frozenset(find_root(r, s) for s in specs)


def sorted_indices(q) -> tuple[int, ...]:
    return tuple(sorted(q))


def rootset_to_json(r: RootSystem, q) -> str:
    """The root-set file that the check and realform commands read."""
    return json.dumps(
        {"type": r.type_tag, "rank": r.rank, "roots": [list(r.roots[i]) for i in sorted_indices(q)]},
        sort_keys=True,
    )


def rootset_from_json(text: str) -> tuple[RootSystem, frozenset[int]]:
    """Inverse of rootset_to_json.  Malformed input raises ValueError naming
    what is wrong: not an object, a missing or ill-typed field, a vector that
    is not a root (stored doubled coordinates) or a root listed twice."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with keys type, rank, roots; got a {type(data).__name__}")
    for key in ("type", "roots"):
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    tag, roots = data["type"], data["roots"]
    if not isinstance(tag, str) or tag not in TYPES:
        raise ValueError(f"unknown type {tag!r}")
    rank = data.get("rank")
    if type(rank) is not int and not (rank is None and tag in FIXED_RANK):
        raise ValueError(f"type {tag} needs an integer rank, got {rank!r}")
    if tag in FIXED_RANK:
        rs = build_root_system(tag, rank)
        name = tag
    else:
        rs = build_root_system(tag, rank + 1 if tag == "A" else rank)
        name = f"{tag}{rank}"
    if not isinstance(roots, list):
        raise ValueError("roots must be a list of root vectors")
    q: set[int] = set()
    for k, v in enumerate(roots):
        idx = rs.index.get(tuple(v)) if isinstance(v, list) and all(type(x) is int for x in v) else None
        if idx is None:
            raise ValueError(f"roots[{k}] = {json.dumps(v)} is not a root of {name} (doubled coordinates)")
        if idx in q:
            raise ValueError(f"roots[{k}] = {json.dumps(v)} repeats an earlier root")
        q.add(idx)
    return rs, frozenset(q)
