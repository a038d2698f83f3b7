"""Root systems A_{n-1}, B_n, C_n, D_n, G2, F4, E6, E7, E8 in explicit
coordinates, with exact inner products and the coweight lattice
R* = {H : alpha(H) in Z for all alpha}.

Every family is built from shared parts: the units +-x e_i, the pairs
+-e_i +- e_j of D_n, the differences e_i - e_j of A_{n-1}, and E8, which is D8
plus the half-spin vectors with an even number of minus signs.  E7 and E6 are
cut from E8 as the roots orthogonal to e7 + e8, and to e6 + e8 as well
(Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates V-VII).

Roots are stored in DOUBLED ambient coordinates (stored = 2 * coordinate), so
the half-integer roots of the E series and F4 become integer vectors.  Inner
products in the original normalization are dot(stored)/4; evaluation of a root
on an ambient vector is dot(stored, vector)/2, one integer dot product on a
grading element, which carries its coweight coordinates and its ambient
vector as integer numerators over one denominator, and no Fraction.  An
ambient vector of another length than the ambient dimension is refused.  The
coweight basis, dual to a Z-basis of the root lattice, comes from one Smith
normal form of the integer Gram matrix, with no elimination over a field.
root_sum is the one lookup of root addition, differences included, that
every module reads.

build_root_system returns one shared RootSystem per type and n for the whole
process: the first call builds it, later calls (from the CLI, the library or
another command run in the same process) get the same object with the
derived tables it has kept.  Callers must not mutate it.
root_system_of_rank takes the Lie rank instead, as the CLI and the root-set
file give it: A_n is built on ambient dimension n + 1.

A root set is handled as a frozenset of root indices into ``RootSystem.roots``;
the canonical external form is the sorted index tuple.  rootset_to_json
writes the root-set file that the check and realform commands read through
rootset_from_json.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from operator import add, mul

from .intlat import SNFSolver, hermite_basis

TYPES = ("A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")

FIXED_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}

class InvalidRank(ValueError):
    pass


def _vec(n: int, *entries) -> tuple[int, ...]:
    """The length-n vector with the given (index, value) entries, else 0."""
    v = [0] * n
    for i, x in entries:
        v[i] = x
    return tuple(v)


def _units(n: int, x: int) -> list[tuple[int, ...]]:
    """+-x e_i."""
    return [_vec(n, (i, s)) for i in range(n) for s in (x, -x)]


def _pairs(n: int) -> list[tuple[int, ...]]:
    """+-2e_i +- 2e_j for i < j, the roots of D_n."""
    return [_vec(n, (i, si), (j, sj)) for i in range(n) for j in range(i + 1, n) for si in (2, -2) for sj in (2, -2)]


def _differences(n: int) -> list[tuple[int, ...]]:
    """2e_i - 2e_j for i != j, the roots of A_{n-1}."""
    return [_vec(n, (i, 2), (j, -2)) for i in range(n) for j in range(n) if i != j]


def _e8() -> list[tuple[int, ...]]:
    """D_8 plus the half-spin vectors (+-1, ..., +-1) with an even number of
    minus signs."""
    return _pairs(8) + [s for s in itertools.product((1, -1), repeat=8) if math.prod(s) == 1]


_BUILDERS = {
    "A": _differences,
    "B": lambda n: _units(n, 2) + _pairs(n),
    "C": lambda n: _units(n, 4) + _pairs(n),
    "D": _pairs,
    # A_2 plus the long roots +-(2e_i - e_j - e_k), the projections of +-6e_i
    # (stored) onto the plane of A_2
    "G2": lambda n: _differences(3) + [tuple(x - sum(v) // 3 for x in v) for v in _units(3, 6)],
    "F4": lambda n: _units(4, 2) + _pairs(4) + list(itertools.product((1, -1), repeat=4)),
    "E6": lambda n: [v for v in _e8() if v[5] + v[7] == 0 == v[6] + v[7]],
    "E7": lambda n: [v for v in _e8() if v[6] + v[7] == 0],
    "E8": lambda n: _e8(),
}


def dot(u, v) -> int:
    return sum(map(mul, u, v))


def scaled(vec) -> tuple[tuple[int, ...], int]:
    """(num, den) with vec = num/den, num integer, den the least positive one."""
    den = math.lcm(*(Fraction(x).denominator for x in vec))
    return tuple(int(Fraction(x) * den) for x in vec), den


_set = object.__setattr__


class GradingElement:
    """Element of the coweight lattice R*: its integer coordinates in the
    coweight basis, and its ambient vector num/den as integer numerators
    over one denominator, so alpha(E) = dot(alpha, num) / (2 den).  It is
    immutable, and its equality, hash and repr read coords alone."""

    __slots__ = ("coords", "num", "den")

    def __init__(self, coords: tuple[int, ...], num: tuple[int, ...], den: int):
        _set(self, "coords", coords)
        _set(self, "num", num)
        _set(self, "den", den)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, o):
        return self.coords == o.coords if o.__class__ is GradingElement else NotImplemented

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return f"GradingElement(coords={self.coords!r})"


class RootSystem:
    """Equal to another RootSystem whose fields other than _tables are
    equal; unhashable."""

    type_tag: str
    rank: int
    ambient_dim: int
    roots: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    # Z-basis of the lattice spanned by the stored (doubled) roots
    lattice_basis: list[list[int]]
    # (columns of the coweight basis scaled to integers, their denominator)
    coweight_scaled: tuple[list[tuple[int, ...]], int]
    # coweight_values[i][k] = alpha_i(omega_k) for the coweight basis omega_k
    coweight_values: list[tuple[int, ...]]
    # negation[i] is the index of -roots[i]
    negation: list[int]
    # tables derived from the roots on first use and kept here (see _cached):
    # the compatibility masks of qsets, the simple roots, their integer
    # coordinates, the Cartan integers and the group data of weyl, and the
    # flag preset; root sums are not kept, root_sum looks each one up
    _tables: dict

    def __init__(self, type_tag, rank, ambient_dim, roots, index, lattice_basis, coweight_scaled, coweight_values,
                 negation, _tables=None):
        self.type_tag, self.rank, self.ambient_dim, self.roots, self.index = type_tag, rank, ambient_dim, roots, index
        self.lattice_basis, self.coweight_scaled, self.coweight_values = lattice_basis, coweight_scaled, coweight_values
        self.negation, self._tables = negation, {} if _tables is None else _tables

    def __eq__(self, o):
        if o.__class__ is not RootSystem:
            return NotImplemented
        return {**vars(self), "_tables": None} == {**vars(o), "_tables": None}

    @property
    def nroots(self) -> int:
        return len(self.roots)

    def neg(self, i: int) -> int:
        return self.negation[i]

    def grading_element(self, coords) -> GradingElement:
        coords = tuple(int(c) for c in coords)
        cols, den = self.coweight_scaled
        num = tuple(dot(coords, col) for col in cols)
        return GradingElement(coords, num, den)

    def ambient_to_coweight_coords(self, ambient) -> tuple[int, ...] | None:
        """Integer coweight coordinates of an ambient vector, or None if it is
        not in the coweight lattice.  The coweight basis is dual to
        lattice_basis, so the coordinates are c_i = dot(b_i, H)/2; H is in the
        lattice when they are integers and sum_i c_i omega_i gives H back,
        which fails off the span of the roots."""
        num, den = scaled(_ambient(ambient, self.ambient_dim))
        pairs = [divmod(dot(b, num), 2 * den) for b in self.lattice_basis]
        coords = tuple(c for c, _ in pairs)
        cols, cw_den = self.coweight_scaled
        if any(rem for _, rem in pairs) or any(dot(coords, col) * den != x * cw_den for col, x in zip(cols, num)):
            return None
        return coords


def _ambient(vec, n: int):
    """vec, or ValueError unless it has the ambient dimension n."""
    if len(vec) != n:
        raise ValueError(f"ambient vector has {len(vec)} coordinates, not the ambient dimension {n}")
    return vec


def evaluate(alpha: tuple[int, ...], e: GradingElement | tuple) -> Fraction:
    """alpha(E) for a grading element or an ambient vector E, which must
    have the length of alpha."""
    num, den = (e.num, e.den) if isinstance(e, GradingElement) else scaled(_ambient(e, len(alpha)))
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
    """Index of alpha_i + alpha_j when the sum is a root, else None: the one
    lookup of root addition.  The difference alpha_i - alpha_j is
    root_sum(r, i, r.neg(j))."""
    return r.index.get(tuple(map(add, r.roots[i], r.roots[j])))


def coweight_lattice_basis(dbasis: list[list[int]]) -> tuple[list[tuple[int, ...]], int]:
    """Basis of {H in span(R) : alpha(H) in Z for all alpha}, the dual of the
    root lattice, from a Z-basis ``dbasis`` of the doubled root lattice, as
    (num, den) with omega_j = num[j]/den over the least denominator.  As
    alpha(H) = dot(stored, H)/2, omega = 2 G^-1 dbasis for the integer Gram
    matrix G.  G is invertible and d G^-1 is integral for d its largest
    invariant factor, so each ambient column c of 2d G^-1 dbasis is the one
    integer solution of G y = 2d c, lifted from one Smith form of G."""
    r = len(dbasis)
    gram = SNFSolver([[dot(a, b) for b in dbasis] for a in dbasis], r)
    d = gram.d[-1]
    cols = [gram.lift(gram.transform([2 * d * x for x in c])) for c in zip(*dbasis)]
    g = math.gcd(d, *(x for c in cols for x in c))
    return [tuple(x // g for x in w) for w in zip(*cols)], d // g


_SYSTEMS: dict[tuple[str, int], RootSystem] = {}


def build_root_system(type_tag: str, rank: int | None = None) -> RootSystem:
    """The root system in the explicit coordinates used throughout.

    For type A the parameter is the ambient dimension n (the system A_{n-1});
    for B, C, D it is n; the exceptional types have fixed rank and the
    parameter may be omitted.  An invalid rank, or one whose roots do not fit
    in memory, raises InvalidRank and stores nothing.

    The system is built once per process and shared: every later call with
    the same type and n returns the same object, with the tables it has kept
    (see _cached), so callers must not mutate it.
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
    key = (type_tag, n)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = _build(type_tag, n)
    return _SYSTEMS[key]


def root_system_of_rank(type_tag: str, rank: int | None) -> RootSystem:
    """The root system of Lie rank ``rank``, as the CLI and the root-set file
    give it: A_n = sl(n+1) is built on ambient dimension n + 1, every other
    type as build_root_system builds it.  InvalidRank names the rank given."""
    if type_tag == "A" and rank is not None:
        if rank < 1:
            raise InvalidRank(f"A_n needs rank n >= 1, got {rank}")
        rank += 1
    return build_root_system(type_tag, rank)


def _build(type_tag: str, n: int) -> RootSystem:
    """A new RootSystem of a validated type and n."""
    true_rank = {"A": n - 1, "B": n, "C": n, "D": n}.get(type_tag, FIXED_RANK.get(type_tag))
    try:
        stored = sorted(_BUILDERS[type_tag](n))
    except MemoryError:
        raise InvalidRank(f"{type_tag}_{true_rank} is too large: its roots do not fit in memory") from None
    ambient = len(stored[0])
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
    rs = root_system_of_rank(tag, rank)
    name = tag if tag in FIXED_RANK else f"{tag}{rank}"
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
