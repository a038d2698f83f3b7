"""Enumeration of maximal lb/fundamental sets, the classification catalogs for
the classical types and G2/F4, the E-series constructors Q_{l,i,anchors}, the
Z2-grading tables of the E series with the orbits of each grading group, and
verify_paper's checks of the paper's claims (SECTIONS: classical, G2/F4,
gradings, E8), with KNOWN_DISCREPANCIES, the one registry of those falsified.

Maximal elements of Q(R) are exactly the maximal cliques of the compatibility
graph, each of which spans R over Z (the proof is at enumerate_maximal), so
enumeration is pivoting Bron-Kerbosch on the graph's neighbour masks, which
the root system keeps (qsets.compat_graph), followed by deduplication up to
the group.  W is transitive on the roots of one length of an irreducible
system (Humphreys, Introduction to Lie Algebras and Representation Theory,
10.4, Lemma C), so the W-orbits of roots are the length classes, and their
leaders are the least root of each length (one on A/D/E, two on B/C/F4/G2).
The search runs only through the leaders: the least member of a clique
orbit, the class representative, contains the least root m that any member
meets, and m leads its W-orbit, since W moves a member through m onto one
through any root of Wm.  No orbit is walked: the searched cliques are
bucketed by an invariant read off the neighbour masks, each class's
representative and orbit size come from one counted canonical form
(weyl.counted_form), one property report on the representative serves the
whole class, and the weighted mass identity checks the classes of every
bucket against the number of its cliques through each leader.  The B/D
catalogs and the maximal symmetric classes key W-classes by canonical form.

catalog, on the caller's root system: each type yields rows of (label, root
set, parameters, claims, source, witness), and one loop builds and
re-verifies every entry; maximality is an AND of the neighbour masks.

subset_universe (every fundamental lb-set up to W, as subsets of the class
representatives) and maximal_symmetric_classes serve the exhaustive claims
of the acceptance criteria: the G2 stratification, the F4 and classical
collapse claims (criteria 3 and 4), and solver agreement and invariance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from . import qsets
from .qsets import compat_graph, is_fundamental, property_report
from .rootsys import (
    GradingElement,
    RootSystem,
    _cached,
    _vec,
    build_root_system,
    dot,
    evaluate_int,
    find_root,
    roots_set,
    sorted_indices,
)
from .weyl import (
    BUDGET,
    BudgetExceeded,
    canonical_form,
    counted_form,
    diagram_automorphisms,
    positive_roots,
    reflection_perm,
    root_orbit,
    sets_equivalent,
    simple_roots,
)

H = Fraction(1, 2)


class MassIdentityViolation(AssertionError):
    """The counted forms of a bucket's classes and the clique search disagree
    on the weighted mass identity of enumerate_maximal; internal bug."""


class CatalogClaimFailed(AssertionError):
    def __init__(self, label, predicate, detail=""):
        super().__init__(f"catalog entry {label}: claim {predicate!r} failed {detail}")
        self.label = label
        self.predicate = predicate


class AnchorViolation(ValueError):
    pass


# ---------------------------------------------------------------------------
# clique machinery


class _Cliques(list):
    """The cliques maximal_cliques found; ``nodes`` is the number of
    recursion nodes the search made."""

    nodes = 0


def maximal_cliques(nbr: list[int], through, budget: int = BUDGET):
    """Pivoting Bron-Kerbosch (Tomita et al., TCS 363, 2006) on int bitmasks
    (San Segundo et al., Comput. Oper. Res. 38, 2011), the pivot of most
    neighbours in P by int.bit_count; returns the maximal cliques of the graph
    on 0..n-1 with neighbour masks ``nbr`` (bit j of nbr[i] for an edge ij,
    as compat_graph gives them) that contain one of the distinct vertices
    ``through``, each once, as sorted tuples, in a list whose ``nodes``
    attribute counts the recursion nodes.  The search from the k-th vertex v
    of ``through`` starts at R = {v}, P = its neighbours after the earlier
    ones, X = its neighbours among them; through = range(len(nbr)) finds
    every maximal clique of a graph with a vertex.

    ``budget`` bounds the number of recursion nodes; exceeding it raises
    BudgetExceeded with the cliques found so far attached.
    """
    found = _Cliques()
    nodes = 0

    def bk(r: tuple[int, ...], p: int, x: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"clique search exceeded {budget} nodes", found)
        if not p and not x:
            found.append(tuple(sorted(r)))
            return
        # pivot: most neighbours in P, low bit first; |P| - 1 of them suffice
        best, pivot, rest, size = -1, 0, p | x, p.bit_count() - 1
        while rest:
            low = rest & -rest
            rest ^= low
            k = low.bit_length() - 1
            c = (nbr[k] & p).bit_count()
            if c > best:
                best, pivot = c, k
                if c >= size:
                    break
        rest = p & ~nbr[pivot]
        while rest:
            low = rest & -rest
            rest ^= low
            k = low.bit_length() - 1
            bk(r + (k,), p & nbr[k], x & nbr[k])
            p ^= low
            x |= low

    done = 0
    for v in through:
        bk((v,), nbr[v] & ~done, nbr[v] & done)
        done |= 1 << v
    found.nodes = nodes
    return found


def _root_orbits(r: RootSystem) -> tuple[frozenset[int], ...]:
    """The W-orbits of the roots, which are the length classes (Humphreys,
    10.4), in the order of their least roots; built once."""
    def build():
        by_length: dict[int, list[int]] = {}
        for i, v in enumerate(r.roots):
            by_length.setdefault(dot(v, v), []).append(i)
        return tuple(map(frozenset, by_length.values()))

    return _cached(r, "root_orbits", build)


@dataclass
class EnumClass:
    canonical: tuple[int, ...]
    orbit_size: int
    report: qsets.PropertyReport

    def to_jsonable(self, r: RootSystem) -> dict:
        return {
            "roots": [list(r.roots[i]) for i in self.canonical],
            "size": len(self.canonical),
            "orbit_size": self.orbit_size,
            "report": self.report.to_jsonable(),
        }


def enumerate_maximal(r: RootSystem, quotient: str = "weyl", budget: int = BUDGET) -> list[EnumClass]:
    """All maximal elements of Q(R) up to the chosen quotient group, with
    property reports, each class represented by its least member, in the
    order of the representatives.

    Every maximal clique Q is fundamental, so none is filtered out.  Two
    compatible roots p != -q have p.q >= 0, since otherwise p + q would be a
    root; so s = sum(Q) has s.q >= q.q > 0 on Q.  Were some root outside
    Z[Q], take such a gamma with gamma.s largest.  Q is maximal, so some q in
    Q is incompatible with gamma: either gamma = -q, or gamma + q is a root
    with a larger pairing with s, which puts it in Z[Q].  Both put gamma in
    Z[Q].

    Only the cliques through the leaders, the least root of each W-orbit of
    roots, are searched.  Let m be the least root that any member of a clique
    orbit contains.  The orbit's least member (its sorted index tuples
    compared, which sort as the tuples of their roots, as the roots are
    stored sorted) begins with m.  m leads its W-orbit: for w m in Wm and a
    member S through m, w S is a member through w m (the group contains W),
    so m <= w m.  Hence the least member of every orbit is among the searched
    cliques, and it is the orbit's canonical form.

    The searched cliques are bucketed by the key (|C|, the sorted counts, for
    i in C, of the j in C with alpha_j - alpha_i a root or zero), read off
    the compatibility masks: bit j of ~nbr[-i] is set for j = i, j = -i and
    these j.  Each element of the group permutes the roots linearly, so it
    keeps differences of roots and maps C onto its image, and the key is
    constant on each orbit; an orbit's searched members lie in one bucket.

    Mass identity: for a class C with orbit O and a leader rho, counting the
    pairs (S in O, root of W rho in S) two ways gives
    |O| |C & W rho| = |W rho| #{S in O : rho in S} (the group keeps each
    W-orbit of roots, as diagram automorphisms keep root lengths).  Each
    bucket keeps, per leader, the number of its cliques through it; its
    cliques are walked in sorted order, one counted form each
    (weyl.counted_form, which gives |O| without walking O), and each new
    form subtracts its class's members through every leader, until every
    count is 0.  A class's members through its leaders are all searched, so
    a count that goes negative, a share that is not an integer, or a count
    left over when the bucket is spent raises MassIdentityViolation.  The
    identity is checked per bucket, not per class: an orbit size too large
    by exactly the share of a class of the same bucket not yet found ends
    the walk early.  Under 'weyl' a diagram automorphism keeps the key, so
    the counted form of each class's image under it must be a class of the
    bucket, or MassIdentityViolation is raised: only a lost class that no
    diagram automorphism pairs with a found one goes unseen.

    ``budget`` counts the search nodes, then the candidate images of the
    counted forms, those of the images included.  A stop in the search
    raises BudgetExceeded with no classes; a stop in a counted form raises
    it with the classes of the buckets certified before it."""
    orbits = _root_orbits(r)
    leaders = [min(o) for o in orbits]
    nbr = compat_graph(r)
    try:
        cliques = maximal_cliques(nbr, leaders, budget)
    except BudgetExceeded as e:
        raise BudgetExceeded(str(e), []) from e
    left = budget - cliques.nodes
    classes: list[EnumClass] = []

    def charged_form(q):
        nonlocal left
        try:
            form = counted_form(r, q, quotient, left)
        except BudgetExceeded as e:
            raise BudgetExceeded(
                f"counted forms exceeded the budget of {budget} after the clique search's "
                f"{cliques.nodes} nodes, with {len(classes)} classes certified",
                sorted(classes, key=attrgetter("canonical"))) from e
        left -= form.candidates
        return form

    autos = diagram_automorphisms(r) if quotient == "weyl" else []
    near = [~nbr[j] for j in r.negation]  # bit j of near[i]: alpha_j - alpha_i is a root or zero, or j = -i
    bit = [1 << i for i in range(r.nroots)]
    buckets: dict[tuple, list[tuple[int, ...]]] = {}
    for cl in cliques:
        m = sum(map(bit.__getitem__, cl))
        buckets.setdefault((len(cl), tuple(sorted([(near[i] & m).bit_count() for i in cl]))), []).append(cl)
    for bucket in sorted(map(sorted, buckets.values())):
        counts = [sum(rho in cl for cl in bucket) for rho in leaders]
        found: dict[frozenset[int], tuple[tuple[int, ...], int]] = {}
        for cl in bucket:
            if not any(counts):
                break
            form = charged_form(cl)
            if form.image in found:
                continue
            rep = tuple(sorted(form.image))
            found[form.image] = rep, form.orbit_size
            for k, (rho, o) in enumerate(zip(leaders, orbits)):
                meet = len(o & form.image)
                through, rest = divmod(form.orbit_size * meet, len(o))
                if rest or through > counts[k]:
                    raise MassIdentityViolation(
                        f"class {rep}: orbit size {form.orbit_size} x {meet} roots of the orbit of root {rho} "
                        f"is not {len(o)} x at most the {counts[k]} cliques through it left in its bucket")
                counts[k] -= through
        if any(counts):
            raise MassIdentityViolation(
                f"bucket of {bucket[0]}: {counts} searched cliques through the leaders {leaders} are in no class")
        for image, (rep, _) in found.items():
            for g in autos:
                moved = frozenset(map(g.__getitem__, image))
                if moved not in found and charged_form(moved).image not in found:
                    raise MassIdentityViolation(
                        f"class {rep}: its image under a diagram automorphism is in no class of its bucket")
        classes += [EnumClass(rep, n, property_report(r, rep)) for rep, n in found.values()]
    return sorted(classes, key=attrgetter("canonical"))


# ---------------------------------------------------------------------------
# classical catalogs


@dataclass
class CatalogEntry:
    label: str
    indices: tuple[int, ...]
    parameters: dict
    claims: dict
    source: str


def _extensions(r: RootSystem, q) -> list[int]:
    """The roots outside q that are compatible with every root of q: an AND
    of the neighbour masks of q, none of which has its own root's bit."""
    nbr, common = compat_graph(r), (1 << r.nroots) - 1
    for i in q:
        common &= nbr[i]
    return [c for c in range(r.nroots) if common >> c & 1]


def _is_maximal_clique(r: RootSystem, q) -> bool:
    return not _extensions(r, q)


def _is_symmetric(r: RootSystem, q) -> bool:
    got = qsets.is_symmetric(r, q)
    return got is not qsets.NOT_FUNDAMENTAL and got[0]


def _is_symmetric_maximal(r: RootSystem, q) -> bool:
    """q is CR-symmetric and no single compatible root keeps it symmetric."""
    return _is_symmetric(r, q) and not any(_is_symmetric(r, frozenset(q) | {c}) for c in _extensions(r, q))


def _verify_entry(r: RootSystem, entry: CatalogEntry, witness: GradingElement | None = None):
    q = frozenset(entry.indices)
    rep = property_report(r, q)
    if entry.claims.get("lb") and not rep.is_lb:
        raise CatalogClaimFailed(entry.label, "lb")
    if entry.claims.get("fundamental") and not rep.is_fundamental:
        raise CatalogClaimFailed(entry.label, "fundamental")
    if entry.claims.get("maximal") and not _is_maximal_clique(r, q):
        raise CatalogClaimFailed(entry.label, "maximal")
    for key, verdict, e in (
        ("symmetric", rep.symmetric, rep.witness_mod2),
        ("weak_j", rep.weak_j, rep.witness_mod4),
        ("j", rep.j_property, rep.witness_exact),
    ):
        want = entry.claims.get(key)
        if want is not None and verdict is not want:
            # the raw result of is_symmetric / has_weak_j / has_j
            got = qsets.NOT_FUNDAMENTAL if verdict is None else (verdict, e)
            raise CatalogClaimFailed(entry.label, key, f"got {got}")
    if witness is not None:
        for i in entry.indices:
            if evaluate_int(r.roots[i], witness) != 1:
                raise CatalogClaimFailed(entry.label, "witness", f"root {r.roots[i]}")


def _e(i, n):
    return _vec(n, (i - 1, 1))


def _epm(i, j, si, sj, n):
    return _vec(n, (i - 1, si), (j - 1, sj))


def _gap_chains(p: int, n: int, max_s: int):
    """q-chains p = q0 < q1 < ... < qs = n with nonincreasing gaps, s <= max_s
    (s = 0 only when p = n)."""
    if p == n:
        yield ()
        return
    def rec(prev, gaps):
        if prev == n:
            yield tuple(gaps)
            return
        if len(gaps) == max_s:
            return
        hi = gaps[-1] if gaps else n - prev
        for gap in range(min(hi, n - prev), 0, -1):
            yield from rec(prev + gap, gaps + [gap])

    yield from rec(p, [])


def _chain(p: int, gaps, n: int):
    """Chain points q_0 = p < q_1 < ... of a gap chain and its +- families
    e_t +- e_j for q_{t-1} < j <= q_t."""
    qs = list(itertools.accumulate(gaps, initial=p))
    fams = [
        _epm(t, j, 1, sign, n)
        for t in range(1, len(gaps) + 1)
        for j in range(qs[t - 1] + 1, qs[t] + 1)
        for sign in (1, -1)
    ]
    return qs, fams


def _first_of_each_gap(gaps) -> list[int]:
    """Chain positions where a gap value first occurs: one class of the short
    root e_{i0} each."""
    return [t for t, g in enumerate(gaps, start=1) if g not in gaps[: t - 1]]


def _bd_sets(r: RootSystem, n: int, symmetric: bool):
    """Candidate maximal (maximal symmetric) sets of types B, with the short
    root e_{i0}, and D, parametrized by p, the gap chain q and (for B) the
    class of i0: the pairs e_i+e_j (i < j <= p; only the cross pairs
    i <= s < j when symmetric) plus the +- families of the chain.  The i0
    classes are one per distinct gap value, plus the tail (s, p] when not
    symmetric.  A symmetric set carries the J-witness e_h -> 1 for h <= s,
    else 0."""
    out = []
    for p in range(1, n + 1):
        for gaps in _gap_chains(p, n, p):
            s = len(gaps)
            qs, fams = _chain(p, gaps, n)
            params = {"p": p, "q": tuple(qs[1:])}
            pairs = [_epm(i, j, 1, 1, n) for i in range(1, p + 1) for j in range(i + 1, p + 1)
                     if not symmetric or i <= s < j]
            witness = [1 if h <= s else 0 for h in range(1, n + 1)] if symmetric else None
            if r.type_tag == "B":
                for i0 in _first_of_each_gap(gaps) + ([p] if p > s and not symmetric else []):
                    out.append(({"i0": i0, **params}, roots_set(r, [_e(i0, n)] + pairs + fams), witness))
            elif pairs or fams:
                out.append((params, roots_set(r, pairs + fams), witness))
    return out


def _first_of_each_class(r: RootSystem, raw, keep):
    """The entries of ``raw`` whose set passes ``keep`` and whose W-class,
    keyed by canonical form, no earlier kept entry has."""
    seen: set[frozenset[int]] = set()
    for params, q, witness in raw:
        fq = frozenset(q)
        if keep(r, fq):
            key = canonical_form(r, fq)
            if key not in seen:
                seen.add(key)
                yield params, fq, witness


def _witness_from_ambient(r: RootSystem, ambient) -> GradingElement:
    coords = r.ambient_to_coweight_coords(ambient)
    if coords is None:
        raise ValueError(f"vector {ambient} is not in the coweight lattice")
    return r.grading_element(coords)


# A catalog row: (label, root set, parameters, claims, source, ambient
# J-witness or None).
_LB = {"lb": True, "fundamental": True}
_MAXIMAL = {**_LB, "maximal": True}
_SJ = {"symmetric": True, "j": True}


def _a_rows(r: RootSystem, n: int, symmetric: bool):
    """Q_p = {e_i - e_j : i <= p < j}; the symmetric list is the same sets
    with their J-witnesses."""
    for p in range(1, n):
        q = roots_set(r, [_epm(i, j, 1, -1, n) for i in range(1, p + 1) for j in range(p + 1, n + 1)])
        witness = [Fraction(n - p, n)] * p + [Fraction(-p, n)] * (n - p)
        claims = {**_MAXIMAL, **_SJ} if symmetric else _MAXIMAL
        yield f"Q_{p}", q, {"p": p}, claims, "classical A list", witness if symmetric else None


def _c_rows(r: RootSystem, n: int, symmetric: bool):
    """Q_0 = {2e_i, e_i + e_j}, symmetric with the witness e_i -> 1/2."""
    specs = [tuple(2 if k == i else 0 for k in range(n)) for i in range(n)]
    specs += [_epm(i, j, 1, 1, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    claims = {**_MAXIMAL, **_SJ} if symmetric else _MAXIMAL
    yield "Q_0", roots_set(r, specs), {}, claims, "classical C list", [H] * n if symmetric else None


def _bd_rows(r: RootSystem, n: int, symmetric: bool):
    """The generated B/D candidates (plus the two half-spin sets of D), the
    first of each W-class that is maximal (maximal symmetric)."""
    raw = _bd_sets(r, n, symmetric)
    if r.type_tag == "D":
        # the two half-spin sets: all e_i+e_j, and its image under e_n -> -e_n
        minus_n = [_epm(i, j, 1, 1, n) for i in range(1, n) for j in range(i + 1, n)]
        minus_n += [_epm(i, n, 1, -1, n) for i in range(1, n)]
        if symmetric:
            plus_n = [_epm(i, j, 1, 1, n) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            raw.append(({"label": "n"}, roots_set(r, plus_n), [H] * n))
        raw.append(({"label": "-n"}, roots_set(r, minus_n), [H] * (n - 1) + [-H] if symmetric else None))
    if symmetric:
        prefix, keep, source = "Qs_", _is_symmetric_maximal, "classical symmetric list"
        claims = {**_LB, **_SJ}
    else:
        prefix, keep, source = "Q_", _is_maximal_clique, "classical B/D list (enumeration-derived constraints)"
        claims = _MAXIMAL
    for params, q, witness in _first_of_each_class(r, raw, keep):
        yield f"{prefix}{params}", q, params, claims, source, witness


_CLASSICAL_ROWS = {"A": _a_rows, "B": _bd_rows, "C": _c_rows, "D": _bd_rows}

_G2_SHORT = [(1, 0, -1), (2, -1, -1)]
_F4_HALF = [(H, H, H, H), (H, H, H, -H)]
_F4_PAIRS = [_epm(i, j, 1, 1, 4) for i in range(1, 4) for j in range(i + 1, 4)] + [_epm(1, 4, 1, s, 4) for s in (1, -1)]
_F4_CROSS = [_epm(i, j, 1, s, 4) for i, j in ((1, 3), (2, 4)) for s in (1, -1)]

# The printed G2 and F4 lists: (type, which) -> rows with the root set given
# by its root vectors and no parameters.
_PRINTED_ROWS = {
    ("G2", "all"): [
        ("Q4_1", _G2_SHORT + [(1, -2, 1)], {**_MAXIMAL, "symmetric": True}, "G2 proposition", None),
        ("Q4_2", _G2_SHORT + [(1, 1, -2)], {**_MAXIMAL, "symmetric": False}, "G2 proposition", None),
    ],
    ("G2", "symmetric"): [
        ("Q4_1", _G2_SHORT + [(1, -2, 1)], {**_LB, "symmetric": True, "weak_j": False},
         "G2 proposition (maximal symmetric; weak-J fails)", None),
        ("Q4_0", _G2_SHORT, {**_LB, **_SJ, "weak_j": True}, "G2 proposition item (3)", None),
    ],
    ("F4", "all"): [
        (label, specs + _F4_HALF, _MAXIMAL, "F4 proposition (five maximal classes)", None)
        for label, specs in (
            ("Q4_{1,4}", [_e(1, 4)] + [_epm(i, j, 1, 1, 4) for i in range(1, 5) for j in range(i + 1, 5)]),
            ("Q4_{1,3,4}", [_e(1, 4)] + _F4_PAIRS),
            ("Q4_{2,3,4}", [_e(2, 4)] + _F4_PAIRS),
            ("Q4_{1,2,3,4}", [_e(1, 4), _epm(1, 2, 1, 1, 4)] + _F4_CROSS),
            ("Q4_{1,1,4}", [_e(1, 4)] + [_epm(1, j, 1, s, 4) for j in (2, 3, 4) for s in (1, -1)]),
        )
    ],
    ("F4", "symmetric"): [
        ("Q4'_{1,2,3,4}", [_e(1, 4)] + _F4_HALF + _F4_CROSS, {**_LB, **_SJ, "weak_j": True},
         "F4 symmetric proposition (unique maximal symmetric class)", [1, 1, 0, 0]),
    ],
}


def catalog(r: RootSystem, which: str = "all") -> list[CatalogEntry]:
    """The catalog list of the caller's root system as explicit root sets,
    re-verified on construction (CatalogClaimFailed on any failed claim).

    which = 'all' gives the maximal elements of Q(R); 'symmetric' the maximal
    elements of Q_s(R) together with their exact J-witnesses.
    """
    if which not in ("all", "symmetric"):
        raise ValueError(f"which must be 'all' or 'symmetric', got {which!r}")
    if r.type_tag in _CLASSICAL_ROWS:
        rows = _CLASSICAL_ROWS[r.type_tag](r, r.ambient_dim, which == "symmetric")
    elif (r.type_tag, which) in _PRINTED_ROWS:
        rows = ((label, roots_set(r, specs), {}, claims, source, witness)
                for label, specs, claims, source, witness in _PRINTED_ROWS[r.type_tag, which])
    else:
        raise ValueError(f"no catalog for type {r.type_tag}")
    entries = []
    for label, q, params, claims, source, witness in rows:
        entry = CatalogEntry(label, sorted_indices(q), params, dict(claims), source)
        _verify_entry(r, entry, None if witness is None else _witness_from_ambient(r, witness))
        entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# E-series data

# (l, i) -> (type label of the even part, the grading vector E_{l,i})
_GRADINGS = {
    (6, 1): ("D5", (0, 0, 0, 0, 0, Fraction(-2, 3), Fraction(-2, 3), Fraction(2, 3))),
    (6, 2): ("A5xA1", (H, H, H, H, H, -H, -H, H)),
    (7, 1): ("D6xA1", (0, 0, 0, 0, 0, 0, -1, 1)),
    (7, 2): ("A7", (H, H, H, H, H, H, -1, 1)),
    (7, 3): ("E6", (0, 0, 0, 0, 0, 1, -H, H)),
    (8, 1): ("D8", (0, 0, 0, 0, 0, 0, 0, 2)),
    (8, 2): ("E7xA1", (H, H, H, H, H, H, H, H)),
}

XI = tuple(_GRADINGS)


def spin(minus) -> tuple[Fraction, ...]:
    """Half-sum root of E8 with minus signs on the given index set (1-based)."""
    ms = set(minus)
    return tuple(-H if k in ms else H for k in range(1, 9))


def beta0() -> tuple[Fraction, ...]:
    return spin(())


def _is_spinor(v: tuple[int, ...]) -> bool:
    return all(abs(x) == 1 for x in v)


def _minus_set(v: tuple[int, ...]) -> frozenset[int]:
    return frozenset(k + 1 for k, x in enumerate(v) if x < 0)


def _printed_s_membership(pair, v) -> bool:
    """Membership of a stored root vector in the printed S^l_i family list,
    for ``pair`` a key of _GRADINGS."""
    if _is_spinor(v):
        m = _minus_set(v)
        if pair == (6, 1) or pair == (7, 1) or pair == (8, 1):
            return True
        if pair == (6, 2):
            return m in _pm_minus_sets({frozenset({a, b, 6, 7}) for a in range(1, 6) for b in range(1, 6) if a < b})
        if pair == (7, 2):
            return m in _pm_minus_sets(
                {frozenset({a, b, c, 7}) for a, b, c in itertools.combinations(range(1, 7), 3)}
            )
        if pair == (7, 3):
            good = {frozenset({6, 8})}
            good |= {frozenset({a, 7}) for a in range(1, 6)}
            good |= {frozenset(t) | {7} for t in itertools.combinations(range(1, 6), 3)}
            good |= {frozenset({a, b, 6, 8}) for a, b in itertools.combinations(range(1, 6), 2)}
            return m in _pm_minus_sets(good)
        # (8, 2)
        return len(m) in (2, 6)
    # integer-type root, +-e_a +- e_b
    (a, xa), (b, xb) = [(k + 1, x) for k, x in enumerate(v) if x]
    if pair in ((6, 1), (7, 1), (8, 1)):
        return False
    if pair == (6, 2):
        return b <= 5 and (xa > 0) == (xb > 0)
    if pair == (7, 2):
        return b <= 6 and (xa > 0) == (xb > 0)
    if pair == (7, 3):
        # (a, b) = (7, 8): the roots +-(e_8 - e_7), the only ones of E7 with
        # nonzeros at 7 and 8
        return (a <= 5 and b == 6) or (a, b) == (7, 8)
    # (8, 2)
    return (xa > 0) == (xb > 0)


def _pm_minus_sets(sets_):
    """Close a family of minus-sets under negation (complement in 1..8)."""
    full = frozenset(range(1, 9))
    out = set()
    for s in sets_:
        out.add(frozenset(s))
        out.add(full - frozenset(s))
    return out


@dataclass
class GradingTable:
    pair: tuple[int, int]
    type_label: str
    r_part: frozenset[int]
    s_part: frozenset[int]
    e: GradingElement
    system: RootSystem = field(repr=False)


def grading_table(l: int, i: int) -> GradingTable:
    pair = (l, i)
    if pair not in _GRADINGS:
        raise ValueError(f"(l,i) must be one of {XI}")
    type_label, vector = _GRADINGS[pair]
    r = build_root_system(f"E{l}")
    e = _witness_from_ambient(r, vector)
    r_part = frozenset(idx for idx, v in enumerate(r.roots) if evaluate_int(v, e) % 2 == 0)
    return GradingTable(pair, type_label, r_part, frozenset(range(r.nroots)) - r_part, e, r)


def verify_grading(l: int, i: int) -> tuple[bool, list[str]]:
    """Check that E_{l,i} splits the root system exactly into the printed
    even/odd families; failures are reported per root."""
    table = grading_table(l, i)
    failures = []
    for idx, v in enumerate(table.system.roots):
        printed_s = _printed_s_membership((l, i), v)
        actual_s = idx in table.s_part
        if printed_s != actual_s:
            failures.append(f"root {v}: printed S={printed_s}, E-split S={actual_s}")
    return (not failures, failures)


def construct_q(l: int, i: int, anchors, within=None) -> tuple[int, ...]:
    """The set Q_{l,i,a_1..a_k}: starting from the anchors, sweep each
    anchor's positive shell inside S^l_i in order, adding every root that
    stays nonnegative against everything accumulated.

    Anchors are root indices (or original-coordinate specs); they must lie in
    S^l_i with pairwise nonnegative products.  ``within`` optionally restricts
    the sweep to a sub-level-set of S^l_i (e.g. a mod-4 level set of a
    grading element), the construction used by the catalog's J-examples.
    """
    table = grading_table(l, i)
    r = table.system
    idxs = [a if isinstance(a, int) else find_root(r, a) for a in anchors]
    for a in idxs:
        if a not in table.s_part:
            raise AnchorViolation(f"anchor {r.roots[a]} is not in S^{l}_{i}")
    for a, b in itertools.combinations(idxs, 2):
        if dot(r.roots[a], r.roots[b]) < 0:
            raise AnchorViolation(
                f"anchors {r.roots[a]}, {r.roots[b]} have negative product"
            )
    pool = table.s_part if within is None else (frozenset(within) & table.s_part)
    if within is not None and any(a not in pool for a in idxs):
        raise AnchorViolation("anchors must lie inside the restriction set")
    return sorted_indices(_sweep(r, pool, idxs)[-1])


def _sweep(r: RootSystem, pool, idxs) -> list[frozenset[int]]:
    """The anchor-shell sweep of construct_q over ``pool``, in root order:
    for each anchor in turn, add every root of its positive shell that stays
    nonnegative against everything accumulated.  Returns the stages, the
    anchor set first and then the set after each anchor's shell."""
    s_sorted = sorted(pool, key=lambda k: r.roots[k])
    cur = list(idxs)
    curset = set(idxs)
    stages = [frozenset(curset)]
    for a in idxs:
        for cand in s_sorted:
            if cand in curset:
                continue
            if dot(r.roots[cand], r.roots[a]) <= 0:
                continue
            if all(dot(r.roots[cand], r.roots[t]) >= 0 for t in cur):
                cur.append(cand)
                curset.add(cand)
        stages.append(frozenset(curset))
    return stages


def grading_level_set(l: int, i: int, value: int) -> frozenset[int]:
    """Roots of S^l_i on which E_{l,i} evaluates to ``value``."""
    table = grading_table(l, i)
    return frozenset(idx for idx in table.s_part if evaluate_int(table.system.roots[idx], table.e) == value)


def e8_examples():
    """The nine E8 examples: anchor data and expected membership pattern
    (symmetric, weak-J, J).

    Two repairs of corrupted printed data, recorded in the verification
    report: example (4) sweeps inside the alpha(E_{8,1}) = 1 level set (its
    own derivation concludes the set avoids every root with e_8-coefficient
    -1/2, which the unrestricted sweep does not); example (6) is the catalog's
    explicit member of Q_Upsilon \\ Q_0, relabeled by the coordinate swap
    (1 6)(2 7)(3 8) in W so that it carries the printed mod-4 witness
    e_6 = e_7 = e_8 = -2 (the anchor list printed for (6) generates a set
    that is not even fundamental).
    """
    b = lambda *m: spin(m)
    ex6_members = [b(), b(6, 7), b(6, 8), b(7, 8), b(4, 5), b(1, 2), b(1, 3), b(2, 3)]
    ex6_members += [b(x, y) for x in (1, 2, 3) for y in (4, 5)]
    ex = [
        ("1", (8, 1), [b(), b(1, 2, 3, 4)], None, (True, False, False), None, None),
        ("2", (8, 1), [b(), b(1, 2, 3, 4), b(1, 2, 5, 6)], None, (True, False, False), None, None),
        ("3", (8, 1), [b(1, 2, 3, 4), b(1, 3, 5, 6), b(1, 3, 5, 8)], None, (True, False, False), None, None),
        (
            "4",
            (8, 1),
            [b(), b(1, 2, 3, 4), b(1, 2, 5, 6), b(3, 4, 5, 6), b(1, 3, 5, 7)],
            "level+1",
            (True, True, True),
            None,
            None,
        ),
        (
            "5",
            (8, 1),
            [b(), b(1, 2, 3, 4), b(1, 2, 5, 6), b(1, 3, 6, 7), b(2, 3, 6, 8), b(2, 3, 5, 7), b(1, 3, 5, 8)],
            None,
            (True, False, False),
            None,
            None,
        ),
        ("6", (8, 1), None, None, (True, True, False), (0, 0, 0, 0, 0, -2, -2, -2), ex6_members),
        ("7", (8, 2), [b(7, 8), b(5, 6)], None, (True, True, True), None, None),
        ("8", (8, 2), [b(7, 8), b(5, 6), b(3, 4)], None, (True, True, True), None, None),
        ("9", (8, 2), [b(7, 8), b(5, 6), b(3, 4), b(1, 2)], None, (True, True, True), None, None),
    ]
    keys = ("label", "pair", "anchors", "within", "pattern", "mod4_witness", "members")
    return [dict(zip(keys, row)) for row in ex]


def e8_example_set(ex) -> tuple[int, ...]:
    """Materialize an e8_examples() record as a sorted index tuple."""
    l, i = ex["pair"]
    if ex["members"] is not None:
        r = build_root_system(f"E{l}")
        return sorted_indices(roots_set(r, ex["members"]))
    within = None
    if ex["within"] == "level+1":
        within = grading_level_set(l, i, 1)
    return construct_q(l, i, ex["anchors"], within=within)


def q_prime_p(p: int) -> tuple[int, ...]:
    """The set Q'_p in E8: {beta0} u {e_i+e_r, beta_{i,j}, beta_{r,s}} with
    i <= p < r; symmetric exactly when p is even."""
    r = build_root_system("E8")
    specs = [beta0()]
    for i in range(1, p + 1):
        for rr in range(p + 1, 9):
            specs.append(tuple(1 if k + 1 in (i, rr) else 0 for k in range(8)))
    for i, j in itertools.combinations(range(1, p + 1), 2):
        specs.append(spin((i, j)))
    for rr, s in itertools.combinations(range(p + 1, 9), 2):
        specs.append(spin((rr, s)))
    return sorted_indices(roots_set(r, specs))


def orbit_lemma_expected(pair):
    """Expected two-orbit decomposition of S^l_i for (6,1) and (7,3): the
    level sets alpha(E_{l,i}) = +-1."""
    return grading_level_set(*pair, 1), grading_level_set(*pair, -1)


def s_part_orbits(l: int, i: int) -> set[frozenset[int]]:
    """The orbits of W^l_i, the Weyl group of the R-part of E_{l,i}, on
    S^l_i.  W^l_i is generated by the reflections in the simple roots of the
    R-part's lexicographically positive roots, and it keeps S^l_i, since a
    reflection in a root of even E-value keeps the parity of E."""
    t = grading_table(l, i)
    r = t.system
    gens = [reflection_perm(r, a) for a in simple_roots(r, t.r_part.intersection(positive_roots(r)))]
    orbits, remaining = set(), set(t.s_part)
    while remaining:
        o = root_orbit(r, min(remaining), gens)
        orbits.add(o)
        remaining -= o
    return orbits


def printed_orbit_61():
    """The printed W^6_1 orbits of S^6_1 (these lists are exact)."""
    r = build_root_system("E6")
    o1 = [spin((6, 7))]
    o1 += [tuple(-x for x in spin((i, 8))) for i in range(1, 6)]
    o1 += [spin((i, j, 6, 7)) for i, j in itertools.combinations(range(1, 6), 2)]
    o2 = [tuple(-x for x in spin((6, 7)))]
    o2 += [spin((i, 8)) for i in range(1, 6)]
    o2 += [spin((i, j, h, 8)) for i, j, h in itertools.combinations(range(1, 6), 3)]
    return roots_set(r, o1), roots_set(r, o2)


def bn_constraint_discrepancy(n: int) -> list[tuple[int, ...]]:
    """The chains p = q_0 < q_1 < ... < q_s = n with s >= 2 that the printed
    B_n parameter constraint q_i + 2q_{i-2} <= q_{i-1} admits: none, as it
    admits no increasing chain, so the catalog derives a nonincreasing-gap
    rule from the enumeration instead."""
    chains = []
    for p in range(1, n + 1):
        for s in range(2, p + 1):
            for qs in itertools.combinations(range(p + 1, n), s - 1):
                chain = (p,) + qs + (n,)
                if all(chain[t] + 2 * chain[t - 2] <= chain[t - 1] for t in range(2, len(chain))):
                    chains.append(chain)
    return chains


def subset_universe(r: RootSystem) -> list[frozenset[int]]:
    """All fundamental lb-subsets of the maximal class representatives.

    Every fundamental lb-set is W-equivalent to a subset of some maximal
    class representative, so W-invariant predicates quantified over Q(R) can
    be checked exhaustively on this universe.  Past BUDGET subsets examined,
    BudgetExceeded is raised.
    """
    classes = enumerate_maximal(r)
    seen: set[frozenset[int]] = set()
    out: list[frozenset[int]] = []
    count = 0
    for c in classes:
        rep = list(c.canonical)
        for size in range(1, len(rep) + 1):
            for combo in itertools.combinations(rep, size):
                count += 1
                if count > BUDGET:
                    raise BudgetExceeded("subset universe exceeded budget", out)
                fs = frozenset(combo)
                if fs in seen:
                    continue
                seen.add(fs)
                if is_fundamental(r, fs):
                    out.append(fs)
    return out


def maximal_symmetric_classes(r: RootSystem):
    """Maximal elements of Q_s(R) up to W, with their J status, found by
    exhaustive scan of the subset universe."""
    out: dict[tuple[int, ...], dict] = {}
    for q in subset_universe(r):
        if not _is_symmetric_maximal(r, q):
            continue
        cf = tuple(sorted(canonical_form(r, q)))
        if cf not in out:
            rep = property_report(r, q)
            out[cf] = {"canonical": cf, "size": len(cf), "weak_j": rep.weak_j, "j": rep.j_property}
    return sorted(out.values(), key=lambda d: d["canonical"])


def b3_counterexample():
    """CR-symmetric maximal element of Q(B3) without the weak-J or J
    property; falsifies the claim KNOWN_DISCREPANCIES["classical-collapse"]."""
    r = build_root_system("B", 3)
    q = roots_set(r, [(0, 1, 0), (1, 1, 0), (1, 0, 1), (1, 0, -1)])
    return r, q


def f4_counterexample():
    """CR-symmetric fundamental lb-set in F4 without the weak-J property."""
    r = build_root_system("F4")
    q = roots_set(
        r,
        [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0), (H, H, H, H), (H, H, -H, H), (0, 1, 0, 1), (0, 1, 0, -1)],
    )
    return r, q


# The paper's claims that flagcr falsifies, by id: each claim as verify-paper
# prints it, and its detail where that does not depend on the run.  A failing
# verify-paper claim is a known discrepancy exactly when it is registered here.
KNOWN_DISCREPANCIES = {
    "bn-dn-constraints": (
        "printed B_n parameter constraint admits chains with s >= 2",
        "printed inequality q_i + 2q_{i-2} <= q_{i-1} admits no increasing chain; "
        "enumeration-derived nonincreasing-gap rule used instead",
    ),
    "classical-collapse": (
        "classical collapse Q_s = Q_0 (B_n, D_n)",
        "B3 counterexample {e2, e1+e2, e1+-e3} is symmetric without J",
    ),
    "f4-count": ("F4 has five inequivalent maximal classes", ""),
    "f4-collapse": ("F4 collapse Q_s = Q_Upsilon = Q_0", "8-root symmetric set without mod-4 witness"),
    "s73-orbit-lists": ("printed S^7_3 orbit lists are complete", "printed lists drop +-beta_{i,7}"),
    "e8-example-4": (
        "E8 example (4) printed data is consistent",
        "anchors conflict with the printed members; level-set-restricted sweep used",
    ),
    "e8-example-6": (
        "E8 example (6) printed data is consistent",
        "printed set is not fundamental; W-relabeled unnumbered example used",
    ),
    "e8-beta0-b12": ("Q_{8,1,b0,b12} equals Q_{8,1,b0,b1234,b1256,b1278} as sets", "equal modulo W only"),
}


# ---------------------------------------------------------------------------
# verify-paper: one row per claim of the paper


def _row(claim, ok, detail=""):
    """A verify-paper row.  A failing claim is a known discrepancy, with its
    id, exactly when KNOWN_DISCREPANCIES registers it."""
    known = next((k for k, (c, _) in KNOWN_DISCREPANCIES.items() if c == claim), None)
    row = {"claim": claim, "status": "pass" if ok else "FAIL" if known is None else "known-discrepancy"}
    if detail:
        row["detail"] = detail
    if not ok and known:
        row["discrepancy_id"] = known
    return row


def _known(discrepancy_id, ok):
    """The row of the claim and detail registered under ``discrepancy_id``."""
    claim, detail = KNOWN_DISCREPANCIES[discrepancy_id]
    return _row(claim, ok, detail)


def _catalog_row(claim, r, which, detail):
    """The row of a catalog that verifies on construction, witnesses
    included; ``detail`` is formatted with its number of entries."""
    try:
        entries = catalog(r, which)
    except CatalogClaimFailed as e:
        return _row(claim, False, str(e))
    return _row(claim, True, detail.format(len(entries)))


def _verify_section_6():
    rows = []
    for tag, rank, want in [("A", 3, 2), ("A", 4, 3), ("C", 2, 1), ("C", 3, 1), ("C", 4, 1)]:
        got = len(enumerate_maximal(build_root_system(tag, rank)))
        rows.append(_row(f"catalog count {tag} n={rank} is {want}", got == want, f"got {got}"))
    for tag, n in [("B", 3), ("B", 4), ("D", 4)]:
        rs = build_root_system(tag, n)
        cat = catalog(rs, "all")
        cls = enumerate_maximal(rs)
        rows.append(
            _row(
                f"{tag}{n} catalog (derived constraints) matches enumeration",
                len(cat) == len(cls),
                f"catalog {len(cat)}, enumeration {len(cls)}",
            )
        )
    rows.append(_known("bn-dn-constraints", bool(bn_constraint_discrepancy(4))))
    # symmetric catalogs verify (witnesses check on construction)
    for tag, n in [("A", 4), ("B", 3), ("B", 4), ("C", 3), ("D", 4)]:
        rs = build_root_system(tag, n)
        rows.append(_catalog_row(f"{tag}{n} symmetric catalog entries verify", rs, "symmetric", "{} entries"))
    # the classical collapse claim itself
    rep = property_report(*b3_counterexample())
    rows.append(_known("classical-collapse", not (rep.symmetric and not rep.j_property)))
    return rows


def _verify_section_7():
    rows = []
    g2 = build_root_system("G2")
    cls = enumerate_maximal(g2)
    rows.append(_row("G2 has two maximal classes", len(cls) == 2, f"got {len(cls)}"))
    rows.append(
        _row(
            "G2: one maximal class symmetric, the other not",
            sorted(c.report.symmetric for c in cls) == [False, True],
        )
    )
    ups = catalog(g2, "symmetric")
    rows.append(_row("G2: Q4_0 has weak-J and J", any(e.label == "Q4_0" for e in ups)))
    f4 = build_root_system("F4")
    f4cls = enumerate_maximal(f4)
    claim = KNOWN_DISCREPANCIES["f4-count"][0]
    rows.append(_row(claim, len(f4cls) == 5, f"enumeration gives {len(f4cls)} classes mod W"))
    rows.append(_catalog_row("F4: the five printed sets are maximal elements", f4, "all", ""))
    rep = property_report(*f4_counterexample())
    rows.append(_known("f4-collapse", not (rep.symmetric and not rep.weak_j)))
    rows.append(_catalog_row("F4: Q4'_{1,2,3,4} verifies with witness e1,e2 -> 1", f4, "symmetric", ""))
    # level-1 shells: symmetric, not weak-J
    for pair, anchor, label in [
        ((6, 2), spin((4, 5, 6, 7)), "Q_{6,2,b4567}"),
        ((7, 1), spin((6, 7)), "Q_{7,1,b67}"),
        ((7, 2), spin((4, 5, 6, 7)), "Q_{7,2,b4567}"),
        ((8, 1), beta0(), "Q_{8,1,b0}"),
        ((8, 2), spin((7, 8)), "Q_{8,2,b78}"),
    ]:
        rsys = build_root_system(f"E{pair[0]}")
        q = construct_q(*pair, [anchor])
        rep = property_report(rsys, q)
        rows.append(
            _row(f"{label} in Q_s \\ Q_Upsilon", rep.symmetric is True and rep.weak_j is False, f"size {len(q)}")
        )
    return rows


def _verify_gradings():
    rows = []
    for pair in XI:
        ok, fails = verify_grading(*pair)
        rows.append(_row(f"Z2-grading table ({pair[0]},{pair[1]})", ok, "; ".join(fails[:2])))
    for pair in ((6, 1), (7, 3)):
        orbits = s_part_orbits(*pair)
        ok = orbits == set(orbit_lemma_expected(pair)) and len(orbits) == 2
        rows.append(_row(f"S^{pair[0]}_{pair[1]} splits into two W-orbits (level sets)", ok))
    rows.append(_known("s73-orbit-lists", False))
    o1, o2 = printed_orbit_61()
    exp = set(orbit_lemma_expected((6, 1)))
    rows.append(_row("printed S^6_1 orbit lists are exact", {frozenset(o1), frozenset(o2)} == exp))
    e6 = build_root_system("E6")
    rows.append(
        _row(
            "both S^6_1 orbits belong to Q_0(E6)",
            all(qsets.has_j(e6, o)[0] for o in (o1, o2)),
        )
    )
    return rows


def _verify_e8():
    rows = []
    e8 = build_root_system("E8")
    for ex in e8_examples():
        q = e8_example_set(ex)
        rep = property_report(e8, q)
        got = (rep.symmetric, rep.weak_j, rep.j_property)
        detail = f"size {len(q)}, got {got}"
        if ex["label"] in ("4", "6"):
            detail += " (printed data repaired; see discrepancy list)"
        rows.append(_row(f"E8 example ({ex['label']}) membership pattern", got == ex["pattern"], detail))
        if ex["mod4_witness"] is not None and got == ex["pattern"]:
            ge = _witness_from_ambient(e8, ex["mod4_witness"])
            ok = all(evaluate_int(e8.roots[i], ge) % 4 == 1 for i in q)
            rows.append(_row(f"E8 example ({ex['label']}) printed mod-4 witness", ok))
    rows += [_known(f"e8-example-{label}", False) for label in ("4", "6")]
    for p in range(1, 9):
        q = q_prime_p(p)
        got = qsets.is_symmetric(e8, q)[0]
        rows.append(_row(f"Q'_{p} symmetric iff p even", got == (p % 2 == 0)))
    # non-uniqueness remark
    a = construct_q(8, 1, [beta0()])
    b = construct_q(8, 1, [spin((1, 2)), spin((3, 4)), spin((5, 6)), spin((7, 8))])
    rows.append(_row("Q_{8,1,b0} = Q_{8,1,b12,b34,b56,b78}", set(a) == set(b)))
    c = construct_q(8, 1, [beta0(), spin((1, 2))])
    d = construct_q(8, 1, [beta0(), *map(spin, [(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8)])])
    claim, modulo_w = KNOWN_DISCREPANCIES["e8-beta0-b12"]
    same = set(c) == set(d)
    rows.append(_row(claim, same, "" if same else modulo_w if sets_equivalent(e8, c, d) else "not W-equivalent"))
    w81 = qsets.has_weak_j(e8, a)
    rows.append(_row("Q_{8,1,b0} is not in Q_Upsilon", w81[0] is False))
    return rows


SECTIONS = {"6": _verify_section_6, "7": _verify_section_7, "gradings": _verify_gradings, "e8-examples": _verify_e8}


def verify_paper(section: str) -> list[dict]:
    """The rows of the paper's claims in ``section`` (a key of SECTIONS, or
    'all' for each in order): dicts of the claim as printed, its status
    ('pass', 'FAIL', or 'known-discrepancy' when KNOWN_DISCREPANCIES names
    it), a detail if any and a known discrepancy's id.  Three rows re-check
    nothing: a constant falsifies s73-orbit-lists, e8-example-4 and
    e8-example-6, whose printed data is not in the repository.  A budget stop
    raises BudgetExceeded with the finished sections' rows as ``partial``."""
    if section != "all" and section not in SECTIONS:
        raise ValueError(f"section must be one of {', '.join(SECTIONS)} or all, got {section!r}")
    rows: list[dict] = []
    for name in SECTIONS if section == "all" else [section]:
        try:
            rows += SECTIONS[name]()
        except BudgetExceeded as e:
            raise BudgetExceeded(str(e), rows) from e
    return rows
