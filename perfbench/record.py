"""Record the expected outputs the benchmark compares against.

Run from any directory:  python3 perfbench/record.py

It writes perfbench/expected/: the fixed base sets of the decide workload
with their verdicts, the stdout of every classify command (enumerate and
verify-paper, and check and realform on recorded root-set files), the
fixed base sets of the orbits workload with their canonical forms and orbit
sizes, and the CR predicate values and witness-transfer results of the cr
workload.
Re-record only when a change is meant to alter outputs; a benchmark run
counts every mismatch with these files as a failed operation.
"""

from __future__ import annotations

import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import workloads  # noqa: E402
from rootdata import Roots  # noqa: E402

common.use_source_tree()

from flagcr import classify, cralg, presets, qsets, rootsys, weyl  # noqa: E402


# (build_root_system arguments, decide base sets per kind: maximal cliques,
# 2/3-size subcliques, non-lb sets).  A pass decides workloads.DECIDE_IMAGES seeded
# W-images of every base set: 200 decisions, so p95 has >= 10 samples beyond
# it.  The E8 sets are the top 4% of decisions, so p95 falls among the E7
# maximal cliques rather than in the gap between E7 and E8 costs.
DECIDE_TYPES = ((["F4", None], (12, 12, 6)), (["B", 5], (12, 12, 6)), (["E6", None], (8, 8, 4)),
                (["E7", None], (6, 6, 3)), (["E8", None], (2, 2, 1)))
DECIDE_KINDS = ("maximal", "sub", "non_lb")

CLASSIFY_COMMANDS = (
    ("enumerate-B4", ["enumerate", "--type", "B", "--rank", "4"]),
    ("enumerate-D5", ["enumerate", "--type", "D", "--rank", "5"]),
    ("enumerate-C5", ["enumerate", "--type", "C", "--rank", "5"]),
    ("enumerate-A5", ["enumerate", "--type", "A", "--rank", "5"]),
    ("enumerate-G2", ["enumerate", "--type", "G2"]),
    ("enumerate-D4-aut", ["enumerate", "--type", "D", "--rank", "4", "--quotient", "aut"]),
    ("enumerate-F4", ["enumerate", "--type", "F4"]),
    ("verify-paper-6", ["verify-paper", "--section", "6"]),
)

# (flag_preset arguments, witness transfers run on its classes): sl(3) and
# so(5) with the CR predicates of every maximal class; sl(4) is a cold build
# only (None), since its predicates would double the pass.
CR_PRESETS = ((["A", 3], ("j",)), (["B", 2], ("j", "symmetric")), (["A", 4], None))


def random_maximal_clique(adj, rng) -> list[int]:
    verts = sorted(adj)
    rng.shuffle(verts)
    clique: list[int] = []
    for v in verts:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def random_subclique(clique, rng) -> list[int]:
    return rng.sample(sorted(clique), max(1, round(2 * len(clique) / 3)))


def non_lb(rd: Roots, clique, rng) -> list[int]:
    """A 2/3 subclique plus one root that breaks lb: a negative or a root
    summing with a member to a root."""
    sub = random_subclique(clique, rng)
    a = rng.choice(sub)
    bad = [rd.neg[a]] + [b for b in range(len(rd.roots)) if b not in sub and rd.sum(a, b) is not None]
    return sub + [rng.choice(bad)]


def _write_json(name, data):
    with open(os.path.join(common.EXPECTED, name), "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def _record_cli(entry, out_dir):
    code, text = common.run_cli(entry["argv"])
    entry["code"] = code
    entry["out"] = f"classify/{entry['name']}.out"
    with open(os.path.join(out_dir, f"{entry['name']}.out"), "w", encoding="utf-8") as f:
        f.write(text)
    print(f"  {entry['name']}: exit {code}, {len(text)} bytes", file=sys.stderr)


def record_classify():
    out_dir = os.path.join(common.EXPECTED, "classify")
    os.makedirs(out_dir, exist_ok=True)
    commands = [{"name": name, "argv": argv} for name, argv in CLASSIFY_COMMANDS]
    checks = []
    for spec in (["F4", None], ["D", 5]):
        r = common.build_system(spec)
        for k, c in enumerate(classify.enumerate_maximal(r)):
            checks.append({"name": f"check-{common.label(r)}-{k}", "system": spec,
                           "roots": common.to_coords(r, c.canonical)})
    realforms = []
    for spec in (["A", 5], ["A", 6], ["B", 3], ["C", 3], ["D", 4], ["F4", None], ["G2", None]):
        r = common.build_system(spec)
        realforms.append({"name": f"realform-{common.label(r)}-positive", "system": spec,
                          "roots": common.to_coords(r, weyl.positive_roots(r)),
                          "conjugation": "compact"})
    a3 = common.build_system(["A", 4])
    arev = rootsys.roots_set(a3, [(1, -1, 0, 0), (-1, 1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
                                  (0, 1, -1, 0), (0, 1, 0, -1)])
    realforms.append({"name": "realform-A3-reverse", "system": ["A", 4],
                          "roots": common.to_coords(a3, arev), "conjugation": "a-reverse:m=2"})
    os.chdir(common.ROOT)
    for entry in checks + realforms:
        path = workloads.write_rootset(entry)
        if "conjugation" in entry:
            entry["argv"] = ["realform", "--roots", path, "--conjugation", entry["conjugation"],
                             "--op", "adapted"]
        else:
            entry["argv"] = ["check", "--roots", path]
    for entry in commands + checks + realforms:
        _record_cli(entry, out_dir)
    _write_json("classify.json", {"commands": commands, "checks": checks, "realforms": realforms})


def _orbit_entry(r, q):
    q = frozenset(q)
    return {"roots": common.to_coords(r, q),
            "canonical": common.to_coords(r, weyl.canonical_form(r, q)),
            "orbit_size": len(weyl.set_orbit(r, q))}


def _pick_e6_bases(r, rng, wanted=5, samples=60, max_orbit=12960):
    """One set per orbit size, spread from the smallest orbit to the largest
    (at most max_orbit, which keeps E6 BFS near one second of a pass), taken
    from random maximal cliques and their 2/3-size subcliques."""
    rd = Roots(r.roots)
    adj = rd.adjacency()
    by_size = {}
    for _ in range(samples):
        clique = random_maximal_clique(adj, rng)
        for sub in (clique, random_subclique(clique, rng)):
            q = common.to_indices(r, rd.coords(sub))
            n = len(weyl.set_orbit(r, q))
            if n <= max_orbit:
                by_size.setdefault(n, frozenset(q))
    sizes = sorted(by_size)
    if len(sizes) > wanted:
        sizes = [sizes[round(k * (len(sizes) - 1) / (wanted - 1))] for k in range(wanted)]
    return [_orbit_entry(r, by_size[n]) for n in sizes]


def record_decide():
    """Fixed base sets of the decide workload with their verdicts; a pass
    decides seeded W-images of them."""
    rng = random.Random(0)
    blocks = []
    for spec, counts in DECIDE_TYPES:
        r = common.build_system(spec)
        rd = Roots(r.roots)
        adj = rd.adjacency()
        bases = []
        for kind, n in zip(DECIDE_KINDS, counts):
            for _ in range(n):
                clique = random_maximal_clique(adj, rng)
                sub = {"maximal": lambda: clique, "sub": lambda: random_subclique(clique, rng),
                       "non_lb": lambda: non_lb(rd, clique, rng)}[kind]()
                q = common.to_indices(r, rd.coords(sub))
                rep = qsets.property_report(r, q)
                bases.append({"kind": kind, "roots": common.to_coords(r, q),
                              "verdicts": [rep.is_lb, rep.is_fundamental, rep.symmetric, rep.weak_j, rep.j_property]})
        blocks.append({"name": common.label(r), "system": spec, "bases": bases})
        fundamental = sum(1 for b in bases if b["verdicts"][1])
        print(f"  {common.label(r)}: {len(bases)} base sets, {fundamental} fundamental", file=sys.stderr)
    _write_json("decide.json", {"types": blocks})


def record_orbits():
    rng = random.Random(0)
    e6 = common.build_system(["E6", None])
    f4 = common.build_system(["F4", None])
    d5 = common.build_system(["D", 5])
    f4_classes = classify.enumerate_maximal(f4)
    d5_classes = classify.enumerate_maximal(d5)
    # the D5 class pair exchanged by the diagram automorphism: a twisted
    # image is Aut- but not W-equivalent to the base
    rd = Roots(d5.roots)

    def twist(q):
        return common.to_indices(d5, rd.coords(rd.twist(rd.indices(common.to_coords(d5, q)))))

    twisted = next(c.canonical for c in d5_classes if not weyl.sets_equivalent(d5, c.canonical, twist(c.canonical)))
    cheap = next(c.canonical for c in d5_classes if c.orbit_size == 240)
    data = {
        "E6": {"system": ["E6", None], "bases": _pick_e6_bases(e6, rng)},
        "F4": {"system": ["F4", None], "bases": [_orbit_entry(f4, c.canonical) for c in f4_classes]},
        "D5": {"system": ["D", 5],
               "bases": [_orbit_entry(d5, cheap), _orbit_entry(d5, twisted)],
               "twisted_weyl_equivalent": weyl.sets_equivalent(d5, twisted, twist(twisted), "weyl")},
    }
    for key, block in data.items():
        print(f"  {key}: orbit sizes {[b['orbit_size'] for b in block['bases']]}", file=sys.stderr)
    _write_json("orbits.json", data)


def record_cr():
    blocks = []
    for spec, transfers in CR_PRESETS:
        fp = presets.flag_preset(*spec)
        r = fp.system
        classes = []
        for c in classify.enumerate_maximal(r) if transfers is not None else ():
            a = fp.cr_algebra(c.canonical)
            d, cd = cralg.cr_dim_codim(a)
            entry = {"roots": common.to_coords(r, c.canonical), "cr_dim": d, "cr_codim": cd,
                     "fundamental": cralg.is_fundamental_cr(a),
                     "levi_nondegenerate": cralg.is_levi_nondegenerate(a),
                     "effective": cralg.is_effective(a)}
            if "j" in transfers and c.report.j_property:
                entry["j_transfer"] = cralg.check_j_property(a, fp.j_derivation(c.report.witness_exact))
            if "symmetric" in transfers and c.report.symmetric:
                lam = fp.symmetry_involution(c.report.witness_mod2)
                entry["symmetric_transfer"] = cralg.check_cr_symmetric(a, lam)["ok"]
            classes.append(entry)
        blocks.append({"system": spec, "dim": fp.pres.dim, "classes": classes})
        print(f"  flag_preset{tuple(spec)}: dim {fp.pres.dim}, {len(classes)} classes", file=sys.stderr)
    _write_json("cr.json", {"presets": blocks})


def main():
    os.makedirs(common.EXPECTED, exist_ok=True)
    for fn in (record_decide, record_classify, record_orbits, record_cr):
        print(fn.__name__, file=sys.stderr)
        fn()
    return 0


if __name__ == "__main__":
    sys.exit(main())
