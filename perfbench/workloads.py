"""The four workloads: input generation from a seed (parent process) and the
operation list of one pass with its output checks (pass process).

Every workload is one client with one operation in flight.  The inputs are
root coordinate lists, never indices, so the program sees only data.

decide    property_report on W-images of fixed F4/B5/E6/E7/E8 sets; loads
          qsets, intlat, rootsys.  Verdicts must match the base set's
          recorded ones and witnesses are re-checked with evaluate_int.
classify  flagcr.cli.main as users run it; loads qsets.is_fundamental over
          many cliques.  Stdout is byte-compared with perfbench/expected.
orbits    weyl.canonical_form / set_orbit / sets_equivalent on W-images of
          fixed base sets; loads weyl only.  A W-image has the base's orbit,
          so the work per pass does not depend on the seed.
cr        cold flag_preset builds, CR predicates of every maximal class and
          witness transfer onto the Lie algebra; loads gaussq, cralg, presets.
"""

from __future__ import annotations

import json
import os
import random
from typing import Callable, NamedTuple

import common
from rootdata import Roots

DECIDE_IMAGES = 2  # seeded W-images of every decide base set per pass
WALK_LENGTH = 24  # simple reflections per random Weyl group element


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right


# ---------------------------------------------------------------------------
# input generation (parent process)


def roots_of(spec) -> Roots:
    return Roots(common.build_system(spec).roots)


def write_rootset(entry) -> str:
    """Write the root-set file of a check or realform command, in the format of
    flagcr.rootsys.rootset_to_json; returns its path relative to the
    checkout root, which the CLI embeds in its output."""
    rel = os.path.join(common.WORK_REL, "classify", entry["name"] + ".json")
    os.makedirs(os.path.join(common.ROOT, os.path.dirname(rel)), exist_ok=True)
    r = common.build_system(entry["system"])
    with open(os.path.join(common.ROOT, rel), "w") as f:
        f.write(json.dumps({"type": r.type_tag, "rank": r.rank, "roots": sorted(entry["roots"])}, sort_keys=True))
    return rel


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng)


def _gen_decide(rng) -> dict:
    ops = []
    for block in common.load_expected("decide.json")["types"]:
        rd = roots_of(block["system"])
        for k, base in enumerate(block["bases"]):
            q = rd.indices(base["roots"])
            for j in range(DECIDE_IMAGES):
                ops.append({"type": block["name"], "base": k, "id": f"{block['name']}-{base['kind']}-{k}-{j}",
                            "roots": rd.coords(rd.w_image(q, rng, WALK_LENGTH))})
    rng.shuffle(ops)
    return {"ops": ops}


def _gen_classify(rng) -> dict:
    """Every recorded command, in seeded order.  The 23 cheap check and
    realform commands are the majority, so the median command is one of
    them whatever the order."""
    exp = common.load_expected("classify.json")
    for entry in exp["checks"] + exp["realforms"]:
        write_rootset(entry)
    ops = exp["commands"] + exp["checks"] + exp["realforms"]
    rng.shuffle(ops)
    return {"ops": [{"name": e["name"], "argv": e["argv"], "out": e["out"], "code": e["code"]} for e in ops]}


def _gen_orbits(rng) -> dict:
    exp = common.load_expected("orbits.json")
    ops = []
    rds = {key: roots_of(block["system"]) for key, block in exp.items()}

    def image(key, base, twist=False):
        rd = rds[key]
        q = rd.indices(base["roots"])
        return rd.coords(rd.w_image(rd.twist(q) if twist else q, rng, WALK_LENGTH))

    for key in ("E6", "F4", "D5"):
        for k, base in enumerate(exp[key]["bases"]):
            for op in ("canonical_form", "set_orbit"):
                ops.append({"op": op, "key": key, "base": k, "roots": image(key, base)})
    f4 = exp["F4"]["bases"]
    for k in range(4):
        for group in ("weyl", "aut"):
            ops.append({"op": "sets_equivalent", "key": "F4", "group": group, "expect": True,
                        "a": image("F4", f4[k]), "b": image("F4", f4[k])})
        other = f4[rng.choice([j for j in range(len(f4)) if j != k])]
        ops.append({"op": "sets_equivalent", "key": "F4", "group": "weyl", "expect": False,
                    "a": image("F4", f4[k]), "b": image("F4", other)})
    d5 = exp["D5"]
    for group in ("weyl", "aut"):
        ops.append({"op": "sets_equivalent", "key": "D5", "group": group, "expect": True,
                    "a": image("D5", d5["bases"][0]), "b": image("D5", d5["bases"][0])})
    twisted = d5["bases"][1]
    ops.append({"op": "sets_equivalent", "key": "D5", "group": "weyl", "expect": d5["twisted_weyl_equivalent"],
                "a": image("D5", twisted), "b": image("D5", twisted, twist=True)})
    return {"ops": ops}


def _gen_cr(rng) -> dict:
    exp = common.load_expected("cr.json")
    images = []
    for block in exp["presets"]:
        rd = roots_of(block["system"])
        images.append([rd.coords(rd.w_image(rd.indices(c["roots"]), rng, WALK_LENGTH)) for c in block["classes"]])
    return {"images": images}


GENERATORS = {"decide": _gen_decide, "classify": _gen_classify, "orbits": _gen_orbits, "cr": _gen_cr}


# ---------------------------------------------------------------------------
# one pass (pass process).  prepare() is the set-up: it may build root
# systems and convert inputs; everything in Op.run is timed.


def prepare(workload: str, inputs: dict, counters: dict) -> list[Op]:
    return PREPARERS[workload](inputs, counters)


def _witness_errors(r, q, rep) -> str | None:
    from flagcr import rootsys

    decided = rep.is_lb and rep.is_fundamental
    rows = ((rep.symmetric, rep.witness_mod2, "mod2", lambda v: v % 2 == 1),
            (rep.weak_j, rep.witness_mod4, "mod4", lambda v: v % 4 == 1),
            (rep.j_property, rep.witness_exact, "exact", lambda v: v == 1))
    for verdict, witness, name, ok in rows:
        if not decided:
            if verdict is not None or witness is not None:
                return f"{name}: verdict on an undecided set"
            continue
        if not isinstance(verdict, bool) or verdict != (witness is not None):
            return f"{name}: verdict {verdict!r} with witness {witness!r}"
        if witness is not None:
            try:
                if not all(ok(rootsys.evaluate_int(r.roots[i], witness)) for i in q):
                    return f"{name}: witness fails on Q"
            except ValueError as e:
                return f"{name}: {e}"
    if decided and ((rep.j_property and not rep.weak_j) or (rep.weak_j and not rep.symmetric)):
        return "hierarchy j => weak-J => symmetric broken"
    return None


def _prep_decide(inputs, counters):
    from flagcr import qsets

    blocks = {b["name"]: b for b in common.load_expected("decide.json")["types"]}
    systems = {name: common.build_system(b["system"]) for name, b in blocks.items()}
    ops = []
    for op in inputs["ops"]:
        r = systems[op["type"]]
        q = common.to_indices(r, op["roots"])
        base = blocks[op["type"]]["bases"][op["base"]]

        def check(rep, r=r, q=q, base=base):
            got = [rep.is_lb, rep.is_fundamental, rep.symmetric, rep.weak_j, rep.j_property]
            if rep.is_lb != (base["kind"] != "non_lb"):
                return f"is_lb = {rep.is_lb} for a {base['kind']} set"
            if got != base["verdicts"]:
                return f"verdicts {got} differ from the base set's {base['verdicts']}"
            return _witness_errors(r, q, rep)

        ops.append(Op(op["id"], lambda r=r, q=q: qsets.property_report(r, q), check))
    return ops


def _prep_classify(inputs, counters):
    ops = []
    for op in inputs["ops"]:
        expected = (op["code"], common.read_expected_bytes(op["out"]))

        def run(argv=op["argv"]):
            code, text = common.run_cli(argv)
            counters["cli.output_bytes"] += len(text.encode())
            return code, text

        def check(got, expected=expected):
            if got[0] != expected[0]:
                return f"exit code {got[0]}, expected {expected[0]}"
            if got[1].encode() != expected[1]:
                return f"stdout differs from the recorded output ({len(got[1].encode())} vs {len(expected[1])} bytes)"
            return None

        ops.append(Op(op["name"], run, check))
    return ops


def _prep_orbits(inputs, counters):
    from flagcr import weyl

    exp = common.load_expected("orbits.json")
    systems = {key: common.build_system(block["system"]) for key, block in exp.items()}
    ops = []
    for n, op in enumerate(inputs["ops"]):
        r = systems[op["key"]]
        label = f"{n}-{op['op']}-{op['key']}"
        if op["op"] == "sets_equivalent":
            a, b = common.to_indices(r, op["a"]), common.to_indices(r, op["b"])
            ops.append(Op(label, lambda r=r, a=a, b=b, g=op["group"]: weyl.sets_equivalent(r, a, b, g),
                          lambda got, want=op["expect"]: None if got is want else f"got {got}, expected {want}"))
            continue
        base = exp[op["key"]]["bases"][op["base"]]
        q = common.to_indices(r, op["roots"])
        canonical = common.to_indices(r, base["canonical"])
        if op["op"] == "canonical_form":
            ops.append(Op(label, lambda r=r, q=q: weyl.canonical_form(r, q),
                          lambda got, want=canonical: None if frozenset(got) == want else "wrong canonical form"))
        else:
            def check(orbit, q=q, want=canonical, size=base["orbit_size"]):
                if len(orbit) != size:
                    return f"orbit size {len(orbit)}, expected {size}"
                if q not in orbit or want not in orbit:
                    return "orbit misses the input set or its canonical form"
                return None

            ops.append(Op(label, lambda r=r, q=q: weyl.set_orbit(r, q), check))
    return ops


def _prep_cr(inputs, counters):
    """One op per library call, so per-op latencies resolve the CR layer's
    steps; state carries each step's result to the next."""
    from flagcr import cralg, presets, qsets

    exp = common.load_expected("cr.json")
    state = {}
    ops = []

    def step(label, fn, want=None, view=lambda got: got):
        def run():
            state[label] = fn()
            return state[label]

        def check(got):
            return None if want is None or view(got) == want else f"got {view(got)!r}, expected {want!r}"

        ops.append(Op(label, run, check))

    for block, images in zip(exp["presets"], inputs["images"]):
        spec = block["system"]
        r = common.build_system(spec)
        fp_label = f"flag_preset-{spec[0]}{spec[1]}"
        step(fp_label, lambda spec=spec: presets.flag_preset(*spec), block["dim"], lambda fp: fp.pres.dim)
        for k, (cls, coords) in enumerate(zip(block["classes"], images)):
            q = sorted(common.to_indices(r, coords))
            tag = f"{spec[0]}{spec[1]}-{k}"
            alg = f"cr_algebra-{tag}"
            step(alg, lambda f=fp_label, q=q: state[f].cr_algebra(q))
            step(f"cr_dim_codim-{tag}", lambda a=alg: cralg.cr_dim_codim(state[a]), (cls["cr_dim"], cls["cr_codim"]))
            for pred, key in ((cralg.is_fundamental_cr, "fundamental"),
                              (cralg.is_levi_nondegenerate, "levi_nondegenerate"), (cralg.is_effective, "effective")):
                step(f"{pred.__name__}-{tag}", lambda a=alg, name=pred.__name__: getattr(cralg, name)(state[a]),
                     cls[key])
            if "j_transfer" in cls:
                step(f"has_j-{tag}", lambda f=fp_label, q=q: qsets.has_j(state[f].system, q), True, lambda got: got[0])
                step(f"j_derivation-{tag}", lambda f=fp_label, w=f"has_j-{tag}": state[f].j_derivation(state[w][1]))
                step(f"check_j_property-{tag}", lambda a=alg, j=f"j_derivation-{tag}": cralg.check_j_property(state[a], state[j]),
                     cls["j_transfer"])
            if "symmetric_transfer" in cls:
                step(f"is_symmetric-{tag}", lambda f=fp_label, q=q: qsets.is_symmetric(state[f].system, q), True,
                     lambda got: got[0])
                step(f"symmetry_involution-{tag}",
                     lambda f=fp_label, w=f"is_symmetric-{tag}": state[f].symmetry_involution(state[w][1]))
                step(f"check_cr_symmetric-{tag}",
                     lambda a=alg, s=f"symmetry_involution-{tag}": cralg.check_cr_symmetric(state[a], state[s])["ok"],
                     cls["symmetric_transfer"])
    return ops


PREPARERS = {"decide": _prep_decide, "classify": _prep_classify, "orbits": _prep_orbits, "cr": _prep_cr}

