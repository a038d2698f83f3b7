"""Command-line surface: enumerate, check, verify-paper, realform and cralg
commands with machine-readable, byte-deterministic output.  Every command
takes --format and --verbose; --verbose adds timing_s, the seconds since main
was entered, argument parsing included: a key of the JSON report, and under
--format table a last line {"timing_s": ...} (for verify-paper, a key of its
summary line).

The argument parser is built once per process, on the first call to main,
and later calls reuse it; so do the root systems the commands build (see
rootsys.build_root_system).

Exit codes: 0 success, 1 bad arguments / parse or validation failure,
2 budget exceeded (partial results are still printed, flagged
non-exhaustive, and stderr names the stop).  verify-paper prints one line
per row of classify.verify_paper before its report, and exits 1 only on a
FAIL row.  enumerate --budget, a positive integer, is the one way to set
the search budget (default weyl.BUDGET); verify-paper takes none.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from collections import Counter

from . import classify, qsets, rootsys, weyl
from .classify import BudgetExceeded


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _emit(args, command, inputs, results, exhaustive=True):
    report = {
        "command": command,
        "inputs": inputs,
        "inputs_digest": _digest(inputs),
        "exhaustive": exhaustive,
        "results": results,
    }
    if args.verbose:
        report["timing_s"] = _timing(args)
    if args.format == "table":
        _print_table(results)
        if args.verbose:
            print(json.dumps({"timing_s": report["timing_s"]}))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


def _timing(args) -> float:
    """Seconds since main was entered, for --verbose."""
    return round(time.perf_counter() - args.started, 3)


def _print_table(results):
    rows = results if isinstance(results, list) else [results]
    flat = []
    for r in rows:
        flat.append({k: _cell(v) for k, v in sorted(r.items())})
    if not flat:
        print("(empty)")
        return
    cols = sorted({k for r in flat for k in r})
    widths = {c: max(len(c), max(len(r.get(c, "")) for r in flat)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    print("  ".join("-" * widths[c] for c in cols))
    for r in flat:
        print("  ".join(r.get(c, "").ljust(widths[c]) for c in cols))


def _cell(v):
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


class SystemExit2(SystemExit):
    def __init__(self, msg, code):
        print(f"error: {msg}", file=sys.stderr)
        super().__init__(code)


def _read_rootset(path):
    """The root system and root set of a root-set file; an unreadable or
    malformed file is a usage error (exit 1)."""
    try:
        with open(path) as f:
            return rootsys.rootset_from_json(f.read())
    except (OSError, ValueError, KeyError) as e:
        raise SystemExit2(f"cannot parse root-set file: {e}", 1)


def cmd_enumerate(args) -> int:
    try:
        rs = rootsys.root_system_of_rank(args.type, args.rank)
    except rootsys.InvalidRank as e:
        raise SystemExit2(str(e), 1)
    if args.budget <= 0:
        raise SystemExit2(f"--budget must be a positive integer, got {args.budget}", 1)
    exhaustive = True
    try:
        classes = classify.enumerate_maximal(rs, args.quotient, args.budget)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        classes = e.partial
        exhaustive = False
    inputs = {"type": args.type, "rank": args.rank, "quotient": args.quotient, "budget": args.budget}
    results = [c.to_jsonable(rs) for c in classes]
    payload = {"classes": results, "count": len(results)} if args.format == "json" else results
    _emit(args, "enumerate", inputs, payload, exhaustive)
    return 0 if exhaustive else 2


def cmd_check(args) -> int:
    rs, q = _read_rootset(args.roots)
    rep = qsets.property_report(rs, q)
    payload = rep.to_jsonable()
    payload["status"] = "ok" if rep.is_lb and rep.is_fundamental else "not_fundamental"
    payload["roots"] = [list(rs.roots[i]) for i in sorted(q)]
    _emit(args, "check", {"file": args.roots, "type": rs.type_tag}, payload)
    return 0


def cmd_verify_paper(args) -> int:
    exhaustive = True
    try:
        rows = classify.verify_paper(args.section)
    except BudgetExceeded as e:
        # the rows of the sections that finished are printed, flagged
        print(f"error: {e}", file=sys.stderr)
        rows, exhaustive = e.partial, False
    for r in rows:
        mark = {"pass": "PASS", "FAIL": "FAIL", "known-discrepancy": "KNOWN"}[r["status"]]
        line = f"[{mark}] {r['claim']}"
        if r.get("detail"):
            line += f"  -- {r['detail']}"
        print(line)
    counts = Counter(r["status"] for r in rows)
    summary = {"pass": counts["pass"], "fail": counts["FAIL"], "known_discrepancies": counts["known-discrepancy"]}
    if args.format == "json":
        _emit(args, "verify-paper", {"section": args.section}, {"rows": rows, "summary": summary}, exhaustive)
    else:
        print(json.dumps(dict(summary, timing_s=_timing(args)) if args.verbose else summary, sort_keys=True))
    return 1 if summary["fail"] else 0 if exhaustive else 2


def cmd_realform(args) -> int:
    from . import realform as rf

    rs, q = _read_rootset(args.roots)
    spec = args.conjugation
    if spec == "compact":
        sigma = rf.compact_conjugation(rs)
    elif arev := re.fullmatch(r"a-reverse(?::m=([1-9][0-9]*))?", spec):
        if rs.type_tag != "A":
            raise SystemExit2("a-reverse applies to type A root systems", 1)
        if arev[1]:
            m = int(arev[1])
            if rs.ambient_dim != 2 * m:
                raise SystemExit2(f"a-reverse:m={m} needs the A_{{2m-1}} system", 1)
        sigma = rf.a_reverse_conjugation(rs)
    else:
        raise SystemExit2(f"unknown conjugation preset {spec!r}", 1)
    out = {"partition": rf.check_eq_ha(rs, q, sigma)}
    if out["partition"]:
        qr, qn = rf.split_r_n(rs, q)
        out["q_reductive"] = [list(rs.roots[i]) for i in sorted(qr)]
        out["q_nilpotent_size"] = len(qn)
        if args.op == "lemma":
            out["lemma"] = rf.verify_lemma_lb(rs, q, sigma)
        else:
            # the adapted system carries the lemma report it was built on
            ad = rf.adapted_simple_system(rs, q, sigma)
            out["lemma"] = ad["lemma"]
            if ad["lemma"]["ok"]:
                out["adapted"] = {
                    "simples": [list(rs.roots[i]) for i in ad["simples"]],
                    "p": ad["p"],
                    "epsilon": str(ad["epsilon"]),
                    "checks": ad["checks"],
                    "ok": ad["ok"],
                }
    _emit(args, "realform", {"file": args.roots, "conjugation": spec, "op": args.op}, out)
    return 0


def _q_vectors(text):
    """The --q file: a JSON list of vectors, each a list of [re, im] pairs."""
    from .gaussq import CNum

    vecs = json.loads(text)
    if not isinstance(vecs, list) or not all(isinstance(v, list) for v in vecs):
        raise ValueError("--q must hold a JSON list of vectors")
    return [tuple(CNum.from_pair(z, f"--q vector {t}") for z in v) for t, v in enumerate(vecs)]


def _xi(text, n):
    """--xi: a JSON list of n integers, the coefficients on the g0 basis."""
    try:
        xi = json.loads(text)
    except ValueError:
        xi = None
    if not (isinstance(xi, list) and len(xi) == n and all(type(x) is int for x in xi)):
        raise SystemExit2(f"--xi must be a JSON list of {n} integers, got {text!r}", 1)
    return xi


def cmd_cralg(args) -> int:
    from . import cralg as ca
    from .presets import get_preset

    if args.preset and (args.file or args.q):
        raise SystemExit2("--preset takes no --file or --q", 1)
    for opt, op in (("xi", "levi"), ("ideal", "fibration")):
        if getattr(args, opt) is not None and args.op != op:
            raise SystemExit2(f"--{opt} applies only to --op {op}", 1)
    try:
        if args.preset:
            alg = get_preset(args.preset)
        else:
            if not args.file or not args.q:
                raise SystemExit2("--file mode requires --file and --q", 1)
            with open(args.file) as f:
                pres = ca.LieAlgebraPresentation.from_json(f.read())
            with open(args.q) as f:
                alg = ca.CRAlgebra(pres, ca.cspan(pres, _q_vectors(f.read())))
    except (OSError, ValueError, KeyError) as e:
        raise SystemExit2(f"cannot load algebra: {e}", 1)
    out = {}
    if args.op == "predicates":
        crdim, crcodim = ca.cr_dim_codim(alg)
        out = {
            "cr_dim": crdim,
            "cr_codim": crcodim,
            "fundamental": ca.is_fundamental_cr(alg),
            "levi_nondegenerate": ca.is_levi_nondegenerate(alg),
            "effective": ca.is_effective(alg),
        }
    elif args.op == "levi":
        n = len(alg.pres.g0_basis())
        if args.xi is not None:
            xi = _xi(args.xi, n)
            try:
                m = ca.scalar_levi_form(alg, xi)
            except ca.NotCharacteristic as e:
                raise SystemExit2(f"--xi {args.xi} is not characteristic: {e}", 1)
        else:
            # the first unit covector that is characteristic; when q + qbar = g
            # (CR codimension 0) only xi = 0 is
            if ca.cr_dim_codim(alg)[1] == 0:
                cands = [[0] * n]
            else:
                cands = [[1 if t == k else 0 for t in range(n)] for k in range(n)]
            xi = next((c for c in cands if ca.is_characteristic(alg, c)), None)
            if xi is None:
                raise SystemExit2("no characteristic covector found; pass --xi", 1)
            m = ca.scalar_levi_form(alg, xi)
        out = {"xi": xi, "levi_matrix": [[str(x) for x in row] for row in m]}
    elif args.op == "fibration":
        # the named ideals of g0, each by its complexification
        owner = {"radical": "exam-bf", "center": "heisenberg"}.get(args.ideal)
        if owner is not None and args.preset != owner:
            raise SystemExit2(f"--ideal {args.ideal} is defined only for the {owner} preset", 1)
        if args.ideal == "radical":
            from .presets import exam_bf

            alg, ideal = exam_bf()
        elif args.ideal == "center":
            ideal = ca.cspan(alg.pres, [(0, 0, 1)])
        elif args.ideal == "zero":
            ideal = ca.cspan(alg.pres, [])
        elif args.ideal == "full":
            ideal = ca.full_space(alg.pres)
        else:
            raise SystemExit2("--ideal must be radical|center|zero|full for presets", 1)
        try:
            compatible = ca.fibration_compatible(alg, ideal)
        except ca.NotAnIdeal as e:
            raise SystemExit2(str(e), 1)
        out = {"ideal": args.ideal, "compatible": compatible}
        if compatible:
            base, fiber = ca.induced_base_fiber(alg, ideal)
            out["base_cr"] = list(ca.cr_dim_codim(base))
            out["fiber_cr"] = list(ca.cr_dim_codim(fiber))
    elif args.op == "anticanonical":
        rep = ca.anticanonical(alg)
        out = {
            "ok": rep["ok"],
            "normalizer_dim": rep["a0"].rank(),
            "q_prime_dim_c": rep["q_prime"].rank(),
            "item5": rep["item5"],
        }
    inputs = {"preset": args.preset, "op": args.op}
    inputs.update({k: getattr(args, k) for k in ("ideal", "xi", "file", "q") if getattr(args, k) is not None})
    _emit(args, "cralg", inputs, out)
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # bad arguments are exit code 1 by contract (argparse default is 2,
        # which is reserved for budget exhaustion)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and reused by every later
    main in the process."""
    parser = _Parser(prog="flagcr", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "table"], default="json")
    common.add_argument("--verbose", action="store_true")

    p = sub.add_parser("enumerate", parents=[common], help="maximal classes of Q(R) up to the chosen quotient")
    p.add_argument("--type", required=True, choices=list(rootsys.TYPES))
    p.add_argument("--rank", type=int)
    p.add_argument("--quotient", choices=["weyl", "aut"], default="weyl")
    p.add_argument("--budget", type=int, default=weyl.BUDGET)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("check", parents=[common], help="full property report for a root-set file")
    p.add_argument("--roots", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("verify-paper", parents=[common], help="itemized verification of the catalog claims")
    p.add_argument("--section", default="all", choices=[*classify.SECTIONS, "all"])
    p.set_defaults(fn=cmd_verify_paper)

    p = sub.add_parser("realform", parents=[common], help="real-form compatibility checks for a closed root set")
    p.add_argument("--roots", required=True)
    p.add_argument("--conjugation", required=True, help="compact | a-reverse[:m=K]")
    p.add_argument("--op", default="lemma", choices=["lemma", "adapted"])
    p.set_defaults(fn=cmd_realform)

    p = sub.add_parser("cralg", parents=[common], help="structure-constants CR algebra computations")
    p.add_argument("--preset")
    p.add_argument("--file")
    p.add_argument("--q")
    p.add_argument("--op", required=True, choices=["predicates", "levi", "fibration", "anticanonical"])
    p.add_argument("--ideal")
    p.add_argument("--xi")
    p.set_defaults(fn=cmd_cralg)
    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parser().parse_args(argv)
    args.started = started
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except SystemExit2 as e:
        return e.code if isinstance(e.code, int) else 1
    except BrokenPipeError:
        # the reader closed stdout (`| head`): point it at devnull so that the
        # flush at exit cannot fail again (the SIGPIPE note of the signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
