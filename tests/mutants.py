"""A mutation gate for flagcr's decision kernels.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --list     # names, files and killing nodes

Each mutant is a one-line change to a file under src/flagcr, given with the
test nodes that must kill it (DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer, 1978).  For each one the script copies
src/ to a temporary directory, makes the replacement there (its text must
occur exactly once), runs only the mutant's nodes with pytest against the
copy, and prints killed or survived with the time the nodes took.  A
mutant is killed when a node fails; pytest ending any other way (an import
or collection error, a missing node) is printed as an error.  The script
first runs every node it will use on an unmutated copy, and stops when one
of them fails there or the copy is not the flagcr that the nodes import.
Exits 1 unless every mutant is killed.

The file is not named test_*.py, so pytest does not collect it.  It uses
the standard library only; the nodes need pytest and the test dependencies.
No file of the checkout is changed and no bytecode is written.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/flagcr
    old: str
    new: str
    nodes: tuple[str, ...]


MUTANTS = (
    Mutant(
        "feasible-skips-last-factor", "intlat.py",
        "return all(ci % d == 0 for ci, d in zip(c, self.d)) and",
        "return all(ci % d == 0 for ci, d in zip(c, self.d[:-1])) and",
        ("tests/test_intlat.py::test_feasible_matches_solve",),
    ),
    Mutant(
        "lift-mod-gcd-with-2", "intlat.py",
        "g = [gcd(d, m) for d in self.d]",
        "g = [gcd(d, 2) for d in self.d]",
        ("tests/test_intlat.py::test_congruence_vs_exhaustive_when_the_modulus_shares_odd_or_higher_factors",),
    ),
    Mutant(
        "route-a-mod-2-for-every-m", "qsets.py",
        "(not self.star) or self.gcd % m == 0",
        "(not self.star) or self.gcd % 2 == 0",
        ("tests/test_qsets.py::test_kernel_gcd_matches_j", "tests/test_qsets.py::test_g2_stratification_members"),
    ),
    Mutant(
        "q-star-drops-negatives", "qsets.py",
        "return frozenset(diffs | {r.neg(d) for d in diffs})",
        "return frozenset(diffs)",
        ("tests/test_qsets.py::test_q_star_11",),
    ),
    Mutant(
        "witness-lattice-check-skipped", "qsets.py",
        "if dot(b, e.num) % (2 * e.den):",
        "if False:",
        ("tests/test_qsets.py::test_witness_outside_coweight_lattice_is_rejected",),
    ),
    Mutant(
        "is-fundamental-any", "qsets.py",
        "return all(solver.feasible(solver.transform(v)) for v in r.lattice_basis)",
        "return any(solver.feasible(solver.transform(v)) for v in r.lattice_basis)",
        ("tests/test_qsets.py::test_is_fundamental_matches_all_roots_oracle[G2-None-None]",),
    ),
    Mutant(
        "witness-congruence-vacuous", "qsets.py",
        "elif v % modulus != 1 % modulus:",
        "elif v % modulus != v % modulus:",
        ("tests/test_qsets.py::test_zero_witness_fails_the_congruence_and_the_exact_check",),
    ),
    Mutant(
        "column-swap-skips-carried-row", "intlat.py",
        "        for row in v:\n",
        "        for row in ():\n",
        ("tests/test_intlat.py::test_carried_sum_row_is_the_column_sums_of_v",
         "tests/test_qsets.py::test_degree_set_examples"),
    ),
    Mutant(
        "column-add-skips-carried-row", "intlat.py",
        "for rows in (a, v):",
        "for rows in (a,):",
        ("tests/test_intlat.py::test_carried_sum_row_is_the_column_sums_of_v",
         "tests/test_qsets.py::test_degree_set_examples"),
    ),
)


# pytest's exit codes: all passed, some test failed
PASSED, FAILED = 0, 1


def run_nodes(src: str, nodes) -> tuple[int, float, str]:
    """(pytest's exit code, seconds, output tail) of the nodes, importing
    flagcr from the copy ``src``."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, time.perf_counter() - start, proc.stdout[-1500:] + proc.stderr[-1500:]


def copy_src(tmp: str) -> str:
    src = os.path.join(tmp, "src")
    shutil.copytree(os.path.join(ROOT, "src"), src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def apply(src: str, mutant: Mutant) -> None:
    path = os.path.join(src, "flagcr", mutant.path)
    with open(path) as f:
        text = f.read()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: the replaced text occurs {count} times in {mutant.path}, not once")
    with open(path, "w") as f:
        f.write(text.replace(mutant.old, mutant.new))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants {unknown}; known: {sorted(known)}")
    chosen = [known[n] for n in args.names] if args.names else list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}  ({m.path})  {' '.join(m.nodes)}")
        return 0

    with tempfile.TemporaryDirectory(prefix="flagcr-mutants-") as tmp:
        src = copy_src(os.path.join(tmp, "clean"))
        probe = subprocess.run([sys.executable, "-c", "import flagcr; print(flagcr.__file__)"],
                               env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
                               capture_output=True, text=True)
        if not probe.stdout.startswith(src):
            print(f"the nodes would not import the copy: flagcr is {probe.stdout.strip() or probe.stderr}")
            return 1
        nodes = sorted({n for m in chosen for n in m.nodes})
        code, seconds, out = run_nodes(src, nodes)
        print(f"{'clean copy':34} {'passed' if code == PASSED else 'FAILED':9} {seconds:6.1f} s  {len(nodes)} nodes")
        if code != PASSED:
            print(out)
            return 1
        alive = []
        for k, mutant in enumerate(chosen):
            src = copy_src(os.path.join(tmp, str(k)))
            apply(src, mutant)
            code, seconds, out = run_nodes(src, mutant.nodes)
            outcome = {PASSED: "SURVIVED", FAILED: "killed"}.get(code, f"ERROR {code}")
            print(f"{mutant.name:34} {outcome:9} {seconds:6.1f} s  {' '.join(mutant.nodes)}")
            if code != FAILED:
                alive.append(mutant.name)
                if code != PASSED:
                    print(out)
    if alive:
        print(f"{len(alive)} of {len(chosen)} mutants not killed: {', '.join(alive)}")
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
