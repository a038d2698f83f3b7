"""Paths and small helpers shared by the benchmark's parent and pass processes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(BENCH_DIR, "expected")
# Scratch space for generated inputs, pass results and span files.  Relative
# to ROOT; the classify workload embeds these paths in command lines, so they
# must not depend on the seed or the run.
WORK_REL = ".perfbench"

# Every time the benchmark reports is scaled to a reference speed: the speed
# at which reference_kernel() takes REFERENCE_S seconds.  The machine's speed
# drifts by tens of percent over seconds to minutes (other tenants share its
# cores), and the pure-Python kernel, timed throughout each pass, slows down
# with it.
REFERENCE_S = 1e-3


def reference_kernel() -> tuple[float, float]:
    """Time one run of a fixed pure-Python loop of tuple, dict, set and
    integer work, the instruction mix of flagcr's hot paths.  Returns
    (start, duration) in perf_counter seconds."""
    from time import perf_counter

    t0 = perf_counter()
    table = {}
    acc = 0
    for i in range(800):
        key = (i, i * 7 % 13, i * i % 29)
        table[key] = table.get(key, 0) + sum(key)
        acc += len(frozenset(key) | {i % 5})
    return t0, perf_counter() - t0


def use_source_tree():
    """Make ``import flagcr`` load the package from this checkout's src/."""
    if not os.path.isdir(os.path.join(SRC, "flagcr")):
        raise ImportError(f"no flagcr package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_expected(name: str):
    with open(os.path.join(EXPECTED, name)) as f:
        return json.load(f)


def read_expected_bytes(rel: str) -> bytes:
    with open(os.path.join(EXPECTED, rel), "rb") as f:
        return f.read()


def build_system(spec):
    """spec = [type_tag, rank_arg]: the arguments of build_root_system."""
    from flagcr import rootsys

    tag, rank = spec
    return rootsys.build_root_system(tag, rank)


def label(r) -> str:
    """Short name of a root system: F4, E6, B5, ..."""
    return r.type_tag if r.type_tag[1:] else f"{r.type_tag}{r.rank}"


def to_coords(r, q) -> list[list[int]]:
    return [list(r.roots[i]) for i in sorted(q)]


def to_indices(r, coords) -> frozenset[int]:
    return frozenset(r.index[tuple(v)] for v in coords)


def run_cli(argv) -> tuple[int, str]:
    """Run flagcr.cli.main in-process; returns (exit code, stdout text)."""
    from flagcr import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
    return code, buf.getvalue()
