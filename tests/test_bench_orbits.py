"""The benchmark's orbits workload, one pass in-process.

perfbench/workloads.py generates the workload's inputs from a seed and
prepares its operations with their output checks; every operation runs once
here and every check must pass, so a change to flagcr.weyl that breaks the
benchmark fails the tests too.  The test only reads perfbench/: no bytecode
is written there.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_orbits_workload_checks_pass(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    ops = workloads.prepare("orbits", workloads.generate("orbits", 1), {})
    assert {op.label.split("-")[1] for op in ops} == {"canonical_form", "set_orbit", "sets_equivalent"}
    assert {op.label: error for op in ops if (error := op.check(op.run())) is not None} == {}
