"""The benchmark's decide workload, one pass in-process.

perfbench/workloads.py generates the workload's inputs from a seed (seeded
W-images of fixed F4/B5/E6/E7/E8 cliques, subcliques and non-lb sets) and
prepares one property_report per input, whose check compares the verdicts
with the base set's recorded ones and re-evaluates every witness; every
operation runs once here and every check must pass, so a change to qsets or
intlat that breaks the benchmark fails the tests too.  The test only reads
perfbench/: no bytecode is written there.
"""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_decide_workload_checks_pass(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    import workloads

    ops = workloads.prepare("decide", workloads.generate("decide", 1), {})
    assert {op.label.split("-")[0] for op in ops} == {"F4", "B5", "E6", "E7", "E8"}
    assert {op.label.split("-")[1] for op in ops} == {"maximal", "sub", "non_lb"}
    assert {op.label: error for op in ops if (error := op.check(op.run())) is not None} == {}
