"""The benchmark's classify workload, one pass in-process.

perfbench/workloads.py writes the root-set files of the check and realform
commands under .perfbench/classify/ and lists every recorded command with its
expected stdout; each command runs once here through flagcr.cli.main, and
every output must match the recorded bytes and exit code, so a change to
enumerate, verify-paper, check or realform that breaks the benchmark fails
the tests too.  The command lines name those files relative to the checkout
root, so the test runs there.  It only reads perfbench/: no bytecode is
written there.
"""

import collections
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")


def test_classify_workload_checks_pass(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.chdir(ROOT)
    import workloads

    counters = collections.Counter()
    ops = workloads.prepare("classify", workloads.generate("classify", 1), counters)
    assert any(op.label.startswith("enumerate") for op in ops)
    assert {op.label: error for op in ops if (error := op.check(op.run())) is not None} == {}
    assert counters["cli.output_bytes"] > 0
