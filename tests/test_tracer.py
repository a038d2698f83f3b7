"""The benchmark's span tracer can wrap every traced flagcr function.

perfbench/tracer.py replaces each traced function in its defining module and
under every name another flagcr module imported it as, and raises
TracingIncomplete when a reference it cannot wrap remains (for example in a
module-level container).  Installing it in a fresh interpreter here catches
such a reference without running the traced benchmark.  The test only reads
perfbench/: no bytecode is written there.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from tracer import Tracer
Tracer().install()
print("installed")
"""


def test_tracer_installs_without_unwrapped_bindings():
    script = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "TracingIncomplete" not in done.stderr
    assert done.stdout.strip() == "installed"
