"""The runtime stays stdlib-only: every import in the package names flagcr
itself or a module of the standard library, and none is dataclasses."""

import ast
import glob
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "flagcr")


def _imported(path):
    """(line, top-level module) for every import in the file; a relative
    import names flagcr."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "flagcr" if node.level else node.module.split(".")[0]


FILES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def test_package_files_found():
    assert len(FILES) > 10


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_imports_are_flagcr_or_stdlib(path):
    foreign = [(line, mod) for line, mod in _imported(path) if mod != "flagcr" and mod not in sys.stdlib_module_names]
    assert not foreign, f"{os.path.basename(path)} imports outside the standard library: {foreign}"


@pytest.mark.parametrize("path", FILES, ids=os.path.basename)
def test_no_dataclasses(path):
    # each decorator generates and execs its methods at every import, and the
    # module pulls in inspect, ast, dis and tokenize: start-up time for nothing
    assert "dataclasses" not in {mod for _, mod in _imported(path)}


def test_entry_modules_load_neither_dataclasses_nor_inspect():
    code = (
        "import sys, flagcr.cli, flagcr.cralg, flagcr.presets, flagcr.realform\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
