"""The runtime stays stdlib-only: every import in the package names flagcr
itself or a module of the standard library."""

import ast
import glob
import os
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
