"""The combinatorial layers stay below the Lie-algebra layers: intlat,
rootsys, qsets, weyl and classify import nothing from gaussq, cralg or
presets, so root systems, root sets and their groups are decided in integer
arithmetic alone."""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "flagcr")

LOWER = ("intlat", "rootsys", "qsets", "weyl", "classify")
UPPER = {"gaussq", "cralg", "presets"}


def _package_imports(path):
    """(line, module) for every flagcr module the file imports, relatively
    (from . import x, from .x import y) or absolutely (flagcr.x)."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "flagcr" and len(parts) > 1:
                    yield node.lineno, parts[1]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "flagcr":
                continue
            inner = parts if node.level else parts[1:]
            if inner and inner[0]:
                yield node.lineno, inner[0]
            else:
                for alias in node.names:
                    yield node.lineno, alias.name


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_import_no_algebra_layer(module):
    got = [(line, mod) for line, mod in _package_imports(os.path.join(SRC, module + ".py")) if mod in UPPER]
    assert not got, f"{module} imports {got}"


def test_the_scan_sees_the_imports():
    # presets is built on gaussq and cralg, so the scan must find both there
    found = {mod for _, mod in _package_imports(os.path.join(SRC, "presets.py"))}
    assert {"gaussq", "cralg", "rootsys", "weyl"} <= found
