import functools

import pytest

from flagcr import rootsys
from flagcr.classify import enumerate_maximal
from flagcr.rootsys import build_root_system


@pytest.fixture(scope="session")
def enumerated():
    """(root system, enumerate_maximal classes) for (type, rank, quotient),
    computed once per test session: the E6 enumerations take seconds."""

    @functools.lru_cache(maxsize=None)
    def get(tag, rank, quotient):
        rs = build_root_system(tag, rank)
        return rs, enumerate_maximal(rs, quotient)

    return get


@pytest.fixture
def fresh_systems(monkeypatch):
    """An empty per-process store of root systems for one test, so that
    build_root_system builds anew and the tables it keeps are filled from
    empty; returns the store, which the test may clear to build a system
    twice.  The shared systems of the rest of the session are untouched."""
    systems = {}
    monkeypatch.setattr(rootsys, "_SYSTEMS", systems)
    return systems
