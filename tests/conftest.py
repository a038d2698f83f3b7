import functools

import pytest

from flagcr.classify import e_system, enumerate_maximal
from flagcr.rootsys import build_root_system


@pytest.fixture(scope="session")
def enumerated():
    """(root system, enumerate_maximal classes) for (type, rank, quotient),
    computed once per test session: the E6 enumerations take seconds."""

    @functools.lru_cache(maxsize=None)
    def get(tag, rank, quotient):
        rs = e_system(6) if tag == "E6" else build_root_system(tag, rank)
        return rs, enumerate_maximal(rs, quotient)

    return get
