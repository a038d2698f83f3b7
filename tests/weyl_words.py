"""Test fixture: random elements of W or Aut as root-index permutations."""

import random

from flagcr.rootsys import RootSystem
from flagcr.weyl import generators


def random_element(r: RootSystem, rng: random.Random, length: int = 12, group: str = "weyl") -> tuple[int, ...]:
    """Product of ``length`` generators drawn by ``rng``, as a root permutation."""
    gens = generators(r, group)
    g = tuple(range(r.nroots))
    for _ in range(length):
        s = rng.choice(gens)
        g = tuple(s[i] for i in g)
    return g
