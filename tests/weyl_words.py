"""Test fixture: generators and random elements of W or Aut as root-index
permutations."""

import random

from flagcr.rootsys import RootSystem
from flagcr.weyl import diagram_automorphisms, generators


def group_generators(r: RootSystem, group: str = "weyl") -> tuple[tuple[int, ...], ...]:
    """The simple reflections, followed for 'aut' by the diagram automorphisms."""
    return generators(r) + (tuple(diagram_automorphisms(r)) if group == "aut" else ())


def random_element(r: RootSystem, rng: random.Random, length: int = 12, group: str = "weyl") -> tuple[int, ...]:
    """Product of ``length`` generators drawn by ``rng``, as a root permutation."""
    gens = group_generators(r, group)
    g = tuple(range(r.nroots))
    for _ in range(length):
        s = rng.choice(gens)
        g = tuple(s[i] for i in g)
    return g
