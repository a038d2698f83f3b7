"""The benchmark's own view of a root system, built from its coordinate list
alone.  Input generation uses it instead of flagcr's graph and Weyl-group
code, so a seed gives the same inputs whatever a later change does to how
flagcr orders roots, builds the compatibility graph or walks the group."""

from __future__ import annotations


def _lex_positive(v) -> bool:
    return next(x for x in v if x) > 0


class Roots:
    def __init__(self, coords):
        self.roots = sorted(tuple(v) for v in coords)
        self.index = {v: i for i, v in enumerate(self.roots)}
        self.neg = [self.index[tuple(-x for x in v)] for v in self.roots]
        positive = [i for i, v in enumerate(self.roots) if _lex_positive(v)]
        pset = set(positive)
        # simple roots: positive roots that are not a sum of two positive roots
        self.simple = [i for i in positive
                       if not any(self.difference(i, a) in pset for a in positive if a != i)]
        self._reflections = [self._reflection(s) for s in self.simple]

    def coords(self, q) -> list[list[int]]:
        return [list(self.roots[i]) for i in sorted(q)]

    def indices(self, coords) -> list[int]:
        return [self.index[tuple(v)] for v in coords]

    def sum(self, i, j):
        """Index of root i + root j, or None when the sum is not a root."""
        return self.index.get(tuple(x + y for x, y in zip(self.roots[i], self.roots[j])))

    def difference(self, i, j):
        return self.index.get(tuple(x - y for x, y in zip(self.roots[i], self.roots[j])))

    def compatible(self, i, j) -> bool:
        """Edge of the lb graph: no pair of negatives, no sum that is a root."""
        return j != self.neg[i] and self.sum(i, j) is None

    def adjacency(self) -> dict[int, set[int]]:
        n = len(self.roots)
        return {i: {j for j in range(n) if j != i and self.compatible(i, j)} for i in range(n)}

    def _reflection(self, s) -> list[int]:
        a = self.roots[s]
        aa = sum(x * x for x in a)
        perm = []
        for v in self.roots:
            c, rem = divmod(2 * sum(x * y for x, y in zip(v, a)), aa)
            if rem:
                raise ValueError("non-integral Cartan number")
            perm.append(self.index[tuple(x - c * y for x, y in zip(v, a))])
        return perm

    def w_image(self, q, rng, length) -> list[int]:
        """Image of q under a product of `length` random simple reflections."""
        out = list(q)
        for _ in range(length):
            perm = self._reflections[rng.randrange(len(self._reflections))]
            out = [perm[i] for i in out]
        return out

    def twist(self, q) -> list[int]:
        """Image under the sign change of the last coordinate: for D_n a
        diagram automorphism that is not in the Weyl group."""
        return [self.index[self.roots[i][:-1] + (-self.roots[i][-1],)] for i in q]
