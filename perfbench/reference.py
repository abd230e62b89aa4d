"""Reference computations the benchmark checks the program's outputs with.

Nothing here imports permdom: graphs are rebuilt from the inversion set,
domination is tested by brute force over small sets, and the counting
sequences come from truncated power series instead of the program's
recursions.  With A = sum n! x^n and F_t = sum_n f1(n, t) x^n:

    F_0 = A / (1 + x A),   F_t = x^t F_0^(t+1),   sum_n g1(n) x^n = x A F_0.
"""
from __future__ import annotations

from itertools import combinations
from math import factorial


def inversion_edges(image) -> list[list[int]]:
    """Edges {i, j}, i < j values, of the permutation graph: the pairs whose
    larger value comes first in one-line notation."""
    pos = {v: i for i, v in enumerate(image)}
    n = len(image)
    return [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if pos[i] > pos[j]]


def closed_rows(n: int, edges) -> list[int]:
    """Closed neighbourhoods as bitmasks, row v-1 for vertex v."""
    rows = [1 << v for v in range(n)]
    for i, j in edges:
        rows[i - 1] |= 1 << (j - 1)
        rows[j - 1] |= 1 << (i - 1)
    return rows


def dominates(rows, vertices) -> bool:
    cover = 0
    for v in vertices:
        cover |= rows[v - 1]
    return cover == (1 << len(rows)) - 1


def dominating_sets_of_size(rows, size: int) -> int:
    """How many vertex sets of the given size dominate (brute force)."""
    full = (1 << len(rows)) - 1
    found = 0
    for combo in combinations(rows, size):
        cover = 0
        for row in combo:
            cover |= row
        if cover == full:
            found += 1
    return found


def is_connected(n: int, edges) -> bool:
    """Breadth-first search over the edge list."""
    if n == 0:
        return True
    adj = [0] * n
    for i, j in edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in range(n):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def strong_fixed_point_count(image) -> int:
    """Values k whose smaller values all come before k and larger values
    all come after it."""
    return sum(
        1 for i, v in enumerate(image)
        if all(w < v for w in image[:i]) and all(w > v for w in image[i + 1:])
    )


def _mul(a, b, degree: int) -> list[int]:
    out = [0] * (degree + 1)
    for i, x in enumerate(a[: degree + 1]):
        if x:
            for j, y in enumerate(b[: degree + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def _inverse(a, degree: int) -> list[int]:
    """1 / a for a series with a[0] = 1."""
    out = [1] + [0] * degree
    for n in range(1, degree + 1):
        out[n] = -sum(a[k] * out[n - k] for k in range(1, n + 1))
    return out


class Series:
    """f1(n, t) for small t and g1(n), for n up to a fixed degree."""

    def __init__(self, degree: int):
        self.degree = degree
        self.fact = [factorial(n) for n in range(degree + 1)]
        one_plus_xa = [1] + self.fact[:degree]
        self.f0 = _mul(self.fact, _inverse(one_plus_xa, degree), degree)
        a_f0 = _mul(self.fact, self.f0, degree)
        self.g1 = [0] + a_f0[:degree]
        self._powers = [self.f0]  # _powers[t] = F_0^(t+1)

    def f1(self, n: int, t: int) -> int:
        """Permutation graphs on n vertices with exactly t singleton
        dominators (equivalently, permutations with t strong fixed
        points)."""
        if t > n:
            return 0
        while len(self._powers) <= t:
            self._powers.append(_mul(self._powers[-1], self.f0, self.degree))
        return self._powers[t][n - t]
