"""Permutation graphs with bit-vector adjacency.

Vertices are {1..n}; row v holds the open neighborhood N(v) as an integer
bitmask with bit (u-1) set for each neighbor u.  Python ints have no word
size, so the 64-vertex cap is not about rows: it bounds the exponential
exact search and the maximal-clique listing, whose worst cases at the cap
are open items in ROADMAP.md.
"""
from __future__ import annotations

from itertools import accumulate
from operator import or_

from ._record import Record
from .errors import OrderTooLarge, VertexOutOfRange
from .perm import MAX_GRAPH_ORDER, Permutation


# _BITS[i] = 1 << i, for the closed rows of graphs up to the order cap.
_BITS = tuple(1 << i for i in range(MAX_GRAPH_ORDER))


def mask_of(vertices) -> int:
    """Bitmask for an iterable of vertices."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def vertices_of(mask: int) -> frozenset[int]:
    """Vertices of a bitmask, as a frozenset."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return frozenset(out)


class PermutationGraph(Record):
    # rows[v-1] = open neighborhood of v as a bitmask
    __slots__ = ("n", "rows", "source")

    def neighbors(self, v: int) -> frozenset[int]:
        self._check(v)
        return vertices_of(self.rows[v - 1])

    def degree(self, v: int) -> int:
        self._check(v)
        return self.rows[v - 1].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(r.bit_count() for r in self.rows)

    def closed_row(self, v: int) -> int:
        """N[v] as a bitmask."""
        self._check(v)
        return self.rows[v - 1] | (1 << (v - 1))

    def closed_rows(self) -> tuple[int, ...]:
        """All closed neighborhoods; row i-1 is the domination-matrix row i."""
        rows = self.rows
        bits = _BITS if len(rows) <= len(_BITS) else [1 << i for i in range(len(rows))]
        return tuple(map(or_, rows, bits))

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        """Sorted edge list as (i, j) pairs with i < j."""
        out = []
        for i in range(1, self.n + 1):
            row = self.rows[i - 1] >> i  # neighbors greater than i
            j = i + 1
            while row:
                if row & 1:
                    out.append((i, j))
                row >>= 1
                j += 1
        return out

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return bool(self.rows[u - 1] >> (v - 1) & 1)

    def _check(self, v: int) -> None:
        if not 1 <= v <= self.n:
            raise VertexOutOfRange(f"vertex {v} not in [1, {self.n}]")


def build_graph(p: Permutation) -> PermutationGraph:
    """Graph of p: edge {i, j}, i < j, exactly when the pair is inverted.

    >>> build_graph(Permutation((2, 3, 1))).edges()
    [(1, 2), (1, 3)]
    """
    n = p.n
    if n > MAX_GRAPH_ORDER:
        raise OrderTooLarge(f"n = {n} exceeds the {MAX_GRAPH_ORDER}-vertex cap")
    # One scan of the image: when v comes after the set P of values placed
    # so far, its neighbors are the larger values in P and the smaller
    # values not yet placed, N(v) = P ^ ((1 << (v - 1)) - 1).
    rows = [0] * n
    placed = 0
    for v in p.image:
        bit = 1 << (v - 1)
        rows[v - 1] = placed ^ (bit - 1)
        placed |= bit
    return PermutationGraph(n=n, rows=tuple(rows), source=p)


def _prefix_split_points(p: Permutation) -> list[int]:
    """All k < n where the first k positions hold exactly the values 1..k."""
    return [k for k, top in enumerate(accumulate(p.image[:-1], max), start=1)
            if top == k]


def is_connected(g: PermutationGraph) -> bool:
    """Connectivity by the prefix criterion: disconnected exactly when some
    proper prefix of the one-line notation is {1..k}."""
    return not _prefix_split_points(g.source)


def is_connected_search(g: PermutationGraph) -> bool:
    """Connectivity by plain breadth-first search; the independent check the
    prefix criterion is validated against."""
    return g.n == 0 or component_mask(g, 1) == g.full_mask()


def component_mask(g: PermutationGraph, v: int) -> int:
    """The vertices of v's connected component as a bitmask, by plain
    breadth-first search over the rows of the set bits of each frontier."""
    rows = g.rows
    seen = frontier = 1 << (v - 1)
    while frontier:
        reached = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reached |= rows[bit.bit_length() - 1]
        frontier = reached & ~seen
        seen |= frontier
    return seen


def components(g: PermutationGraph) -> list[tuple[int, Permutation]]:
    """Connected components in increasing vertex order.

    Each component occupies a run of consecutive values in consecutive
    positions; it is reported as (offset, tau) where tau is the induced
    permutation shifted down to start at 1.  Shifting each tau back up by
    its offset and concatenating reconstructs the source permutation.  A
    connected graph is its own component, (0, p).
    """
    p = g.source
    splits = _prefix_split_points(p)
    if not splits:
        return [(0, p)]
    bounds = splits + [p.n]
    out = []
    start = 0
    for end in bounds:
        block = tuple(v - start for v in p.image[start:end])
        out.append((start, Permutation(block)))
        start = end
    return out


def degree_bound_check(g: PermutationGraph) -> bool:
    """Displacement bound: every value's displacement |pos(i) - i| is at most
    its degree and has the same parity."""
    for i, (row, pos) in enumerate(zip(g.rows, g.source._positions), start=1):
        d = row.bit_count()
        shift = pos - i
        if abs(shift) > d or (shift - d) % 2 != 0:
            return False
    return True
