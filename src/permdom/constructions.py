"""Extremal permutations: combs, the gamma-preserving insertion, and a
connected witness for every feasible domination number."""
from __future__ import annotations

from ._record import Record
from .domination import domination_number_exact
from .errors import (
    DisconnectedInput,
    InfeasibleGamma,
    OddOrder,
    OrderTooLarge,
    OrderTooSmall,
)
from .graph import PermutationGraph, build_graph, is_connected
from .perm import MAX_GRAPH_ORDER, Permutation, decreasing


class CombWitness(Record):
    """Partition of a comb: a path (spine), an independent set (teeth), and
    the perfect matching between them (spine vertex -> its leaf)."""

    __slots__ = ("spine", "teeth", "matching")


def _piecewise(n: int, special: dict[int, int], residue_rules) -> Permutation:
    image = []
    for i in range(1, n + 1):
        if i in special:
            image.append(special[i])
        else:
            image.append(i + residue_rules[i % 4])
    return Permutation(tuple(image))


def _check_comb_order(n: int) -> None:
    if n % 2:
        raise OddOrder(f"comb order must be even, got {n}")
    if n < 6:
        raise OrderTooSmall(f"comb constructions need n >= 6, got {n}")
    if n > MAX_GRAPH_ORDER:
        raise OrderTooLarge(f"n = {n} exceeds the {MAX_GRAPH_ORDER}-vertex cap")


def comb_sigma(n: int) -> Permutation:
    """The comb permutation whose leaves are the values = 0 or 1 (mod 4).

    >>> str(comb_sigma(6))
    '3,1,4,6,2,5'
    """
    _check_comb_order(n)
    if n % 4 == 0:
        special = {1: 3, n: n - 2}
    else:
        special = {1: 3, n - 2: n}
    return _piecewise(n, special, {1: -3, 2: -1, 3: 1, 0: 3})


def comb_tau(n: int) -> Permutation:
    """The comb permutation whose leaves are the values = 2 or 3 (mod 4).

    >>> str(comb_tau(6))
    '2,5,1,3,6,4'
    """
    _check_comb_order(n)
    if n % 4 == 0:
        special = {3: 1, n - 2: n}
    else:
        special = {3: 1, n: n - 2}
    return _piecewise(n, special, {1: 1, 2: 3, 3: -3, 0: -1})


def is_comb(g: PermutationGraph) -> CombWitness | None:
    """Witness that g is a comb, or None.

    A comb on n vertices has n/2 leaves with pairwise distinct non-leaf
    neighbors, and the non-leaves induce a path.  The single-edge graph on
    two vertices counts as the degenerate comb (one-vertex spine).

    From n = 4 on this is a tree test: g is connected with n - 1 edges,
    exactly n/2 vertices are leaves, their neighbors are pairwise distinct,
    and no vertex has degree above 3.  No leaf of a connected graph on four
    or more vertices is adjacent to another, so the n/2 distinct neighbors
    are all n/2 non-leaves, each holding one leaf; removing the leaves from
    the tree leaves a tree of maximum degree 2, a path.
    """
    n = g.n
    if n % 2:
        raise OddOrder(f"combs have even order, got {n}")
    if n == 0:
        return None
    if n == 2:
        if g.has_edge(1, 2):
            return CombWitness(frozenset({1}), frozenset({2}), {1: 2})
        return None

    degrees = g.degrees()
    if (not is_connected(g) or sum(degrees) != 2 * (n - 1)
            or max(degrees) > 3):
        return None
    leaves = [v for v, d in enumerate(degrees, start=1) if d == 1]
    # A leaf's row has one bit, whose length is its neighbor.
    matching = {g.rows[leaf - 1].bit_length(): leaf for leaf in leaves}
    if len(leaves) != n // 2 or len(matching) != n // 2:
        return None
    return CombWitness(spine=frozenset(matching), teeth=frozenset(leaves),
                       matching=matching)


def _extend(p: Permutation, n: int) -> Permutation:
    """Insert p.n+1 immediately left of the right-most element of the
    canonical minimum dominating set until the order is n; domination number
    and connectivity are preserved (and re-verified here).  The result that
    checks one step gives the next step's witness, so each permutation of
    the chain is solved once, and the input only when there is a step.
    """
    g = build_graph(p)
    if not is_connected(g):
        raise DisconnectedInput(f"[{p}] has a disconnected graph")
    result = domination_number_exact(g) if p.n < n else None
    while p.n < n:
        pos = max(map(p.position, result.witness))
        q = Permutation(p.image[: pos - 1] + (p.n + 1,) + p.image[pos - 1 :])
        g = build_graph(q)
        checked = domination_number_exact(g) if is_connected(g) else None
        if checked is None or checked.gamma != result.gamma:
            raise AssertionError(f"inserting {p.n + 1} into [{p}] changed "
                                 "connectivity or the domination number")
        p, result = q, checked
    return p


def extend_preserving_gamma(p: Permutation) -> Permutation:
    """One step of the gamma-preserving insertion: order n+1."""
    return _extend(p, p.n + 1)


def connected_with_gamma(n: int, k: int) -> Permutation:
    """A permutation of order n whose graph is connected with domination
    number exactly k, for 1 <= k <= floor(n/2), and k = 1 when n = 1: the
    bound gamma <= n/2 on connected graphs holds only from n = 2 on, and
    the one-vertex graph is connected with gamma 1.

    Base cases: the all-inverted permutation for k = 1, the 4-vertex path
    for k = 2, and the sigma comb on 2k vertices for k >= 3; then repeated
    gamma-preserving insertions raise the order to n.
    """
    if n > MAX_GRAPH_ORDER:
        raise OrderTooLarge(f"n = {n} exceeds the {MAX_GRAPH_ORDER}-vertex cap")
    if not 1 <= k <= (n // 2 if n >= 2 else n):
        raise InfeasibleGamma(f"no connected graph on {n} vertices has gamma {k}")
    if k == 1:
        return decreasing(n)
    if k == 2:
        p = Permutation((3, 1, 4, 2))
    else:
        p = comb_sigma(2 * k)
    return _extend(p, n)
