"""Dominating sets of permutation graphs.

The exact solver is the row-or search over the domination matrix (adjacency
plus identity): a dominating set is a choice of rows whose bitwise or has no
zeros.  Search runs by increasing cardinality and, within a cardinality, in
lexicographic order of the sorted vertex list, so the returned witness is
canonical.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import NotDominating
from .graph import PermutationGraph, vertices_of
from .perm import Permutation

EXACT = "exact"
QUICK_RULE_1N = "quick_rule_1n"
QUICK_RULE_ENDS = "quick_rule_ends"
HEURISTIC = "heuristic"


@dataclass(frozen=True)
class DominationResult:
    gamma: int
    witness: frozenset[int]
    method: str
    repaired: bool = False


@dataclass(frozen=True)
class NeighborClassification:
    """Partition of the vertices relative to a dominating set."""

    private_of: dict[int, int] = field(default_factory=dict)
    shared: frozenset[int] = frozenset()


def is_dominating(g: PermutationGraph, d) -> bool:
    """True when the closed neighborhoods of d cover every vertex."""
    cover = 0
    for v in d:
        cover |= g.closed_row(v)
    return cover == g.full_mask()


def domination_number_exact(g: PermutationGraph) -> DominationResult:
    """Minimum dominating set by cardinality-ascending lexicographic search.

    >>> from .perm import parse_permutation
    >>> from .graph import build_graph
    >>> r = domination_number_exact(build_graph(parse_permutation("3,1,4,2")))
    >>> r.gamma, sorted(r.witness)
    (2, [1, 2])
    """
    combo = _minimum_cover(g.closed_rows(), g.full_mask())
    return DominationResult(
        gamma=len(combo),
        witness=frozenset(i + 1 for i in combo),
        method=EXACT,
    )


def _minimum_cover(rows: tuple[int, ...], full: int) -> tuple[int, ...]:
    """0-based indices of the first set of rows whose or is `full`, by
    increasing size and then lexicographically: the canonical minimum
    dominating set when `rows` are the closed neighborhoods."""
    n = len(rows)
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            cover = 0
            for i in combo:
                cover |= rows[i]
            if cover == full:
                return combo
    raise AssertionError("every graph is dominated by its full vertex set")


def all_minimum_dominating_sets(g: PermutationGraph) -> list[frozenset[int]]:
    """Every dominating set of minimum size, in lexicographic order."""
    gamma = domination_number_exact(g).gamma
    rows = g.closed_rows()
    full = g.full_mask()
    out = []
    for combo in combinations(range(g.n), gamma):
        cover = 0
        for i in combo:
            cover |= rows[i]
        if cover == full:
            out.append(frozenset(i + 1 for i in combo))
    return out


def count_singleton_dominators(g: PermutationGraph) -> int:
    """Number of k for which {k} dominates, by the direct N[k] check."""
    full = g.full_mask()
    return sum(1 for row in g.closed_rows() if row == full)


def singleton_dominators_by_position(p: Permutation) -> frozenset[int]:
    """Singleton dominators read off the one-line notation: {k} dominates
    exactly when k sits at position (n+1)-k with every larger value before
    it and every smaller value after it."""
    n = p.n
    out = []
    for k in range(1, n + 1):
        if p.position(k) != (n + 1) - k:
            continue
        if all(p.position(j) > p.position(k) for j in range(1, k)) and all(
            p.position(i) < p.position(k) for i in range(k + 1, n + 1)
        ):
            out.append(k)
    return frozenset(out)


def classify_neighbors(g: PermutationGraph, d) -> NeighborClassification:
    """Split vertices into private neighbors (closed neighborhood meets d in
    exactly one vertex) and shared neighbors (in two or more)."""
    dset = frozenset(d)
    private_of: dict[int, int] = {}
    shared = []
    for v in range(1, g.n + 1):
        meet = vertices_of(g.closed_row(v)) & dset
        if not meet:
            raise NotDominating(f"vertex {v} is not dominated")
        if len(meet) == 1:
            private_of[v] = next(iter(meet))
        else:
            shared.append(v)
    return NeighborClassification(private_of=private_of, shared=frozenset(shared))


def is_efficient_dominating(g: PermutationGraph, d) -> bool:
    """Dominating with pairwise disjoint closed neighborhoods."""
    cover = 0
    for v in d:
        row = g.closed_row(v)
        if cover & row:
            return False
        cover |= row
    return cover == g.full_mask()


def quick_rule_value_ends(p: Permutation) -> DominationResult | None:
    """{1, n} dominates when the values 1 and n are positionally adjacent
    and neither sits at the matching end of the one-line notation."""
    n = p.n
    if n < 2:
        return None
    if abs(p.position(1) - p.position(n)) != 1:
        return None
    if p(1) == n or p(n) == 1:
        return None
    return DominationResult(gamma=2, witness=frozenset({1, n}), method=QUICK_RULE_1N)


def quick_rule_position_ends(p: Permutation) -> DominationResult | None:
    """{p(1), p(n)} dominates when the two end values are consecutive
    integers and neither end holds the extreme value."""
    n = p.n
    if n < 2:
        return None
    if abs(p(1) - p(n)) != 1 or p(1) == n or p(n) == 1:
        return None
    return DominationResult(
        gamma=2, witness=frozenset({p(1), p(n)}), method=QUICK_RULE_ENDS
    )


def maximal_cliques(g: PermutationGraph) -> list[int]:
    """All maximal cliques as bitmasks (Bron-Kerbosch, no pivoting; cliques
    of a permutation graph are the maximal decreasing subsequences)."""
    out: list[int] = []
    rows = g.rows

    def extend(clique: int, cand: int, excl: int) -> None:
        if not cand and not excl:
            out.append(clique)
            return
        m = cand
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            extend(clique | bit, cand & rows[v], excl & rows[v])
            cand &= ~bit
            excl |= bit
            m &= ~bit
    extend(0, g.full_mask(), 0)
    return out


def heuristic_dominating_set(g: PermutationGraph) -> DominationResult:
    """Hand-style dominating set from decreasing subsequences.

    Collect all maximum cliques, plus all maximal cliques through each value
    not covered by a maximum clique; then repeatedly take the most frequent
    vertex across the collected cliques (ties to the smallest vertex) and
    drop every clique containing it.  The result is verified and greedily
    repaired if it fails to dominate.
    """
    cliques = maximal_cliques(g)
    best = max((c.bit_count() for c in cliques), default=0)
    collected = [c for c in cliques if c.bit_count() == best]
    covered = 0
    for c in collected:
        covered |= c
    for v in range(1, g.n + 1):
        if covered >> (v - 1) & 1:
            continue
        for c in cliques:
            if c >> (v - 1) & 1 and c not in collected:
                collected.append(c)

    chosen: list[int] = []
    while collected:
        freq = [0] * g.n
        for c in collected:
            m = c
            while m:
                bit = m & -m
                freq[bit.bit_length() - 1] += 1
                m &= ~bit
        top = max(freq)
        v = freq.index(top) + 1  # ties break to the smallest vertex
        chosen.append(v)
        collected = [c for c in collected if not c >> (v - 1) & 1]

    repaired = False
    cover = 0
    for v in chosen:
        cover |= g.closed_row(v)
    full = g.full_mask()
    while cover != full:
        repaired = True
        gains = [(g.closed_row(v) & ~cover).bit_count() for v in range(1, g.n + 1)]
        v = gains.index(max(gains)) + 1
        chosen.append(v)
        cover |= g.closed_row(v)

    return DominationResult(
        gamma=len(chosen),
        witness=frozenset(chosen),
        method=HEURISTIC,
        repaired=repaired,
    )
