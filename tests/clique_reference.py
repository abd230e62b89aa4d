"""Independent references for the clique listing and the clique heuristic.

`ref_maximal_cliques` is Bron-Kerbosch with no pivoting, and
`ref_heuristic_dominating_set` recounts the clique frequencies every round
and collects cliques by list scans: `maximal_cliques` and
`heuristic_dominating_set` as they were before the cliques were listed as
paths of the decreasing-pair Hasse diagram.  They share no code with
`permdom.domination`, so the tests compare the fast forms with them.

The reference heuristic keeps a greedy repair, which the fast form has no
need of: an input that needed one would make the two differ, so the
comparison would catch a fast-form set that fails to dominate.
"""
from permdom.domination import HEURISTIC, DominationResult
from permdom.graph import PermutationGraph
from permdom.perm import Permutation


def ref_maximal_cliques(g: PermutationGraph) -> list[int]:
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


def ref_heuristic_dominating_set(g: PermutationGraph) -> DominationResult:
    """Hand-style dominating set from decreasing subsequences.

    Collect all maximum cliques, plus all maximal cliques through each value
    not covered by a maximum clique; then repeatedly take the most frequent
    vertex across the collected cliques (ties to the smallest vertex) and
    drop every clique containing it.  The result is verified and greedily
    repaired if it fails to dominate.
    """
    cliques = ref_maximal_cliques(g)
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


def skew_pairs(n: int) -> Permutation:
    """The skew sum of n/2 increasing pairs, e.g. 5,6,3,4,1,2: the complete
    multipartite graph K_{2,...,2}, with 2^(n/2) maximal cliques."""
    return Permutation(tuple(v for j in range(n - 1, 0, -2) for v in (j, j + 1)))
