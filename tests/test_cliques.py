"""Hasse-path clique listing and the clique heuristic against the old code.

The reference functions below are `maximal_cliques` (Bron-Kerbosch with no
pivoting) and `heuristic_dominating_set` (frequencies recounted every round,
cliques collected by list scans) as they were before the cliques were listed
as paths of the decreasing-pair Hasse diagram.  They stay here as the oracle
for the fast forms.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdom.constructions import comb_sigma, comb_tau
from permdom.domination import (
    HEURISTIC,
    DominationResult,
    heuristic_dominating_set,
    maximal_cliques,
)
from permdom.graph import PermutationGraph, build_graph
from permdom.oracle import sweep
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


def assert_matches_reference(g: PermutationGraph) -> None:
    cliques = maximal_cliques(g)
    assert len(cliques) == len(set(cliques))
    assert sorted(cliques) == sorted(ref_maximal_cliques(g))
    assert heuristic_dominating_set(g) == ref_heuristic_dominating_set(g)


def skew_pairs(n: int) -> Permutation:
    """The skew sum of n/2 increasing pairs, e.g. 5,6,3,4,1,2: the complete
    multipartite graph K_{2,...,2}, with 2^(n/2) maximal cliques."""
    return Permutation(tuple(v for j in range(n - 1, 0, -2) for v in (j, j + 1)))


@pytest.mark.parametrize("n", range(1, 9))
def test_every_permutation_of_order_at_most_8(n):
    for image, rows, *_ in sweep(n):
        open_rows = tuple(row ^ (1 << i) for i, row in enumerate(rows))
        assert_matches_reference(PermutationGraph(n, open_rows, Permutation(image)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 28).flatmap(
    lambda n: st.permutations(range(1, n + 1))))
def test_random_permutations_up_to_order_28(image):
    assert_matches_reference(build_graph(Permutation(tuple(image))))


@pytest.mark.parametrize("n", range(2, 25, 2))
def test_skew_pairs_and_combs(n):
    family = [skew_pairs(n)] + ([comb_sigma(n), comb_tau(n)] if n >= 6 else [])
    for p in family:
        assert_matches_reference(build_graph(p))
    assert len(maximal_cliques(build_graph(skew_pairs(n)))) == 2 ** (n // 2)


def test_the_empty_graph_has_one_empty_clique():
    g = build_graph(Permutation(()))
    assert maximal_cliques(g) == ref_maximal_cliques(g) == [0]

