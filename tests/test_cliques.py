"""Hasse-path clique listing and the clique heuristic against the old code.

The references in clique_reference.py, Bron-Kerbosch with no pivoting and
the list-scan heuristic, are `maximal_cliques` and `heuristic_dominating_set`
as they were before the cliques were listed as paths of the decreasing-pair
Hasse diagram.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdom.constructions import comb_sigma, comb_tau
from permdom.domination import heuristic_dominating_set, maximal_cliques
from permdom.graph import PermutationGraph, build_graph
from permdom.perm import Permutation
from clique_reference import ref_heuristic_dominating_set, ref_maximal_cliques, skew_pairs
from walk import leaves


def assert_matches_reference(g: PermutationGraph) -> None:
    cliques = maximal_cliques(g)
    assert len(cliques) == len(set(cliques))
    assert sorted(cliques) == sorted(ref_maximal_cliques(g))
    assert heuristic_dominating_set(g) == ref_heuristic_dominating_set(g)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_permutation_of_order_at_most_8(n):
    for image, rows, *_ in leaves(n):
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

