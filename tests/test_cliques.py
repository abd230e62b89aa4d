"""Hasse-path clique listing and the clique heuristic against the old code.

The references in clique_reference.py, Bron-Kerbosch with no pivoting and
the list-scan heuristic, are `maximal_cliques` and `heuristic_dominating_set`
as they were before the cliques were listed as paths of the decreasing-pair
Hasse diagram.  The listing's memo, which carries its state from one image
to the next along the census's sweep, is checked against fresh listings.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdom import oracle
from permdom.constructions import comb_sigma, comb_tau
from permdom.domination import _maximal_cliques, heuristic_dominating_set, maximal_cliques
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


def resumes_like_a_fresh_listing(image, memo) -> list[int]:
    """The listing of `image` from `memo`, after checking that it equals a
    fresh listing as a set, with no repeats, and that it leaves `memo`
    holding `image` and the state a fresh listing leaves."""
    resumed = _maximal_cliques(image, memo)
    fresh = ([], [])
    assert len(resumed) == len(set(resumed))
    assert set(resumed) == set(_maximal_cliques(image, fresh))
    assert memo == fresh and memo[0] == list(image)
    return resumed


@pytest.mark.parametrize("n", range(1, 8))
def test_one_memo_resumes_along_the_sweep(n):
    """One memo over the whole sweep, and one per stride of the first-half
    sets, as `oracle._census_chunk` keeps it in a pool's 16 chunks: each
    leaf is listed from the sweep's own `image` and checked against a fresh
    listing and Bron-Kerbosch."""
    parts = [slice(None)] + [slice(i, None, 16) for i in range(16)]
    for part in parts:
        memo = ([], [])

        def visit(image, *_):
            resumed = resumes_like_a_fresh_listing(image, memo)
            g = build_graph(Permutation(image))
            assert set(resumed) == set(ref_maximal_cliques(g))

        oracle.sweep(n, visit, part)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 28).flatmap(lambda n: st.tuples(
    st.permutations(range(1, n + 1)), st.integers(0, n), st.randoms())))
def test_a_memo_resumes_at_a_shared_prefix(case):
    """Image B, which shares a prefix of random length with image A, listed
    from A's memo equals B listed fresh."""
    a, shared, rng = case
    rest = a[shared:]
    rng.shuffle(rest)
    b = a[:shared] + rest
    memo = ([], [])
    resumes_like_a_fresh_listing(a, memo)
    resumes_like_a_fresh_listing(b, memo)
