from itertools import combinations, permutations as perms
from math import factorial

import pytest

from permdom.counting import (
    disconnected_count,
    efficient_dom_count,
    f1,
    g1,
    pair_count_adjacent,
    pair_count_nonadjacent,
    singleton_dom_count,
)
from permdom.errors import IndexOutOfRange, MissingTableEntry, NotSorted
from permdom.graph import build_graph
from permdom.perm import Permutation
from domination_reference import is_dominating, is_efficient_dominating


def pair_count(n: int, u: int, v: int) -> int:
    """Permutation graphs on n vertices dominated by {u, v}."""
    return pair_count_nonadjacent(n, u, v) + pair_count_adjacent(n, u, v)


def brute_pair_split(n, u, v):
    """Direct S_n enumeration, split by adjacency of u and v."""
    nonadj = adj = 0
    for image in perms(range(1, n + 1)):
        g = build_graph(Permutation(image))
        if is_dominating(g, (u, v)):
            if g.has_edge(u, v):
                adj += 1
            else:
                nonadj += 1
    return nonadj, adj


def brute_efficient(n, a):
    return sum(
        1
        for image in perms(range(1, n + 1))
        if is_efficient_dominating(build_graph(Permutation(image)), a)
    )


def test_singleton_dom_count_formula():
    assert singleton_dom_count(4, 2) == 2
    assert singleton_dom_count(5, 3) == 4
    assert singleton_dom_count(7, 1) == factorial(6)
    with pytest.raises(IndexOutOfRange):
        singleton_dom_count(3, 4)


def test_g1_small_values():
    # g1(3): the three singleton-dominated graphs are [2,3,1],[3,1,2],[3,2,1].
    assert g1(0) == 0
    assert g1(3) == 3
    assert g1(4) == 10
    assert [g1(n) for n in range(9)] == [0, 1, 1, 3, 10, 43, 223, 1364, 9643]


def test_f1_small_values():
    assert f1(2, 2) == 1  # only [2,1]
    assert f1(2, 1) == 0
    assert f1(3, 0) == 3
    assert f1(5, 0) == 77


@pytest.mark.parametrize("n", range(9))
def test_f1_rows_sum_to_n_factorial(n):
    assert sum(f1(n, t) for t in range(n + 1)) == factorial(n)
    assert g1(n) == sum(f1(n, t) for t in range(1, n + 1))


def test_pair_count_examples():
    assert pair_count_nonadjacent(2, 1, 2) == 1
    assert pair_count_nonadjacent(3, 1, 3) == 2
    assert pair_count_adjacent(2, 1, 2) == 1
    assert pair_count_adjacent(3, 1, 3) == 3
    assert pair_count(3, 1, 3) == 5
    assert pair_count(2, 1, 2) == 2


@pytest.mark.parametrize("n", range(2, 7))
def test_pair_counts_match_brute_force(n):
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            nonadj, adj = brute_pair_split(n, u, v)
            assert pair_count_nonadjacent(n, u, v) == nonadj
            assert pair_count_adjacent(n, u, v) == adj


def test_pair_count_rejects_bad_indices():
    with pytest.raises(IndexOutOfRange):
        pair_count(3, 2, 2)
    with pytest.raises(IndexOutOfRange):
        pair_count(3, 1, 4)


def test_efficient_dom_count_examples():
    assert efficient_dom_count(4, [1, 4]) == 6
    assert efficient_dom_count(3, [1, 2, 3]) == 1
    assert efficient_dom_count(4, [1, 2, 3, 4]) == 1


def test_efficient_dom_count_singleton_extension():
    assert efficient_dom_count(5, [3]) == singleton_dom_count(5, 3)


def test_efficient_dom_count_validation():
    with pytest.raises(NotSorted):
        efficient_dom_count(4, [3, 1])
    with pytest.raises(IndexOutOfRange):
        efficient_dom_count(4, [1, 5])


@pytest.mark.parametrize("n", range(2, 7))
def test_efficient_counts_match_brute_force(n):
    for size in range(2, min(5, n) + 1):
        for a in combinations(range(1, n + 1), size):
            assert efficient_dom_count(n, a) == brute_efficient(n, a)


def small_c_table():
    # Connected counts for n <= 3, from the hand enumeration of S_1..S_3.
    return {(1, 1): 1, (2, 1): 1, (3, 1): 3}


def test_disconnected_count_examples():
    table = small_c_table()
    assert disconnected_count(2, 2, {(1, 1): 1}) == 1
    assert disconnected_count(3, 2, {(1, 1): 1, (2, 1): 1}) == 2
    assert disconnected_count(4, 2, table) == 7


def test_disconnected_count_missing_row():
    with pytest.raises(MissingTableEntry):
        disconnected_count(4, 2, {(1, 1): 1})
