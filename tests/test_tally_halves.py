"""`oracle._tally_chunk` pairs first-half orderings (heads) with the
orderings of the other values placed after them (tails) instead of visiting
the leaves of `oracle.sweep`.  These tests check each pair against the leaf
it stands for, the histograms against the leaf-by-leaf tally, and the full
tally past the sweep's own Tier-1 orders against the counting formulas."""
from collections import Counter
from itertools import combinations, permutations
from math import factorial

import pytest

from permdom import counting
from permdom.oracle import (
    _orderings,
    _tally_chunk,
    full_tally,
)
from tally_reference import ref_tally_chunk
from walk import leaves


def _values(mask: int) -> list[int]:
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_each_head_and_tail_pair_is_its_leaf(n):
    # Equal histograms could hide two errors that cancel: here every pair
    # rebuilds its permutation and must carry that leaf's own facts.
    by_image = {image: facts for image, _, *facts in leaves(n)}
    full = (1 << n) - 1
    allowed = [full] * n
    h = n // 2
    paired = 0
    for first in combinations(range(n), h):
        first = sum(1 << v for v in first)
        rest = full ^ first
        # The halves come in lexicographic order of their values.
        heads = list(zip(permutations(_values(first)), _orderings(n, first, 0, allowed),
                         strict=True))
        tails = list(zip(permutations(_values(rest)), _orderings(n, rest, first, allowed),
                         strict=True))
        for head, ((split, strong, singles), mask) in heads:
            for tail, ((tail_split, tail_strong, tail_singles), tail_mask) in tails:
                connected, leaf_strong, leaf_singles, dom = by_image[head + tail]
                assert mask & tail_mask == dom, (head, tail)
                assert (not (split or tail_split)) == connected, (head, tail)
                assert strong + tail_strong == leaf_strong, (head, tail)
                assert singles + tail_singles == leaf_singles, (head, tail)
                paired += 1
    assert paired == factorial(n)


@pytest.mark.parametrize("n", range(9))
def test_tally_equals_the_leaf_by_leaf_tally(n):
    assert _tally_chunk((n, ())) == ref_tally_chunk((n, ()))


def test_tally_of_each_lead_equals_the_leaf_by_leaf_tally():
    # Leads longer than n // 2 move the split point to the lead's end.
    for n in range(7):
        for length in range(n + 1):
            for lead in permutations(range(1, n + 1), length):
                assert _tally_chunk((n, lead)) == ref_tally_chunk((n, lead)), lead


@pytest.mark.parametrize("strides", [1, 2, 5, 16])
def test_strides_of_the_first_half_sets_add_up_to_the_whole_tally(strides):
    for n in (4, 7, 8):
        shards = [(n, (), slice(i, None, strides)) for i in range(strides)]
        assert sum(map(_tally_chunk, shards), Counter()) == _tally_chunk((n, ()))


@pytest.mark.parametrize("n", [9, 10])
def test_full_tally_past_the_sweeps_reach(n):
    t = full_tally(n, cap=n)
    assert sum(t.g.values()) == factorial(n)
    assert sum(t.c.values()) + sum(t.d.values()) == factorial(n)
    assert t.g[1] == counting.g1_column(n)[n]
    f1_row = counting.f1_triangle(n)[n]
    assert t.f1 == {k: count for k, count in enumerate(f1_row) if count}
    assert t.st == t.f1
    # No connected graph has gamma above n/2 (the paper's comb theorem),
    # and at even n only the two combs reach it.
    assert max(t.c) == n // 2
    if n == 9:
        assert t.c[4] == 84 and t.g[2] == 205_780
    else:
        assert t.c[5] == 2 and t.g[2] == 2_127_068
