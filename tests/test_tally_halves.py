"""`oracle._orderings` builds first-half orderings (heads) and the
orderings of the other values placed after them (tails) by a subset DP;
`oracle.sweep` visits each head-tail pair as a leaf, and
`oracle._tally_chunk` counts the pairs without visiting them.  These tests
check each pair against its permutation's graph built from scratch, the
histograms against the leaf-by-leaf tally of such graphs, and the full
tally past the sweep's own Tier-1 orders against the counting formulas."""
import gc
from collections import Counter
from math import factorial
from operator import or_

import pytest

from permdom import counting
from permdom.oracle import (
    _SINGLE,
    _SPLIT,
    _first_sets,
    _halves,
    _orderings,
    _tally_chunk,
    census,
    full_tally,
)
from tally_reference import ref_tally
from walk import scratch_leaf


def _values(mask: int) -> list[int]:
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_each_head_and_tail_pair_is_its_leaf(n):
    # Equal histograms could hide two errors that cancel: here every pair
    # rebuilds its permutation and must carry the facts of its graph, built
    # from scratch.  `_halves` pairs each of `_orderings`' heads and tails
    # with its image by order, so an ordering out of that order carries
    # another permutation's facts.  A pair's key is the sum of its
    # halves' keys.
    paired = 0
    for first, heads, tails in _halves(n, slice(None)):
        tails = list(zip(*tails))
        for key, mask, head, rows in zip(*heads):
            assert sorted(head) == _values(first)
            for tail_key, tail_mask, tail, tail_rows in tails:
                image = head + tail
                _, leaf_rows, connected, leaf_strong, leaf_singles, dom = scratch_leaf(image)
                facts = key + tail_key
                assert tuple(map(or_, rows, tail_rows)) == leaf_rows, image
                assert mask & tail_mask == dom, image
                assert (facts < _SPLIT) == connected, image
                assert facts % _SINGLE == leaf_strong, image
                assert facts // _SINGLE % _SINGLE == leaf_singles, image
                paired += 1
    assert paired == factorial(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_memos_hold_every_smaller_set_and_not_the_top(n):
    # A top-level set is built once and streamed: keeping it would hold
    # every first-half set's halves until the tally ends.
    full = (1 << n) - 1
    for first in _first_sets(n):
        for values, last in ((first, False), (full ^ first, True)):
            memo = {}
            keys, masks = _orderings(n, values, memo, last)
            assert len(keys) == len(masks) == factorial(values.bit_count())
            assert set(memo) == {s for s in range(values) if s & values == s}


@pytest.mark.parametrize("n", range(9))
def test_tally_equals_the_leaf_by_leaf_tally(n):
    assert _tally_chunk((n, slice(None))) == ref_tally(n)


@pytest.mark.parametrize("strides", [1, 2, 5, 16])
def test_strides_of_the_first_half_sets_add_up_to_the_whole_tally(strides):
    for n in (4, 7, 8):
        shards = [(n, slice(i, None, strides)) for i in range(strides)]
        assert sum(map(_tally_chunk, shards), Counter()) == _tally_chunk((n, slice(None)))


def test_a_tally_and_a_census_leave_no_cyclic_garbage():
    # Memos held in a reference cycle would live until the cyclic collector
    # runs, and a request's peak memory would grow with them.
    gc.collect()
    gc.disable()
    try:
        _tally_chunk((8, slice(None)))
        census(7)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [9, 10])
def test_full_tally_past_the_sweeps_reach(n):
    t = full_tally(n)
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
