from collections import Counter
from functools import reduce
from itertools import permutations
from math import factorial
from operator import add

import pytest

from permdom.errors import OrderCapExceeded
from permdom.oracle import (
    _census_chunk,
    _gamma,
    _meet_once_table,
    _subset_tables,
    _tally_chunk,
    census,
    full_tally,
    heuristic_quality,
    iter_permutations,
    singleton_domination_tally,
)
from walk import leaves


def test_sweep_is_lexicographic():
    for n in range(7):
        expected = list(permutations(range(1, n + 1)))
        assert [p.image for p in iter_permutations(n)] == expected
        assert [image for image, *_ in leaves(n)] == expected


def test_connected_gamma_listing_is_lexicographic():
    from permdom.domination import domination_number_exact
    from permdom.graph import build_graph, is_connected
    from permdom.oracle import connected_gamma_permutations
    from permdom.perm import Permutation

    for n in range(1, 7):
        facts = []
        for image in permutations(range(1, n + 1)):
            g = build_graph(Permutation(image))
            facts.append((image, is_connected(g), domination_number_exact(g).gamma))
        for k in range(1, n + 1):
            assert [p.image for p in connected_gamma_permutations(n, k)] == [
                image for image, connected, gamma in facts
                if connected and gamma == k]


def test_full_tally_hand_enumerations():
    t = full_tally(3)
    assert t.g == {1: 3, 2: 2, 3: 1}
    assert t.c == {1: 3}
    assert t.d == {2: 2, 3: 1}
    assert t.f1 == {0: 3, 1: 2, 3: 1}

    t = full_tally(1)
    assert t.g == {1: 1} and t.c == {1: 1} and t.st == {1: 1}

    t = full_tally(2)
    assert t.g == {1: 1, 2: 1}
    assert t.f1 == {0: 1, 2: 1}


@pytest.mark.parametrize("n", range(1, 7))
def test_tally_internal_identities(n):
    t = full_tally(n)
    assert sum(t.g.values()) == factorial(n)
    assert sum(t.f1.values()) == factorial(n)
    for k in set(t.g) | set(t.c) | set(t.d):
        assert t.g.get(k, 0) == t.c.get(k, 0) + t.d.get(k, 0)
    assert t.st == t.f1  # strong fixed points vs singleton dominators


def test_tally_is_deterministic_across_worker_counts(monkeypatch):
    from permdom import oracle

    monkeypatch.setattr(oracle, "POOL_MIN_ORDER", 1)  # a real pool at n = 5
    assert full_tally(5, jobs=1) == full_tally(5, jobs=3)


def test_order_cap():
    for n in (-1, 0, 12):
        with pytest.raises(OrderCapExceeded):
            full_tally(n)
    # A census runs the heuristic on every graph, which caps it at n = 8;
    # its views fail fast above that, before any sweep.
    for view in (census, singleton_domination_tally, heuristic_quality):
        with pytest.raises(OrderCapExceeded):
            view(9)


def test_pair_tally_examples():
    # census.pairs: (u, v, adjacent) -> graphs that {u, v} dominates.
    assert census(3).pairs[1, 3, 0] == 2 and census(3).pairs[1, 3, 1] == 3
    assert census(2).pairs == {(1, 2, 0): 1, (1, 2, 1): 1}
    assert census(3).pairs[2, 3, 0] == 2 and census(3).pairs[2, 3, 1] == 2
    assert census(1).pairs == {}


def test_pairs_match_the_graphs_built_from_scratch():
    from itertools import combinations

    from domination_reference import is_dominating
    from permdom.graph import build_graph
    from permdom.perm import Permutation

    for n in range(2, 8):
        expected = Counter()
        for image in permutations(range(1, n + 1)):
            g = build_graph(Permutation(image))
            expected.update((u, v, int(g.has_edge(u, v)))
                            for u, v in combinations(range(1, n + 1), 2)
                            if is_dominating(g, (u, v)))
        assert census(n).pairs == expected


def test_efficient_tally_examples():
    # census.efficient is keyed by vertex bitmask: {1, 4} is 0b1001.
    assert census(4).efficient[0b1001] == 6
    assert census(3).efficient[0b111] == 1
    assert census(4).efficient[0b1111] == 1


def test_efficient_tallies_match_the_member_by_member_check():
    from domination_reference import is_efficient_dominating
    from permdom.graph import build_graph, vertices_of
    from permdom.perm import Permutation

    for n in range(1, 8):
        expected = Counter()
        for image in permutations(range(1, n + 1)):
            g = build_graph(Permutation(image))
            expected.update(t for t in range(1 << n)
                            if is_efficient_dominating(g, vertices_of(t)))
        assert census(n).efficient == expected


def test_census_sets_stop_above_the_detail_order(monkeypatch):
    from permdom import oracle

    monkeypatch.setattr(oracle, "DETAIL_MAX_N", 3)
    assert census(3).pairs and census(3).efficient
    above = census(4)
    assert above.pairs == {} and above.efficient == {}
    assert above.singletons and above.heuristic.total == 24


def test_meet_once_table_by_definition():
    for n in range(6):
        once = _meet_once_table(n)
        order = _subset_tables(n)[2]
        for s in range(1 << n):
            assert once[s] == sum(1 << t for t, subset in enumerate(order)
                                  if (s & subset).bit_count() == 1)


def test_singleton_domination_tally_matches_formula():
    from permdom.counting import singleton_dom_count

    for n in range(1, 7):
        tally = singleton_domination_tally(n)
        for k in range(1, n + 1):
            assert tally.get(k, 0) == singleton_dom_count(n, k)


def test_heuristic_quality_small():
    q = heuristic_quality(3)
    assert q.total == 6
    assert q.optimal == q.total - q.excluded  # perfect at n = 3
    q = heuristic_quality(4)
    assert q.total == 24
    assert 0 <= q.rate <= 1


def test_sweep_matches_graphs_built_from_scratch():
    from permdom.domination import (
        _count_walk,
        _covers,
        count_minimum_dominating_sets,
        count_singleton_dominators,
        domination_number_exact,
    )
    from domination_reference import is_dominating
    from permdom.graph import (
        build_graph,
        is_connected,
        is_connected_search,
        vertices_of,
    )
    from permdom.perm import Permutation, strong_fixed_points

    for n in range(1, 8):
        full = (1 << n) - 1
        _, card, order = _subset_tables(n)
        size = [sum(1 << t for t, c in enumerate(card) if c == k)
                for k in range(n + 1)]
        visits = leaves(n)
        assert len(visits) == factorial(n)
        for expected, visit in zip(permutations(range(1, n + 1)), visits,
                                   strict=True):
            image, rows, connected, strong, singles, dom = visit
            assert image == expected
            p = Permutation(image)
            g = build_graph(p)
            assert rows == g.closed_rows()
            assert connected == is_connected(g) == is_connected_search(g)
            assert strong == len(strong_fixed_points(p))
            assert singles == count_singleton_dominators(g)
            gamma = domination_number_exact(g).gamma
            assert len(next(_covers(rows, full, 0, *_count_walk(rows, full)))) == gamma
            # The sieve against the pruned search.
            assert _gamma(dom, card) == gamma
            assert (dom & size[gamma]).bit_count() == (
                count_minimum_dominating_sets(g))
            for k in range(gamma, n + 1):
                first = dom & size[k] & -(dom & size[k])
                subset = order[first.bit_length() - 1]
                assert subset.bit_count() == k
                assert is_dominating(g, vertices_of(subset))


def test_sieve_mask_is_exactly_the_dominating_sets():
    from domination_reference import is_dominating
    from permdom.graph import build_graph, vertices_of
    from permdom.perm import Permutation

    for n in range(1, 7):
        order = _subset_tables(n)[2]
        for image, *_, dom in leaves(n):
            g = build_graph(Permutation(image))
            assert dom == sum(1 << t for t, subset in enumerate(order)
                              if is_dominating(g, vertices_of(subset)))


def test_subset_tables_by_definition():
    for n in range(6):
        meet, card, order = _subset_tables(n)
        assert len(meet) == 1 << n
        # Every subset once, by size, largest first, ties in binary order.
        assert order == tuple(sorted(range(1 << n),
                                     key=lambda s: (-s.bit_count(), s)))
        assert card == tuple(s.bit_count() for s in order)
        for s in range(1 << n):
            assert meet[s] == sum(1 << t for t, subset in enumerate(order)
                                  if s & subset)


def test_sieve_on_the_smallest_orders():
    assert _subset_tables(0) == ((0,), (0,), (0,))
    assert leaves(0) == [((), (), True, 0, 0, 1)]
    assert _subset_tables(1) == ((0, 0b1), (1, 0), (1, 0))
    # One vertex: of the subsets {1} and {} (bits 0 and 1), only {1}
    # dominates.
    assert leaves(1) == [((1,), (1,), True, 1, 1, 0b1)]
    assert _gamma(0b1, _subset_tables(1)[1]) == 1
    # Two vertices, subsets {1,2}, {1}, {2}, {} as bits 0-3.  The identity
    # has no edge: two strong fixed points, and only {1,2} dominates.  2,1
    # is an edge: both vertices dominate alone.
    assert _subset_tables(2) == ((0, 3, 5, 7), (2, 1, 1, 0), (3, 1, 2, 0))
    assert leaves(2) == [((1, 2), (0b01, 0b10), False, 2, 0, 0b1),
                         ((2, 1), (0b11, 0b11), True, 0, 2, 0b111)]


def test_sweep_above_the_hard_cap_fails_before_building_tables():
    from permdom import oracle

    built = oracle._subset_tables.cache_info().currsize
    with pytest.raises(OrderCapExceeded):
        leaves(oracle.HARD_CAP + 1)
    assert oracle._subset_tables.cache_info().currsize == built


def _strides(count: int) -> list[slice]:
    """`count` strides of the first-half sets."""
    return [slice(i, None, count) for i in range(count)]


def test_sweep_strides_merge_into_the_whole_sweep():
    # Each stride pairs the halves of some of the first-half sets; its heads
    # are sorted together, so the stride is lexicographic on its own.
    for n in range(8):
        whole = leaves(n)
        for count in (1, 2, 5, 16):
            strides = [leaves(n, part) for part in _strides(count)]
            for stride in strides:
                assert stride == sorted(stride)
            # Every field matches, the sieve mask `dom` included.
            assert sorted(leaf for stride in strides for leaf in stride) == whole


def test_census_chunks_add_up_to_the_whole_census():
    for n in (4, 5, 6, 7):
        whole = _census_chunk((n, slice(None)))
        chunks = (_census_chunk((n, part)) for part in _strides(16))
        assert reduce(add, chunks) == whole
        assert whole.tally == _tally_chunk((n, slice(None)))
        assert whole.heuristic.total == factorial(n)


class SerialPool:
    """Stands in for the process pool: records max_workers, runs the
    chunks in this process."""

    def __init__(self, workers: list, max_workers: int):
        workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_tally_is_identical_for_every_chunking(monkeypatch):
    import os

    from permdom import oracle

    workers = []
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(oracle, "_process_pool",
                        lambda count: SerialPool(workers, count))
    monkeypatch.setattr(oracle, "POOL_MIN_ORDER", 1)
    reports = [full_tally(6, jobs=j) for j in (1, 2, 3, 7)]
    assert workers == [2, 3, 7]
    assert all(r == reports[0] for r in reports[1:])


def test_jobs_are_clamped_to_the_cpu_count(monkeypatch):
    import os

    from permdom import oracle

    workers = []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oracle, "_process_pool",
                        lambda count: SerialPool(workers, count))
    monkeypatch.setattr(oracle, "POOL_MIN_ORDER", 1)
    big = full_tally(4, jobs=10**6)
    assert workers == [2]
    assert big == full_tally(4, jobs=0) == full_tally(4)
    assert workers == [2]  # jobs <= 1 runs in this process


def test_orders_below_the_pool_threshold_sweep_in_process(monkeypatch):
    import os

    from permdom import oracle

    workers = []
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(oracle, "_process_pool",
                        lambda count: SerialPool(workers, count))
    for n in range(1, oracle.POOL_MIN_ORDER):
        full_tally(n, jobs=2)
    assert workers == []
    full_tally(oracle.POOL_MIN_ORDER, jobs=2)
    assert workers == [2]


def test_census_is_identical_for_every_chunking(monkeypatch):
    import os

    from permdom import oracle

    workers = []
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(oracle, "_process_pool",
                        lambda count: SerialPool(workers, count))
    monkeypatch.setattr(oracle, "POOL_MIN_ORDER", 1)
    single, *split = [census(6, jobs=j) for j in (1, 2, 3)]
    assert workers == [2, 3]
    assert all(other == single for other in split)
    assert single.tally == _tally_chunk((6, slice(None)))


def test_a_census_builds_each_first_half_sets_halves_once(monkeypatch):
    # `_orderings` builds each set's heads and tails once per chunk, shared
    # by the leaf pass, the tally and the counts: the top-level sets in the
    # first-half sets' order, and below them each smaller set once, from
    # the memo.
    from permdom import oracle

    real, built = oracle._orderings, []

    def orderings(n, values, memo, last):
        built.append((last, values))
        return real(n, values, memo, last)

    monkeypatch.setattr(oracle, "_orderings", orderings)
    for n in (5, 6):
        full = (1 << n) - 1
        top = {False: n // 2, True: n - n // 2}
        for part in (slice(None), slice(3, None, 16)):
            built.clear()
            chunk = _census_chunk((n, part))
            assert [(last, values) for last, values in built
                    if values.bit_count() == top[last]] == [
                side for first in oracle._first_sets(n)[part]
                for side in ((False, first), (True, full ^ first))]
            assert len(set(built)) == len(built)
            assert chunk.heuristic.total == sum(chunk.tally.values())
    built.clear()
    census(6)
    assert sum(values.bit_count() == 3 for _, values in built) == 2 * len(oracle._first_sets(6))


def test_census_names_the_first_failing_leaf_across_first_half_sets(monkeypatch):
    # The heuristic picks no vertex on the leaves that begin 2,1 (first-half
    # set {1,2}, the first set) or 1,5 (set {1,5}, a later one).  The leaf
    # pass sorts every set's heads together, so 1,5,... comes first.
    from permdom import oracle

    real_cliques, real_cover = oracle._maximal_cliques, oracle._heuristic_cover
    images = []

    def cliques(image, memo):
        images.append(image)
        return real_cliques(image, memo)

    def cover(cliques, n):
        return [] if images[-1][:2] in {(2, 1), (1, 5)} else real_cover(cliques, n)

    monkeypatch.setattr(oracle, "_maximal_cliques", cliques)
    monkeypatch.setattr(oracle, "_heuristic_cover", cover)
    with pytest.raises(AssertionError, match=r"dominate \[1,5,2,3,4\]$"):
        census(5)
    assert images[-1] == (1, 5, 2, 3, 4)
