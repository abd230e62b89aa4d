from collections import Counter
from itertools import permutations
from math import factorial

import pytest

from permdom.errors import OrderCapExceeded
from permdom.oracle import (
    _tally_chunk,
    efficient_tallies,
    full_tally,
    heuristic_quality,
    iter_permutations,
    pair_tallies,
    singleton_domination_tally,
    sweep,
)


def test_sweep_is_lexicographic():
    for n in range(7):
        expected = list(permutations(range(1, n + 1)))
        assert [p.image for p in iter_permutations(n)] == expected
        assert [image for image, *_ in sweep(n)] == expected


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
    single = full_tally(5, jobs=1)
    split = full_tally(5, jobs=3)
    assert (single.g, single.c, single.d, single.f1, single.st) == (
        split.g, split.c, split.d, split.f1, split.st)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        full_tally(10)
    with pytest.raises(OrderCapExceeded):
        full_tally(12, cap=11)


def test_pair_tally_examples():
    assert pair_tallies(3, [(1, 3)]) == {(1, 3): (2, 3)}
    assert pair_tallies(2, [(1, 2)]) == {(1, 2): (1, 1)}
    assert pair_tallies(3, [(2, 3)]) == {(2, 3): (2, 2)}


def test_efficient_tally_examples():
    assert efficient_tallies(4, [(1, 4)]) == {(1, 4): 6}
    assert efficient_tallies(3, [(1, 2, 3)]) == {(1, 2, 3): 1}
    assert efficient_tallies(4, [(1, 2, 3, 4)]) == {(1, 2, 3, 4): 1}


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
        _minimum_cover,
        count_singleton_dominators,
        domination_number_exact,
    )
    from permdom.graph import build_graph, is_connected, is_connected_search
    from permdom.perm import Permutation, strong_fixed_points

    for n in range(1, 8):
        full = (1 << n) - 1
        visits = list(sweep(n))
        assert len(visits) == factorial(n)
        for expected, visit in zip(permutations(range(1, n + 1)), visits,
                                   strict=True):
            image, rows, connected, strong, singles = visit
            assert image == expected
            p = Permutation(image)
            g = build_graph(p)
            assert rows == g.closed_rows()
            assert connected == is_connected(g) == is_connected_search(g)
            assert strong == len(strong_fixed_points(p))
            assert singles == count_singleton_dominators(g)
            gamma = domination_number_exact(g).gamma
            assert len(_minimum_cover(rows, full)) == gamma


def test_sweep_leads_concatenate_to_the_whole_sweep():
    for n in (4, 5, 6):
        whole = list(sweep(n))
        for length in (1, 2):
            leads = list(permutations(range(1, n + 1), length))
            assert [v for lead in leads for v in sweep(n, lead)] == whole
            merged = sum((_tally_chunk((n, lead)) for lead in leads), Counter())
            assert merged == _tally_chunk((n, ()))


def test_sweep_of_an_impossible_lead_is_empty():
    for lead in ((1, 1), (2, 3, 2), (5,), (1, 6)):
        assert list(sweep(4, lead)) == []
    assert [image for image, *_ in sweep(4, (2, 4, 1, 3))] == [(2, 4, 1, 3)]


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
    first = reports[0]
    for r in reports[1:]:
        assert (r.g, r.c, r.d, r.f1, r.st) == (
            first.g, first.c, first.d, first.f1, first.st)


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
    assert big.g == full_tally(4, jobs=0).g == full_tally(4).g
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


def test_pair_and_efficient_tallies_validate_their_sets():
    from permdom.errors import IndexOutOfRange, VertexOutOfRange

    assert pair_tallies(3, [(1, 3), (2, 3)]) == {(1, 3): (2, 3), (2, 3): (2, 2)}
    assert efficient_tallies(4, [(1, 4), (1, 2, 3, 4)]) == {
        (1, 4): 6, (1, 2, 3, 4): 1}
    with pytest.raises(IndexOutOfRange, match="need 1 <= u < v <= n"):
        pair_tallies(3, [(1, 2), (3, 1)])
    with pytest.raises(VertexOutOfRange):
        efficient_tallies(3, [(1, 4)])
