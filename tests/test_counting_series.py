"""The power-series counting kernel against the formulas as printed.

The reference functions below are the literal evaluations that `counting`
used before it was rebuilt on the series: the memoised f1/g1 recursion, the
F0 convolution the Riccati recurrence replaced, the O(n^4) pair sums, the
composition sum over every split of every gap, and the composition sums over
component sizes and domination numbers for d(n, k).  They stay here as the
oracle for the fast forms.
"""
from functools import lru_cache
from itertools import combinations
from math import comb, factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdom import oracle
from permdom.counting import (
    disconnected_count,
    efficient_dom_count,
    f0_column,
    f1,
    f1_triangle,
    g1,
    g1_column,
    pair_count_adjacent,
    pair_count_nonadjacent,
)
from permdom.errors import MissingTableEntry


@lru_cache(maxsize=None)
def ref_g1(n):
    if n == 0:
        return 0
    return sum(factorial(n - k) * ref_f1(k - 1, 0) for k in range(1, n + 1))


@lru_cache(maxsize=None)
def ref_f1(n, t):
    if t < 0 or t > n:
        return 0
    if t == 0:
        return factorial(n) - ref_g1(n)
    return sum(ref_f1(n - k, t - 1) * ref_f1(k - 1, 0) for k in range(1, n - t + 2))


def ref_f0_convolution(fact: list[int]) -> list[int]:
    """F0[0..len(fact) - 1] by its one convolution."""
    f0: list[int] = []
    for n, whole in enumerate(fact):
        f0.append(whole - sum(map(mul, reversed(fact[:n]), f0)))
    return f0


def ref_pair_nonadjacent(n, u, v):
    total = 0
    for x1 in range(u):
        x2 = u - 1 - x1
        for y1 in range(v - u):
            y2 = v - u - 1 - y1
            for z1 in range(n - v + 1):
                z2 = n - v - z1
                total += (
                    factorial(y1 + z2) * factorial(x1 + z1) * factorial(x2 + y2)
                    * comb(u - 1, x1) * comb(v - u - 1, y1) * comb(n - v, z1)
                )
    return total


def ref_pair_adjacent(n, u, v):
    total = 0
    for x1 in range(v - u):
        for x2 in range(v - u - x1):
            x3 = v - u - 1 - x1 - x2
            for y1 in range(u):
                y2 = u - 1 - y1
                for z1 in range(n - v + 1):
                    z2 = n - v - z1
                    total += (
                        factorial(x1 + z2) * factorial(z1 + x3 + y1)
                        * factorial(y2 + x2)
                        * comb(v - u - 1, x1) * comb(v - u - 1 - x1, x2)
                        * comb(u - 1, y1) * comb(n - v, z1)
                    )
    return total


def _gap_splits(gaps):
    if not gaps:
        yield []
        return
    head, rest = gaps[0], gaps[1:]
    for tail in _gap_splits(rest):
        for x1 in range(head + 1):
            yield [(x1, head - x1)] + tail


def ref_efficient(n, a):
    """|a| >= 2: the sum over every split of every gap."""
    k = len(a)
    gaps = [a[i + 1] - a[i] - 1 for i in range(k - 1)]
    total = 0
    for split in _gap_splits(gaps):
        left = [a[0] - 1] + [x2 for _, x2 in split]
        right = [x1 for x1, _ in split] + [n - a[-1]]
        term = factorial(right[0]) * factorial(left[-1])
        for i in range(k - 1):
            term *= factorial(left[i] + right[i + 1])
        for j in range(k - 1):
            term *= comb(gaps[j], split[j][0])
        total += term
    return total


def multinomial(parts) -> int:
    """Multinomial coefficient (sum(parts) choose parts), as a product of
    binomials."""
    total = 0
    out = 1
    for p in parts:
        total += p
        out *= comb(total, p)
    return out


def compositions(total: int, parts: int, min_part: int = 0):
    """Ordered tuples of `parts` integers >= min_part summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min_part, total - min_part * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1, min_part):
            yield (first,) + rest


def _size_tuples(mults, n):
    """Strictly increasing size tuples (n_1 < ... < n_l) with
    sum(mults[i] * n_i) = n."""

    def rec(idx: int, low: int, remaining: int):
        if idx == len(mults):
            if remaining == 0:
                yield ()
            return
        r = mults[idx]
        rest_min = sum(mults[idx + 1:])  # every later size exceeds this one
        for size in range(low, remaining + 1):
            need = remaining - r * size
            if need < rest_min * (size + 1):
                break
            for tail in rec(idx + 1, size + 1, need):
                yield (size,) + tail

    yield from rec(0, 1, n)


def ref_disconnected_count(n: int, k: int, c_table: dict) -> int:
    """Disconnected permutation graphs on n vertices with domination number
    k, from the table of connected counts c(m, j) for m < n.

    Sums over the number of components r, the multiset of component sizes
    (r_i components of size n_i), and the split of the domination number
    across the size classes.
    """
    for m in range(1, n):
        if not any(idx[0] == m for idx in c_table):
            raise MissingTableEntry(f"no c(n, k) entries for n = {m}")
    total = 0
    for r in range(2, k + 1):
        for ell in range(1, r + 1):
            for mults in compositions(r, ell, min_part=1):
                for sizes in _size_tuples(mults, n):
                    for ks in compositions(k, ell):
                        if any(ki < ri for ki, ri in zip(ks, mults)):
                            continue
                        term = multinomial(mults)
                        for ni, ri, ki in zip(sizes, mults, ks):
                            inner = 0
                            for kparts in compositions(ki, ri, min_part=1):
                                prod = 1
                                for kt in kparts:
                                    prod *= c_table.get((ni, kt), 0)
                                    if prod == 0:
                                        break
                                inner += prod
                            term *= inner
                            if term == 0:
                                break
                        total += term
    return total


def test_f1_and_g1_match_the_recursion_up_to_60():
    rows = f1_triangle(60)
    assert g1_column(60) == [ref_g1(n) for n in range(61)]
    assert f0_column(60) == [ref_f1(n, 0) for n in range(61)]
    for n in range(61):
        assert rows[n] == [ref_f1(n, t) for t in range(n + 1)]
        assert g1(n) == ref_g1(n)
        assert [f1(n, t) for t in range(-1, n + 2)] == [0] + rows[n] + [0]


def test_f0_matches_the_convolution_it_replaced_up_to_300():
    ref = ref_f0_convolution([factorial(n) for n in range(301)])
    for n in range(301):
        assert f0_column(n) == ref[:n + 1]
    assert f0_column(0) == [1]
    assert f0_column(1) == [1, 0]


def test_f0_starts_like_oeis_a052186():
    assert f0_column(10) == [1, 0, 1, 3, 14, 77, 497, 3676, 30677, 285335,
                             2928846]


def test_f1_rows_sum_to_n_factorial_up_to_400():
    rows = f1_triangle(400)
    g1s = g1_column(400)
    for n, row in enumerate(rows):
        assert sum(row) == factorial(n)
        assert g1s[n] == sum(row[1:])


@pytest.mark.parametrize("n", range(2, 15))
def test_pair_counts_match_the_printed_sums(n):
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            assert pair_count_nonadjacent(n, u, v) == ref_pair_nonadjacent(n, u, v)
            assert pair_count_adjacent(n, u, v) == ref_pair_adjacent(n, u, v)


@pytest.mark.parametrize("n", range(2, 12))
def test_efficient_counts_match_the_split_sum(n):
    for size in range(2, min(5, n) + 1):
        for a in combinations(range(1, n + 1), size):
            assert efficient_dom_count(n, a) == ref_efficient(n, a)


@st.composite
def member_sets(draw):
    n = draw(st.integers(2, 40))
    size = draw(st.integers(2, min(n, 8)))
    members = draw(st.lists(st.integers(1, n), min_size=size, max_size=size,
                            unique=True))
    return n, sorted(members)


@settings(max_examples=100, deadline=None)
@given(member_sets())
def test_efficient_counts_match_the_split_sum_hypothesis(case):
    n, a = case
    assert efficient_dom_count(n, a) == ref_efficient(n, a)


def test_multinomial_and_compositions():
    assert multinomial([2, 1, 1]) == 12
    assert multinomial([3]) == 1
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(3, 2, min_part=1)) == [(1, 2), (2, 1)]
    assert list(compositions(0, 0)) == [()]


def test_disconnected_count_matches_the_composition_sum_on_the_oracle():
    table = oracle.c_table(8)
    for n in range(10):
        for k in range(-1, n + 2):
            assert disconnected_count(n, k, table) == ref_disconnected_count(
                n, k, table)


@st.composite
def c_tables(draw):
    """(n, table): rows 1..n-1 at least, some beyond n, each with zero
    values and c(m, 0) or c(m, j > m) entries among its keys."""
    n = draw(st.integers(0, 9))
    entries = {}
    for m in range(1, draw(st.integers(max(n - 1, 0), 11)) + 1):
        for j in draw(st.lists(st.integers(0, m + 1), min_size=1,
                               max_size=m + 2, unique=True)):
            entries[(m, j)] = draw(st.integers(0, 50))
    return n, entries


@settings(max_examples=200, deadline=None)
@given(c_tables())
def test_disconnected_count_matches_the_composition_sum_hypothesis(case):
    n, table = case
    for k in range(-1, n + 3):
        assert disconnected_count(n, k, table) == ref_disconnected_count(
            n, k, table)


def test_disconnected_count_checks_the_same_rows_as_the_composition_sum():
    table = {(1, 1): 1, (3, 1): 3, (5, 2): 1}
    for n in range(7):
        for count in (disconnected_count, ref_disconnected_count):
            if n <= 2:
                assert count(n, 2, table) == (n == 2)
            else:
                with pytest.raises(MissingTableEntry, match="n = 2"):
                    count(n, 2, table)
