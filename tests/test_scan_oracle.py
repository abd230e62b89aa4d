"""The counting kernel's strong-fixed-point rows against the scan of
scan_reference.py, which counts from the definition with no generating
function, up to n = 200: past the n <= 8 where `verify` meets the sweep."""
from itertools import permutations
from math import factorial

import pytest

from permdom import counting, sequences
from scan_reference import st_row

MAX_TRIANGLE = 60


@pytest.fixture(scope="module")
def rows():
    return [st_row(n) for n in range(MAX_TRIANGLE + 1)]


def _strong_fixed_points(image) -> int:
    """Positions i whose prefix is {1..i} and that hold i."""
    return sum(v == i and max(image[:i]) == i for i, v in enumerate(image, start=1))


@pytest.mark.parametrize("n", range(7))
def test_the_scan_counts_what_a_loop_over_s_n_counts(n):
    row = [0] * (n + 1)
    for image in permutations(range(1, n + 1)):
        row[_strong_fixed_points(image)] += 1
    assert st_row(n) == row


def test_the_scan_equals_the_f1_triangle(rows):
    assert rows == counting.f1_triangle(MAX_TRIANGLE)


def test_the_scan_gives_g1_as_n_factorial_less_st_n_0(rows):
    assert counting.g1_column(MAX_TRIANGLE) == [
        factorial(n) - row[0] for n, row in enumerate(rows)]


def test_the_scan_equals_st(rows):
    assert all(sequences.st(n, k) == rows[n][k]
               for n in range(13) for k in range(n + 1))


@pytest.mark.parametrize("n", [100, 200])
def test_the_scan_equals_f1_far_past_the_sweep(n):
    row = st_row(n)
    assert sum(row) == factorial(n)
    assert row == [counting.f1(n, k) for k in range(n + 1)]
