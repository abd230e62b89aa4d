"""`oracle._census_counts` pairs the halves of each first-half set and
counts the census's singleton, pair and efficient dominators by columns of
their sieve masks; census_reference.py counts them leaf by leaf.  Each
count must agree on every order up to the detail order, on each of the 16
strides a pool takes, and with no zero entry: a key that no leaf has is
absent, as it is from the leaf-by-leaf counters."""
import pytest

from permdom import oracle
from census_reference import ref_census_counts


def _as_dicts(counts) -> list[dict]:
    # Plain dicts: a Counter compares a zero entry equal to a missing one.
    return [dict(counter) for counter in counts]


def _counts(n: int, part=slice(None)):
    """`_census_counts` over the sides a census builds for (n, part)."""
    return oracle._census_counts(n, list(oracle._halves(n, part)))


@pytest.mark.parametrize("n", range(1, 9))
def test_counts_equal_the_leaf_by_leaf_counts(n):
    # n = 8 is above the detail order: singletons only, no pairs or sets.
    got = _as_dicts(_counts(n))
    assert got == _as_dicts(ref_census_counts(n))
    assert all(count > 0 for counter in got for count in counter.values())
    if n > oracle.DETAIL_MAX_N:
        assert got[1:] == [{}, {}]


@pytest.mark.parametrize("n", [6, 7])
def test_counts_of_each_stride_equal_the_leaf_by_leaf_counts(n):
    for i in range(16):
        part = slice(i, None, 16)
        assert (_as_dicts(_counts(n, part))
                == _as_dicts(ref_census_counts(n, part))), part
