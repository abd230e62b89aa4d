"""The leaf-by-leaf tally from graphs built from scratch, kept as the
differential reference for `oracle._tally_chunk`, which pairs
half-permutations instead of visiting leaves."""
from collections import Counter
from itertools import permutations

from permdom import oracle
from walk import scratch_leaf


def ref_tally(n: int) -> Counter:
    """(gamma, connected, singleton dominators, strong fixed points) ->
    number of permutations of [n]: one count per permutation, from
    `scratch_leaf`."""
    card = oracle._subset_tables(n)[1]
    counts = Counter()
    for image in permutations(range(1, n + 1)):
        _, _, connected, strong, singles, dom = scratch_leaf(image)
        counts[card[dom.bit_length() - 1], connected, singles, strong] += 1
    return counts
