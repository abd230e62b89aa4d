"""The leaf-by-leaf tally, kept as the differential reference for
`oracle._tally_chunk`, which pairs half-permutations instead of visiting
leaves."""
from collections import Counter

from permdom import oracle


def ref_tally_chunk(args) -> Counter:
    """(gamma, connected, singleton dominators, strong fixed points) ->
    number of permutations, over the ones that begin with `lead`: one
    count per leaf of `oracle.sweep`."""
    n, lead = args
    card = oracle._subset_tables(n)[1]
    counts = Counter()

    def visit(image, rows, connected, strong, singles, dom):
        counts[card[dom.bit_length() - 1], connected, singles, strong] += 1

    oracle.sweep(n, visit, lead)
    return counts
