"""The census's singleton, pair and efficient counts leaf by leaf, kept as
the differential reference for `oracle._census_counts`, which counts them
from column counts over the halves of each first-half set instead of
visiting leaves."""
from collections import Counter

from permdom import oracle


def ref_census_counts(n: int, part=slice(None)) -> tuple[Counter, Counter, Counter]:
    """(singletons, pairs, efficient) over the leaves `oracle.sweep(n, visit,
    part)` visits, one leaf at a time: the singleton dominators by their
    full rows, the dominating pairs from the 2-sets of the leaf's sieve mask
    split by the adjacency in its rows, and the efficiently dominating sets
    as the sieve mask anded with once[row] over every row; pairs and
    efficient sets for n <= oracle.DETAIL_MAX_N only."""
    _, card, order = oracle._subset_tables(n)
    detail = n <= oracle.DETAIL_MAX_N
    once = oracle._meet_once_table(n) if detail else ()
    two_sets = sum(1 << t for t, k in enumerate(card) if k == 2)
    full = (1 << n) - 1
    singletons, pairs, efficient = Counter(), Counter(), Counter()

    def visit(image, rows, connected, strong, singles, dom):
        if singles:
            singletons.update(k for k, row in enumerate(rows, start=1) if row == full)
        if detail:
            two = dom & two_sets
            while two:
                bit = two & -two
                two ^= bit
                subset = order[bit.bit_length() - 1]
                low = subset & -subset
                u, v = low.bit_length(), (subset ^ low).bit_length()
                pairs[u, v, rows[u - 1] >> (v - 1) & 1] += 1
            hits = dom
            for row in rows:
                hits &= once[row]
            while hits:
                bit = hits & -hits
                hits ^= bit
                efficient[order[bit.bit_length() - 1]] += 1

    oracle.sweep(n, visit, part)
    return singletons, pairs, efficient
