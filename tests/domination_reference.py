"""Set-level domination predicates, the references the tests check
dominating sets, pair counts and efficient counts against.  They read a
graph's closed rows only, and `permdom` itself has no use for them."""
from permdom.graph import PermutationGraph


def is_dominating(g: PermutationGraph, d) -> bool:
    """True when the closed neighborhoods of d cover every vertex."""
    cover = 0
    for v in d:
        cover |= g.closed_row(v)
    return cover == g.full_mask()


def is_efficient_dominating(g: PermutationGraph, d) -> bool:
    """Dominating with pairwise disjoint closed neighborhoods."""
    cover = 0
    for v in d:
        row = g.closed_row(v)
        if cover & row:
            return False
        cover |= row
    return cover == g.full_mask()
