"""Set-level domination predicates and minimum dominating sets by plain
enumeration, the references the tests check dominating sets, pair counts,
efficient counts and the exact solver against.  `permdom` itself has no use
for them."""
from itertools import combinations

from permdom.graph import PermutationGraph, build_graph, components


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


def minimum_sets_by_plain_enumeration(g: PermutationGraph) -> list[set[int]]:
    """Independent oracle: try every subset by ascending size, testing
    coverage with vertex sets instead of the domination-matrix rows; every
    dominating set of the first size that has one, in lexicographic order."""
    nbhd = {v: set(g.neighbors(v)) | {v} for v in range(1, g.n + 1)}
    everything = set(range(1, g.n + 1))
    for size in range(1, g.n + 1):
        found = [set(combo) for combo in combinations(range(1, g.n + 1), size)
                 if set().union(*(nbhd[v] for v in combo)) == everything]
        if found:
            return found
    raise AssertionError


def minimum_sets_by_blocks(g: PermutationGraph) -> list[list[set[int]]]:
    """The minimum dominating sets of each component of g, by plain
    enumeration on the component's own graph, shifted back to g's vertices
    and listed in component order.  g's minimum sets are the unions of one
    set per component: gamma is the sum of the components' gammas, the count
    the product of their counts, and the canonical witness the union of
    their first sets."""
    return [[{offset + v for v in d}
             for d in minimum_sets_by_plain_enumeration(build_graph(block))]
            for offset, block in components(g)]
