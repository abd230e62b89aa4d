"""`oracle.sweep`'s leaves as a list, and each leaf's facts built from
scratch, for the tests that read them.

The sweep pairs the halves that `oracle._orderings` builds, so a test of
`_orderings` or of the tally takes `scratch_leaf` as its reference: it
builds the permutation's graph and measures each fact directly, sharing no
code with the halves.
"""
from permdom import oracle
from permdom.domination import count_singleton_dominators
from permdom.graph import build_graph, is_connected_search
from permdom.perm import Permutation, strong_fixed_points


def leaves(n: int, part=slice(None)) -> list[tuple]:
    """Every (image, rows, connected, strong, singles, dom) that
    `oracle.sweep(n, visit, part)` visits, in its order, with `rows` as a
    tuple."""
    out = []

    def visit(image, rows, *facts):
        out.append((image, tuple(rows), *facts))

    oracle.sweep(n, visit, part)
    return out


def scratch_leaf(image: tuple[int, ...]) -> tuple:
    """The (image, rows, connected, strong, singles, dom) of one
    permutation, as `leaves` gives them, from its graph built from scratch:
    the closed rows, breadth-first connectivity, the strong fixed points by
    their definition, the direct singleton check, and the sieve mask as the
    and of meet[row] over the rows."""
    n = len(image)
    p = Permutation(image)
    g = build_graph(p)
    rows = g.closed_rows()
    meet = oracle._subset_tables(n)[0]
    dom = (1 << (1 << n)) - 1
    for row in rows:
        dom &= meet[row]
    return (image, rows, is_connected_search(g), len(strong_fixed_points(p)),
            count_singleton_dominators(g), dom)
