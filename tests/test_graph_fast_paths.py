"""The graph primitives the invariant suite calls at every leaf, against
their earlier forms.

`_prefix_split_points`, `components`, `PermutationGraph.closed_rows`,
`count_singleton_dominators` and `is_connected_search` have fast paths: a
running max by `accumulate`, a connected graph returned as its own
component, one `map` over a table of bits, a `count` of the full row, and
a search that visits only the set bits of each frontier.  The `ref_*`
functions below are those primitives as they were before; they must agree
exhaustively for n <= 7 and on Hypothesis inputs up to the graph order cap.
"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permdom.constructions import comb_sigma
from permdom.domination import count_singleton_dominators
from permdom.graph import (
    PermutationGraph,
    _prefix_split_points,
    build_graph,
    component_mask,
    components,
    is_connected_search,
    mask_of,
)
from permdom.perm import MAX_GRAPH_ORDER, Permutation
from walk import leaves


def ref_prefix_split_points(p: Permutation) -> list[int]:
    out = []
    max_seen = 0
    for k, v in enumerate(p.image[:-1], start=1):
        max_seen = max(max_seen, v)
        if max_seen == k:
            out.append(k)
    return out


def ref_components(g: PermutationGraph) -> list[tuple[int, Permutation]]:
    p = g.source
    bounds = ref_prefix_split_points(p) + [p.n]
    out = []
    start = 0
    for end in bounds:
        block = tuple(v - start for v in p.image[start:end])
        out.append((start, Permutation(block)))
        start = end
    return out


def ref_closed_rows(g: PermutationGraph) -> tuple[int, ...]:
    return tuple(r | (1 << i) for i, r in enumerate(g.rows))


def ref_count_singleton_dominators(g: PermutationGraph) -> int:
    full = g.full_mask()
    return sum(1 for row in ref_closed_rows(g) if row == full)


def ref_is_connected_search(g: PermutationGraph) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        v = 1
        m = frontier
        while m:
            if m & 1:
                nxt |= g.rows[v - 1]
            m >>= 1
            v += 1
        frontier = nxt & ~seen
        seen |= frontier
    return seen == g.full_mask()


def ref_component(g: PermutationGraph, v: int) -> frozenset[int]:
    """v's component by breadth-first search over vertex sets."""
    seen = {v}
    frontier = [v]
    while frontier:
        frontier = [w for u in frontier for w in g.neighbors(u) if w not in seen]
        seen.update(frontier)
    return frozenset(seen)


def assert_matches_reference(p: Permutation) -> None:
    g = build_graph(p)
    assert _prefix_split_points(p) == ref_prefix_split_points(p)
    assert components(g) == ref_components(g)
    assert g.closed_rows() == ref_closed_rows(g)
    assert count_singleton_dominators(g) == ref_count_singleton_dominators(g)
    assert is_connected_search(g) is ref_is_connected_search(g)
    # Each component from its lowest vertex, and from the last vertex.
    for v in {offset + 1 for offset, _ in ref_components(g)} | {p.n} if p.n else ():
        assert component_mask(g, v) == mask_of(ref_component(g, v))


@pytest.mark.parametrize("n", range(0, 8))
def test_every_permutation_of_order_at_most_7(n):
    for image, *_ in leaves(n):
        assert_matches_reference(Permutation(image))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, MAX_GRAPH_ORDER).flatmap(
    lambda n: st.permutations(range(1, n + 1))))
@example(tuple(range(1, MAX_GRAPH_ORDER + 1)))
@example(tuple(range(MAX_GRAPH_ORDER, 0, -1)))
@example(comb_sigma(MAX_GRAPH_ORDER).image)
def test_random_permutations_up_to_the_order_cap(image):
    assert_matches_reference(Permutation(tuple(image)))


def test_closed_rows_of_a_graph_above_the_order_cap_keep_every_row():
    # The bit table stops at the cap; a graph built past it directly still
    # gets all its rows.
    n = MAX_GRAPH_ORDER + 6
    g = PermutationGraph(n, tuple(1 << ((i + 1) % n) for i in range(n)),
                         Permutation(tuple(range(1, n + 1))))
    assert len(g.closed_rows()) == n
    assert g.closed_rows() == ref_closed_rows(g)
