from itertools import permutations as perms

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permdom.errors import OrderTooLarge, VertexOutOfRange
from permdom.graph import (
    build_graph,
    components,
    degree_bound_check,
    is_connected,
    is_connected_search,
    mask_of,
    vertices_of,
)
from permdom.perm import Permutation, decreasing, parse_permutation


def identity(n: int) -> Permutation:
    """[1, 2, ..., n]: no pair inverted."""
    return Permutation(tuple(range(1, n + 1)))


def closed_neighborhood(g, v: int) -> frozenset[int]:
    """N[v] = N(v) | {v}."""
    return vertices_of(g.closed_row(v))


def graph(text):
    return build_graph(parse_permutation(text))


def rows_by_pair_loop(p: Permutation) -> tuple[int, ...]:
    """Open rows of p's graph, pair by pair from p's positions: values
    u < v are adjacent when v stands before u."""
    rows = [0] * p.n
    for u in range(1, p.n + 1):
        for v in range(u + 1, p.n + 1):
            if p.position(v) < p.position(u):
                rows[u - 1] |= 1 << (v - 1)
                rows[v - 1] |= 1 << (u - 1)
    return tuple(rows)


def test_mask_round_trip():
    assert vertices_of(mask_of([1, 3, 6])) == {1, 3, 6}
    assert mask_of([]) == 0


def test_build_examples():
    assert graph("2,3,1").edges() == [(1, 2), (1, 3)]
    assert build_graph(identity(5)).edges() == []
    g = build_graph(decreasing(4))
    assert len(g.edges()) == 6  # complete graph


def test_edges_are_exactly_the_inversions():
    for n in range(8):
        for image in perms(range(1, n + 1)):
            p = Permutation(image)
            g = build_graph(p)
            inversions = {
                (i, j)
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                if p.position(i) > p.position(j)
            }
            assert set(g.edges()) == inversions
            # edges() reads each row's larger neighbors; read the smaller.
            assert {(u, v) for v in range(1, n + 1)
                    for u in g.neighbors(v) if u < v} == inversions


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 64).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
def test_edges_are_exactly_the_inversions_up_to_64(image):
    # Inversions read off the one-line notation: the values at positions
    # a < b form an edge when the larger one comes first.
    inversions = sorted(
        (image[b], image[a])
        for a in range(len(image))
        for b in range(a + 1, len(image))
        if image[a] > image[b]
    )
    p = Permutation(tuple(image))
    g = build_graph(p)
    assert g.edges() == inversions
    # edges() reads only each row's larger neighbors: check whole rows.
    assert g.rows == rows_by_pair_loop(p)


def test_order_cap():
    with pytest.raises(OrderTooLarge):
        build_graph(identity(65))


def test_closed_neighborhood():
    assert closed_neighborhood(graph("2,3,1"), 1) == {1, 2, 3}
    assert closed_neighborhood(build_graph(identity(3)), 2) == {2}
    assert closed_neighborhood(build_graph(decreasing(4)), 3) == {1, 2, 3, 4}
    with pytest.raises(VertexOutOfRange):
        closed_neighborhood(graph("2,1"), 3)


def test_connectivity_examples():
    assert not is_connected(graph("1,3,2"))
    assert is_connected(graph("2,3,1"))
    assert is_connected(graph("1"))


@pytest.mark.parametrize("n", range(1, 8))
def test_prefix_criterion_matches_search(n):
    for image in perms(range(1, n + 1)):
        g = build_graph(Permutation(image))
        assert is_connected(g) == is_connected_search(g)


def test_components_examples():
    split = components(graph("2,1,4,3"))
    assert [(off, tau.image) for off, tau in split] == [(0, (2, 1)), (2, (2, 1))]
    assert [(o, t.image) for o, t in components(graph("2,3,1"))] == [(0, (2, 3, 1))]
    assert [(o, t.image) for o, t in components(graph("1,2"))] == [(0, (1,)), (1, (1,))]


@pytest.mark.parametrize("n", range(1, 8))
def test_components_reconstruct_the_permutation(n):
    for image in perms(range(1, n + 1)):
        g = build_graph(Permutation(image))
        rebuilt = []
        for offset, tau in components(g):
            assert is_connected(build_graph(tau))
            rebuilt.extend(v + offset for v in tau.image)
        assert tuple(rebuilt) == image


@pytest.mark.parametrize("n", range(1, 8))
def test_degree_displacement_bound_holds_everywhere(n):
    for image in perms(range(1, n + 1)):
        assert degree_bound_check(build_graph(Permutation(image)))


def test_build_is_injective_on_s5():
    seen = {}
    for image in perms(range(1, 6)):
        edges = tuple(build_graph(Permutation(image)).edges())
        assert edges not in seen, f"{image} vs {seen[edges]}"
        seen[edges] = image
