from dataclasses import dataclass, field
from itertools import combinations, islice, permutations as perms, product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permdom import domination
from permdom.constructions import comb_sigma, comb_tau, is_comb
from permdom.domination import (
    _memberships,
    _count_walk,
    _covers,
    all_minimum_dominating_sets,
    count_minimum_dominating_sets,
    count_singleton_dominators,
    domination_number_exact,
    heuristic_dominating_set,
    maximal_cliques,
    quick_rule_position_ends,
    quick_rule_value_ends,
    singleton_dominators_by_position,
)
from permdom.graph import build_graph, is_connected, vertices_of
from permdom.perm import Permutation, decreasing, parse_permutation
from domination_reference import (
    is_dominating,
    is_efficient_dominating,
    minimum_sets_by_plain_enumeration,
)


def identity(n: int) -> Permutation:
    """[1, 2, ..., n]: no pair inverted."""
    return Permutation(tuple(range(1, n + 1)))


class NotDominating(Exception):
    """`classify_neighbors` was given a set that does not dominate."""


@dataclass(frozen=True)
class NeighborClassification:
    """Partition of the vertices relative to a dominating set."""

    private_of: dict[int, int] = field(default_factory=dict)
    shared: frozenset[int] = frozenset()


def classify_neighbors(g, d) -> NeighborClassification:
    """Split vertices into private neighbors (closed neighborhood meets d in
    exactly one vertex) and shared neighbors (in two or more)."""
    dset = frozenset(d)
    private_of: dict[int, int] = {}
    shared = []
    for v in range(1, g.n + 1):
        meet = vertices_of(g.closed_row(v)) & dset
        if not meet:
            raise NotDominating(f"vertex {v} is not dominated")
        if len(meet) == 1:
            private_of[v] = next(iter(meet))
        else:
            shared.append(v)
    return NeighborClassification(private_of=private_of, shared=frozenset(shared))


def graph(text):
    return build_graph(parse_permutation(text))


def gamma_by_plain_enumeration(g):
    return len(minimum_sets_by_plain_enumeration(g)[0])


def first_cover_by_plain_enumeration(rows, full):
    """The row-or search over every combination, unpruned."""
    for size in range(1, len(rows) + 1):
        for combo in combinations(range(len(rows)), size):
            cover = 0
            for i in combo:
                cover |= rows[i]
            if cover == full:
                return combo
    raise AssertionError


def assert_matches_plain_enumeration(g):
    expected = minimum_sets_by_plain_enumeration(g)
    assert sorted(domination_number_exact(g).witness) == sorted(expected[0])
    assert count_minimum_dominating_sets(g) == len(expected)
    assert all_minimum_dominating_sets(g) == expected


def test_is_dominating_examples():
    assert is_dominating(graph("2,3,1"), {1})
    assert not is_dominating(build_graph(identity(3)), {1, 2})
    g = graph("3,1,4,2")
    assert is_dominating(g, {1, 2, 3, 4})


def test_exact_solver_examples():
    r = domination_number_exact(build_graph(decreasing(5)))
    assert (r.gamma, r.witness) == (1, {1})
    r = domination_number_exact(build_graph(identity(4)))
    assert (r.gamma, r.witness) == (4, {1, 2, 3, 4})
    r = domination_number_exact(graph("3,1,4,2"))
    assert r.gamma == 2
    # lexicographically first minimum set of the path 1-3-2-4
    assert sorted(r.witness) == [1, 2]
    assert r.method == "exact"


@pytest.mark.parametrize("n", range(1, 7))
def test_exact_solver_matches_plain_enumeration(n):
    for image in perms(range(1, n + 1)):
        g = build_graph(Permutation(image))
        assert domination_number_exact(g).gamma == gamma_by_plain_enumeration(g)


@pytest.mark.parametrize("n", range(1, 8))
def test_gamma_of_connected_graphs_at_most_half_n(n):
    for image in perms(range(1, n + 1)):
        g = build_graph(Permutation(image))
        if is_connected(g) and n >= 2:
            assert domination_number_exact(g).gamma <= n // 2


@pytest.mark.parametrize("n", range(1, 8))
def test_witness_and_minimum_sets_match_plain_enumeration(n, monkeypatch):
    # One walk per graph answers the witness, the count and the listing: the
    # root of each size from 2 to gamma is entered once, and never again.
    roots = []
    walk = domination._count_covers

    def spy(rows, missing, start, left, memo):
        if start == 0 and missing == (1 << n) - 1:
            roots.append(left)
        return walk(rows, missing, start, left, memo)

    monkeypatch.setattr(domination, "_count_covers", spy)
    for image in perms(range(1, n + 1)):
        g = build_graph(Permutation(image))
        roots.clear()
        assert_matches_plain_enumeration(g)
        assert roots == list(range(2, domination_number_exact(g).gamma + 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(9, 16).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
# The count's walk reaches one (missing, picks left) from two starts, with
# 2 and 1 covers below them: a memo key without the start miscounts.
@example([4, 3, 7, 1, 5, 9, 2, 8, 6, 10])
def test_witness_and_minimum_sets_match_plain_enumeration_beyond_7(image):
    assert_matches_plain_enumeration(build_graph(Permutation(tuple(image))))


def test_minimum_cover_matches_plain_enumeration_on_the_s8_sweep():
    from permdom.oracle import _gamma, _subset_tables
    from walk import leaves

    full = (1 << 8) - 1
    card = _subset_tables(8)[1]
    size = [sum(1 << t for t, c in enumerate(card) if c == k) for k in range(9)]
    for image, rows, *_, dom in leaves(8):
        cover = next(_covers(rows, full, 0, *_count_walk(rows, full)))
        assert cover == first_cover_by_plain_enumeration(rows, full)
        gamma = _gamma(dom, card)
        assert gamma == len(cover)
        # The sieve's dominating sets of size gamma against the count.
        assert count_minimum_dominating_sets(build_graph(Permutation(image))) == (
            (dom & size[gamma]).bit_count())


LISTED_AT_MOST = 5000  # past this many sets, compare a prefix of the listing


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))), min_size=1, max_size=10)
    .filter(lambda blocks: sum(map(len, blocks)) <= 40))
@example([[3, 2, 1]] * 21)  # 3^21 minimum sets: the listing's prefix
@example([[1], [2, 3, 1], [1, 2], [2, 1]])
def test_a_direct_sum_is_solved_as_the_product_of_its_blocks(blocks):
    # Each block shifted above the ones before it: the direct sum's graph is
    # the disjoint union of the blocks' graphs.
    image: list[int] = []
    per_block = []
    for block in blocks:
        per_block.append([{len(image) + v for v in d} for d in
                          minimum_sets_by_plain_enumeration(
                              build_graph(Permutation(tuple(block))))])
        image += [len(image) + v for v in block]
    g = build_graph(Permutation(tuple(image)))
    result = domination_number_exact(g)
    assert result.gamma == sum(len(sets[0]) for sets in per_block)
    assert result.witness == set().union(*(sets[0] for sets in per_block))
    count = count_minimum_dominating_sets(g)
    assert count == prod(map(len, per_block))
    # The first block outermost: the lexicographic order of the whole.
    product_of_lists = (set().union(*pick) for pick in product(*per_block))
    if count <= LISTED_AT_MOST:
        assert all_minimum_dominating_sets(g) == list(product_of_lists)
    else:
        listed = (frozenset(i + 1 for i in combo)
                  for combo in domination._minimum_covers(g))
        assert list(islice(listed, LISTED_AT_MOST)) == list(
            islice(product_of_lists, LISTED_AT_MOST))


@pytest.mark.parametrize("build", [comb_sigma, comb_tau])
@pytest.mark.parametrize("n", range(6, 25, 2))
def test_comb_minimum_sets_pick_one_end_of_every_tooth(build, n):
    g = build_graph(build(n))
    sets = all_minimum_dominating_sets(g)
    assert domination_number_exact(g).gamma == n // 2
    assert count_minimum_dominating_sets(g) == len(sets) == 2 ** (n // 2)
    pairs = is_comb(g).matching.items()
    assert set(sets) == {frozenset(pick) for pick in product(*pairs)}


@pytest.mark.parametrize("build", [comb_sigma, comb_tau])
@pytest.mark.parametrize("n", range(26, 65, 2))
def test_comb_count_is_two_to_the_half_order_past_the_listing(build, n):
    # The listing of 2^(n/2) sets stops at order 24 above; the count does not.
    assert count_minimum_dominating_sets(build_graph(build(n))) == 2 ** (n // 2)


def test_all_minimum_dominating_sets():
    assert all_minimum_dominating_sets(graph("2,1")) == [{1}, {2}]
    assert all_minimum_dominating_sets(graph("1,2")) == [{1, 2}]
    assert all_minimum_dominating_sets(graph("2,3,1")) == [{1}]


def test_singleton_dominator_examples():
    assert count_singleton_dominators(graph("3,2,1")) == 3
    assert count_singleton_dominators(graph("1,2,3")) == 0
    assert count_singleton_dominators(graph("2,3,1")) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_singleton_characterization_matches_direct_check(n):
    for image in perms(range(1, n + 1)):
        p = Permutation(image)
        g = build_graph(p)
        direct = {
            k for k in range(1, n + 1) if g.closed_row(k) == g.full_mask()
        }
        assert singleton_dominators_by_position(p) == direct
        assert count_singleton_dominators(g) == len(direct)


def test_classify_neighbors_path():
    cls = classify_neighbors(graph("3,1,4,2"), {2, 3})
    assert cls.shared == {2, 3}
    assert cls.private_of == {1: 3, 4: 2}


def test_classify_neighbors_trivial_cases():
    cls = classify_neighbors(build_graph(identity(3)), {1, 2, 3})
    assert cls.private_of == {1: 1, 2: 2, 3: 3}
    cls = classify_neighbors(graph("2,1"), {1})
    assert cls.private_of == {1: 1, 2: 1}
    with pytest.raises(NotDominating):
        classify_neighbors(build_graph(identity(3)), {1})


@pytest.mark.parametrize("n", range(2, 7))
def test_classification_partitions_dominated_graphs(n):
    for image in perms(range(1, n + 1)):
        g = build_graph(Permutation(image))
        d = domination_number_exact(g).witness
        cls = classify_neighbors(g, d)
        assert set(cls.private_of) | set(cls.shared) == set(range(1, n + 1))
        assert not set(cls.private_of) & cls.shared


def test_is_efficient_dominating_examples():
    assert is_efficient_dominating(graph("2,1,4,3"), {1, 3})
    assert not is_efficient_dominating(graph("2,1"), {1, 2})
    assert is_efficient_dominating(build_graph(identity(3)), {1, 2, 3})


def test_quick_rule_value_ends():
    r = quick_rule_value_ends(parse_permutation("3,1,5,4,2"))
    assert r is not None and (r.gamma, r.witness) == (2, {1, 5})
    assert r.method == "quick_rule_1n"
    assert quick_rule_value_ends(parse_permutation("1,2,3")) is None
    assert quick_rule_value_ends(parse_permutation("2,1")) is None


def test_quick_rule_position_ends():
    r = quick_rule_position_ends(parse_permutation("3,1,5,2,4"))
    assert r is not None and (r.gamma, r.witness) == (2, {3, 4})
    r = quick_rule_position_ends(parse_permutation("1,2"))
    assert r is not None and (r.gamma, r.witness) == (2, {1, 2})
    assert quick_rule_position_ends(parse_permutation("2,1")) is None


@pytest.mark.parametrize("n", range(2, 8))
def test_quick_rules_agree_with_exact_solver(n):
    for image in perms(range(1, n + 1)):
        p = Permutation(image)
        g = build_graph(p)
        for rule in (quick_rule_value_ends, quick_rule_position_ends):
            r = rule(p)
            if r is not None:
                assert r.gamma == domination_number_exact(g).gamma == 2
                assert is_dominating(g, r.witness)


def test_maximal_cliques_are_maximal_decreasing_subsequences():
    g = graph("3,1,4,2")
    cliques = {frozenset(vertices_of(c)) for c in maximal_cliques(g)}
    assert cliques == {frozenset({1, 3}), frozenset({2, 3}), frozenset({2, 4})}


def test_heuristic_examples():
    r = heuristic_dominating_set(build_graph(decreasing(4)))
    assert (r.gamma, r.witness) == (1, {1})
    r = heuristic_dominating_set(build_graph(identity(5)))
    assert r.witness == {1, 2, 3, 4, 5}
    r = heuristic_dominating_set(graph("3,1,4,2"))
    assert r.gamma >= 2 and is_dominating(graph("3,1,4,2"), r.witness)
    assert r.method == "heuristic"


@pytest.mark.parametrize("n", range(1, 8))
def test_heuristic_always_dominates_and_bounds_gamma(n):
    for image in perms(range(1, n + 1)):
        g = build_graph(Permutation(image))
        r = heuristic_dominating_set(g)
        assert is_dominating(g, r.witness) and r.repaired is False
        assert r.gamma >= domination_number_exact(g).gamma


@settings(max_examples=200, deadline=None)
@given(st.integers(29, 64).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))))
def test_heuristic_dominates_beyond_the_clique_reference(image):
    # The Bron-Kerbosch comparison stops at order 28; the heuristic's own
    # guarantee does not.  No exact search: gamma is out of reach here.
    g = build_graph(Permutation(tuple(image)))
    r = heuristic_dominating_set(g)
    assert is_dominating(g, r.witness) and r.repaired is False


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40))))
@example((3, []))  # no clique: every column is the row of zeros
def test_memberships_transpose_the_cliques(case):
    n, cliques = case
    assert _memberships(cliques, n) == [
        sum(1 << k for k, c in enumerate(cliques) if c >> v & 1) for v in range(n)]
