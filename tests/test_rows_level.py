"""The rows-level heuristic, quick rules and invariant helpers against their
graph-level forms.

The census runs the hand heuristic and the quick rules on the sweep's
one-line image and closed rows, with no `Permutation` or `PermutationGraph`
per leaf, and the invariant suite's helpers read a permutation's positions
and a graph's rows once.  The `ref_*` functions below are those helpers as
they were before, with per-element `position()`/`degree()` calls; the
heuristic and the clique listing are checked against the Bron-Kerbosch and
list-scan references of clique_reference.py.  They are the oracle for the
rewritten forms, exhaustively for n <= 7 and on Hypothesis inputs up to
order 24.
"""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permdom import domination, oracle
from permdom.constructions import comb_sigma, comb_tau
from permdom.domination import (
    HEURISTIC,
    QUICK_RULE_1N,
    QUICK_RULE_ENDS,
    DominationResult,
    domination_number_exact,
    heuristic_dominating_set,
    maximal_cliques,
    quick_rule_position_ends,
    quick_rule_value_ends,
    singleton_dominators_by_position,
)
from permdom.graph import PermutationGraph, build_graph, degree_bound_check
from permdom.oracle import HeuristicQuality, census
from permdom.perm import Permutation, strong_fixed_points
from clique_reference import ref_heuristic_dominating_set, ref_maximal_cliques, skew_pairs
from domination_reference import is_dominating
from walk import leaves


def ref_singleton_dominators_by_position(p: Permutation) -> frozenset[int]:
    """Singleton dominators read off the one-line notation: {k} dominates
    exactly when k sits at position (n+1)-k with every larger value before
    it and every smaller value after it."""
    n = p.n
    out = []
    for k in range(1, n + 1):
        if p.position(k) != (n + 1) - k:
            continue
        if all(p.position(j) > p.position(k) for j in range(1, k)) and all(
            p.position(i) < p.position(k) for i in range(k + 1, n + 1)
        ):
            out.append(k)
    return frozenset(out)


def ref_quick_rule_value_ends(p: Permutation) -> DominationResult | None:
    """{1, n} dominates when the values 1 and n are positionally adjacent
    and neither sits at the matching end of the one-line notation."""
    n = p.n
    if n < 2:
        return None
    if abs(p.position(1) - p.position(n)) != 1:
        return None
    if p(1) == n or p(n) == 1:
        return None
    return DominationResult(gamma=2, witness=frozenset({1, n}), method=QUICK_RULE_1N)


def ref_quick_rule_position_ends(p: Permutation) -> DominationResult | None:
    """{p(1), p(n)} dominates when the two end values are consecutive
    integers and neither end holds the extreme value."""
    n = p.n
    if n < 2:
        return None
    if abs(p(1) - p(n)) != 1 or p(1) == n or p(n) == 1:
        return None
    return DominationResult(
        gamma=2, witness=frozenset({p(1), p(n)}), method=QUICK_RULE_ENDS
    )


def ref_strong_fixed_points(p: Permutation) -> frozenset[int]:
    """Values k with every smaller value positioned before k and every
    larger value positioned after k in one-line notation.

    >>> sorted(ref_strong_fixed_points(parse_permutation("1,3,2")))
    [1]
    """
    n = p.n
    out = []
    max_before = 0
    for k in range(1, n + 1):
        pos = p.position(k)
        # Both conditions together force pos == k, so the suffix check
        # reduces to the prefix positions filling {1..k-1} exactly.
        if max_before < pos == k:
            out.append(k)
        max_before = max(max_before, pos)
    return frozenset(out)


def ref_degree_bound_check(g: PermutationGraph) -> bool:
    """Displacement bound: every value's displacement |pos(i) - i| is at most
    its degree and has the same parity."""
    p = g.source
    for i in range(1, g.n + 1):
        d = g.degree(i)
        shift = p.position(i) - i
        if abs(shift) > d or (shift - d) % 2 != 0:
            return False
    return True


def assert_matches_reference(p: Permutation) -> None:
    g = build_graph(p)
    assert sorted(maximal_cliques(g)) == sorted(ref_maximal_cliques(g))
    if p.n:
        assert heuristic_dominating_set(g) == ref_heuristic_dominating_set(g)
    else:
        # The reference takes the max of an empty frequency list on the
        # empty graph and raises; the empty set dominates it, unrepaired.
        assert heuristic_dominating_set(g) == DominationResult(
            gamma=0, witness=frozenset(), method=HEURISTIC, repaired=False)
    assert quick_rule_value_ends(p) == ref_quick_rule_value_ends(p)
    assert quick_rule_position_ends(p) == ref_quick_rule_position_ends(p)
    assert strong_fixed_points(p) == ref_strong_fixed_points(p)
    assert degree_bound_check(g) == ref_degree_bound_check(g)
    assert (singleton_dominators_by_position(p)
            == ref_singleton_dominators_by_position(p))


@pytest.mark.parametrize("n", range(0, 8))
def test_every_permutation_of_order_at_most_7(n):
    for image, *_ in leaves(n):
        assert_matches_reference(Permutation(image))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.permutations(range(1, n + 1))))
@example(skew_pairs(24).image)
@example(skew_pairs(2).image)
@example(comb_sigma(24).image)
@example(comb_tau(24).image)
@example(comb_sigma(6).image)
def test_random_permutations_up_to_order_24(image):
    assert_matches_reference(Permutation(tuple(image)))


@pytest.mark.parametrize("image, rows", [((3, 2, 1), (0, 0, 0)),
                                         ((2, 1), (3, 3))],
                         ids=["displacement-above-degree", "parity"])
def test_degree_bound_check_can_fail(image, rows):
    # Every permutation graph meets the bound, so the reference and the
    # rewrite agree on True everywhere above; graphs whose rows are not their
    # source's show that both say False when either condition alone fails.
    g = PermutationGraph(len(image), rows, Permutation(image))
    assert degree_bound_check(g) is ref_degree_bound_check(g) is False


def ref_heuristic_quality(n: int) -> HeuristicQuality:
    """The census's heuristic figures from a Permutation and a
    PermutationGraph per leaf, with gamma from the exact search."""
    total = excluded = optimal = 0
    for image, *_ in leaves(n):
        p = Permutation(image)
        g = build_graph(p)
        result = ref_heuristic_dominating_set(g)
        assert is_dominating(g, result.witness)
        total += 1
        if ref_quick_rule_value_ends(p) or ref_quick_rule_position_ends(p):
            excluded += 1
        elif result.gamma == domination_number_exact(g).gamma:
            optimal += 1
    return HeuristicQuality(total, excluded, optimal)


@pytest.mark.parametrize("n", range(1, 8))
def test_census_heuristic_matches_a_loop_over_graphs(n):
    assert census(n).heuristic == ref_heuristic_quality(n)


def test_census_fails_when_the_heuristic_leaves_a_vertex_undominated(monkeypatch):
    # Drop the last chosen vertex: at the identity (the first leaf) every
    # vertex is its own clique and must be chosen, so the check has to fire.
    real = domination._heuristic_cover

    def drop_one(cliques, n):
        return real(cliques, n)[:-1]

    monkeypatch.setattr(oracle, "_heuristic_cover", drop_one)
    with pytest.raises(AssertionError, match=r"does not dominate \[1,2,3,4,5\]"):
        oracle._census_chunk((5, slice(None)))
