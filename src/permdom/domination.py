"""Dominating sets of permutation graphs.

The exact solver searches the domination matrix (adjacency plus identity)
for a choice of rows whose bitwise or has no zeros.  Search runs by
increasing cardinality and, within a cardinality, in lexicographic order of
the sorted vertex list, so the returned witness is canonical and the minimum
dominating sets come out in lexicographic order.

Within a cardinality the search is a depth-first walk over increasing index
tuples, pruned by two rules.  Picks only increase, so the vertices the picks
so far leave undominated can only be dominated by later picks, all at or
after the next index.  Hence:
- the next pick is at most the highest index in N[u], for the lowest
  undominated vertex u;
- undominated vertices whose closed neighborhoods share no index at or after
  the next one each need a pick of their own, so a prefix with fewer picks
  left than such vertices is abandoned.
A branch either rule cuts holds no dominating set, so pruning drops no set
and reorders none.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotDominating
from .graph import PermutationGraph, vertices_of
from .perm import Permutation

EXACT = "exact"
QUICK_RULE_1N = "quick_rule_1n"
QUICK_RULE_ENDS = "quick_rule_ends"
HEURISTIC = "heuristic"


@dataclass(frozen=True)
class DominationResult:
    gamma: int
    witness: frozenset[int]
    method: str
    repaired: bool = False


@dataclass(frozen=True)
class NeighborClassification:
    """Partition of the vertices relative to a dominating set."""

    private_of: dict[int, int] = field(default_factory=dict)
    shared: frozenset[int] = frozenset()


def is_dominating(g: PermutationGraph, d) -> bool:
    """True when the closed neighborhoods of d cover every vertex."""
    cover = 0
    for v in d:
        cover |= g.closed_row(v)
    return cover == g.full_mask()


def domination_number_exact(g: PermutationGraph) -> DominationResult:
    """Minimum dominating set by cardinality-ascending lexicographic search.

    >>> from .perm import parse_permutation
    >>> from .graph import build_graph
    >>> r = domination_number_exact(build_graph(parse_permutation("3,1,4,2")))
    >>> r.gamma, sorted(r.witness)
    (2, [1, 2])
    """
    combo = _minimum_cover(g.closed_rows(), g.full_mask())
    return DominationResult(
        gamma=len(combo),
        witness=frozenset(i + 1 for i in combo),
        method=EXACT,
    )


def _minimum_cover(rows: tuple[int, ...], full: int) -> tuple[int, ...]:
    """0-based indices of the first set of rows whose or is `full`, by
    increasing size and then lexicographically: the canonical minimum
    dominating set when `rows` are the closed neighborhoods."""
    return _minimum_covers(rows, full, 1)[0]


def _minimum_covers(rows: tuple[int, ...], full: int,
                    most: int | None = None) -> list[tuple[int, ...]]:
    """The first `most` (default: all) smallest sets of rows whose or is
    `full`, as sorted 0-based index tuples in lexicographic order.

    Size 1 is a membership test.  Each larger size is one depth-first walk
    over increasing tuples, cut by the two rules of the module docstring.
    They cut only branches that hold no cover, so the walk finds the covers
    in `itertools.combinations` order.
    """
    if full in rows:
        return [(i,) for i, row in enumerate(rows) if row == full][:most]
    found: list[tuple[int, ...]] = []
    for size in range(2, len(rows) + 1):
        _extend_covers(rows, full, (), 0, 0, size, found, most)
        if found:
            return found
    raise AssertionError("every graph is dominated by its full vertex set")


def _extend_covers(rows, full, picks, start, cover, left, found, most) -> bool:
    """Append to `found`, in lexicographic order, every cover that extends
    `picks` (whose or is `cover`) by `left` >= 2 picks from index `start`
    on; True once `found` holds `most` covers.  No prefix is a cover itself
    (a smaller cover would have ended the search at its own size), so some
    index is always missing.  The last pick is scanned in place rather than
    by a further call, since most calls end there; the bound on picks needed
    is skipped for the last two picks, where it costs more than it cuts.
    """
    n = len(rows)
    missing = full ^ cover
    if left > 2 and _picks_needed(rows, missing, -1 << start) > left:
        return False
    stop = min(rows[(missing & -missing).bit_length() - 1].bit_length(),
               n + 1 - left)
    for i in range(start, stop):
        now = cover | rows[i]
        if left > 2:
            if _extend_covers(rows, full, picks + (i,), i + 1, now, left - 1,
                              found, most):
                return True
            continue
        missing = full ^ now
        last = min(rows[(missing & -missing).bit_length() - 1].bit_length(), n)
        for j in range(i + 1, last):
            if now | rows[j] == full:
                found.append(picks + (i, j))
                if len(found) == most:
                    return True
    return False


def _picks_needed(rows, missing: int, allowed: int) -> int:
    """A lower bound on the picks from `allowed` that cover `missing`: the
    size of a set of missing indices, chosen greedily from the lowest, whose
    rows meet `allowed` in pairwise disjoint masks."""
    used = 0
    need = 0
    while missing:
        bit = missing & -missing
        missing ^= bit
        reach = rows[bit.bit_length() - 1] & allowed
        if not reach & used:
            used |= reach
            need += 1
    return need


def all_minimum_dominating_sets(g: PermutationGraph) -> list[frozenset[int]]:
    """Every dominating set of minimum size, in lexicographic order."""
    return [frozenset(i + 1 for i in combo)
            for combo in _minimum_covers(g.closed_rows(), g.full_mask())]


def count_singleton_dominators(g: PermutationGraph) -> int:
    """Number of k for which {k} dominates, by the direct N[k] check."""
    full = g.full_mask()
    return sum(1 for row in g.closed_rows() if row == full)


def singleton_dominators_by_position(p: Permutation) -> frozenset[int]:
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


def classify_neighbors(g: PermutationGraph, d) -> NeighborClassification:
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


def is_efficient_dominating(g: PermutationGraph, d) -> bool:
    """Dominating with pairwise disjoint closed neighborhoods."""
    cover = 0
    for v in d:
        row = g.closed_row(v)
        if cover & row:
            return False
        cover |= row
    return cover == g.full_mask()


def quick_rule_value_ends(p: Permutation) -> DominationResult | None:
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


def quick_rule_position_ends(p: Permutation) -> DominationResult | None:
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


def maximal_cliques(g: PermutationGraph) -> list[int]:
    """All maximal cliques as bitmasks, in no particular order.

    A clique of a permutation graph is a decreasing subsequence, so a
    maximal clique is a maximal chain of the poset in which position i lies
    below position j when i < j and p(i) > p(j).  Its Hasse diagram has an
    edge i -> j when, in addition, no position between i and j holds a value
    between p(j) and p(i).  The maximal chains are exactly the paths from a
    source (no earlier larger value) to a sink (no later smaller value), so
    walking every such path lists each maximal clique once, with no dead
    ends.  The empty graph's one maximal clique is the empty set.
    """
    image = g.source.image
    n = len(image)
    bits = [1 << (v - 1) for v in image]
    below: list[list[int]] = []
    for i, top in enumerate(image):
        succ = []
        ceiling = 0  # the largest value below `top` seen after position i
        for j in range(i + 1, n):
            v = image[j]
            if ceiling < v < top:
                succ.append(j)
                ceiling = v
                if v == top - 1:  # no value fits between any more
                    break
        below.append(succ)
    out: list[int] = []
    stack = []
    highest = 0
    for i, v in enumerate(image):  # the sources are the left-to-right maxima
        if v > highest:
            highest = v
            stack.append((i, bits[i]))
    while stack:
        i, clique = stack.pop()
        if below[i]:
            stack.extend([(j, clique | bits[j]) for j in below[i]])
        else:
            out.append(clique)
    return out or [0]


def heuristic_dominating_set(g: PermutationGraph) -> DominationResult:
    """Hand-style dominating set from decreasing subsequences.

    Collect all maximum cliques, plus all maximal cliques through each value
    not covered by a maximum clique (the maximal cliques are listed as
    source-to-sink paths of the decreasing-pair Hasse diagram); then
    repeatedly take the most frequent vertex across the collected cliques
    (ties to the smallest vertex) and drop every clique containing it.  The
    result is verified and greedily repaired if it fails to dominate.
    """
    cliques = maximal_cliques(g)
    best = max((c.bit_count() for c in cliques), default=0)
    covered = 0
    for c in cliques:
        if c.bit_count() == best:
            covered |= c
    uncovered = g.full_mask() ^ covered
    collected = [c for c in cliques if c & uncovered or c.bit_count() == best]

    freq = [0] * g.n
    for c in collected:
        _tally_bits(freq, c, 1)
    chosen: list[int] = []
    while collected:
        v = freq.index(max(freq))  # ties break to the smallest vertex
        chosen.append(v + 1)
        bit = 1 << v
        kept = []
        for c in collected:
            if c & bit:
                _tally_bits(freq, c, -1)
            else:
                kept.append(c)
        collected = kept

    rows = g.closed_rows()
    full = g.full_mask()
    cover = 0
    for v in chosen:
        cover |= rows[v - 1]
    repaired = cover != full
    while cover != full:
        gains = [(row & ~cover).bit_count() for row in rows]
        v = gains.index(max(gains)) + 1
        chosen.append(v)
        cover |= rows[v - 1]

    return DominationResult(
        gamma=len(chosen),
        witness=frozenset(chosen),
        method=HEURISTIC,
        repaired=repaired,
    )


def _tally_bits(freq: list[int], mask: int, step: int) -> None:
    """Add `step` to freq[i] for every bit i of `mask`."""
    while mask:
        low = mask & -mask
        freq[low.bit_length() - 1] += step
        mask ^= low
