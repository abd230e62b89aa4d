"""Dominating sets of permutation graphs.

The exact solver searches the domination matrix (adjacency plus identity)
for a choice of rows whose bitwise or has no zeros.  One memoised walk per
graph answers it.  The walk counts, size by size from 1, the sets of rows
that cover every vertex, and stops at the first size with a nonzero count:
that size is the domination number, and that count the number of minimum
dominating sets.  The minimum sets themselves are read back off the same
walk's memo, in lexicographic order of their sorted vertex lists, so the
first is the canonical witness.

Within a size the walk runs over increasing index tuples, pruned by two
rules.  Picks only increase, so the vertices the picks so far leave
undominated can only be dominated by later picks, all at or after the next
index.  Hence:
- the next pick is at most the highest index in N[u], for the lowest
  undominated vertex u;
- undominated vertices whose closed neighborhoods share no index at or after
  the next one each need a pick of their own, so a prefix with fewer picks
  left than such vertices is abandoned.
A branch either rule cuts holds no dominating set, so pruning drops no set
and reorders none.  A node's count depends only on (next index, undominated
vertices, picks left), which is the memo's key: the tooth choices of a comb
and the blocks of a direct sum reach one key by many prefixes, and the memo
walks below it once.
"""
from __future__ import annotations

from collections.abc import Sequence

from ._record import Record
from .graph import PermutationGraph
from .perm import Permutation

EXACT = "exact"
QUICK_RULE_1N = "quick_rule_1n"
QUICK_RULE_ENDS = "quick_rule_ends"
HEURISTIC = "heuristic"


class DominationResult(Record):
    """A dominating set and its size.  The hand heuristic's set always
    dominates with no repair, so it leaves `repaired` False."""

    __slots__ = ("gamma", "witness", "method", "repaired")
    _defaults = {"repaired": False}


def domination_number_exact(g: PermutationGraph) -> DominationResult:
    """Minimum dominating set: the first of the minimum sets in
    lexicographic order.

    >>> from .perm import parse_permutation
    >>> from .graph import build_graph
    >>> r = domination_number_exact(build_graph(parse_permutation("3,1,4,2")))
    >>> r.gamma, sorted(r.witness)
    (2, [1, 2])
    """
    combo = next(_minimum_covers(g))
    return DominationResult(
        gamma=len(combo),
        witness=frozenset(i + 1 for i in combo),
        method=EXACT,
    )


def all_minimum_dominating_sets(g: PermutationGraph) -> list[frozenset[int]]:
    """Every dominating set of minimum size, in lexicographic order."""
    return [frozenset(i + 1 for i in combo) for combo in _minimum_covers(g)]


def count_minimum_dominating_sets(g: PermutationGraph) -> int:
    """Number of dominating sets of minimum size, read off the walk's memo
    without listing them."""
    size, memo = _walk_of(g)
    return memo[0, g.full_mask(), size]


def _minimum_covers(g: PermutationGraph):
    """The minimum covers of g as sorted 0-based index tuples, in
    lexicographic order, from the one walk of `_walk_of`."""
    rows = g.closed_rows()
    size, memo = _walk_of(g)
    return _covers(rows, g.full_mask(), 0, size, memo)


def _walk_of(g: PermutationGraph) -> tuple[int, dict]:
    """`_count_walk` of g, run once and kept in g's `_walk` slot."""
    try:
        return g._walk
    except AttributeError:
        walk = _count_walk(g.closed_rows(), g.full_mask())
        object.__setattr__(g, "_walk", walk)
        return walk


def _count_walk(rows: tuple[int, ...], full: int) -> tuple[int, dict]:
    """The least size of a set of rows whose or is `full`, and the memo of
    `_count_covers` that counts those sets at key (0, full, size).

    Size 1 is a membership test.  Each larger size is one walk from the
    root, and all share one memo: below the least size every count is 0,
    so no prefix at a larger size is a cover by itself.
    """
    if full in rows:
        return 1, {(0, full, 1): rows.count(full)}
    memo: dict[tuple[int, int, int], int] = {}
    for size in range(2, len(rows) + 1):
        if _count_covers(rows, full, 0, size, memo):
            return size, memo
    raise AssertionError("every graph is dominated by its full vertex set")


def _count_covers(rows, missing: int, start: int, left: int, memo) -> int:
    """The number of sets of `left` >= 2 rows from index `start` on whose or
    covers `missing`, where no `left - 1` of them do, memoised on (start,
    missing, left).  The last pick is scanned in place rather than by a
    further call, since most calls end there; the bound on picks needed is
    skipped for the last two picks, where it costs more than it cuts."""
    key = (start, missing, left)
    count = memo.get(key)
    if count is not None:
        return count
    n = len(rows)
    count = 0
    if left == 2 or _picks_needed(rows, missing, -1 << start) <= left:
        stop = min(rows[(missing & -missing).bit_length() - 1].bit_length(),
                   n + 1 - left)
        for i in range(start, stop):
            rest = missing & ~rows[i]
            if left > 2:
                count += _count_covers(rows, rest, i + 1, left - 1, memo)
                continue
            last = min(rows[(rest & -rest).bit_length() - 1].bit_length(), n)
            for j in range(i + 1, last):
                if rows[j] & rest == rest:
                    count += 1
    memo[key] = count
    return count


def _covers(rows, missing: int, start: int, left: int, memo):
    """The covers that `memo[start, missing, left]` counts, in lexicographic
    order: the walk of `_count_covers` again, entering a branch of three or
    more picks only where its memoised count is nonzero, so it meets no dead
    end above the last two picks.  The last pick is a plain scan."""
    if left == 1:
        for j in range(start, len(rows)):
            if rows[j] & missing == missing:
                yield (j,)
        return
    stop = min(rows[(missing & -missing).bit_length() - 1].bit_length(),
               len(rows) + 1 - left)
    for i in range(start, stop):
        rest = missing & ~rows[i]
        if left == 2 or memo[i + 1, rest, left - 1]:
            for tail in _covers(rows, rest, i + 1, left - 1, memo):
                yield (i, *tail)


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


def count_singleton_dominators(g: PermutationGraph) -> int:
    """Number of k for which {k} dominates, by the direct N[k] check."""
    return g.closed_rows().count(g.full_mask())


def singleton_dominators_by_position(p: Permutation) -> frozenset[int]:
    """Singleton dominators read off the one-line notation: {k} dominates
    exactly when k sits at position (n+1)-k with every larger value before
    it and every smaller value after it."""
    pos = p._positions  # pos[v - 1] = position of value v
    n = len(pos)
    return frozenset(
        k for k, here in enumerate(pos, start=1)
        if here == (n + 1) - k
        and min(pos[:k - 1], default=n + 1) > here
        and max(pos[k:], default=0) < here
    )


def quick_rule_value_ends(p: Permutation) -> DominationResult | None:
    """{1, n} dominates when the values 1 and n are positionally adjacent
    and neither sits at the matching end of the one-line notation."""
    if not _value_ends(p.image):
        return None
    return DominationResult(gamma=2, witness=frozenset({1, p.n}), method=QUICK_RULE_1N)


def _value_ends(image: Sequence[int]) -> bool:
    """`quick_rule_value_ends`'s condition on the one-line notation."""
    n = len(image)
    return (n >= 2 and abs(image.index(1) - image.index(n)) == 1
            and image[0] != n and image[-1] != 1)


def quick_rule_position_ends(p: Permutation) -> DominationResult | None:
    """{p(1), p(n)} dominates when the two end values are consecutive
    integers and neither end holds the extreme value."""
    if not _position_ends(p.image):
        return None
    return DominationResult(
        gamma=2, witness=frozenset({p(1), p(p.n)}), method=QUICK_RULE_ENDS
    )


def _position_ends(image: Sequence[int]) -> bool:
    """`quick_rule_position_ends`'s condition on the one-line notation."""
    n = len(image)
    return (n >= 2 and abs(image[0] - image[-1]) == 1
            and image[0] != n and image[-1] != 1)


def maximal_cliques(g: PermutationGraph) -> list[int]:
    """All maximal cliques as bitmasks, in no particular order.

    A clique of a permutation graph is a decreasing subsequence, so a
    maximal clique is a maximal chain of the poset in which position i lies
    below position j when i < j and p(i) > p(j).  Its Hasse diagram has an
    edge i -> j when, in addition, no position between i and j holds a value
    between p(j) and p(i).  The maximal chains are exactly the paths from a
    source (no earlier larger value) to a sink (no later smaller value), so
    the cliques are the paths that end at a sink, each listed once.  The
    empty graph's one maximal clique is the empty set.
    """
    return _maximal_cliques(g.source.image)


def _maximal_cliques(image: Sequence[int],
                     memo: tuple[list[int], list[list[int]]] | None = None
                     ) -> list[int]:
    """`maximal_cliques` of the graph of the one-line notation `image`, by
    predecessor chains.

    One pass left to right keeps ends[j], the cliques of the Hasse paths
    from a source to position j.  The scan left from j keeps a floor, the
    smallest value above p(j) seen so far: i is a Hasse predecessor of j
    when p(j) < p(i) < floor, and no value fits below p(i) = p(j) + 1, so
    the scan stops there.  ends[j] is every predecessor's paths with p(j)'s
    bit added, or that bit alone at a source.  The sinks are the
    right-to-left minima, and their ends are the maximal cliques.

    ends[j] depends on image[:j + 1] only.  `memo`, a `(seen, ends)` pair
    of lists kept by the caller, holds those of the last image listed with
    it, and the pass resumes at the first position where `image` differs
    from `seen`, so the census's sweep, whose consecutive leaves share all
    but their last few values, recomputes only their tails.
    """
    seen, ends = memo or ([], [])
    n = len(image)
    d = 0
    same = min(n, len(seen))
    while d < same and seen[d] == image[d]:
        d += 1
    del seen[d:], ends[d:]
    for j in range(d, n):
        v = image[j]
        bit = 1 << (v - 1)
        paths: list[int] = []
        floor = n + 1
        for i in range(j - 1, -1, -1):
            u = image[i]
            if v < u < floor:
                paths += [c | bit for c in ends[i]]
                if u == v + 1:
                    break
                floor = u
        seen.append(v)
        ends.append(paths or [bit])
    out: list[int] = []
    low = n + 1
    for j in range(n - 1, -1, -1):  # the sinks are the right-to-left minima
        if image[j] < low:
            low = image[j]
            out += ends[j]
    return out or [0]


def heuristic_dominating_set(g: PermutationGraph) -> DominationResult:
    """Hand-style dominating set from decreasing subsequences.

    Collect all maximum cliques, plus all maximal cliques through each value
    not covered by a maximum clique (the maximal cliques are listed as
    source-to-sink paths of the decreasing-pair Hasse diagram, by
    predecessor chains); then
    repeatedly take the most frequent vertex across the collected cliques
    (ties to the smallest vertex) and drop every clique containing it.

    The result always dominates, with no repair, so `repaired` stays False:
    every vertex lies in a maximal clique, hence in a collected one (a
    maximum clique, or a maximal clique through a vertex no maximum clique
    covers); the greedy stops only when every collected clique holds a pick;
    and a clique's vertices are pairwise adjacent.  The cliques are read off
    the source permutation, so this holds for every graph whose rows match
    it, which is every graph `build_graph` makes.
    """
    chosen = _heuristic_cover(maximal_cliques(g), g.n)
    return DominationResult(
        gamma=len(chosen),
        witness=frozenset(chosen),
        method=HEURISTIC,
    )


def _heuristic_cover(cliques: list[int], n: int) -> list[int]:
    """`heuristic_dominating_set` on the maximal cliques of a graph on n
    vertices: the chosen vertices in the order chosen.  The oracle's census
    calls it on the cliques of its sweep's image, with no graph object."""
    best = max((c.bit_count() for c in cliques), default=0)
    covered = 0
    for c in cliques:
        if c.bit_count() == best:
            covered |= c
    # The empty graph's one clique is empty: there is nothing to choose.
    collected = ([c for c in cliques if c & ~covered or c.bit_count() == best]
                 if best else [])

    holds = _memberships(collected, n)
    alive = (1 << len(collected)) - 1  # bit k: collected[k] holds no pick yet
    chosen: list[int] = []
    while alive:
        freq = [(h & alive).bit_count() for h in holds]
        v = freq.index(max(freq))  # ties break to the smallest vertex
        chosen.append(v + 1)
        alive &= ~holds[v]
    return chosen


def _memberships(cliques: list[int], n: int, columns=None) -> list[int]:
    """Clique membership by vertex: bit k of holds[v] is set when
    cliques[k] contains vertex v + 1, for v in `columns` (by default every
    v < n).  The cliques are written as text, one row of n binary digits
    each after a row of zeros (so no column is empty), and each vertex's
    column is read back as one int: no call per bit, and no or into an ever
    wider int, which would be quadratic in the clique count."""
    top = 1 << n  # bin(c | top) is "0b1" and then c in exactly n digits
    text = "".join([bin(top), *[bin(c | top) for c in reversed(cliques)]])
    width = n + 3
    return [int(text[width - 1 - v::width], 2)
            for v in (range(n) if columns is None else columns)]
