"""Exhaustive ground truth over S_n.

Everything the counting formulas predict is re-derived here by enumerating
all n! permutations and measuring each graph directly.  One engine,
`sweep`, does the enumerating: a depth-first search over prefixes in
lexicographic order that updates each permutation's closed neighborhoods,
connectivity, strong fixed points and singleton dominators in O(1) per
placed value, instead of building every graph from scratch.  Every S_n loop
in this module and in `verify` runs on it.

The sweep also sieves the 2^n vertex subsets: it carries a 2^n-bit mask
whose bit T is set while subset T meets every closed neighborhood placed so
far, and ands in one precomputed mask per placed value.  At a leaf the mask
holds exactly the dominating sets, so gamma is the size of its smallest
member.  Every subset is tested and none is skipped, which makes the sieve
exhaustive ground truth; the pruned search in `domination`, which
`analyze` needs beyond the oracle's orders, is its differential oracle.

A sweep can be restricted to the permutations that begin with given
values.  Parallel tallies sweep one subtree per ordered pair of leading
values; the subtrees' tallies merge by addition, so any worker count
produces the identical report.
"""
from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

from .counting import CountTable, _check_pair
from .domination import (
    heuristic_dominating_set,
    is_dominating,
    quick_rule_position_ends,
    quick_rule_value_ends,
)
from .errors import OrderCapExceeded, VertexOutOfRange
# build_graph stays bound here: the benchmark's tracer wraps it by this name.
from .graph import PermutationGraph, build_graph  # noqa: F401
from .perm import Permutation

DEFAULT_CAP = 9
HARD_CAP = 11
# Orders below this sweep in process whatever the job count: S_7 takes
# about 35 ms there, against about 60 ms to open a pool and send it the 42
# chunks (2 cores).  From S_8 on the pool wins.
POOL_MIN_ORDER = 8


@dataclass
class TallyReport:
    """Exact tallies over all of S_n."""

    n: int
    g: dict[int, int] = field(default_factory=dict)   # gamma -> count
    c: dict[int, int] = field(default_factory=dict)   # connected only
    d: dict[int, int] = field(default_factory=dict)   # disconnected only
    f1: dict[int, int] = field(default_factory=dict)  # singleton dominators
    st: dict[int, int] = field(default_factory=dict)  # strong fixed points
    elapsed: float = 0.0


def _check_cap(n: int, cap: int) -> None:
    if not 1 <= n <= cap:
        raise OrderCapExceeded(f"n = {n} outside the enumeration cap [1, {cap}]")


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(meet, size) for the sieve over the vertex subsets of [n], subset T
    being bit T of a 2^n-bit mask: meet[S] has bit T set when T meets S,
    and size[k] when T has k members.

    Each table takes O(2^n) big-int operations.  With `low` the lowest
    member of S, meet[S] = meet[S ^ low] | contains[low], where
    contains[i] is periodic: the subsets holding element i are the blocks
    [2^i, 2^(i+1)) modulo 2^(i+1).  Subsets of [i+1] that hold element i
    are those of [i] shifted up by 2^i, so size grows by
    size[k] | size[k-1] << 2^i.  Built on first use, never at import.
    """
    every = (1 << (1 << n)) - 1
    contains = []
    for i in range(n):
        block = 1 << i
        repeat = every // ((1 << 2 * block) - 1)  # one bit every 2^(i+1)
        contains.append(repeat * (((1 << block) - 1) << block))
    meet = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        meet[s] = meet[s ^ low] | contains[low.bit_length() - 1]
    size = [1]  # subsets of [0]: the empty set, index 0
    for i in range(n):
        shift = 1 << i
        size = ([size[0]]
                + [size[k] | size[k - 1] << shift for k in range(1, i + 1)]
                + [size[i] << shift])
    return tuple(meet), tuple(size)


@lru_cache(maxsize=None)
def _meet_once_table(n: int) -> tuple[int, ...]:
    """once[S] has bit T set when the vertex subset T meets S in exactly
    one member.  With `low` the lowest member of S, T meets S once when it
    meets S ^ low once and misses low, or holds low and misses S ^ low;
    meet[low] is the mask of the subsets that hold low."""
    meet, _ = _subset_tables(n)
    once = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        once[s] = once[rest] & ~meet[low] | meet[low] & ~meet[rest]
    return tuple(once)


def _gamma(dom: int, size: tuple[int, ...]) -> int:
    """The size of the smallest subset in the sieve mask `dom`: the
    domination number when `dom` comes from a sweep leaf."""
    for k, mask in enumerate(size):
        if dom & mask:
            return k
    raise AssertionError("every graph is dominated by its full vertex set")


def sweep(n: int, lead=()):
    """Every permutation of [n] that begins with the values in `lead`, in
    lexicographic order, with the facts the oracle tallies.

    Yields (image, rows, connected, strong, singles, dom): the one-line
    notation, the closed neighborhoods (rows[v-1] = N[v] as a bitmask),
    whether the graph is connected, the number of strong fixed points, the
    number of singleton dominators, and the dominating sets as a 2^n-bit
    mask (bit T is set when the vertex subset T dominates; vertex v is bit
    v-1 of T).  A lead that repeats a value or names one above n yields
    nothing.

    Values are placed one position at a time.  When v is placed after the
    prefix set P, N[v] is already final: smaller values are neighbors
    exactly when they come later, larger ones exactly when they came
    earlier, so N[v] = P ^ ((1 << v) - 1).  {v} dominates when that row is
    full; the graph is disconnected when some proper prefix is {1..k}; and
    position k holds a strong fixed point when v == k and the prefix before
    it is {1..k-1}.  Since the row is final, the sieve mask is cut to the
    subsets that meet it, dom &= meet[N[v]], and after the last value it
    holds the subsets that meet every closed neighborhood.
    """
    if n == 0:
        yield (), (), True, 0, 0, 1  # the empty set dominates the empty graph
        return
    _check_cap(n, HARD_CAP)  # the sieve tables hold 2^n masks of 2^n bits
    meet, _ = _subset_tables(n)
    full = (1 << n) - 1
    image = [0] * n
    rows = [0] * n

    def place(d, prefix, disconnected, strong, singles, dom):
        low = (1 << d) - 1
        split = (low << 1) | 1
        free = full ^ prefix
        if d < len(lead):
            free &= 1 << (lead[d] - 1)
        while free:
            bit = free & -free
            free ^= bit
            v = bit.bit_length()
            row = prefix ^ ((bit << 1) - 1)
            image[d] = v
            rows[v - 1] = row
            strong_now = strong + (prefix == low and bit == low + 1)
            singles_now = singles + (row == full)
            dom_now = dom & meet[row]
            if d + 1 == n:
                yield (tuple(image), tuple(rows), not disconnected,
                       strong_now, singles_now, dom_now)
            else:
                yield from place(d + 1, prefix | bit,
                                 disconnected or prefix | bit == split,
                                 strong_now, singles_now, dom_now)

    every = (1 << (1 << n)) - 1  # all 2^n subsets, before any row is placed
    yield from place(0, 0, False, 0, 0, every)


def iter_permutations(n: int):
    """Permutations of [n] in lexicographic order, as Permutation values."""
    return (Permutation(image) for image, *_ in sweep(n))


def _tally_chunk(args) -> Counter:
    """(gamma, connected, singleton dominators, strong fixed points) ->
    number of permutations, over the ones that begin with `lead`."""
    n, lead = args
    _, size = _subset_tables(n)
    return Counter(
        (_gamma(dom, size), connected, singles, strong)
        for _, _, connected, strong, singles, dom in sweep(n, lead)
    )


def _worker_count(jobs: int) -> int:
    """Worker processes for a requested job count: at least 1 and at most
    the number of CPUs."""
    return max(1, min(jobs, os.cpu_count() or 1))


def _process_pool(workers: int):
    """A pool of `workers` processes.  The process machinery is imported on
    first use: it adds about 2 MB and 20 ms to every start-up, and a
    single-job run never needs it."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def full_tally(n: int, jobs: int = 1, cap: int = DEFAULT_CAP) -> TallyReport:
    """Tally gamma, connectivity, singleton dominators, and strong fixed
    points over all of S_n."""
    _check_cap(n, min(cap, HARD_CAP))
    started = time.perf_counter()
    workers = _worker_count(jobs) if n >= POOL_MIN_ORDER else 1
    if workers == 1:
        merged = _tally_chunk((n, ()))
    else:
        # One chunk per ordered pair of leading values (72 at n = 9): many
        # more chunks than workers, so uneven gamma-search costs share out.
        leads = permutations(range(1, n + 1), min(2, n))
        merged = Counter()
        with _process_pool(workers) as pool:
            for part in pool.map(_tally_chunk, [(n, lead) for lead in leads]):
                merged.update(part)
    hist = {key: Counter() for key in ("g", "c", "d", "f1", "st")}
    for (gamma, connected, singles, strong), count in merged.items():
        hist["g"][gamma] += count
        hist["c" if connected else "d"][gamma] += count
        hist["f1"][singles] += count
        hist["st"][strong] += count
    return TallyReport(
        n=n,
        **{key: dict(sorted(h.items())) for key, h in hist.items()},
        elapsed=time.perf_counter() - started,
    )


def c_table(max_n: int, tally=full_tally) -> CountTable:
    """Connected counts c(n, k) for all n <= max_n, from full tallies;
    `tally(n)` supplies the report for each n."""
    table = CountTable(kind="c")
    for n in range(1, max_n + 1):
        report = tally(n)
        for k, count in report.c.items():
            table.entries[(n, k)] = count
        if not report.c:  # keep the row visible even if empty
            table.entries[(n, 0)] = 0
    return table


def pair_tallies(n: int, pairs) -> dict:
    """(u, v) -> (nonadjacent, adjacent) counts of permutations whose graph
    is dominated by {u, v}, for every pair in `pairs`, in one sweep."""
    _check_cap(n, DEFAULT_CAP)
    pairs = [tuple(pair) for pair in pairs]
    for u, v in pairs:
        _check_pair(n, u, v)
    full = (1 << n) - 1
    counts = {pair: [0, 0] for pair in pairs}
    for _, rows, *_ in sweep(n):
        for (u, v), slot in counts.items():
            row = rows[u - 1]
            if row | rows[v - 1] == full:
                slot[row >> (v - 1) & 1] += 1  # [nonadjacent, adjacent]
    return {pair: tuple(slot) for pair, slot in counts.items()}


def efficient_tallies(n: int, sets) -> dict:
    """Vertex tuple -> number of permutations whose graph is efficiently
    dominated by it (closed neighborhoods partition the vertices), for every
    tuple in `sets`, in one sweep.

    A vertex set dominates efficiently exactly when every closed
    neighborhood meets it in one vertex, so each permutation's efficient
    sets are the and of `_meet_once_table` over its rows: a sieve of all
    2^n subsets, which costs n big-int ands whatever the number of tuples.
    A tuple that repeats a vertex is never efficient."""
    _check_cap(n, DEFAULT_CAP)
    sets = [tuple(a) for a in sets]
    for a in sets:
        for v in a:
            if not 1 <= v <= n:
                raise VertexOutOfRange(f"vertex {v} not in [1, {n}]")
    counts = dict.fromkeys(sets, 0)
    by_subset: dict[int, list] = {}  # vertex subset -> the tuples listing it
    for a in counts:
        subset = 0
        for v in a:
            subset |= 1 << (v - 1)
        if subset.bit_count() == len(a):
            by_subset.setdefault(subset, []).append(a)
    wanted = sum(1 << subset for subset in by_subset)
    once = _meet_once_table(n)
    for _, rows, *_ in sweep(n):
        hits = wanted
        for row in rows:
            hits &= once[row]
        while hits:
            bit = hits & -hits
            hits ^= bit
            for a in by_subset[bit.bit_length() - 1]:
                counts[a] += 1
    return counts


def singleton_domination_tally(n: int) -> dict[int, int]:
    """For each k, the number of permutations whose graph has {k} as a
    dominating set."""
    _check_cap(n, DEFAULT_CAP)
    full = (1 << n) - 1
    counts = Counter()
    for _, rows, _, _, singles, _ in sweep(n):
        if singles:
            counts.update(k for k, row in enumerate(rows, start=1) if row == full)
    return dict(sorted(counts.items()))


def connected_gamma_permutations(n: int, k: int):
    """All permutations of [n] with a connected graph of domination number
    k, in lexicographic order."""
    _check_cap(n, DEFAULT_CAP)
    _, size = _subset_tables(n)
    return [
        Permutation(image)
        for image, _, connected, _, _, dom in sweep(n)
        if connected and _gamma(dom, size) == k
    ]


@dataclass(frozen=True)
class HeuristicQuality:
    total: int
    excluded: int
    optimal: int

    @property
    def rate(self) -> float:
        considered = self.total - self.excluded
        return self.optimal / considered if considered else 1.0


def heuristic_quality(n: int) -> HeuristicQuality:
    """Run the hand heuristic over all of S_n.

    Each graph is built from the sweep's closed neighborhoods.  Permutations
    matched by either end-pattern quick rule are excluded;
    `optimal` counts the remaining ones where the heuristic set has minimum
    size.  Every heuristic output is also asserted to dominate.
    """
    _check_cap(n, 8)
    _, size = _subset_tables(n)
    total = excluded = optimal = 0
    for image, rows, *_, dom in sweep(n):
        total += 1
        p = Permutation(image)
        open_rows = tuple(row ^ (1 << i) for i, row in enumerate(rows))
        g = PermutationGraph(n, open_rows, p)
        result = heuristic_dominating_set(g)
        assert is_dominating(g, result.witness)
        if quick_rule_value_ends(p) or quick_rule_position_ends(p):
            excluded += 1
            continue
        if result.gamma == _gamma(dom, size):
            optimal += 1
    return HeuristicQuality(total=total, excluded=excluded, optimal=optimal)
