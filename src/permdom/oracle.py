"""Exhaustive ground truth over S_n.

Everything the counting formulas predict is re-derived here by enumerating
all n! permutations and measuring each graph directly.  One engine,
`sweep`, does the enumerating: a depth-first search over prefixes in
lexicographic order that updates each permutation's closed neighborhoods,
connectivity, strong fixed points and singleton dominators in O(1) per
placed value, instead of building every graph from scratch.  Every S_n loop
in this module and in `verify` runs on it.

A sweep can be restricted to a range [start, stop) of lexicographic ranks;
subtrees wholly outside the range are skipped by their size.  Parallel
tallies split the rank space into contiguous chunks whose tallies merge by
addition, so any worker count produces the identical report.
"""
from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import factorial

from .counting import CountTable
from .domination import (
    _minimum_cover,
    domination_number_exact,
    heuristic_dominating_set,
    is_dominating,
    quick_rule_position_ends,
    quick_rule_value_ends,
)
from .errors import OrderCapExceeded, VertexOutOfRange
from .graph import build_graph
from .perm import Permutation

DEFAULT_CAP = 9
HARD_CAP = 11


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


def rank_permutation(n: int, rank: int) -> Permutation:
    """The permutation at a given lexicographic rank (0-based)."""
    values = list(range(1, n + 1))
    image = []
    for i in range(n, 0, -1):
        q, rank = divmod(rank, factorial(i - 1))
        image.append(values.pop(q))
    return Permutation(tuple(image))


def sweep(n: int, start: int = 0, stop: int | None = None):
    """Every permutation of [n] with lexicographic rank in [start, stop), in
    rank order, with the facts the oracle tallies.

    Yields (image, rows, connected, strong, singles): the one-line notation,
    the closed neighborhoods (rows[v-1] = N[v] as a bitmask), whether the
    graph is connected, the number of strong fixed points and the number of
    singleton dominators.

    Values are placed one position at a time.  When v is placed after the
    prefix set P, N[v] is already final: smaller values are neighbors
    exactly when they come later, larger ones exactly when they came
    earlier, so N[v] = P ^ ((1 << v) - 1).  {v} dominates when that row is
    full; the graph is disconnected when some proper prefix is {1..k}; and
    position k holds a strong fixed point when v == k and the prefix before
    it is {1..k-1}.
    """
    total = factorial(n)
    stop = total if stop is None else min(stop, total)
    if n == 0:
        if start < stop:
            yield (), (), True, 0, 0
        return
    full = (1 << n) - 1
    image = [0] * n
    rows = [0] * n

    def place(d, prefix, base, disconnected, strong, singles):
        # base is the rank of the first permutation below this prefix.
        size = factorial(n - 1 - d)
        low = (1 << d) - 1
        split = (low << 1) | 1
        free = full ^ prefix
        while free and base < stop:
            bit = free & -free
            free ^= bit
            if base + size <= start:
                base += size
                continue
            v = bit.bit_length()
            row = prefix ^ ((bit << 1) - 1)
            image[d] = v
            rows[v - 1] = row
            strong_now = strong + (prefix == low and bit == low + 1)
            singles_now = singles + (row == full)
            if d + 1 == n:
                yield (tuple(image), tuple(rows), not disconnected,
                       strong_now, singles_now)
            else:
                yield from place(d + 1, prefix | bit, base,
                                 disconnected or prefix | bit == split,
                                 strong_now, singles_now)
            base += size

    yield from place(0, 0, 0, False, 0, 0)


def iter_permutations(n: int, start: int = 0, stop: int | None = None):
    """Permutations of [n] in lexicographic order, as Permutation values."""
    return (Permutation(image) for image, *_ in sweep(n, start, stop))


def _tally_chunk(args) -> Counter:
    """(gamma, connected, singleton dominators, strong fixed points) ->
    number of permutations, over one rank range."""
    n, start, stop = args
    full = (1 << n) - 1
    return Counter(
        (len(_minimum_cover(rows, full)), connected, singles, strong)
        for _, rows, connected, strong, singles in sweep(n, start, stop)
    )


def _worker_count(jobs: int) -> int:
    """Worker processes for a requested job count: at least 1 and at most
    the number of CPUs."""
    return max(1, min(jobs, os.cpu_count() or 1))


def full_tally(n: int, jobs: int = 1, cap: int = DEFAULT_CAP) -> TallyReport:
    """Tally gamma, connectivity, singleton dominators, and strong fixed
    points over all of S_n."""
    _check_cap(n, min(cap, HARD_CAP))
    started = time.perf_counter()
    total = factorial(n)
    workers = _worker_count(jobs)
    if workers == 1:
        merged = _tally_chunk((n, 0, total))
    else:
        step = -(-total // workers)
        chunks = [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]
        merged = Counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_tally_chunk, chunks):
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


def pair_tallies(n: int, pairs, cap: int = DEFAULT_CAP) -> dict:
    """(u, v) -> (nonadjacent, adjacent) counts of permutations whose graph
    is dominated by {u, v}, for every pair in `pairs`, in one sweep."""
    _check_cap(n, min(cap, HARD_CAP))
    pairs = [tuple(pair) for pair in pairs]
    for u, v in pairs:
        if not 1 <= u < v <= n:
            raise OrderCapExceeded(f"need 1 <= u < v <= n, got u={u}, v={v}, n={n}")
    full = (1 << n) - 1
    counts = {pair: [0, 0] for pair in pairs}
    for _, rows, *_ in sweep(n):
        for (u, v), slot in counts.items():
            row = rows[u - 1]
            if row | rows[v - 1] == full:
                slot[row >> (v - 1) & 1] += 1  # [nonadjacent, adjacent]
    return {pair: tuple(slot) for pair, slot in counts.items()}


def pair_tally(n: int, u: int, v: int, cap: int = DEFAULT_CAP) -> tuple[int, int]:
    """(nonadjacent, adjacent) counts of permutations whose graph is
    dominated by {u, v}."""
    return pair_tallies(n, [(u, v)], cap)[u, v]


def efficient_tallies(n: int, sets, cap: int = DEFAULT_CAP) -> dict:
    """Vertex tuple -> number of permutations whose graph is efficiently
    dominated by it (closed neighborhoods partition the vertices), for every
    tuple in `sets`, in one sweep."""
    _check_cap(n, min(cap, HARD_CAP))
    sets = [tuple(a) for a in sets]
    for a in sets:
        for v in a:
            if not 1 <= v <= n:
                raise VertexOutOfRange(f"vertex {v} not in [1, {n}]")
    full = (1 << n) - 1
    counts = dict.fromkeys(sets, 0)
    for _, rows, *_ in sweep(n):
        for a in counts:
            cover = 0
            for v in a:
                row = rows[v - 1]
                if cover & row:
                    break
                cover |= row
            else:
                if cover == full:
                    counts[a] += 1
    return counts


def efficient_tally(n: int, a, cap: int = DEFAULT_CAP) -> int:
    """Permutations whose graph is efficiently dominated by the vertex
    list a."""
    members = tuple(a)
    return efficient_tallies(n, [members], cap)[members]


def singleton_domination_tally(n: int, cap: int = DEFAULT_CAP) -> dict[int, int]:
    """For each k, the number of permutations whose graph has {k} as a
    dominating set."""
    _check_cap(n, min(cap, HARD_CAP))
    full = (1 << n) - 1
    counts = Counter()
    for _, rows, _, _, singles in sweep(n):
        if singles:
            counts.update(k for k, row in enumerate(rows, start=1) if row == full)
    return dict(sorted(counts.items()))


def connected_gamma_permutations(n: int, k: int, cap: int = DEFAULT_CAP):
    """All permutations of [n] with a connected graph of domination number
    k, in lexicographic order."""
    _check_cap(n, min(cap, HARD_CAP))
    full = (1 << n) - 1
    return [
        Permutation(image)
        for image, rows, connected, _, _ in sweep(n)
        if connected and len(_minimum_cover(rows, full)) == k
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


def heuristic_quality(n: int, cap: int = 8) -> HeuristicQuality:
    """Run the hand heuristic over all of S_n.

    Permutations matched by either end-pattern quick rule are excluded;
    `optimal` counts the remaining ones where the heuristic set has minimum
    size.  Every heuristic output is also asserted to dominate.
    """
    _check_cap(n, min(cap, HARD_CAP))
    total = excluded = optimal = 0
    for p in iter_permutations(n):
        total += 1
        g = build_graph(p)
        result = heuristic_dominating_set(g)
        assert is_dominating(g, result.witness)
        if quick_rule_value_ends(p) or quick_rule_position_ends(p):
            excluded += 1
            continue
        if result.gamma == domination_number_exact(g).gamma:
            optimal += 1
    return HeuristicQuality(total=total, excluded=excluded, optimal=optimal)
