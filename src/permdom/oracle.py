"""Exhaustive ground truth over S_n.

Everything the counting formulas predict is re-derived here by enumerating
all n! permutations and measuring each graph directly, by one engine.
N[v] depends only on the set placed before v, so a permutation splits into
a head, an ordering of its first n // 2 values P, and a tail, an ordering
of the other values placed after P, and each half's closed neighborhoods,
splits, strong fixed points and singleton dominators follow from that half
alone.  `_orderings` builds the halves by a subset DP over value sets:
the heads of a set extend the heads of each set one smaller, and the tails
of a set extend the tails of each set one smaller, so every ordering of a
smaller set is built once and shared by every first-half set that
contains it, at O(1) per ordering and placed value, mapped in C.

The halves also sieve the 2^n vertex subsets: each carries a 2^n-bit mask
whose bit t is set while the subset order[t] meets every closed
neighborhood placed so far, and ands in one precomputed mask per placed
value.  `order` lists the subsets by size, largest first, so the and of a
head's and a tail's masks holds exactly the dominating sets of their
permutation and its highest bit is a smallest one: gamma is
card[dom.bit_length() - 1].  Every subset is tested and none is skipped,
which makes the sieve exhaustive ground truth; the pruned search in
`domination`, which `analyze` needs beyond the oracle's orders, is its
differential oracle.

`_sides` is the one loop over the first-half sets: it yields each set's
heads and tails once, as columns of keys and masks, and `_halves` adds
each ordering's image and rows for the leaf pass and the census.  Counts
need no leaf: they meet in the middle.  `_tally` groups each half's sieve
masks by their key, which packs the split, strong and singleton facts,
and makes one call per pair of groups, so the and, the bit length and the
count of every head-tail pair run in C; and `_census_counts` gets the
singleton, pair and efficient dominators from column counts of each
side's masks, a product per subset.  `sweep` visits every head-tail pair
as a leaf, in lexicographic order, for what only a leaf gives, and
returns the sides it built, so a census pairs one list in all three ways.
Its visitors are the census's hand heuristic, which runs with the quick
rules on the leaf's image with no graph object, and carries the clique
listing's state from leaf to leaf, since consecutive leaves share all but
their last few values; the listings `connected_gamma_permutations` and
`iter_permutations`; and `verify`'s invariant suite, which rebuilds each
graph to check the sweep.

Parallel runs split a census and a tally alike, by strides of the
first-half sets; the parts merge by addition, so any worker count produces
the identical result.
"""
from __future__ import annotations

import os
from collections import Counter, defaultdict
from functools import lru_cache, reduce
from itertools import combinations, permutations, product, starmap
from operator import add, and_, itemgetter, or_

from ._record import Record
from .domination import (
    _heuristic_cover,
    _maximal_cliques,
    _memberships,
    _position_ends,
    _value_ends,
)
from .errors import OrderCapExceeded
# build_graph stays bound here: the benchmark's tracer wraps it by this name.
from .graph import build_graph  # noqa: F401
from .perm import Permutation

HARD_CAP = 11
# Tallies below this order run in process whatever the job count.  CLI wall
# times of `oracle tally --n N`, --jobs 1 against a pool of 2 (2 cores,
# CPython 3.11.7, 6 interleaved rounds, 8 at n = 11): n = 8, 0.08-0.12
# against 0.11-0.18 s; 9, 0.12-0.21 against 0.14-0.21 s; 10, 0.53-0.95
# against 0.35-0.53 s; 11, 5.4-6.5 against 2.9-3.4 s.  A census pools from
# its cap, S_8, where its heuristic outweighs the pool.
POOL_MIN_ORDER = 10
# A census runs the hand heuristic, which caps its order.  It counts pair and
# efficient dominators up to DETAIL_MAX_N only, the range `verify` reads.
CENSUS_CAP = 8
DETAIL_MAX_N = 7
# A half's facts in one int, strong fixed points + _SINGLE * singleton
# dominators + _SPLIT * splits, so that a leaf's key is the sum of its
# halves' and the leaf is connected when it is below _SPLIT.  A field holds
# at most HARD_CAP < 16.
_SINGLE, _SPLIT = 16, 256


class TallyReport(Record):
    """Exact tallies over all of S_n: histograms of gamma (`g`), of gamma
    over the connected (`c`) and the disconnected (`d`) graphs, of singleton
    dominators (`f1`) and of strong fixed points (`st`)."""

    __slots__ = ("n", "g", "c", "d", "f1", "st")

    @classmethod
    def from_counts(cls, n: int, counts: Counter) -> TallyReport:
        """The histograms of a `_tally` counter over all of S_n."""
        hist = {key: Counter() for key in ("g", "c", "d", "f1", "st")}
        for (gamma, connected, singles, strong), count in counts.items():
            hist["g"][gamma] += count
            hist["c" if connected else "d"][gamma] += count
            hist["f1"][singles] += count
            hist["st"][strong] += count
        return cls(n=n, **{key: dict(sorted(h.items())) for key, h in hist.items()})


def _add_fields(a, b):
    """Field-by-field sum of two records of one class."""
    return type(a)(*(getattr(a, name) + getattr(b, name) for name in a._fields))


class HeuristicQuality(Record):
    __slots__ = ("total", "excluded", "optimal")

    __add__ = _add_fields

    @property
    def rate(self) -> float:
        considered = self.total - self.excluded
        return self.optimal / considered if considered else 1.0


class Census(Record):
    """Every fact `verify` reads about a set of permutations of [n]: counts
    from pairing halves, and the heuristic's figures from one sweep.
    Censuses of disjoint sets add with `+`.

    tally: `_tally`'s key -> count
    singletons: k -> count of graphs that {k} dominates
    pairs: (u, v, adjacent) -> count of graphs {u, v} dominates
    efficient: vertex subset bitmask -> count it dominates efficiently
    """

    __slots__ = ("tally", "singletons", "pairs", "efficient", "heuristic")

    __add__ = _add_fields


def _check_cap(n: int, cap: int) -> None:
    if not 1 <= n <= cap:
        raise OrderCapExceeded(f"n = {n} outside the enumeration cap [1, {cap}]")


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """(meet, card, order) for the sieve over the vertex subsets of [n].

    Bit t of a 2^n-bit sieve mask stands for the subset order[t]: the
    subsets by size, largest first, ties in binary order.  meet[S] has bit
    t set when order[t] meets S, and card[t] = |order[t]|.  So the smallest
    subset in a nonzero mask is its highest bit.

    With `low` the lowest member of S, meet[S] = meet[S ^ low] |
    contains[low], contains[i] being the mask of the subsets that hold
    element i: the subsets' memberships, read as `_memberships` reads the
    cliques', one text column per element; O(2^n) big-int operations in
    all.  Built on first use, never at import.

    >>> _subset_tables(2)
    ((0, 3, 5, 7), (2, 1, 1, 0), (3, 1, 2, 0))
    """
    order = sorted(range(1 << n), key=int.bit_count, reverse=True)  # stable
    card = [s.bit_count() for s in order]
    contains = _memberships(order, n)
    meet = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        meet[s] = meet[s ^ low] | contains[low.bit_length() - 1]
    return tuple(meet), tuple(card), tuple(order)


@lru_cache(maxsize=None)
def _meet_once_table(n: int) -> tuple[int, ...]:
    """once[S] has bit T set when the vertex subset T meets S in exactly
    one member.  With `low` the lowest member of S, T meets S once when it
    meets S ^ low once and misses low, or holds low and misses S ^ low;
    meet[low] is the mask of the subsets that hold low."""
    meet = _subset_tables(n)[0]
    once = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        once[s] = once[rest] & ~meet[low] | meet[low] & ~meet[rest]
    return tuple(once)


def _gamma(dom: int, card: tuple[int, ...]) -> int:
    """The size of the smallest subset in the nonzero sieve mask `dom`, its
    highest bit: the domination number when `dom` comes from a sweep leaf,
    which always holds the full vertex set."""
    return card[dom.bit_length() - 1]


def _first_sets(n: int) -> list[int]:
    """Every set of n // 2 values of [n], as a bitmask, in `combinations`
    order: the sets P of first values that split S_n into its head-tail
    pairs.  A pool takes strides of this list."""
    return [sum(1 << v for v in c) for c in combinations(range(n), n // 2)]


def _orderings(n: int, values: int, memo: dict, last: bool) -> tuple[list[int], list[int]]:
    """(keys, masks) of the orderings of the value set `values`: heads,
    placed first, or with `last`, tails, placed after all the other values.

    When v is placed after the set B, N[v] is already final: smaller values
    are neighbors exactly when they come later, larger ones exactly when
    they came earlier, so N[v] = B ^ ((1 << v) - 1).  {v} dominates when
    that row is full; with d = |B|, the graph splits after v when B | v is
    {1..d+1} and d + 1 < n, and v is a strong fixed point when B is {1..d}
    and v = d + 1.  The mask keeps the subsets that meet the row, mask &
    meet[N[v]].

    A subset DP (Held and Karp, J. SIAM 10, 1962) over the sets one
    smaller, for each v in `values`, lowest first: a head of S is a head of
    S - {v} followed by v, with B = S - {v}; a tail of R is v followed by a
    tail of R - {v}, with B the complement of R whatever came before.  So
    heads come in `permutations` order read right to left (the i-th is
    permutations(members)[i] reversed), and tails in lexicographic order.
    Row, key and mask depend on B and v alone, so each ordering costs one
    addition and one and, mapped in C.  `memo` maps every smaller set of
    the same side to its orderings, so each is built once and shared by
    every set that contains it; `values` itself is not stored."""
    if not values:
        return [0], [(1 << (1 << n)) - 1]
    meet, full = _subset_tables(n)[0], (1 << n) - 1
    keys, masks = [], []
    rest = values
    while rest:
        bit = rest & -rest
        rest ^= bit
        smaller = values ^ bit
        if smaller not in memo:
            memo[smaller] = _orderings(n, smaller, memo, last)
        smaller_keys, smaller_masks = memo[smaller]
        before = full ^ values if last else smaller
        row = before ^ ((bit << 1) - 1)
        d = before.bit_count()
        low = (1 << d) - 1
        key = (_SPLIT * (before | bit == low << 1 | 1 and d + 1 < n)
               + _SINGLE * (row == full) + (before == low and bit == low + 1))
        keys += map(key.__add__, smaller_keys) if key else smaller_keys
        masks += map(meet[row].__and__, smaller_masks)
    return keys, masks


def _sides(n: int, part):
    """(first, heads, tails) for each set `first` in `_first_sets(n)[part]`,
    in order: the columns (keys, masks) of `_orderings`' heads of the set
    and tails of the other values.  Both memos last as long as the loop, so
    each ordering of a smaller set is built once per part, and the loop
    streams its top-level sets one at a time."""
    full = (1 << n) - 1
    head_memo, tail_memo = {}, {}
    for first in _first_sets(n)[part]:
        yield (first, _orderings(n, first, head_memo, False),
               _orderings(n, full ^ first, tail_memo, True))


def _with_rows(n: int, side: tuple, images: list, prefix: int) -> tuple:
    """The columns of `side` with two more: `images`, its orderings' one-line
    notation, and their rows, each a list of n holding N[v] = P ^ ((1 << v)
    - 1) at the ordering's own values v (P placed before v) and 0
    elsewhere, the first value being placed after `prefix`."""
    all_rows = []
    for image in images:
        rows = [0] * n
        placed = prefix
        for v in image:
            rows[v - 1] = placed ^ ((1 << v) - 1)
            placed |= 1 << (v - 1)
        all_rows.append(rows)
    return (*side, images, all_rows)


def _halves(n: int, part):
    """`_sides(n, part)` with two more columns on each side: the
    orderings' one-line notation, which follows `_orderings`' orders, and
    their rows.  The tally needs neither, and skips them."""
    for first, heads, tails in _sides(n, part):
        members = [v for v in range(1, n + 1) if first >> (v - 1) & 1]
        others = [v for v in range(1, n + 1) if not first >> (v - 1) & 1]
        yield (first, _with_rows(n, heads, [p[::-1] for p in permutations(members)], 0),
               _with_rows(n, tails, list(permutations(others)), first))


def sweep(n: int, visit, part=slice(None)) -> list[tuple]:
    """Call `visit(image, rows, connected, strong, singles, dom)` once for
    every permutation of [n] whose first n // 2 values form a set in
    `_first_sets(n)[part]` (by default, every permutation), in
    lexicographic order.

    The arguments are the one-line notation as a tuple, the closed
    neighborhoods (rows[v-1] = N[v] as a bitmask, in a list of the call's
    own), whether the graph is connected, the number of strong fixed
    points, the number of singleton dominators, and the dominating sets as
    a 2^n-bit mask: bit t is set when the vertex subset order[t] of
    `_subset_tables(n)` dominates (vertex v is bit v-1 of a subset), and
    its highest set bit is a smallest dominating set.

    A leaf's rows are its head's and its tail's rows together, its sieve
    mask is the and of theirs, and its key is the sum of theirs.  The heads
    of every set are sorted together, each followed by its set's tails.
    The sweep returns the sides it paired, (first, heads, tails) with the
    columns of `_halves`.
    """
    if n:
        _check_cap(n, HARD_CAP)  # the sieve tables hold 2^n masks of 2^n bits
    sides = list(_halves(n, part))
    heads = []
    for _, side, tails in sides:
        tails = list(zip(*tails))
        heads += [(*head, tails) for head in zip(*side)]
    heads.sort(key=itemgetter(2))
    for key, mask, image, rows, tails in heads:
        for tail_key, tail_mask, tail, tail_rows in tails:
            facts = key + tail_key
            visit(image + tail, list(map(or_, rows, tail_rows)), facts < _SPLIT,
                  facts % _SINGLE, facts // _SINGLE % _SINGLE, mask & tail_mask)
    return sides


def iter_permutations(n: int) -> list[Permutation]:
    """Permutations of [n] in lexicographic order, as a list of Permutation
    values."""
    out = []
    sweep(n, lambda image, *_: out.append(Permutation(image)))
    return out


def _by_key(side) -> dict[int, list[int]]:
    """The masks of a side's columns, grouped by key."""
    groups = defaultdict(list)
    for key, mask in zip(side[0], side[1]):
        groups[key].append(mask)
    return groups


def _tally(n: int, sides) -> Counter:
    """(gamma, connected, singleton dominators, strong fixed points) ->
    number of permutations, over the head-tail pairs of `sides`: a meet in
    the middle (Horowitz and Sahni, J. ACM 21, 1974), where each head pairs
    with each tail of its set and each pair is a leaf.

    Heads and tails are grouped by their keys.  A pair's key is the sum of
    its groups', so one call per pair of groups counts the bit lengths of
    all their masks' ands, in C."""
    tops = defaultdict(Counter)  # a leaf's key -> bit lengths
    for _, heads, tails in sides:
        tails = _by_key(tails)
        for key, head_masks in _by_key(heads).items():
            for tail_key, tail_masks in tails.items():
                # A leaf's mask is the and of its halves'.
                tops[key + tail_key].update(map(int.bit_length,
                                                starmap(and_, product(head_masks, tail_masks))))
    card = _subset_tables(n)[1]
    counts = Counter()
    for key, lengths in tops.items():
        facts = key < _SPLIT, key // _SINGLE % _SINGLE, key % _SINGLE
        for top, count in lengths.items():
            counts[(card[top - 1], *facts)] += count
    return counts


def _tally_chunk(args) -> Counter:
    """`_tally` over the permutations whose first n // 2 values form a set
    in `_first_sets(n)[part]`, for (n, part), on `_sides`' bare columns."""
    n, part = args
    return _tally(n, _sides(n, part))


def _census_counts(n: int, sides) -> tuple[Counter, Counter, Counter]:
    """`Census`' singletons, pairs and efficient over the head-tail pairs
    of `sides`, `sweep`'s sides with the columns of `_halves`, with no
    leaf visited; pairs and efficient sets for n <= DETAIL_MAX_N only.

    Over a first-half set P, a subset s dominates a leaf exactly when it is
    in both its head's and its tail's sieve masks, so it dominates
    H[s]·T[s] of P's leaves, H[s] and T[s] counting the heads and the tails
    whose masks hold s.  A pair u < v is adjacent exactly when v comes
    first: the head decides when both lie in P, the tail when neither does,
    and when they straddle P it is adjacent exactly when v is in P.  So
    adjacent = Hi·T + H·Ti + [v in P, u not in P]·H·T, Hi and Ti counting
    the halves whose masks hold s and that invert the pair.  A set
    dominates efficiently when it also meets every closed neighborhood
    once: each half's mask is anded with once[N[v]] over its own rows,
    giving He and Te, and the count is He[s]·Te[s].  Each count is a column
    of the halves' masks, transposed by `_memberships` into one int over the
    halves, so no mask is walked bit by bit."""
    order = _subset_tables(n)[2]
    rank = {s: t for t, s in enumerate(order)}
    detail = n <= DETAIL_MAX_N
    once = _meet_once_table(n) if detail else ()
    pair_list = list(combinations(range(1, n + 1), 2)) if detail else []
    pair_bit = {(u, v): 1 << rank[1 << (u - 1) | 1 << (v - 1)] for u, v in pair_list}
    # The sieve bits of the singletons, then of the pairs in pair_list order.
    columns = [rank[1 << k] for k in range(n)]
    columns += [bit.bit_length() - 1 for bit in pair_bit.values()]
    singletons, pairs, efficient = Counter(), Counter(), Counter()

    def counts(halves):
        """H and Hi over `columns`, and the efficient masks, of one side."""
        _, masks, images, rows = halves
        inverted = [mask & sum(pair_bit[b, a] for a, b in combinations(image, 2) if a > b)
                    for image, mask in zip(images, masks)] if detail else []
        hits = [reduce(and_, map(once.__getitem__, filter(None, own)), mask)
                for own, mask in zip(rows, masks)] if detail else []
        return ([c.bit_count() for c in _memberships(masks, 1 << n, columns)],
                [c.bit_count() for c in _memberships(inverted, 1 << n, columns)], hits)

    for first, heads, tails in sides:
        h, hi, he = counts(heads)
        t, ti, te = counts(tails)
        for k in range(n):
            if h[k] * t[k]:
                singletons[k + 1] += h[k] * t[k]
        for j, (u, v) in enumerate(pair_list, start=n):
            both = h[j] * t[j]
            straddle = first >> (v - 1) & 1 and not first >> (u - 1) & 1
            adjacent = hi[j] * t[j] + h[j] * ti[j] + (both if straddle else 0)
            for key, count in ((0, both - adjacent), (1, adjacent)):
                if count:
                    pairs[u, v, key] += count
        # Only the sets that some head and some tail hold efficiently.
        common = reduce(or_, he, 0) & reduce(or_, te, 0)
        bits = [k for k in range(common.bit_length()) if common >> k & 1]
        for b, x, y in zip(bits, _memberships(he, 1 << n, bits),
                           _memberships(te, 1 << n, bits)):
            efficient[order[b]] += x.bit_count() * y.bit_count()
    return singletons, pairs, efficient


def _census_chunk(args) -> Census:
    """The census of the permutations `sweep(n, visit, part)` visits, for
    (n, part).  Its counts read the sides the sweep returns; only the hand
    heuristic needs a leaf: it runs on the leaf's image, with no graph
    object, and its output is checked to dominate: the or of its chosen
    rows must be full.  Its clique listing keeps one memo for the chunk and
    resumes at the first position where a leaf differs from the one before.
    `optimal` counts where it has minimum size, among the permutations no
    end-pattern quick rule matches."""
    n, part = args
    card = _subset_tables(n)[1]
    full = (1 << n) - 1
    excluded = optimal = 0
    memo = ([], [])  # the clique listing's state at the last leaf

    def visit(image, rows, connected, strong, singles, dom):
        nonlocal excluded, optimal
        chosen = _heuristic_cover(_maximal_cliques(image, memo), n)
        cover = 0
        for v in chosen:
            cover |= rows[v - 1]
        if cover != full:
            raise AssertionError("the heuristic's set does not dominate "
                                 f"[{','.join(map(str, image))}]")
        if _value_ends(image) or _position_ends(image):
            excluded += 1
        elif len(chosen) == _gamma(dom, card):
            optimal += 1

    sides = sweep(n, visit, part)
    tally = _tally(n, sides)
    quality = HeuristicQuality(sum(tally.values()), excluded, optimal)
    return Census(tally, *_census_counts(n, sides), quality)


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


def _merged(chunk, n: int, jobs: int, min_order: int):
    """`chunk` over all of S_n: `chunk((n, slice(None)))` in process for one
    worker or below `min_order`, else over each of 16 strides of the
    first-half sets, merged by addition.  A slow worker leaves work to others."""
    workers = _worker_count(jobs) if n >= min_order else 1
    if workers == 1:
        return chunk((n, slice(None)))
    with _process_pool(workers) as pool:
        return reduce(add, pool.map(chunk, [(n, slice(i, None, 16)) for i in range(16)]))


def full_tally(n: int, jobs: int = 1) -> TallyReport:
    """Tally gamma, connectivity, singleton dominators, and strong fixed
    points over all of S_n."""
    _check_cap(n, HARD_CAP)
    return TallyReport.from_counts(n, _merged(_tally_chunk, n, jobs, POOL_MIN_ORDER))


def census(n: int, jobs: int = 1) -> Census:
    """The census of all of S_n."""
    _check_cap(n, CENSUS_CAP)
    return _merged(_census_chunk, n, jobs, min(POOL_MIN_ORDER, CENSUS_CAP))


def c_table(max_n: int, tally=full_tally) -> dict[tuple[int, int], int]:
    """Connected counts {(n, k): c(n, k)} for all n <= max_n, from full
    tallies; `tally(n)` supplies the report for each n."""
    return {(n, k): count for n in range(1, max_n + 1)
            for k, count in tally(n).c.items()}


def singleton_domination_tally(n: int) -> dict[int, int]:
    """For each k, the number of permutations whose graph has {k} as a
    dominating set."""
    return dict(sorted(census(n).singletons.items()))


def connected_gamma_permutations(n: int, k: int):
    """All permutations of [n] with a connected graph of domination number
    k, in lexicographic order."""
    found = []

    def visit(image, rows, connected, strong, singles, dom):
        # The tables are read after the sweep has checked the order.
        if connected and _gamma(dom, _subset_tables(n)[1]) == k:
            found.append(Permutation(image))

    sweep(n, visit)
    return found


def heuristic_quality(n: int) -> HeuristicQuality:
    """The hand heuristic over all of S_n, as `_census_chunk` runs it."""
    return census(n).heuristic
