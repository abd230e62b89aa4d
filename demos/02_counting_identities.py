"""Evaluate the counting formulas and cross-check them against the
exhaustive oracle over S_n.

Run:  python3 demos/02_counting_identities.py
"""
from permdom import (
    disconnected_count,
    efficient_dom_count,
    f1,
    full_tally,
    g1,
    pair_count_adjacent,
    pair_count_nonadjacent,
    singleton_dom_count,
)
from permdom.oracle import c_table


def pair_count(n, u, v):
    """Permutation graphs on n vertices dominated by {u, v}."""
    return pair_count_nonadjacent(n, u, v) + pair_count_adjacent(n, u, v)


print("g(n,1): graphs on n vertices with a dominating vertex")
print("  n:      ", *range(9), sep="\t")
print("  formula:", *(g1(n) for n in range(9)), sep="\t")

print("\nf(n,1,t) row for n = 5 (graphs with exactly t dominating vertices)")
print("  t:      ", *range(6), sep="\t")
print("  formula:", *(f1(5, t) for t in range(6)), sep="\t")

report = full_tally(6)
print("\noracle tally over all 720 permutations of [6]:")
print(f"  gamma histogram g(6,k): {report.g}")
print(f"  connected counts c(6,k): {report.c}")
print(f"  f(6,1,t) matches the recursion: "
      f"{all(f1(6, t) == report.f1.get(t, 0) for t in range(7))}")

print("\nsingleton rule: {k} dominates in (n-k)!(k-1)! graphs")
for k in (1, 3, 6):
    print(f"  n=6, k={k}: {singleton_dom_count(6, k)}")

u, v, n = 2, 5, 7
print(f"\npair {{{u},{v}}} dominating counts at n={n}:")
print(f"  nonadjacent: {pair_count_nonadjacent(n, u, v)}")
print(f"  adjacent:    {pair_count_adjacent(n, u, v)}")
print(f"  total:       {pair_count(n, u, v)}")

print("\nefficient domination (closed neighborhoods partition the vertices):")
for a in ([1, 4], [1, 4, 7], [2, 4, 6]):
    print(f"  n=7, A={a}: {efficient_dom_count(7, a)}")

table = c_table(5)
print("\ndisconnected counts from connected ones, d(6,k):")
print("  ", {k: disconnected_count(6, k, table) for k in (2, 3, 4, 5, 6)})
print(f"  oracle agrees: {report.d}")
