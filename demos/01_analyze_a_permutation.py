"""Walk through the basic objects: one permutation, its graph, and the
exact domination solver.

Run:  python3 demos/01_analyze_a_permutation.py
"""
from permdom import (
    all_minimum_dominating_sets,
    build_graph,
    components,
    domination_number_exact,
    heuristic_dominating_set,
    is_connected,
    parse_permutation,
)
from permdom.graph import vertices_of


def classify_neighbors(g, d):
    """Private neighbors (vertex -> the one member of d that dominates it)
    and shared neighbors (dominated by two or more members of d)."""
    private_of, shared = {}, []
    for v in range(1, g.n + 1):
        meet = vertices_of(g.closed_row(v)) & frozenset(d)
        if len(meet) == 1:
            private_of[v] = next(iter(meet))
        elif meet:
            shared.append(v)
    return private_of, shared


p = parse_permutation("4,6,1,3,7,2,5")
g = build_graph(p)

print(f"permutation: {p}")
print(f"edges (inverted pairs): {sorted(g.edges())}")
print(f"degrees: {list(g.degrees())}")
print(f"connected: {is_connected(g)}")

result = domination_number_exact(g)
print(f"\ndomination number: {result.gamma}")
print(f"canonical witness: {sorted(result.witness)}")
print(f"all minimum dominating sets: "
      f"{[sorted(d) for d in all_minimum_dominating_sets(g)]}")

private_of, shared = classify_neighbors(g, result.witness)
print(f"private neighbors: {dict(sorted(private_of.items()))}")
print(f"shared neighbors: {shared}")

h = heuristic_dominating_set(g)
print(f"\nclique heuristic found a set of size {h.gamma}: {sorted(h.witness)}")

q = parse_permutation("2,1,3,5,4,7,6")
print(f"\na disconnected example, {q}:")
for offset, block in components(build_graph(q)):
    print(f"  component on values {offset + 1}..{offset + block.n}, "
          f"relabeled: {block}")
