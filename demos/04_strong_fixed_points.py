"""Strong fixed points, their duality with singleton dominators, and the
exact-rational polynomial families behind the diagonal counts.

Run:  python3 demos/04_strong_fixed_points.py
"""
from permdom import (
    build_graph,
    count_singleton_dominators,
    lift_families,
    parse_permutation,
    reverse,
    sequence_table,
    st,
    st_closed_form,
    strong_fixed_points,
)

p = parse_permutation("2,1,3,4,6,5,7")
print(f"permutation: {p}")
print(f"strong fixed points: {sorted(strong_fixed_points(p))}")
print("reversing turns them into dominating vertices:")
r = reverse(p)
print(f"  reverse: {r}, singleton dominators in its graph: "
      f"{count_singleton_dominators(build_graph(r))}")

print("\nthe St(n, k) triangle (permutations of [n] with k strong "
      "fixed points):")
triangle, column = sequence_table(7)
for n, row in enumerate(triangle):
    print(f"  n={n}: {row}   (at least one: {column[n]})")

print("\ndiagonal closed forms, checked against the recursion:")
for rr in (2, 3, 4, 5):
    sample = [(k, st_closed_form(rr, k)) for k in (0, 1, 5, 10)]
    assert all(v == st(k + rr, k) for k, v in sample)
    print(f"  St(k+{rr}, k) at k=0,1,5,10: {[v for _, v in sample]}")

print("\nlifting each diagonal to an exact-rational polynomial in k:")
for rr, fam in lift_families(7).items():
    coeffs = ", ".join(str(c) for c in fam.polynomial.coefficients)
    print(f"  offset {rr}: St(k+{rr}, k) = poly with coefficients "
          f"[{coeffs}] (constant term St({rr},0) = {fam.k0_value})")
