"""Matching structure underpinning the main non-existence argument.

The Petersen graph has exactly six perfect matchings, any two of which
share an edge, and its matchings that are edge cuts are exactly the
perfect ones.  A 4-regular multigraph with a perfect matching but no two
disjoint ones exists on ten vertices, and S12+1M cannot colour it.

Run:  python demos/03_matchings_and_witness.py
"""

from hcolour import (
    enumerate_matchings,
    has_two_disjoint_perfect_matchings,
    perfect_matchings,
    solve,
)
from hcolour.named import petersen, poorly_matchable_ten_vertices, s12_plus_km

P = petersen().graph
pms = [frozenset(M) for M in perfect_matchings(P)]
print("perfect matchings of P:", len(pms))
print("pairwise intersections:",
      sorted(len(a & b) for i, a in enumerate(pms) for b in pms[i + 1:]))

cuts = [M for M in enumerate_matchings(P) if M and P.is_edge_cut(M)]
print("matching edge-cuts of P:", len(cuts), "(all perfect:",
      all(2 * len(c) == P.n for c in cuts), ")")

W = poorly_matchable_ten_vertices().graph
print(f"\n{W.name}: 4-regular={W.is_regular(4)}")
print("has a perfect matching:",
      next(perfect_matchings(W), None) is not None)
print("two disjoint perfect matchings:",
      has_two_disjoint_perfect_matchings(W))

host = s12_plus_km(1).graph
print("S12+1M has two disjoint perfect matchings:",
      has_two_disjoint_perfect_matchings(host) is not None)
print("solve(S12+1M, witness):", solve(host, W).status)
