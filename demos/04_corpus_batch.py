"""Batch-check the bundled corpus of bridgeless cubic graphs.

Every connected bridgeless cubic simple graph on at most 14 vertices is
both S4-colourable and Petersen-colourable.  The corpus lives in data/ as
graph6; results stream as one JSON object per entry.  Every host here has
a vertex of degree 3, so a 3-edge-colourable entry is coloured through it
and only the other entries reach the solver.

Run:  python demos/04_corpus_batch.py
"""

from pathlib import Path

from hcolour import run_corpus
from hcolour.named import petersen, s4

corpus = Path(__file__).resolve().parent.parent / "data" / "cubic_bridgeless_le14.g6"

for lab in (s4(), petersen()):
    checks = run_corpus(str(corpus), lab.graph, lab.name)
    solved = [c for c in checks if "status" in c.details]
    sat = sum(1 for c in solved if c.details["status"] == "sat")
    print(f"{lab.name}: {sat}/{len(solved)} SAT over the corpus")
    # a 3-edge-colouring composed with a host vertex of degree 3, or the solver
    for route in ("edge-colouring", "solver"):
        routed = [c for c in solved if c.details["route"] == route]
        nodes = sum(c.nodes for c in routed)
        print(f"  {route}: {len(routed)} entries, {nodes} search nodes")
    worst = max(solved, key=lambda c: c.nodes)
    print(f"  hardest entry: {worst.name} with {worst.nodes} nodes "
          f"(n={worst.details['n']}, route {worst.details['route']})")
