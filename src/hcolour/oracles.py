"""Slow, plainly correct oracles for the fast paths.

Each restates a definition over G.n, G.m and G.edges and reads nothing
else of a Multigraph: no incidence list, boundary table or cache, which the
fast paths and check_colouring build and read, so a fault in those cannot
pass both a fast path and its oracle.  From the package this module imports
only Multigraph, Colouring and ColouringReport (tests/test_source.py holds
it to both rules); check_colouring imports it inside the function.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .colouring import Colouring, ColouringReport
from .multigraph import Multigraph


def _incidences(G: Multigraph) -> list[list[int]]:
    """The edge ids at each vertex, in increasing order."""
    inc: list[list[int]] = [[] for _ in range(G.n)]
    for e, (a, b) in enumerate(G.edges):
        inc[a].append(e)
        inc[b].append(e)
    return inc


def naive_check_colouring(c: Colouring) -> ColouringReport:
    """check_colouring written out from the definition: the full report.

    Properness: every edge at a guest vertex whose colour an earlier edge
    there has is reported as (the first such earlier edge, the edge), by
    vertex and then edge id.  Vertex condition: the guest vertices whose
    set of image ids is the edge set at no host vertex; an id outside
    0..host.m-1 lies in none of them.
    """
    f = c.edge_map
    boundaries = {frozenset(edges) for edges in _incidences(c.host)}
    proper = []
    vertex = []
    for u, edges in enumerate(_incidences(c.guest)):
        first: dict[int, int] = {}  # colour -> the first edge at u with it
        for e in edges:
            if f[e] in first:
                proper.append((first[f[e]], e))
            else:
                first[f[e]] = e
        if frozenset(first) not in boundaries:
            vertex.append(u)
    return ColouringReport(
        ok=not proper and not vertex,
        properness_violations=tuple(proper),
        vertex_violations=tuple(vertex),
    )


def naive_solve_all(host: Multigraph, guest: Multigraph) -> list[Colouring]:
    """Every H-colouring of guest by host: all |E(H)|^|E(G)| maps, filtered
    by naive_check_colouring.  Only for tiny instances; it cross-validates
    the backtracking solver."""
    maps = (Colouring(host, guest, f)
            for f in itertools.product(range(host.m), repeat=guest.m))
    return [c for c in maps if naive_check_colouring(c).ok]


def image_subgraph(c: Colouring) -> tuple[Multigraph, list[int], list[int]]:
    """(H_f, host vertex ids kept, host edge ids kept): H_f is the used host
    edges and the host vertices they meet, and both id lists increase.
    Raises ValueError for an invalid colouring."""
    if not naive_check_colouring(c).ok:
        raise ValueError("invalid colouring")
    eids = sorted(c.image_edges())
    verts = sorted({v for e in eids for v in c.host.edges[e]})
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[a], pos[b]) for a, b in (c.host.edges[e] for e in eids)]
    return Multigraph(len(verts), edges), verts, eids


# -- canonical form --------------------------------------------------------

def _dense_refine(mult: list[list[int]], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement by its definition: each vertex's signature is a
    tuple over every cell of its sorted nonzero multiplicities into that
    cell, sub-cells ordered by signature, until no cell splits."""
    while True:
        changed = False
        new_cells: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig = {}
            for v in cell:
                key = tuple(
                    tuple(sorted(mult[v][w] for w in other if mult[v][w]))
                    for other in cells
                )
                sig.setdefault(key, []).append(v)
            if len(sig) > 1:
                changed = True
            for key in sorted(sig):
                new_cells.append(sig[key])
        cells = new_cells
        if not changed:
            return cells


def naive_canonical_form(G: Multigraph) -> bytes:
    """canonical_form without automorphism pruning or caching: from cells
    by degree and sorted neighbour multiplicities, the vertex and edge
    counts and the least upper-triangle multiplicity encoding over every
    leaf of the individualisation-refinement tree."""
    n = G.n
    mult = [[0] * n for _ in range(n)]
    for a, b in G.edges:
        mult[a][b] += 1
        mult[b][a] += 1
    sig: dict[tuple, list[int]] = {}
    for v, row in enumerate(mult):
        ks = sorted(k for k in row if k)
        sig.setdefault((sum(ks), tuple(ks)), []).append(v)
    best: bytes | None = None
    stack = [[sig[key] for key in sorted(sig)]]
    while stack:
        cells = _dense_refine(mult, stack.pop())
        split_at = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if split_at is None:
            order = [c[0] for c in cells]
            enc = bytes(mult[order[i]][u] for i in range(1, n) for u in order[:i])
            if best is None or enc < best:
                best = enc
            continue
        target = cells[split_at]
        for v in target:
            rest = [w for w in target if w != v]
            stack.append(cells[:split_at] + [[v], rest] + cells[split_at + 1:])
    return n.to_bytes(4, "big") + G.m.to_bytes(4, "big") + best


# -- matchings and regular subgraphs ---------------------------------------

def is_matching(G: Multigraph, F) -> bool:
    """True iff no two edges of F share an endpoint."""
    ends = [v for e in F for v in G.edges[e]]
    return len(set(ends)) == len(ends)


def perfect_matchings(G: Multigraph) -> Iterator[frozenset[int]]:
    """Every perfect matching of G as a set of edge ids: the sets of n/2
    edge ids that form a matching, which in a loopless graph cover all n
    vertices, in lexicographic order."""
    if G.n % 2 == 0:
        for F in itertools.combinations(range(G.m), G.n // 2):
            if is_matching(G, F):
                yield frozenset(F)


def pairwise_intersecting_perfect_matchings(G: Multigraph) -> bool:
    """True iff no two perfect matchings of G are edge-disjoint, by
    comparing every pair."""
    pms = list(perfect_matchings(G))
    return all(p & q for i, p in enumerate(pms) for q in pms[i + 1:])


def spanning_regular_check(G: Multigraph, F, k: int) -> bool:
    """True iff every vertex touched by F has exactly k incident F-edges."""
    count = [0] * G.n
    for e in F:
        a, b = G.edges[e]
        count[a] += 1
        count[b] += 1
    return all(c in (0, k) for c in count)
