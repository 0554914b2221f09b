"""Canonical forms and exact isomorphism for small multigraphs.

The canonical form is computed by iterated equitable refinement of an
ordered vertex partition (colours carry degree and multiplicity
information), followed by a branch over the first non-singleton cell with
re-refinement after each individualisation.  Every discrete partition
reached yields a labelling; the lexicographically least upper-triangle
multiplicity encoding over all of them is the canonical form.

Two leaves with equal encodings define an automorphism, and the search
skips every child in the orbit of an explored child under the recorded
automorphisms that fix the node's individualised vertices (McKay & Piperno,
Practical graph isomorphism II, arXiv:1301.1493).  The same search gives
the exact order of the automorphism group and a generating set, cached on
the graph with the canonical form.  Pruning leaves the form unchanged:
K8, whose unpruned tree has 40,320 leaves, now encodes 29.
naive_canonical_form keeps the unpruned search as the test oracle.

This is exact but exponential in the worst case; intended for graphs up to
roughly 40 vertices, which covers everything this package constructs.
"""

from __future__ import annotations

import struct

from .multigraph import Multigraph


def _refine(mult: list[list[int]], cells: list[list[int]]) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Cells are repeatedly split by the multiset of edge multiplicities into
    every cell; sub-cells are ordered by their signature, which is an
    isomorphism-invariant choice.
    """
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


def _mult_matrix(G: Multigraph) -> list[list[int]]:
    mult = [[0] * G.n for _ in range(G.n)]
    for a, b in G.edges:
        mult[a][b] += 1
        mult[b][a] += 1
    return mult


def _initial_cells(G: Multigraph, mult: list[list[int]]) -> list[list[int]]:
    sig = {}
    for v in range(G.n):
        key = (G.degree(v), tuple(sorted(m for m in mult[v] if m)))
        sig.setdefault(key, []).append(v)
    return [sig[key] for key in sorted(sig)]


def _encode(mult: list[list[int]], order: list[int]) -> bytes:
    """Upper-triangle multiplicity rows of the graph relabelled by order."""
    out = bytearray()
    for i in range(1, len(order)):
        vi = order[i]
        for j in range(i):
            out.append(mult[vi][order[j]])
    return bytes(out)


def _search(G: Multigraph) -> tuple[bytes, int, tuple[tuple[int, ...], ...]]:
    """Least leaf encoding, |Aut(G)| and automorphism generators of G.

    A leaf that encodes equal to the current best defines the automorphism
    best_order[i] -> order[i], which is recorded.  At a branch node a child
    is skipped when it lies in the orbit of an explored child under the
    recorded automorphisms that fix the node's individualised prefix
    pointwise: the initial cells, _refine and the choice of the first
    non-singleton cell are isomorphism-invariant, so such an automorphism
    maps the node's partition to itself and the two subtrees onto each
    other, leaf encodings included.

    The leaves of the unpruned tree that encode equal to the final best are
    exactly one Aut(G)-orbit, on which Aut(G) acts freely, so their count is
    |Aut(G)|.  Each explored child records how many of its leaves equal the
    best as it stood when the child returned; a skipped child adds its orbit
    mate's count when that best is still the best and nothing otherwise, as
    then none of its leaves can equal the best.
    """
    mult = _mult_matrix(G)
    n = G.n
    best: bytes | None = None
    best_order: list[int] = []
    count = 0  # leaves of the unpruned tree seen so far that encode as best
    gens: list[list[int]] = []

    def search(cells: list[list[int]], prefix: list[int]) -> None:
        nonlocal best, best_order, count
        cells = _refine(mult, cells)
        split_at = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if split_at is None:
            order = [c[0] for c in cells]
            enc = _encode(mult, order)
            if best is None or enc < best:
                best, best_order, count = enc, order, 1
            elif enc == best:
                gamma = [0] * n
                for a, b in zip(best_order, order):
                    gamma[a] = b
                gens.append(gamma)
                count += 1
            return
        target = cells[split_at]
        root = list(range(n))  # union-find over target's orbits

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        folded = 0  # generators already folded into root
        explored: list[tuple[int, bytes | None, int]] = []
        for v in target:
            for g in gens[folded:]:
                if all(g[p] == p for p in prefix):
                    for w in target:
                        a, b = find(w), find(g[w])
                        if a != b:
                            root[a] = b
            folded = len(gens)
            rv = find(v)
            mate = next((e for e in explored if find(e[0]) == rv), None)
            if mate is not None:
                if mate[1] == best:
                    count += mate[2]
                continue
            rest = [w for w in target if w != v]
            before, counted = best, count
            search(cells[:split_at] + [[v], rest] + cells[split_at + 1:],
                   prefix + [v])
            # a new best resets count inside this subtree
            mine = count - counted if best == before else count
            explored.append((v, best, mine))

    search(_initial_cells(G, mult), [])
    del search  # it reaches itself through its closure; free it now
    return best, count, tuple(tuple(g) for g in gens)


def _ensure(G: Multigraph) -> None:
    """Compute and cache the canonical form and automorphism group of G."""
    if G._canon is not None:
        return
    header = struct.pack(">II", G.n, G.m)
    if max((G.multiplicity(a, b) for a, b in G.edges), default=0) > 255:
        raise ValueError("edge multiplicities above 255 are not supported")
    best, aut_order, gens = _search(G)
    G._canon, G._aut = header + best, (aut_order, gens)


def canonical_form(G: Multigraph) -> bytes:
    """A total isomorphism invariant: equal iff the graphs are isomorphic.

    The encoding starts with the vertex and edge counts, so graphs of
    different order or size always differ.
    """
    _ensure(G)
    return G._canon


def automorphism_group_order(G: Multigraph) -> int:
    """|Aut(G)|, exact, from the same search as canonical_form."""
    _ensure(G)
    return G._aut[0]


def automorphism_generators(G: Multigraph) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of G, each as a tuple mapping vertex v to g[v], that
    generate Aut(G).  Empty when the group is trivial."""
    _ensure(G)
    return G._aut[1]


def naive_canonical_form(G: Multigraph) -> bytes:
    """canonical_form without automorphism pruning or caching: the least
    encoding over every leaf of the search tree.  Test oracle."""
    header = struct.pack(">II", G.n, G.m)
    mult = _mult_matrix(G)
    best: bytes | None = None
    stack = [_initial_cells(G, mult)]
    while stack:
        cells = _refine(mult, stack.pop())
        split_at = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if split_at is None:
            enc = _encode(mult, [c[0] for c in cells])
            if best is None or enc < best:
                best = enc
            continue
        target = cells[split_at]
        for v in target:
            rest = [w for w in target if w != v]
            stack.append(cells[:split_at] + [[v], rest] + cells[split_at + 1:])
    return header + best


def is_isomorphic(G1: Multigraph, G2: Multigraph) -> bool:
    if G1.n != G2.n or G1.m != G2.m:
        return False
    if sorted(G1.degrees()) != sorted(G2.degrees()):
        return False
    return canonical_form(G1) == canonical_form(G2)


def canonical_digest(G: Multigraph) -> str:
    """Short hex digest of the canonical form, for certificates and reports."""
    import hashlib

    return hashlib.sha256(canonical_form(G)).hexdigest()[:16]
