"""Canonical forms and exact isomorphism for small multigraphs.

The canonical form is computed by iterated equitable refinement of an
ordered vertex partition (colours carry degree and multiplicity
information), followed by a branch over the first non-singleton cell with
re-refinement after each individualisation.  Every discrete partition
reached yields a labelling; the lexicographically least upper-triangle
multiplicity encoding over all of them is the canonical form.

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


def canonical_form(G: Multigraph) -> bytes:
    """A total isomorphism invariant: equal iff the graphs are isomorphic.

    The encoding starts with the vertex and edge counts, so graphs of
    different order or size always differ.
    """
    if G._canon is not None:
        return G._canon
    header = struct.pack(">II", G.n, G.m)
    if G.n == 0:
        G._canon = header
        return G._canon
    if max((G.multiplicity(a, b) for a, b in G.edges), default=0) > 255:
        raise ValueError("edge multiplicities above 255 are not supported")

    mult = _mult_matrix(G)
    best: bytes | None = None

    def search(cells: list[list[int]]) -> None:
        nonlocal best
        cells = _refine(mult, cells)
        split_at = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if split_at is None:
            order = [c[0] for c in cells]
            enc = _encode(mult, order)
            if best is None or enc < best:
                best = enc
            return
        target = cells[split_at]
        for v in target:
            rest = [w for w in target if w != v]
            branch = cells[:split_at] + [[v], rest] + cells[split_at + 1:]
            search(branch)

    search(_initial_cells(G, mult))
    del search  # it reaches itself through its closure; free it now
    assert best is not None
    G._canon = header + best
    return G._canon


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
