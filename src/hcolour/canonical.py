"""Canonical forms and exact isomorphism for small multigraphs.

The canonical form is computed by iterated equitable refinement of an
ordered vertex partition (colours carry degree and multiplicity
information), followed by a branch over the first non-singleton cell with
re-refinement after each individualisation.  A refinement round keys only
the cells next to the last round's splits (after an individualisation,
next to the individualised vertex), each vertex by one pass over its
neighbour list, where a dense signature over every cell costs
O(n · cells); the sparse signature orders as the dense one does (see
_refine), so the partitions are the same.  Every discrete partition
reached yields a labelling; the lexicographically least upper-triangle
multiplicity encoding over all of them is the canonical form.

Two leaves with equal encodings define an automorphism, and the search
skips every child in the orbit of an explored child under the recorded
automorphisms that fix the node's individualised vertices (McKay & Piperno,
Practical graph isomorphism II, arXiv:1301.1493).  The same search gives
the exact order of the automorphism group and a generating set, cached on
the graph with the canonical form.  Pruning leaves the form unchanged:
K8, whose unpruned tree has 40,320 leaves, now encodes 29.
oracles.naive_canonical_form keeps the unpruned search, refined by the
dense signature, as the test oracle.

This is exact but exponential in the worst case; intended for graphs up to
roughly 40 vertices, which covers everything this package constructs.
"""

from __future__ import annotations

import struct
from collections import Counter

from .multigraph import Multigraph


def _refine(nbrs: list[list[tuple[int, int]]], cells: list[list[int]],
            splitters: list[int] | None = None) -> list[list[int]]:
    """Equitable refinement of an ordered partition.

    Cells are repeatedly split by the multiset of edge multiplicities into
    every cell; sub-cells are ordered by their signature, which is an
    isomorphism-invariant choice.  Each cell is labelled by its start, the
    number of vertices in the cells before it, so a split relabels only
    the vertices of its own sub-cells.  A round reads the neighbour lists
    (nbrs[v], the pairs (w, multiplicity of vw)) of the vertices it keys,
    once each: O(m log m) at most, where a dense signature over every cell
    costs O(n · cells).

    The signature of v is sparse: a pair (-s, k) per neighbour w, where s
    is the start of w's cell and k the multiplicity of vw, sorted by s and
    then k.  Starts order cells as their positions do, and the signature
    orders exactly as the dense tuple over every cell of sorted
    multiplicities, () where v has no neighbour, that oracles._dense_refine
    builds.  Where two dense tuples first differ, at cell c, the sparse
    keys agree up to their pairs in cell c.  If both have pairs there, the
    first that differ compare as the dense entries' multiplicities do; if
    one key runs out of cell c first (its dense entry is a prefix of the
    other, or ()), its next pair holds a later cell, with a smaller -s, or
    the key ends; either way it sorts below, as the shorter dense entry
    does.  So every split and sub-cell order is the dense one.

    A round keys only the cells with a neighbour in a splitter: a sub-cell
    made by the last round's splits, bar one largest sub-cell of each
    split cell.  Every other cell has one signature, so the dense round
    leaves it whole too: its vertices had equal signatures against the
    partition before those splits, and their counts into the largest
    sub-cell are those into the old cell less those into its splitters.
    Splitters (cell indices) passed for the first round assert the same of
    cells: they came from an equitable partition by splitting some of its
    cells, and splitters lists the new sub-cells bar one largest of each
    split cell.  None keys every cell.
    """
    start_of = [0] * len(nbrs)  # the start of each vertex's cell
    at: dict[int, list[int]] = {}  # start -> cell
    starts = []
    s = 0
    for cell in cells:
        at[s] = cell
        starts.append(s)
        for v in cell:
            start_of[v] = s
        s += len(cell)
    fresh = None if splitters is None else [starts[c] for c in splitters]
    while True:
        if fresh is None:
            keyed = list(at)
        else:
            keyed = {start_of[w] for s in fresh for u in at[s] for w, _ in nbrs[u]}
        splits = []  # applied after the round, whose keys read the old starts
        for s in keyed:
            cell = at[s]
            if len(cell) == 1:
                continue
            sig = {}
            for v in cell:
                pairs = sorted([(start_of[w], k) for w, k in nbrs[v]])
                sig.setdefault(tuple([(-d, k) for d, k in pairs]), []).append(v)
            if len(sig) > 1:
                splits.append((s, [sig[key] for key in sorted(sig)]))
        if not splits:
            return [at[s] for s in sorted(at)]
        fresh = []
        for s, parts in splits:
            largest = max(parts, key=len)
            for part in parts:
                at[s] = part
                if part is not largest:
                    fresh.append(s)
                for v in part:
                    start_of[v] = s
                s += len(part)


def _mult_matrix(G: Multigraph) -> list[list[int]]:
    mult = [[0] * G.n for _ in range(G.n)]
    for a, b in G.edges:
        mult[a][b] += 1
        mult[b][a] += 1
    return mult


def _neighbours(G: Multigraph) -> list[list[tuple[int, int]]]:
    """(w, multiplicity of vw) for each distinct neighbour w of each v."""
    out = []
    for inc in G._adj:
        count: dict[int, int] = {}
        for _, w in inc:
            count[w] = count.get(w, 0) + 1
        out.append(list(count.items()))
    return out


def _initial_cells(nbrs: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Vertices grouped by degree and sorted neighbour multiplicities."""
    sig = {}
    for v, row in enumerate(nbrs):
        ks = sorted(k for _, k in row)
        sig.setdefault((sum(ks), tuple(ks)), []).append(v)
    return [sig[key] for key in sorted(sig)]


def _encode(mult: list[list[int]], order: list[int]) -> bytes:
    """Upper-triangle multiplicity rows of the graph relabelled by order."""
    out = bytearray()
    for i in range(1, len(order)):
        row = mult[order[i]]
        out += bytes([row[u] for u in order[:i]])
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
    nbrs = _neighbours(G)
    n = G.n
    best: bytes | None = None
    best_order: list[int] = []
    count = 0  # leaves of the unpruned tree seen so far that encode as best
    gens: list[list[int]] = []

    def search(cells: list[list[int]], prefix: list[int],
               splitters: list[int] | None = None) -> None:
        nonlocal best, best_order, count
        cells = _refine(nbrs, cells, splitters)
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
            # cells is equitable and rest is at least as large as [v]
            search(cells[:split_at] + [[v], rest] + cells[split_at + 1:],
                   prefix + [v], [split_at])
            # a new best resets count inside this subtree
            mine = count - counted if best == before else count
            explored.append((v, best, mine))

    search(_initial_cells(nbrs), [])
    del search  # it reaches itself through its closure; free it now
    return best, count, tuple(tuple(g) for g in gens)


# the largest edge multiplicity the canonical form encodes, in one byte
MAX_MULTIPLICITY = 255


def check_multiplicity(G: Multigraph) -> None:
    """Raise ValueError if G has more than MAX_MULTIPLICITY parallel edges."""
    # edges are stored as (min, max), so parallel edges are equal pairs
    if max(Counter(G.edges).values(), default=0) > MAX_MULTIPLICITY:
        raise ValueError(
            f"edge multiplicities above {MAX_MULTIPLICITY} are not supported")


def _ensure(G: Multigraph) -> None:
    """Compute and cache the canonical form and automorphism group of G."""
    if G._canon is not None:
        return
    header = struct.pack(">II", G.n, G.m)
    check_multiplicity(G)
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
