"""The graph type: loopless multigraphs with stable integer vertex and edge ids.

Vertices are 0..n-1.  Edges are stored as a tuple of unordered endpoint
pairs; the position of a pair is the edge id, so parallel edges are
individually addressable.  Graphs are immutable after construction and all
queries are pure.  Graph text, in every format, is read and written by
graphio.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence


class Multigraph:
    """A finite undirected loopless multigraph."""

    __slots__ = ("n", "edges", "name", "_adj", "_canon", "_aut",
                 "_boundary_masks", "_edge_bits")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], name: str = ""):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = []
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) has an endpoint outside 0..{n - 1}")
            if a == b:
                raise ValueError(f"loop at vertex {a} is not allowed")
            norm.append((a, b) if a < b else (b, a))
        self.n = n
        self.edges = tuple(norm)
        self.name = name
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (a, b) in enumerate(self.edges):
            adj[a].append((eid, b))
            adj[b].append((eid, a))
        self._adj = tuple(tuple(x) for x in adj)
        self._canon = None
        self._aut = None
        self._boundary_masks = None
        self._edge_bits = None

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def incident(self, u: int) -> tuple[tuple[int, int], ...]:
        """(edge id, other endpoint) pairs at vertex u."""
        self._check_vertex(u)
        return self._adj[u]

    def boundary_masks(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's boundary as an edge mask (bit e for edge e), mapped
        to the vertices that have it, in increasing order; built on first
        use.  Isolated vertices share key 0; a nonzero key is shared in tK2."""
        if self._boundary_masks is None:
            masks = [0] * self.n
            for eid, (a, b) in enumerate(self.edges):
                masks[a] |= 1 << eid
                masks[b] |= 1 << eid
            self._boundary_masks = table = {}
            for v, mask in enumerate(masks):
                table[mask] = table.get(mask, ()) + (v,)
        return self._boundary_masks

    def edge_bits(self) -> dict[int, int]:
        """The mask 1 << e of every edge id e, built on first use.  A dict,
        not a tuple, so looking up any other id raises KeyError: -1 cannot
        wrap round to the last edge."""
        if self._edge_bits is None:
            self._edge_bits = {e: 1 << e for e in range(len(self.edges))}
        return self._edge_bits

    def degree(self, u: int) -> int:
        self._check_vertex(u)
        return len(self._adj[u])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self._adj)

    def is_regular(self, r: int) -> bool:
        return all(len(a) == r for a in self._adj)

    # -- connectivity ------------------------------------------------------

    def _reach(self, s: int, cut: int = 0) -> int:
        """The vertex mask of the vertices reachable from s by walks that use
        no edge in the edge mask cut."""
        reach = 1 << s
        stack = [s]
        while stack:
            for eid, w in self._adj[stack.pop()]:
                bit = 1 << w
                if not reach & bit and not cut >> eid & 1:
                    reach |= bit
                    stack.append(w)
        return reach

    def components(self) -> list[list[int]]:
        """Connected components as sorted vertex lists, ordered by minimum."""
        comps = []
        rest = (1 << self.n) - 1
        while rest:
            comp = self._reach((rest & -rest).bit_length() - 1)
            comps.append([v for v in range(self.n) if comp >> v & 1])
            rest &= ~comp
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or self._reach(0) == (1 << self.n) - 1

    def is_edge_cut(self, X: Iterable[int]) -> bool:
        """True iff removing the edge set X disconnects this connected graph."""
        if not self.is_connected():
            raise ValueError("is_edge_cut requires a connected graph")
        cut = 0
        for eid in X:
            self._check_edge(eid)
            cut |= 1 << eid
        return self.n > 1 and self._reach(0, cut) != (1 << self.n) - 1

    def bridges(self) -> frozenset[int]:
        """All edges whose removal disconnects their component.

        Tarjan lowpoint DFS; a parallel edge is never a bridge because the
        twin copy keeps its endpoints connected.
        """
        disc = [-1] * self.n
        low = [0] * self.n
        out = []
        timer = itertools.count()
        for root in range(self.n):
            if disc[root] != -1:
                continue
            # iterative DFS: (vertex, parent edge id, iterator over incidences)
            stack = [(root, -1, iter(self._adj[root]))]
            disc[root] = low[root] = next(timer)
            while stack:
                v, pe, it = stack[-1]
                advanced = False
                for eid, w in it:
                    if eid == pe:
                        continue
                    if disc[w] == -1:
                        disc[w] = low[w] = next(timer)
                        stack.append((w, eid, iter(self._adj[w])))
                        advanced = True
                        break
                    low[v] = min(low[v], disc[w])
                if not advanced:
                    stack.pop()
                    if stack:
                        u = stack[-1][0]
                        low[u] = min(low[u], low[v])
                        if low[v] > disc[u]:
                            out.append(pe)
        return frozenset(out)

    # -- subgraphs ---------------------------------------------------------

    def induced_subgraph(self, X: Iterable[int]) -> tuple["Multigraph", list[int]]:
        """Vertex-induced subgraph G[X]; also returns old ids in new order."""
        verts = sorted(set(X))
        for v in verts:
            self._check_vertex(v)
        pos = {v: i for i, v in enumerate(verts)}
        edges = [
            (pos[a], pos[b])
            for a, b in self.edges
            if a in pos and b in pos
        ]
        return Multigraph(len(verts), edges), verts

    # -- misc --------------------------------------------------------------

    def relabelled(self, perm: Sequence[int]) -> "Multigraph":
        """Image under vertex permutation perm (old id -> new id)."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a permutation of the vertex ids")
        return Multigraph(self.n, [(perm[a], perm[b]) for a, b in self.edges], self.name)

    def _check_vertex(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise ValueError(f"invalid vertex id {u} for graph on {self.n} vertices")

    def _check_edge(self, e: int) -> None:
        if not (0 <= e < len(self.edges)):
            raise ValueError(f"invalid edge id {e} for graph with {len(self.edges)} edges")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Multigraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Multigraph{label} n={self.n} m={self.m}>"
