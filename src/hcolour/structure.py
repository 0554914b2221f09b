"""Matchings, perfect matchings and exact edge colouring."""

from __future__ import annotations

from typing import Iterator, Optional

from .multigraph import Multigraph

CHROMATIC_INDEX_EDGE_GUARD = 64
# The node_limit of every budgeted search.  It bounds search-tree nodes, the
# root and the leaves included, a subtree the solver skips counting in full.
# A search ran out iff it reports nodes > node_limit, and then node_limit + 1.
DEFAULT_NODE_BUDGET = 10**8


def _check_node_limit(node_limit: int) -> None:
    """Raise ValueError unless node_limit is a non-negative integer (a bool
    is not one), so a bad budget is rejected before any search starts."""
    if not isinstance(node_limit, int) or isinstance(node_limit, bool):
        raise ValueError(f"node_limit must be an integer, got {node_limit!r}")
    if node_limit < 0:
        raise ValueError(f"node_limit must be non-negative, got {node_limit}")


def enumerate_matchings(G: Multigraph) -> Iterator[frozenset[int]]:
    """All matchings, the empty one included, each exactly once as a set of
    edge ids.

    Deterministic include/exclude recursion over edge ids: a matching with
    edge i comes before the same choice without it.
    """
    yield from _matchings_from(tuple(1 << a | 1 << b for a, b in G.edges), 0, (), 0)


def _matchings_from(
    ends: tuple[int, ...], i: int, chosen: tuple[int, ...], covered: int
) -> Iterator[frozenset[int]]:
    """The matchings that extend chosen by edges i.. ; ends[e] is the vertex
    mask of edge e's endpoints and covered the vertex mask of chosen's."""
    if i == len(ends):
        yield frozenset(chosen)
        return
    if not covered & ends[i]:
        yield from _matchings_from(ends, i + 1, chosen + (i,), covered | ends[i])
    yield from _matchings_from(ends, i + 1, chosen, covered)


def perfect_matchings(G: Multigraph) -> Iterator[frozenset[int]]:
    """All perfect matchings, matching the lowest uncovered vertex first."""
    if G.n % 2 == 0:
        yield from _perfect_matchings_from(G, (1 << G.n) - 1, ())


def _perfect_matchings_from(
    G: Multigraph, free: int, chosen: tuple[int, ...]
) -> Iterator[frozenset[int]]:
    """The perfect matchings that extend chosen; free is the vertex mask of
    the vertices chosen leaves uncovered."""
    if not free:
        yield frozenset(chosen)
        return
    low = free & -free
    free ^= low
    for eid, w in G.incident(low.bit_length() - 1):
        if free >> w & 1:
            yield from _perfect_matchings_from(G, free ^ 1 << w, chosen + (eid,))


def has_perfect_matching(G: Multigraph) -> bool:
    return next(perfect_matchings(G), None) is not None


# -- perfect matchings on pair masks ---------------------------------------
#
# The support of a multigraph on n vertices is held as one vertex mask per
# vertex (adj[u] has bit w iff u and w are adjacent); a set of vertex pairs
# is a pair mask with bit u * n + w for the pair u < w.  Two edge-disjoint
# perfect matchings exist iff the support has perfect matchings A and B
# (A == B allowed) whose shared pairs all have multiplicity >= 2.

def support_masks(n: int, edges) -> tuple[list[int], int]:
    """(adj, double): the support's vertex masks and the pair mask of the
    pairs joined by at least two edges.  Edges are (a, b) with a < b."""
    adj = [0] * n
    seen = double = 0
    for a, b in edges:
        bit = 1 << (a * n + b)
        if seen & bit:
            double |= bit
        else:
            seen |= bit
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj, double


def support_connected(adj: list[int]) -> bool:
    """True iff the graph with vertex masks adj is connected (breadth first)."""
    if not adj:
        return True
    reach = frontier = 1
    while frontier:
        grown = reach
        while frontier:
            low = frontier & -frontier
            grown |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~reach
        reach = grown
    return reach == (1 << len(adj)) - 1


def support_perfect_matchings(n: int, adj: list[int]) -> list[int]:
    """All perfect matchings of the support as pair masks, matching the
    lowest uncovered vertex first, its partners in increasing order."""
    out: list[int] = []
    if n % 2 == 0:
        _collect_pair_masks(adj, n, (1 << n) - 1, 0, out)
    return out


def _collect_pair_masks(adj: list[int], n: int, free: int, chosen: int, out: list[int]) -> None:
    if not free:
        out.append(chosen)
        return
    low = free & -free
    u = low.bit_length() - 1
    free ^= low
    cand = adj[u] & free
    while cand:
        w = cand & -cand
        _collect_pair_masks(adj, n, free ^ w, chosen | 1 << (u * n + w.bit_length() - 1), out)
        cand ^= w


def disjoint_pair(pms: list[int], double: int) -> Optional[tuple[int, int]]:
    """The first (A, B), B not before A in pms, with A & B inside double."""
    single = ~double
    for i, a in enumerate(pms):
        a_single = a & single
        for j in range(i, len(pms)):
            if not a_single & pms[j]:
                return a, pms[j]
    return None


def has_two_disjoint_perfect_matchings(
    G: Multigraph,
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """A pair of edge-disjoint perfect matchings, or None if there is none.

    Decided on the support's pair masks (disjoint_pair); each pair of the
    result takes the lowest edge id between its endpoints in the first
    matching and the lowest one the first matching left in the second.
    """
    adj, double = support_masks(G.n, G.edges)
    found = disjoint_pair(support_perfect_matchings(G.n, adj), double)
    if found is None:
        return None
    ids: dict[int, list[int]] = {}
    for eid, (a, b) in enumerate(G.edges):
        ids.setdefault(a * G.n + b, []).append(eid)
    first = frozenset(ids[p][0] for p in bits(found[0]))
    second = frozenset(
        next(e for e in ids[p] if e not in first) for p in bits(found[1])
    )
    return first, second


def bits(mask: int) -> list[int]:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- exact edge colouring --------------------------------------------------

def edge_colouring(G: Multigraph, k: int) -> Optional[list[int]]:
    """A proper edge colouring with colours 0..k-1, or None.

    Exact backtracking over edges in static id order with the usual
    symmetry break (edge i may open at most one fresh colour), so the
    colouring returned is the first proper restricted-growth one in that
    order.  The search is not budgeted: None means there is no colouring.
    """
    # a node at depth i has at most k children, so the tree has at most
    # sum(k**i for i <= m) <= (k + 1)**m nodes and this limit is never passed
    return _edge_colouring(G, k, (max(k, 0) + 1) ** G.m)[0]


def _edge_colouring(G: Multigraph, k: int,
                    node_limit: int) -> tuple[Optional[list[int]], int]:
    """edge_colouring and the number of search nodes it took, the root and
    the leaves included.  Past node_limit nodes the search stops, as the
    solver's does, and returns (None, node_limit + 1), which the count
    tells from "no colouring"; the corpus runner budgets its
    3-edge-colourings this way.

    Each node receives its state by value: at[v], the colour mask of v's
    coloured edges (each child gets its own copy, so nothing is undone on
    the way back), and opened, the mask of the colours used so far, always
    0..j-1 for some j.  The colours edge i may take are those on neither
    endpoint among opened | (opened + 1): the opened ones and the lowest
    fresh one.  The colours are written into one list on the way back from
    the first leaf.
    """
    _check_node_limit(node_limit)
    edges = G.edges
    m = len(edges)
    palette = (1 << max(k, 0)) - 1
    colour = [0] * m
    nodes = 0

    def rec(i: int, at: list[int], opened: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            return True  # stop: nodes > node_limit marks a spent budget
        if i == m:
            return True
        a, b = edges[i]
        free = ~(at[a] | at[b]) & (opened | (opened + 1)) & palette
        while free:
            bit = free & -free
            free ^= bit
            child = at.copy()
            child[a] |= bit
            child[b] |= bit
            if rec(i + 1, child, opened | bit):
                colour[i] = bit.bit_length() - 1
                return True
        return False

    found = rec(0, [0] * G.n, 0) and nodes <= node_limit
    # rec reaches itself through its closure; unbinding it frees the search
    # state now instead of at the next full garbage collection
    del rec
    return (colour if found else None), nodes


def chromatic_index(G: Multigraph) -> int:
    """Exact chromatic index, guarded against oversized inputs."""
    if G.m > CHROMATIC_INDEX_EDGE_GUARD:
        raise ValueError(
            f"graph has {G.m} edges; exact chromatic index is guarded at "
            f"{CHROMATIC_INDEX_EDGE_GUARD}"
        )
    k = max(G.degrees(), default=0)
    while edge_colouring(G, k) is None:
        k += 1
    return k
