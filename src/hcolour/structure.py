"""Matchings, chromatic index and regular-subgraph predicates."""

from __future__ import annotations

from typing import Iterator, Optional

from .multigraph import Multigraph

CHROMATIC_INDEX_EDGE_GUARD = 64


def is_matching(G: Multigraph, F) -> bool:
    covered = set()
    for e in F:
        a, b = G.edges[e]
        if a in covered or b in covered:
            return False
        covered.add(a)
        covered.add(b)
    return True


def enumerate_matchings(G: Multigraph) -> Iterator[frozenset[int]]:
    """All matchings, the empty one included, each exactly once as a set of
    edge ids.

    Deterministic include/exclude recursion over edge ids: a matching with
    edge i comes before the same choice without it.
    """
    yield from _matchings_from(G.edges, 0, [], set())


def _matchings_from(
    edges: tuple[tuple[int, int], ...],
    i: int,
    chosen: list[int],
    covered: set[int],
) -> Iterator[frozenset[int]]:
    if i == len(edges):
        yield frozenset(chosen)
        return
    a, b = edges[i]
    if a not in covered and b not in covered:
        chosen.append(i)
        covered.add(a)
        covered.add(b)
        yield from _matchings_from(edges, i + 1, chosen, covered)
        chosen.pop()
        covered.discard(a)
        covered.discard(b)
    yield from _matchings_from(edges, i + 1, chosen, covered)


def perfect_matchings(G: Multigraph) -> Iterator[frozenset[int]]:
    """All perfect matchings, matching the lowest uncovered vertex first."""
    if G.n % 2 == 0:
        yield from _perfect_matchings_from(G, [False] * G.n, [])


def _perfect_matchings_from(
    G: Multigraph, covered: list[bool], chosen: list[int]
) -> Iterator[frozenset[int]]:
    if 2 * len(chosen) == G.n:
        yield frozenset(chosen)
        return
    u = covered.index(False)
    covered[u] = True
    for eid, w in G.incident(u):
        if not covered[w]:
            covered[w] = True
            chosen.append(eid)
            yield from _perfect_matchings_from(G, covered, chosen)
            chosen.pop()
            covered[w] = False
    covered[u] = False


def has_perfect_matching(G: Multigraph) -> bool:
    return next(perfect_matchings(G), None) is not None


def pairwise_intersecting_perfect_matchings(G: Multigraph) -> bool:
    """True iff no two perfect matchings of G are edge-disjoint.

    Deliberately naive (all pairs over the full edge-id matching
    enumeration) so it is independent of the pair-mask search behind
    has_two_disjoint_perfect_matchings.
    """
    pms = list(perfect_matchings(G))
    return all(p & q for i, p in enumerate(pms) for q in pms[i + 1:])


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
    first = frozenset(ids[p][0] for p in _pair_bits(found[0]))
    second = frozenset(
        next(e for e in ids[p] if e not in first) for p in _pair_bits(found[1])
    )
    return first, second


def _pair_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- exact edge colouring --------------------------------------------------

def edge_colouring(G: Multigraph, k: int) -> Optional[list[int]]:
    """A proper edge colouring with colours 0..k-1, or None.

    Exact backtracking over edges in static id order with the usual
    symmetry break (edge i may open at most one fresh colour).
    """
    colour = [-1] * G.m
    at_vertex: list[set[int]] = [set() for _ in range(G.n)]
    return colour if _colour_from(G, k, colour, at_vertex, 0, 0) else None


def _colour_from(
    G: Multigraph, k: int, colour: list[int], at_vertex: list[set[int]], i: int, used: int
) -> bool:
    if i == G.m:
        return True
    a, b = G.edges[i]
    for c in range(min(k, used + 1)):
        if c in at_vertex[a] or c in at_vertex[b]:
            continue
        colour[i] = c
        at_vertex[a].add(c)
        at_vertex[b].add(c)
        if _colour_from(G, k, colour, at_vertex, i + 1, max(used, c + 1)):
            return True
        at_vertex[a].discard(c)
        at_vertex[b].discard(c)
        colour[i] = -1
    return False


def chromatic_index(G: Multigraph) -> int:
    """Exact chromatic index, guarded against oversized inputs."""
    if G.m > CHROMATIC_INDEX_EDGE_GUARD:
        raise ValueError(
            f"graph has {G.m} edges; exact chromatic index is guarded at "
            f"{CHROMATIC_INDEX_EDGE_GUARD}"
        )
    if G.m == 0:
        return 0
    k = max(G.degrees())
    while edge_colouring(G, k) is None:
        k += 1
    return k


# -- regular subgraphs ------------------------------------------------------

def spanning_regular_check(G: Multigraph, F, k: int) -> bool:
    """True iff every vertex touched by F has exactly k incident F-edges."""
    count = [0] * G.n
    for e in F:
        a, b = G.edges[e]
        count[a] += 1
        count[b] += 1
    return all(c in (0, k) for c in count)
