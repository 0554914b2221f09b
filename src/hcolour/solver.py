"""Exact decision and enumeration of H-colourings for a fixed host.

Backtracking over guest edges with the search state in integer bitmasks:
host edge h is bit h of an edge mask and host vertex v is bit v of a vertex
mask.  Each host vertex has the edge mask of its boundary.  Each guest
vertex u keeps two masks:

* its domain: the host vertices v with deg(v) = deg(u) whose boundary
  contains every host edge already assigned around u;
* the host edges already used at u.

The candidates for a guest edge ab are pool_of[domain[a]] &
pool_of[domain[b]] & ~(used[a] | used[b]), tried lowest bit first: pool_of
maps every domain the search can hold (a degree class, or a nonempty subset
of one host edge's endpoints) to the OR of its vertices' boundary masks.
Assigning host edge h narrows the domains of a and b by AND with the mask
of h's two endpoints.  A domain never empties, so the search never prunes:
h in the pool of domain[a] means some vertex of domain[a] is an endpoint of
h.  Once all of u's edges are assigned, any surviving domain vertex matches
u's type exactly (set sizes agree), so no separate completion check is
needed.

Edges are assigned in a fixed sequence: next is the unassigned edge with the
most assigned neighbours, ties broken by breadth-first position.  That
choice depends only on which edges are assigned, never on their images, so
the sequence is worked out once per guest before the search.

Every colouring the search finds is revalidated by check_colouring, which
reads only the colouring, the guest's incidence lists (guest._adj) and the
host's cached tables.  It passes a guest vertex u iff the edge bits of u's
image tuple (the images of u's incidence list) OR to a host boundary mask
of deg(u) bits, and a colouring iff it passes every vertex; an isolated
vertex passes alike in every colouring.  So it is called on the first
colouring and on each with a tuple no colouring it accepted had.  A
rejection raises, also under ``python -O``.  Only then is the colouring
counted, kept as the witness or passed to visit.

The colouring is built without Colouring's range check on its edge map:
every id in it is a bit of a candidate mask, so it is a host edge id by
construction, and check_colouring rejects any other id by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Literal, Optional

from .colouring import Colouring, _trusted_colouring, check_colouring
from .multigraph import Multigraph
from .structure import (DEFAULT_NODE_BUDGET, _check_node_limit, _LimitExceeded,
                        chromatic_index)

Status = Literal["sat", "unsat", "unknown"]


@dataclass
class SolveResult:
    """Outcome of one search.

    witness is the first colouring found, in either mode.  nodes counts
    search-tree nodes, the root and the leaves included, so an edgeless
    guest, whose root is its only leaf, takes 1 node.
    prunes is always 0: no branch can empty a domain (see the module
    docstring); the field stays for callers that report it.
    """

    status: Status
    witness: Optional[Colouring] = None
    count: int = 0
    nodes: int = 0
    prunes: int = 0


def solve(
    host: Multigraph,
    guest: Multigraph,
    mode: Literal["first", "count"] = "first",
    node_limit: int = DEFAULT_NODE_BUDGET,
    visit: Optional[Callable[[Colouring], None]] = None,
) -> SolveResult:
    """Decide host ≺ guest; with mode="count", count all labelled colourings.

    Sound and complete: every colouring found revalidates, and "unsat" is
    only reported after exhaustive search.  Hitting the node limit gives
    status "unknown", never "unsat".

    mode="first" stops at the first colouring; either mode keeps only that
    one, as res.witness.  visit, when given, is called with each colouring
    in search order, after it has revalidated; with mode="count" it streams
    every colouring.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"mode must be 'first' or 'count', got {mode!r}")
    _check_node_limit(node_limit)
    res = SolveResult(status="unsat")
    revalidate = _revalidator(host, guest)

    def record(edge_map: tuple[int, ...]) -> None:
        res.count += 1
        c = revalidate(edge_map)
        if res.witness is None:
            res.witness = c
        if visit is not None:
            visit(c)

    boundary = [0] * host.n
    for h, (x, y) in enumerate(host.edges):
        boundary[x] |= 1 << h
        boundary[y] |= 1 << h
    ends = [(1 << x) | (1 << y) for x, y in host.edges]
    # degree -> (vertex mask of its class, OR of the class's boundaries)
    by_degree: dict[int, tuple[int, int]] = {}
    for v in range(host.n):
        mask, pool = by_degree.get(host.degree(v), (0, 0))
        by_degree[host.degree(v)] = (mask | 1 << v, pool | boundary[v])

    # pool of every domain the search can hold: a degree class, or a
    # nonempty subset of one host edge's endpoints
    pool_of = {1 << v: boundary[v] for v in range(host.n)}
    for x, y in host.edges:
        pool_of[(1 << x) | (1 << y)] = boundary[x] | boundary[y]
    pool_of.update(by_degree.values())

    domain: list[int] = []
    for u in range(guest.n):
        if guest.degree(u) not in by_degree:
            return res  # some guest vertex has no possible image: unsat
        domain.append(by_degree[guest.degree(u)][0])
    used = [0] * guest.n

    sequence = _assignment_sequence(guest)
    m = guest.m
    assignment: list[int] = [-1] * m
    nodes = 0

    def rec(depth: int) -> bool:
        """Returns True to abort the search (mode="first" after a hit)."""
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise _LimitExceeded
        if depth == m:
            record(tuple(assignment))
            return mode == "first"
        eid = sequence[depth]
        a, b = guest.edges[eid]
        dom_a, dom_b = domain[a], domain[b]
        used_a, used_b = used[a], used[b]
        cand = pool_of[dom_a] & pool_of[dom_b] & ~(used_a | used_b)
        while cand:
            bit = cand & -cand
            cand ^= bit
            h = bit.bit_length() - 1
            assignment[eid] = h
            domain[a] = dom_a & ends[h]
            domain[b] = dom_b & ends[h]
            used[a] = used_a | bit
            used[b] = used_b | bit
            if rec(depth + 1):
                return True
        domain[a], domain[b] = dom_a, dom_b
        used[a], used[b] = used_a, used_b
        return False

    try:
        rec(0)
    except _LimitExceeded:
        res.status = "unknown"
        return res
    finally:
        res.nodes = nodes
        # rec reaches itself through its closure, and through record the
        # result; unbinding it frees the search state now instead of at the
        # next full garbage collection
        del rec
    res.status = "sat" if res.count else "unsat"
    return res


def _revalidator(host: Multigraph, guest: Multigraph) -> Callable[[tuple[int, ...]], Colouring]:
    """Edge map -> Colouring, revalidated as the module docstring says."""
    images = [itemgetter(*[e for e, _ in inc]) for inc in guest._adj if inc]
    accepted: set = set()  # image tuples (an id alone at degree 1)

    def revalidate(edge_map: tuple[int, ...]) -> Colouring:
        c = _trusted_colouring(host, guest, edge_map)
        seen = [image(edge_map) for image in images]
        if not (accepted and accepted.issuperset(seen)):  # the first always is
            report = check_colouring(c)
            if not report.ok:
                raise RuntimeError(f"solver produced an invalid colouring: {report}")
            accepted.update(seen)
        return c

    return revalidate


def _assignment_sequence(G: Multigraph) -> list[int]:
    """The order in which the search assigns guest edges.

    Repeatedly the unassigned edge with the most assigned neighbours (an
    edge sharing both ends counts twice), the earliest in breadth-first
    order on ties.  A heap of (-near, breadth-first position, edge) gives
    it in O(m log m): each count rise pushes a fresh entry, and a popped
    entry is stale, and dropped, when its edge is assigned or its count has
    risen since; counts only rise, so the fresh entry pops first.
    """
    from heapq import heappop, heappush  # here, so importing hcolour skips it

    adj = G._adj
    near = [0] * G.m
    placed = [False] * G.m
    bfs = _bfs_edge_order(G)
    position = [0] * G.m
    for pos, e in enumerate(bfs):
        position[e] = pos
    heap = [(0, pos, e) for pos, e in enumerate(bfs)]  # sorted, so a heap
    sequence: list[int] = []
    while heap:
        minus, pos, e = heappop(heap)
        if placed[e] or -minus != near[e]:
            continue
        placed[e] = True
        sequence.append(e)
        for v in G.edges[e]:
            for e2, _ in adj[v]:
                if not placed[e2]:
                    near[e2] += 1
                    heappush(heap, (-near[e2], position[e2], e2))
    return sequence


def _bfs_edge_order(G: Multigraph) -> list[int]:
    """Guest edges by breadth-first discovery from a maximum-degree root."""
    if G.n == 0:
        return []
    adj = G._adj  # each vertex's incidences in edge id order
    root = max(range(G.n), key=lambda v: len(adj[v]))
    seen_v = [False] * G.n
    seen_v[root] = True
    seen_e = [False] * G.m
    order: list[int] = []
    queue = [root]
    for v in queue:  # the queue grows while it is walked
        for eid, w in adj[v]:
            if not seen_e[eid]:
                seen_e[eid] = True
                order.append(eid)
            if not seen_v[w]:
                seen_v[w] = True
                queue.append(w)
    # isolated components (guests are usually connected; keep total anyway)
    order.extend(e for e in range(G.m) if not seen_e[e])
    return order


def tk2_colourable(guest: Multigraph, t: int) -> bool:
    """Colourability by t parallel edges on two vertices: t-regular and
    t-edge-colourable.  The public definitional oracle for the atlas's
    tk2_realizable flag, bound by chromatic_index's edge guard."""
    if not guest.is_regular(t):
        return False
    if guest.m == 0:
        return True
    return chromatic_index(guest) == t
