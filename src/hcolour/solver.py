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

The search keeps a table of the subtrees that hold no colouring, "dead"
ones, keyed exactly, and skips a subtree whose key it holds.  The cut
vertices at depth d are the guest vertices with an edge among the first d
of the sequence and one after them.  The candidates below depth d read only
domain and used of endpoints of later edges.  Such an endpoint with no edge
assigned holds its initial masks, its degree class and 0, and one with all
its edges assigned is no endpoint of a later edge; the rest are cut
vertices, and a cut vertex's domain is its degree class AND ends[h] over
the h in its used mask.  So the depth and the used masks of its cut
vertices fix the shape of a node's subtree.  When a subtree ends without a
colouring, its number of nodes is stored under that key; a child whose key
is stored is not searched, and the stored number is added to nodes.  A
stored number that takes nodes past node_limit stops the search at
node_limit + 1, as the plain search would: the subtree holds no colouring.
So the colourings, their order, the witness and nodes are those of the
search without the table.  A child without candidates is one node, counted
in its parent's loop.  The table holds at most _DEAD_STATES entries and is
cleared when full.

Every colouring the search finds is revalidated by check_colouring, which
reads only the colouring, the guest's incidence lists (guest._adj) and the
host's cached tables.  It passes a guest vertex u iff the edge bits of u's
image tuple (the images of u's incidence list) OR to a host boundary mask
of deg(u) bits, and a colouring iff it passes every vertex; an isolated
vertex passes alike in every colouring.  So it is called on the first
colouring and on each with a tuple no colouring it accepted had.  A
rejection raises, also under ``python -O``.  Only then is the colouring
counted, kept as the witness or passed to visit.

The search keeps its colouring in sequence-position order and passes with
each one a hint: the shallowest depth it assigned since the last colouring,
below which the two agree.  The revalidator does not trust the hint.  It
compares the positions below it with the last colouring it accepted, and
on any difference, or before its first acceptance, takes depth 0; a
rejected colouring is never the one compared with.  Below that depth the
colouring agrees with an accepted one, so a vertex whose edges all lie
there has an accepted tuple, and only the tuples of vertices with an edge
at or after it are looked up.  So check_colouring runs on exactly the
colourings it would with every tuple looked up.

The colouring is built without Colouring's range check on its edge map:
every id in it is a bit of a candidate mask, so it is a host edge id by
construction, and check_colouring rejects any other id by itself.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Literal, Optional

from .colouring import Colouring, _trusted_colouring, check_colouring
from .multigraph import Multigraph
from .structure import (DEFAULT_NODE_BUDGET, _check_node_limit, _LimitExceeded,
                        chromatic_index)

Status = Literal["sat", "unsat", "unknown"]

# Entries of the dead-state table; a full table is cleared, and 0 keeps none.
# The bound caps the table's memory: unbounded, the S12+1M self-count keeps
# 13,044 entries (about 2 MB) and J6 against the first k_family_members(3, 6)
# host peaks at 385 MB.  With 4,096 entries they skip 582,743 of 857,047
# and 2,568,052 of 10,223,704 nodes.
_DEAD_STATES = 1 << 12


@dataclass
class SolveResult:
    """Outcome of one search.

    witness is the first colouring found, in either mode.  nodes counts
    search-tree nodes, the root and the leaves included, so an edgeless
    guest, whose root is its only leaf, takes 1 node.  It counts the nodes
    of the colouring-free subtrees that the dead-state table skipped as
    well (see the module docstring), so it is the size of the search tree,
    with or without the table.  skipped is the part of nodes in those
    subtrees: nodes - skipped nodes were visited.
    prunes is always 0: no branch can empty a domain (see the module
    docstring); the field stays for callers that report it.
    """

    status: Status
    witness: Optional[Colouring] = None
    count: int = 0
    nodes: int = 0
    prunes: int = 0
    skipped: int = 0


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

    res.nodes is the size of the search tree, the same with or without the
    dead-state table, and res.skipped the part of it that the table skipped,
    so a smaller tree and a faster walk of it are reported apart.
    """
    if mode not in ("first", "count"):
        raise ValueError(f"mode must be 'first' or 'count', got {mode!r}")
    _check_node_limit(node_limit)
    res = SolveResult(status="unsat")

    def record(assigned: tuple[int, ...], low: int) -> None:
        res.count += 1
        c = revalidate(assigned, low)
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

    sequence = _assignment_sequence(guest)
    revalidate = _revalidator(host, guest, sequence)
    m = guest.m
    pairs = [guest.edges[e] for e in sequence]
    # the used masks, then depth d at position guest.n + d, so that
    # cut_keys[d](used) is the dead-state key of a node at depth d
    used = [0] * guest.n + list(range(m))
    cut_keys = [itemgetter(guest.n + d, *cut) for d, cut in enumerate(_cuts(guest, sequence))]
    dead: dict = {}  # dead-state key -> nodes in the colouring-free subtree
    capacity = _DEAD_STATES
    assignment: list[int] = [-1] * m  # host edge of each sequence position
    nodes = skipped = 0
    low = 0  # the shallowest depth assigned since the last colouring

    def rec(depth: int, cand: int, key) -> bool:
        """Search the subtree of a counted node at depth < m, given its
        candidates (nonzero) and its dead-state key.  Returns True to abort
        (mode="first" after a hit)."""
        nonlocal nodes, skipped, low
        pos = depth
        a, b = pairs[depth]
        depth += 1
        if depth == m:  # every child is a leaf, so a colouring
            while cand:
                bit = cand & -cand
                cand ^= bit
                assignment[pos] = bit.bit_length() - 1
                nodes += 1
                if nodes > node_limit:
                    raise _LimitExceeded
                record(tuple(assignment), low)
                low = pos
                if mode == "first":
                    return True
            return False
        c, d = pairs[depth]
        key_of = cut_keys[depth]
        dom_a, dom_b = domain[a], domain[b]
        used_a, used_b = used[a], used[b]
        start, found = nodes, res.count
        while cand:
            bit = cand & -cand
            cand ^= bit
            h = bit.bit_length() - 1
            assignment[pos] = h
            if pos < low:
                low = pos
            domain[a] = dom_a & ends[h]
            domain[b] = dom_b & ends[h]
            used[a] = used_a | bit
            used[b] = used_b | bit
            below = pool_of[domain[c]] & pool_of[domain[d]] & ~(used[c] | used[d])
            if below:
                child = key_of(used)
                size = dead.get(child)
                if size is not None:
                    nodes += size
                    skipped += size
                    if nodes > node_limit:  # where the plain search would stop
                        skipped -= nodes - node_limit - 1
                        nodes = node_limit + 1
                        raise _LimitExceeded
                    continue
            nodes += 1  # the child, a whole subtree when it has no candidates
            if nodes > node_limit:
                raise _LimitExceeded
            if below and rec(depth, below, child):
                return True
        domain[a], domain[b] = dom_a, dom_b
        used[a], used[b] = used_a, used_b
        if capacity and res.count == found:
            if len(dead) >= capacity:
                dead.clear()
            dead[key] = nodes - start + 1
        return False

    nodes = 1  # the root
    try:
        if nodes > node_limit:
            raise _LimitExceeded
        if m == 0:
            record((), 0)
        else:
            a, b = pairs[0]
            cand = pool_of[domain[a]] & pool_of[domain[b]]
            if cand:
                rec(0, cand, cut_keys[0](used))
    except _LimitExceeded:
        res.status = "unknown"
        return res
    finally:
        res.nodes, res.skipped = nodes, skipped
        # rec reaches itself through its closure, and through record the
        # result; unbinding it frees the search state now instead of at the
        # next full garbage collection
        del rec
    res.status = "sat" if res.count else "unsat"
    return res


def _revalidator(host: Multigraph, guest: Multigraph,
                 sequence: list[int]) -> Callable[[tuple[int, ...], int], Colouring]:
    """(map, hint) -> Colouring, revalidated as the module docstring says.

    The map gives the host edge of each position of sequence, and the hint a
    depth below which it may agree with the last map accepted."""
    position = [0] * guest.m
    for pos, e in enumerate(sequence):
        position[e] = pos
    # position order is edge order when m < 2, where itemgetter gives no tuple
    edge_map_of = itemgetter(*position) if guest.m > 1 else tuple
    # image tuple getters by the position of the vertex's last edge, so that
    # images[start[d]:] are those of the vertices with an edge at d or after
    at = sorted(([position[e] for e, _ in inc] for inc in guest._adj if inc), key=max)
    images = [itemgetter(*a) for a in at]
    lasts = [max(a) for a in at]
    start = [bisect_left(lasts, d) for d in range(guest.m + 1)]
    accepted: set = set()  # image tuples (an id alone at degree 1)
    last: tuple = ()  # the last map accepted, () before the first

    def revalidate(assigned: tuple[int, ...], low: int) -> Colouring:
        nonlocal last
        if low < 0 or assigned[:low] != last[:low]:
            low = 0
        seen = [image(assigned) for image in images[start[low]:]]
        c = _trusted_colouring(host, guest, edge_map_of(assigned))
        if not (accepted and accepted.issuperset(seen)):  # the first always is
            report = check_colouring(c)
            if not report.ok:
                raise RuntimeError(f"solver produced an invalid colouring: {report}")
            accepted.update(seen)
        last = assigned
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


def _cuts(G: Multigraph, sequence: list[int]) -> list[list[int]]:
    """The cut vertices at each depth d < m of the search: the guest vertices
    with an edge among the first d of sequence and one after them, in
    increasing order.  A vertex is in the cuts strictly after its first
    edge's position, up to its last; so O(m + the cuts' total size)."""
    first = [-1] * G.n
    last = [-1] * G.n
    for pos, e in enumerate(sequence):
        for v in G.edges[e]:
            if first[v] < 0:
                first[v] = pos
            last[v] = pos
    cuts: list[list[int]] = [[] for _ in sequence]
    for v in range(G.n):
        for d in range(first[v] + 1, last[v] + 1):
            cuts[d].append(v)
    return cuts


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
