"""Enumeration of all splitted images realizable by any H-colouring of a guest.

An H-colouring of G is encoded host-free as a partition of E(G) into
colour classes, written as a restricted-growth string along a fixed edge
order.  Writing type(u) for the set of classes on the edges at u, a
complete partition is realizable by some host iff

  * adjacent edges lie in distinct classes (properness), and
  * each class occurs in at most 2 distinct vertex types (a host edge has
    at most two used endpoints).

Each such partition realizes exactly one splitted image: one vertex per
distinct type, one edge per class joining the types containing it, and a
fresh degree-1 vertex wherever a class has a single type (the host edge's
other endpoint is unused there).  The partition itself is a valid
colouring of the guest by that graph, which is the witness we attach.

Endpoint types of an edge may coincide: that is precisely how images with
unused degree-1 vertices arise, e.g. the S4 image of the Petersen graph.

Images are classed up to isomorphism by canonical_form, taken once per
distinct labelled image (its order and edge multiset) in each enumeration.
Every leaf's labelling is rechecked, but its witness is revalidated by
check_colouring only when its set of vertex types is new to the
enumeration: the verdict depends on that set alone (see
enumerate_splitted_images), and each kept witness is the first leaf of
its class, so it is always one of the checked ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .canonical import canonical_form
from .colouring import Colouring, ImageGraph, _trusted_colouring, check_colouring
from .multigraph import Multigraph
from .solver import _assignment_sequence
from .structure import DEFAULT_NODE_BUDGET, _check_node_limit, bits


def realize_image(
    guest: Multigraph, edge_classes: tuple[int, ...], edge_order: tuple[int, ...]
) -> ImageGraph:
    """The splitted image realized by a complete class labelling, with witness.

    edge_classes[e] is the class of guest edge e.  _check_edge_order and
    _vertex_types check the labelling, the latter giving each vertex type as
    a class mask; _image_of_types builds the image from the set of distinct
    types.  Every failed check raises ValueError.

    Used vertices are the distinct types, ordered by their sorted class
    lists; each class becomes one edge between the types containing it,
    with a fresh degree-1 endpoint when only one type does.  The witness
    colouring maps each guest edge to the edge of its class; it is
    revalidated by check_colouring and a failure raises RuntimeError.
    """
    _check_edge_order(guest, edge_order)
    types = frozenset(_vertex_types(guest, edge_classes, edge_order))
    graph, used, pendant = _image_of_types(types)
    return ImageGraph(
        graph=graph,
        used=tuple(range(used)),
        split=(),
        pendant_unused=pendant,
        source=_witness(graph, guest, edge_classes),
    )


def _check_edge_order(guest: Multigraph, edge_order: tuple[int, ...]) -> None:
    """Raise ValueError unless edge_order is a permutation of the edge ids."""
    if sorted(edge_order) != list(range(guest.m)):
        raise ValueError("edge_order must be a permutation of the edge ids")


def _vertex_types(guest: Multigraph, edge_classes: tuple[int, ...],
                  edge_order: tuple[int, ...]) -> list[int]:
    """The class mask of each guest vertex, from one pass along edge_order
    (checked by the caller, once for all of an atlas's leaves) that checks
    that class ids appear in restricted-growth order and that adjacent edges
    lie in distinct classes; each failure raises ValueError."""
    if len(edge_classes) != guest.m:
        raise ValueError("partition must label every guest edge")
    edges = guest.edges
    at = [0] * guest.n
    k = 0  # classes seen so far along edge_order
    for e in edge_order:
        c = edge_classes[e]
        if not 0 <= c <= k:
            raise ValueError("class ids must appear in restricted-growth order")
        if c == k:
            k += 1
        bit = 1 << c
        for u in edges[e]:
            if at[u] & bit:
                raise ValueError(f"adjacent edges at vertex {u} share class {c}")
            at[u] |= bit
    return at


def _image_of_types(types: frozenset[int]) -> tuple[Multigraph, int, tuple[int, ...]]:
    """The image graph of the distinct vertex types, its number of used
    vertices and its pendant vertices.  A class held by more than two types
    raises ValueError."""
    classes_of = {T: bits(T) for T in types}
    k = max((cs[-1] + 1 for cs in classes_of.values() if cs), default=0)
    holders: list[list[int]] = [[] for _ in range(k)]
    for T, cs in classes_of.items():
        for c in cs:
            holders[c].append(T)
    for c, hs in enumerate(holders):
        if len(hs) > 2:
            raise ValueError(f"class {c} occurs in {len(hs)} distinct types")
    distinct = sorted(classes_of, key=classes_of.__getitem__)
    index = {T: i for i, T in enumerate(distinct)}
    n = used = len(distinct)
    image_edges = []
    pendant = []
    for hs in holders:
        ends = [index[T] for T in hs]
        if len(ends) == 1:
            pendant.append(n)
            ends.append(n)
            n += 1
        image_edges.append(ends)
    # Multigraph stores each edge as (min, max)
    return Multigraph(n, image_edges), used, tuple(pendant)


def _witness(graph: Multigraph, guest: Multigraph, edge_classes: tuple[int, ...]
             ) -> Colouring:
    """The labelling as a colouring of the guest by its image, revalidated
    by check_colouring; a failure raises RuntimeError."""
    witness = _trusted_colouring(graph, guest, edge_classes)
    report = check_colouring(witness)
    if not report.ok:
        raise RuntimeError(f"realized partition failed to revalidate: {report}")
    return witness


@dataclass
class AtlasEntry:
    canonical: bytes
    graph: Multigraph
    multiplicity: int
    witness: Colouring

    @property
    def pendant_count(self) -> int:
        return sum(1 for v in range(self.graph.n) if self.graph.degree(v) == 1)


@dataclass
class ImageAtlas:
    guest: Multigraph
    entries: list[AtlasEntry] = field(default_factory=list)
    complete: bool = True
    tk2_realizable: Optional[bool] = None
    nodes: int = 0

    def canonical_set(self) -> set[bytes]:
        return {e.canonical for e in self.entries}

    def find(self, G: Multigraph) -> Optional[AtlasEntry]:
        key = canonical_form(G)
        for e in self.entries:
            if e.canonical == key:
                return e
        return None


def enumerate_splitted_images(
    guest: Multigraph, node_limit: int = DEFAULT_NODE_BUDGET
) -> ImageAtlas:
    """All splitted images of the guest up to isomorphism, with multiplicities.

    Complete backtracking over restricted-growth partitions along the
    solver's edge sequence (_assignment_sequence): next is the edge with
    the most assigned neighbours, so vertices complete early and the rule
    below cuts early.  Each partition has one restricted-growth labelling
    along any order, so the order moves node counts and the first witness
    of a class, never the leaves.  at[u] is the class mask of the assigned
    edges at guest vertex u; the free classes at an edge are those on
    neither endpoint, tried lowest first.  Multiplicity counts labelled
    partitions.  Past node_limit nodes the search stops at node_limit + 1,
    as the solver's does, and the atlas is incomplete with the classes
    found so far: complete is nodes <= node_limit.

    A class is saturated once it occurs in two completed types.  Any vertex
    holding a saturated class must end with one of those two types, or the
    class would gain a third type when the vertex completes.  So its
    partial type must be a subset of one of them whose size is the
    vertex's degree.  The rule only cuts subtrees that contain no complete
    partition, so every leaf survives and multiplicities stay exact.

    Each node receives the saturation state by value: done, the tuple of
    distinct completed types, and the class masks once (classes in at
    least one of them) and sat (in two).  A vertex that completes with a
    type T not in done is pruned if T holds a saturated class; otherwise
    its classes in once become saturated and T joins done.

    The rule is applied as a room mask per edge endpoint, once per node.
    cover(u) is the union of the types in done of size deg[u] that contain
    at[u] (all of them while at[u] is empty); u may take exactly the
    classes in cover(u) if at[u] holds a saturated class, and otherwise any
    unsaturated class or one in cover(u).  Both endpoints' covers are
    taken in one pass over done.  An open vertex holding a newly
    saturated class needs a nonempty cover.

    Every leaf's labelling is rechecked by _vertex_types, and its set S of
    distinct types keys its class entry.  The first leaf with a given S
    builds the image g with _image_of_types, whose edge ids are the class
    ids, so the labelling is a colouring of the guest by g.  Type sets
    often build the same labelled graph, its edge multiset, so
    canonical_form is taken once per distinct labelled image and call
    (Heawood: 67 forms for 308 type sets).  That leaf's witness is
    revalidated by check_colouring, a failure raising RuntimeError, and
    the leaf creates or joins its class entry.  A later leaf with the same
    S only adds 1 to that entry's multiplicity: it builds no colouring and
    calls no check.  This is exact:

      * at guest vertex u, check_colouring passes iff the OR of the image
        bits of u's edges has deg(u) bits and is a boundary mask of g;
        that OR is u's recomputed class mask, a type in S;
      * _vertex_types rejects a class repeated at a vertex, so the bit
        count always matches;
      * g depends only on S, and the first leaf with S has every type in
        S at some vertex and passed the check, so every type in S is a
        vertex boundary of g;
      * so any later leaf with the same S would pass too.

    The first leaf of a class is the first leaf of a new type set, so
    every kept witness was checked.

    The tk2_realizable flag says whether the guest is coloured by t
    parallel edges on two vertices, i.e. is t-regular and t-edge-colourable.
    That holds iff some leaf has a single vertex type, whose image is the
    star K_{1,t} with every edge pendant: one type of t classes makes the
    classes a t-edge-colouring of a t-regular guest, and conversely in a
    connected guest whose classes each lie in one type, adjacent vertices
    share their type.  The flag is read after the search off the type sets
    seen at the leaves, so a complete atlas decides it, and an incomplete one
    gives True if such a leaf was reached and None if not.  The star image
    still appears as a regular entry.
    """
    _check_node_limit(node_limit)
    if not guest.is_connected() or guest.n <= 2:
        raise ValueError("guest must be connected with more than 2 vertices")
    atlas = ImageAtlas(guest=guest)

    order = tuple(_assignment_sequence(guest))
    _check_edge_order(guest, order)
    edges = guest.edges
    deg = guest.degrees()
    n, m = guest.n, guest.m
    cls = [-1] * m
    at = [0] * n  # class mask of the assigned edges at each vertex
    found: dict[bytes, AtlasEntry] = {}
    # distinct types of a leaf -> the class entry of its image
    by_types: dict[frozenset[int], AtlasEntry] = {}
    # labelled image (order, sorted edges) -> canonical form, for this call
    forms: dict[tuple[int, tuple[tuple[int, int], ...]], bytes] = {}
    nodes = 0

    def cover(u: int, done: tuple[int, ...]) -> int:
        """The union of the completed types of size deg[u] that contain at[u]."""
        A = at[u]
        d = deg[u]
        out = 0
        for T in done:
            if not A & ~T and T.bit_count() == d:
                out |= T
        return out

    def record() -> None:
        edge_classes = tuple(cls)
        types = frozenset(_vertex_types(guest, edge_classes, order))
        entry = by_types.get(types)
        if entry is None:
            g = _image_of_types(types)[0]
            labelled = (g.n, tuple(sorted(g.edges)))
            key = forms.get(labelled)
            if key is None:
                key = forms[labelled] = canonical_form(g)
            witness = _witness(g, guest, edge_classes)
            entry = found.get(key)
            if entry is None:
                entry = found[key] = AtlasEntry(
                    canonical=key,
                    graph=g,
                    multiplicity=0,
                    witness=witness,
                )
            by_types[types] = entry
        entry.multiplicity += 1

    def rec(i: int, next_new: int, done: tuple[int, ...], once: int, sat: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            return True  # stop the search
        if i == m:
            record()
            return False
        eid = order[i]
        a, b = edges[eid]
        free = ~(at[a] | at[b]) & ((2 << next_new) - 1)
        if sat:
            # cover(a) and cover(b) in one pass over done
            A, B = at[a], at[b]
            da, db = deg[a], deg[b]
            ca = cb = 0
            for T in done:
                size = T.bit_count()
                if size == da and not A & ~T:
                    ca |= T
                if size == db and not B & ~T:
                    cb |= T
            free &= ((ca if A & sat else ~sat | ca)
                     & (cb if B & sat else ~sat | cb))
        while free:
            bit = free & -free
            free ^= bit
            c = bit.bit_length() - 1
            cls[eid] = c
            at[a] |= bit
            at[b] |= bit
            d2, o2, s2 = done, once, sat
            for u in (a, b):
                T = at[u]
                if T.bit_count() == deg[u] and T not in d2:
                    if T & s2:
                        break  # a class would gain a third type
                    s2 |= T & o2
                    o2 |= T
                    d2 += (T,)
            else:
                # every open vertex holding a newly saturated class has room
                newly = s2 & ~sat
                if (not newly or all(
                    cover(v, d2) for v in range(n)
                    if at[v] & newly and at[v].bit_count() < deg[v]
                )) and rec(i + 1, next_new + 1 if c == next_new else next_new,
                           d2, o2, s2):
                    return True
            at[a] ^= bit
            at[b] ^= bit
        return False

    rec(0, 0, (), 0, 0)
    # rec reaches itself through its closure; unbinding it frees the search
    # state now instead of at the next full garbage collection
    del rec
    atlas.nodes = nodes
    atlas.complete = nodes <= node_limit
    atlas.tk2_realizable = (any(len(types) == 1 for types in by_types)
                            or (False if atlas.complete else None))
    atlas.entries = sorted(
        found.values(), key=lambda e: (e.graph.n, e.graph.m, e.canonical)
    )
    return atlas
