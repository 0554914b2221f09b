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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .canonical import canonical_form
from .colouring import Colouring, ImageGraph, check_colouring
from .multigraph import Multigraph
from .solver import _bfs_edge_order, tk2_colourable
from .structure import CHROMATIC_INDEX_EDGE_GUARD


@dataclass(frozen=True)
class TypePartition:
    """A colour-class labelling of guest edges, indexed by edge id.

    Restricted-growth holds along edge_order: a class id first appears
    only after all smaller ids have appeared.
    """

    guest: Multigraph
    edge_classes: tuple[int, ...]
    edge_order: tuple[int, ...]

    def class_count(self) -> int:
        return max(self.edge_classes) + 1 if self.edge_classes else 0

    def validate(self) -> None:
        G = self.guest
        if len(self.edge_classes) != G.m:
            raise ValueError("partition must label every guest edge")
        if sorted(self.edge_order) != list(range(G.m)):
            raise ValueError("edge_order must be a permutation of the edge ids")
        nxt = 0
        for e in self.edge_order:
            c = self.edge_classes[e]
            if c > nxt:
                raise ValueError("class ids must appear in restricted-growth order")
            nxt = max(nxt, c + 1)
        for u in range(G.n):
            seen = set()
            for eid, _ in G.incident(u):
                c = self.edge_classes[eid]
                if c in seen:
                    raise ValueError(
                        f"adjacent edges at vertex {u} share class {c}"
                    )
                seen.add(c)
        types = self.vertex_types()
        for c in range(self.class_count()):
            holders = {types[u] for u in range(G.n) if c in types[u]}
            if len(holders) > 2:
                raise ValueError(f"class {c} occurs in {len(holders)} distinct types")

    def vertex_types(self) -> list[frozenset[int]]:
        return [
            frozenset(self.edge_classes[eid] for eid, _ in self.guest.incident(u))
            for u in range(self.guest.n)
        ]


def realize_image(p: TypePartition) -> ImageGraph:
    """The splitted image realized by a complete partition, with witness.

    Used vertices are the distinct types; each class becomes one edge
    between the types containing it, with a fresh degree-1 endpoint when
    only one type does.  The witness colouring maps each guest edge to the
    edge of its class and always revalidates.
    """
    p.validate()
    types = p.vertex_types()
    distinct = sorted(set(types), key=lambda t: sorted(t))
    index = {t: i for i, t in enumerate(distinct)}
    n = len(distinct)
    edges = []
    pendant = []
    for c in range(p.class_count()):
        ends = [i for i, t in enumerate(distinct) if c in t]
        if len(ends) == 1:
            pendant.append(n)
            ends.append(n)
            n += 1
        edges.append((ends[0], ends[1]))
    graph = Multigraph(n, edges)
    witness = Colouring(graph, p.guest, p.edge_classes)
    report = check_colouring(witness)
    if not report.ok:
        raise RuntimeError(f"realized partition failed to revalidate: {report}")
    return ImageGraph(
        graph=graph,
        used=tuple(range(len(distinct))),
        split=(),
        pendant_unused=tuple(pendant),
        source=witness,
    )


def image_admits_extension(i: ImageGraph) -> bool:
    """True iff the image arose by splitting an unused vertex of degree >= 2.

    Such an image is realized by infinitely many hosts (the split vertex
    can be re-glued arbitrarily); otherwise the minimal host is the image
    itself.
    """
    return len(i.split) > 0


@dataclass
class AtlasEntry:
    canonical: bytes
    graph: Multigraph
    multiplicity: int
    witness: Colouring
    split_vertex_count: int = 0

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
    guest: Multigraph, node_limit: Optional[int] = None
) -> ImageAtlas:
    """All splitted images of the guest up to isomorphism, with multiplicities.

    Complete backtracking over restricted-growth partitions along a
    breadth-first edge order, propagating the properness and
    two-types-per-class constraints.  Multiplicity counts labelled
    partitions.  If the node limit is hit the atlas is marked incomplete.

    Guests realizable by the degenerate two-vertex host are reported via
    the tk2_realizable flag; the corresponding star image still appears as
    a regular entry.
    """
    if not guest.is_connected() or guest.n <= 2:
        raise ValueError("guest must be connected with more than 2 vertices")
    atlas = ImageAtlas(guest=guest)
    if guest.m <= CHROMATIC_INDEX_EDGE_GUARD:
        degs = set(guest.degrees())
        if len(degs) == 1:
            atlas.tk2_realizable = tk2_colourable(guest, degs.pop())
        else:
            atlas.tk2_realizable = False

    order = _bfs_edge_order(guest)
    m = guest.m
    cls = [-1] * m
    cls_at: list[set[int]] = [set() for _ in range(guest.n)]
    remaining = list(guest.degrees())
    reg: dict[int, list[frozenset[int]]] = {}
    found: dict[bytes, AtlasEntry] = {}
    aborted = False

    def fits_saturated(u: int, c: int) -> bool:
        """Partial type of u (including c) must fit one of c's two types."""
        lst = reg.get(c)
        if lst is None or len(lst) < 2:
            return True
        deg = guest.degree(u)
        partial = cls_at[u]
        for T in lst:
            if len(T) == deg and c in T and partial <= T:
                return True
        return False

    def complete_vertex(u: int, added: list[tuple[int, frozenset[int]]]) -> bool:
        T = frozenset(cls_at[u])
        for c2 in T:
            lst = reg.setdefault(c2, [])
            if T in lst:
                continue
            if len(lst) == 2:
                return False
            lst.append(T)
            added.append((c2, T))
        return True

    def record() -> None:
        p = TypePartition(guest, tuple(cls), tuple(order))
        img = realize_image(p)
        key = canonical_form(img.graph)
        entry = found.get(key)
        if entry is None:
            found[key] = AtlasEntry(
                canonical=key,
                graph=img.graph,
                multiplicity=1,
                witness=img.source,
                split_vertex_count=0,
            )
        else:
            entry.multiplicity += 1

    def rec(i: int, next_new: int) -> None:
        nonlocal aborted
        if aborted:
            return
        atlas.nodes += 1
        if node_limit is not None and atlas.nodes > node_limit:
            aborted = True
            return
        if i == m:
            record()
            return
        eid = order[i]
        a, b = guest.edges[eid]
        blocked = cls_at[a] | cls_at[b]
        for c in range(next_new + 1):
            if c in blocked:
                continue
            if c < next_new and not (fits_saturated(a, c) and fits_saturated(b, c)):
                continue
            cls[eid] = c
            cls_at[a].add(c)
            cls_at[b].add(c)
            remaining[a] -= 1
            remaining[b] -= 1
            added: list[tuple[int, frozenset[int]]] = []
            ok = True
            for u in (a, b):
                if remaining[u] == 0 and not complete_vertex(u, added):
                    ok = False
                    break
            if ok:
                rec(i + 1, max(next_new, c + 1))
            for c2, T in added:
                reg[c2].remove(T)
            remaining[a] += 1
            remaining[b] += 1
            cls_at[a].discard(c)
            cls_at[b].discard(c)
            cls[eid] = -1

    rec(0, 0)
    atlas.complete = not aborted
    atlas.entries = sorted(
        found.values(), key=lambda e: (e.graph.n, e.graph.m, e.canonical)
    )
    return atlas
