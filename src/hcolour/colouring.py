"""H-colouring semantics: validation, induced vertex map, images, preimages.

A Colouring is a host/guest pair plus a total map from guest edge ids to
host edge ids.  Validity means the map is a proper edge colouring and
every guest vertex's incident image equals the boundary of some host
vertex (set equality of edge-id sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .multigraph import Multigraph


class AmbiguousHostError(ValueError):
    """The induced vertex map is not well defined (tK2-type host)."""


@dataclass(frozen=True, slots=True)
class Colouring:
    host: Multigraph
    guest: Multigraph
    edge_map: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge_map) != self.guest.m:
            raise ValueError(
                f"edge map has {len(self.edge_map)} entries for a guest with "
                f"{self.guest.m} edges; the map must be total"
            )
        host_m = self.host.m
        for h in self.edge_map:
            # exactly int: 1.0 or True would pass the range check and the
            # mask check, and write a certificate that cannot be read back
            if type(h) is not int:
                raise ValueError(f"host edge id {h!r} is not an integer")
            if not (0 <= h < host_m):
                raise ValueError(f"host edge id {h} out of range")

    def image_edges(self) -> frozenset[int]:
        """Im(f): the used host edges."""
        return frozenset(self.edge_map)

    def pairs(self) -> list[tuple[int, int]]:
        return list(enumerate(self.edge_map))


def _trusted_colouring(host: Multigraph, guest: Multigraph,
                       edge_map: tuple[int, ...]) -> Colouring:
    """Colouring(host, guest, edge_map) without __post_init__'s range check.

    Only for a total map whose every id was read off a host edge mask (the
    solver's and the atlas's searches), where the check cannot fail; the
    caller still revalidates the colouring, and check_colouring rejects an
    id outside 0..host.m-1 by itself.
    """
    c = object.__new__(Colouring)
    # object.__setattr__ gets past the frozen dataclass's __setattr__
    object.__setattr__(c, "host", host)
    object.__setattr__(c, "guest", guest)
    object.__setattr__(c, "edge_map", edge_map)
    return c


@dataclass(frozen=True)
class ColouringReport:
    ok: bool
    properness_violations: tuple[tuple[int, int], ...] = ()
    vertex_violations: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


_VALID = ColouringReport(ok=True)


def check_colouring(c: Colouring) -> ColouringReport:
    """Validate both H-colouring conditions, reporting every violation.

    Reads only the colouring itself, the guest's incidence lists and the
    host's cached tables, so it is independent of the search that produced
    it.  The verdict is taken on edge masks: at each guest vertex u, the OR
    of the host's edge_bits()[f(e)] over the edge ids e in u's incidence
    list must have deg(u) bits (properness) and be the boundary mask of
    some host vertex (vertex condition; an isolated host vertex has mask
    0).  An id outside 0..host.m-1 is not a key of edge_bits(), so it
    rejects the colouring; the solver and the atlas rely on that, as they
    build their colourings without Colouring's range check.  A valid
    colouring gets one shared report.  A rejected one gets its full report
    from oracles.naive_check_colouring, which reads only the graphs' edge
    lists, and if that calls the colouring valid the two checks disagree and
    RuntimeError is raised, also under python -O.
    """
    f = c.edge_map
    host = c.host
    bits = host.edge_bits()
    masks = host.boundary_masks()
    try:
        for inc in c.guest._adj:
            s = 0
            for e, _ in inc:
                s |= bits[f[e]]
            if s not in masks or s.bit_count() != len(inc):
                break
        else:
            return _VALID
    except KeyError:
        pass  # a host edge id out of range
    from .oracles import naive_check_colouring  # here: oracles imports this module

    report = naive_check_colouring(c)
    if report.ok:
        raise RuntimeError(
            f"the mask check rejects a colouring the set-based check accepts: "
            f"{c.edge_map}"
        )
    return report


def induced_vertex_map(c: Colouring) -> tuple[int, ...]:
    """f_V: for each guest vertex, the unique host vertex matching its type.

    Raises AmbiguousHostError when some guest vertex has two candidate host
    vertices (exactly the tK2-type situation) and ValueError for an invalid
    colouring.
    """
    report = check_colouring(c)
    if not report:
        raise ValueError(f"invalid colouring: {report}")
    # each guest vertex's image mask, looked up in the host's boundary table
    f = c.edge_map
    bits = c.host.edge_bits()
    owners = c.host.boundary_masks()
    out = []
    for u, inc in enumerate(c.guest._adj):
        s = 0
        for e, _ in inc:
            s |= bits[f[e]]
        cands = owners[s]
        if len(cands) > 1:
            raise AmbiguousHostError(
                f"guest vertex {u} has {len(cands)} candidate host vertices; "
                "use the tK2 equivalence instead"
            )
        out.append(cands[0])
    return tuple(out)


def _meet_counts(G: Multigraph, X: Iterable[int]) -> list[int]:
    """How many edges of X meet each vertex of G."""
    count = [0] * G.n
    for e in X:
        a, b = G.edges[e]
        count[a] += 1
        count[b] += 1
    return count


def unused_vertices(c: Colouring) -> frozenset[int]:
    """Host vertices of H_f outside the range of the induced vertex map.

    H_f's vertices are the host vertices that some used edge meets.
    """
    fv = induced_vertex_map(c)  # validates c
    deg = _meet_counts(c.host, c.image_edges())
    return frozenset(v for v, d in enumerate(deg) if d) - frozenset(fv)


@dataclass(frozen=True)
class ImageGraph:
    """A splitted image: the graph plus the roles its vertices play.

    used: vertices in the range of the vertex map (the guest vertex types).
    split: degree-1 vertices created by splitting an unused vertex of
    degree at least 2.  Unused vertices that already had degree 1 are kept
    as they are and listed in pendant_unused.
    """

    graph: Multigraph
    used: tuple[int, ...]
    split: tuple[int, ...]
    pendant_unused: tuple[int, ...] = ()
    source: Optional[Colouring] = None


def splitted_image(c: Colouring) -> ImageGraph:
    """Replace every unused vertex of degree d >= 2 by d degree-1 vertices.

    A host vertex's degree in H_f is the number of used edges meeting it.
    Used vertices come first, then the pendant unused ones, both by host
    id; the split copies follow, one per used edge end, by edge id.
    """
    fv = induced_vertex_map(c)  # validates c
    eids = sorted(c.image_edges())
    deg = _meet_counts(c.host, eids)
    used = sorted(set(fv))
    new_id = {v: i for i, v in enumerate(used)}
    pendant = []
    for v, d in enumerate(deg):
        if d == 1 and v not in new_id:
            new_id[v] = len(new_id)
            pendant.append(new_id[v])
    split = []
    edges = []
    next_id = len(new_id)
    for e in eids:
        ends = []
        for v in c.host.edges[e]:
            if v in new_id:
                ends.append(new_id[v])
            else:
                # unused vertex of degree >= 2: a fresh split copy per edge
                ends.append(next_id)
                split.append(next_id)
                next_id += 1
        edges.append((ends[0], ends[1]))
    graph = Multigraph(next_id, edges, name=f"~H_f({c.host.name or 'H'})")
    return ImageGraph(
        graph=graph,
        used=tuple(range(len(used))),
        split=tuple(split),
        pendant_unused=tuple(pendant),
        source=c,
    )


# -- preimages -------------------------------------------------------------

@dataclass(frozen=True)
class PreimageCheck:
    name: str
    applicable: bool
    holds: bool


@dataclass(frozen=True)
class PreimageReport:
    edges: frozenset[int]
    checks: tuple[PreimageCheck, ...]

    def check(self, name: str) -> PreimageCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_applicable_hold(self) -> bool:
        return all(c.holds for c in self.checks if c.applicable)


def preimage(c: Colouring, F: Iterable[int]) -> PreimageReport:
    """f^{-1}(F) with the lemma-driven classification flags.

    Whenever F has one of the recognised host-side shapes, the report
    asserts the corresponding guest-side shape of the preimage.  Every
    shape is read off two counts: how many edges of F meet each host
    vertex, and how many edges of the preimage meet each guest vertex.
    """
    try:
        im_fv = set(induced_vertex_map(c))  # validates c
    except AmbiguousHostError:
        im_fv = None
    H, G = c.host, c.guest
    F = tuple(F)
    for e in F:
        # exactly int, as in Colouring: True would stand for edge 1
        if type(e) is not int:
            raise ValueError(f"host edge id {e!r} is not an integer")
        H._check_edge(e)
    Fset = frozenset(F)
    pre = frozenset(e for e, h in enumerate(c.edge_map) if h in Fset)
    deg_F, deg_pre = _meet_counts(H, Fset), _meet_counts(G, pre)

    # multigraphs are loopless, so edges meeting every vertex once are a
    # perfect matching
    host_matching = all(d <= 1 for d in deg_F)
    guest_pm = all(d == 1 for d in deg_pre)
    covers_image = (host_matching and im_fv is not None
                    and all(deg_F[v] for v in im_fv))

    # an edge cut of H_f leaving no isolated vertex, for a connected guest
    # (H_f is then connected): F lies in Im f, every H_f vertex keeps an
    # edge, and H_f - F is disconnected
    cut = False
    image = c.image_edges()
    if G.n > 1 and G.is_connected() and Fset <= image:
        deg_im = _meet_counts(H, image)
        if all(d < di for d, di in zip(deg_F, deg_im) if di):
            # walk H_f - F: every host edge outside Im f - F is cut
            cut_mask = (1 << H.m) - 1 - sum(1 << e for e in image - Fset)
            reach = H._reach(H.edges[min(image)][0], cut_mask)
            cut = reach != sum(1 << v for v, di in enumerate(deg_im) if di)

    # a k-regular host edge set meeting Im(f_V)
    regular = False
    if Fset and im_fv is not None:
        k = max(deg_F)
        regular = (all(d in (0, k) for d in deg_F)
                   and any(deg_F[v] for v in im_fv))

    return PreimageReport(edges=pre, checks=(
        PreimageCheck("matching", host_matching, all(d <= 1 for d in deg_pre)),
        PreimageCheck("perfect_matching", all(d == 1 for d in deg_F), guest_pm),
        PreimageCheck("covering_matching", covers_image, guest_pm),
        PreimageCheck("edge_cut", cut, cut and G.is_edge_cut(pre)),
        PreimageCheck("regular_subgraph", regular, regular and bool(pre)
                      and all(d in (0, k) for d in deg_pre)),
    ))
