"""Constructors for the named multigraphs, with the labellings the proofs use.

Each constructor returns a LabelledGraph: the multigraph plus a role map
from label text to vertex/edge ids.  S4, S6, S10 and the S12+kM hosts are
copies of one S4+kM gadget (_place_gadget) glued at attachment vertices,
and J_{2r} is r copies of K_{2r+1}-e glued to a centre; each constructor
states only its gluing.  Gadget copies carry superscripts, e.g. "z^1",
"l^2_1", "r^3_2".  by_name resolves every graph name the package accepts
(petersen, s12+1M, k5-e, j4, kfamily-5-4-1, ...) through one table.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from .canonical import MAX_MULTIPLICITY, canonical_form
from .graphio import MAX_ORDER
from .multigraph import Multigraph


@dataclass(frozen=True)
class LabelledGraph:
    graph: Multigraph
    vertex_labels: dict[str, int] = field(default_factory=dict)
    edge_labels: dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.graph.name


def _check_size(n: int, m: int) -> None:
    """Raise ValueError, before a constructor builds anything, for a graph
    on more than MAX_ORDER vertices or edges."""
    if max(n, m) > MAX_ORDER:
        raise ValueError(
            f"{n} vertices and {m} edges; at most {MAX_ORDER} of each are supported")


def petersen() -> LabelledGraph:
    """The Petersen graph: outer cycle u1..u5, inner pentagram v1..v5, spokes."""
    edges = []
    elabels = {}
    for i in range(5):
        elabels[f"u{i + 1}u{(i + 1) % 5 + 1}"] = len(edges)
        edges.append((i, (i + 1) % 5))
    for i in range(5):
        elabels[f"v{i + 1}v{(i + 2) % 5 + 1}"] = len(edges)
        edges.append((5 + i, 5 + (i + 2) % 5))
    for i in range(5):
        elabels[f"u{i + 1}v{i + 1}"] = len(edges)
        edges.append((i, 5 + i))
    vlabels = {f"u{i + 1}": i for i in range(5)}
    vlabels.update({f"v{i + 1}": 5 + i for i in range(5)})
    return LabelledGraph(Multigraph(10, edges, name="P"), vlabels, elabels)


def _place_gadget(edges: list, vlabels: dict, elabels: dict, u: int, k: int,
                  sup: str = "", z: int | None = None) -> None:
    """Append one S4+kM gadget copy on u, v = u+1 and w = u+2.

    Labels the vertices u, v, w and appends the edges m_1 = uv, m_2 = uw
    and the k+2 parallel copies l_1..l_{k+2} of the bold edge vw; when the
    copy owns the attachment vertex z, also the k+1 copies r_1..r_{k+1} of
    the bold edge uz.  Every label carries the copy's superscript sup, and
    each edge label is its edge's position in edges.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    # k + 2 parallel edges; the cap also keeps every S-graph far below MAX_ORDER
    if k + 2 > MAX_MULTIPLICITY:
        raise ValueError(f"k must be at most {MAX_MULTIPLICITY - 2}")
    v, w = u + 1, u + 2
    vlabels.update({f"u{sup}": u, f"v{sup}": v, f"w{sup}": w})
    runs = [("m", [(u, v), (u, w)]), ("l", [(v, w)] * (k + 2))]
    if z is not None:
        runs.append(("r", [(u, z)] * (k + 1)))
    for role, run in runs:
        for j, edge in enumerate(run, 1):
            elabels[f"{role}{sup}_{j}"] = len(edges)
            edges.append(edge)


def s4_plus_km(k: int) -> LabelledGraph:
    """S4 plus k parallel copies on each bold matching edge (S4+0M = S4):
    one gadget on u=1, v=2, w=3 owning z=0."""
    edges, vlabels, elabels = [], {"z": 0}, {}
    _place_gadget(edges, vlabels, elabels, 1, k, z=0)
    name = "S4" if k == 0 else f"S4+{k}M"
    return LabelledGraph(Multigraph(4, edges, name=name), vlabels, elabels)


def s4() -> LabelledGraph:
    return s4_plus_km(0)


def s6_plus_km(k: int) -> LabelledGraph:
    """Two gadgets joined by the (k+1)-fold edge r between their u-vertices."""
    edges, vlabels, elabels = [], {}, {}
    for i in (1, 2):
        _place_gadget(edges, vlabels, elabels, 3 * (i - 1), k, f"^{i}")
    for j in range(k + 1):
        elabels[f"r_{j + 1}"] = len(edges)
        edges.append((0, 3))
    name = "S6" if k == 0 else f"S6+{k}M"
    return LabelledGraph(Multigraph(6, edges, name=name), vlabels, elabels)


def s6() -> LabelledGraph:
    return s6_plus_km(0)


def s10() -> LabelledGraph:
    """The Sylvester graph: three gadgets attached to one central vertex c."""
    edges, vlabels, elabels = [], {"c": 9}, {}
    for i in (1, 2, 3):
        _place_gadget(edges, vlabels, elabels, 3 * (i - 1), 0, f"^{i}", z=9)
    return LabelledGraph(Multigraph(10, edges, name="S10"), vlabels, elabels)


def s12_plus_km(k: int) -> LabelledGraph:
    """Three gadgets whose attachment edges end on a plain triangle z^1 z^2 z^3."""
    edges, vlabels, elabels = [], {}, {}
    for i in (1, 2, 3):
        z = 4 * (i - 1)
        vlabels[f"z^{i}"] = z
        _place_gadget(edges, vlabels, elabels, z + 1, k, f"^{i}", z=z)
    for i, j in ((1, 2), (2, 3), (1, 3)):
        elabels[f"z^{i}z^{j}"] = len(edges)
        edges.append((vlabels[f"z^{i}"], vlabels[f"z^{j}"]))
    name = "S12" if k == 0 else f"S12+{k}M"
    return LabelledGraph(Multigraph(12, edges, name=name), vlabels, elabels)


def s12() -> LabelledGraph:
    return s12_plus_km(0)


# -- classical graphs ------------------------------------------------------

def complete(n: int) -> LabelledGraph:
    if n < 1:
        raise ValueError("n must be positive")
    _check_size(n, n * (n - 1) // 2)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return LabelledGraph(Multigraph(n, edges, name=f"K{n}"))


def complete_minus_edge(n: int) -> LabelledGraph:
    """K_n minus one edge; the two deficient vertices are labelled a and b."""
    if n < 2:
        raise ValueError("n must be at least 2")
    _check_size(n, n * (n - 1) // 2 - 1)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)]
    return LabelledGraph(
        Multigraph(n, edges, name=f"K{n}'"), vertex_labels={"a": 0, "b": 1}
    )


def star(t: int) -> LabelledGraph:
    """K_{1,t}: centre 0 with t leaves."""
    if t < 1:
        raise ValueError("t must be positive")
    _check_size(t + 1, t)
    return LabelledGraph(
        Multigraph(t + 1, [(0, i + 1) for i in range(t)], name=f"K1,{t}"),
        vertex_labels={"centre": 0},
    )


def t_k2(t: int) -> LabelledGraph:
    """Two vertices with t parallel edges."""
    if t < 1:
        raise ValueError("t must be positive")
    if t > MAX_MULTIPLICITY:
        raise ValueError(f"t must be at most {MAX_MULTIPLICITY}")
    return LabelledGraph(Multigraph(2, [(0, 1)] * t, name=f"{t}K2"))


def cycle(n: int) -> LabelledGraph:
    if n < 3:
        raise ValueError("n must be at least 3")
    _check_size(n, n)
    return LabelledGraph(Multigraph(n, [(i, (i + 1) % n) for i in range(n)], name=f"C{n}"))


def path(n: int) -> LabelledGraph:
    """Path on n vertices (n-1 edges)."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_size(n, n - 1)
    return LabelledGraph(Multigraph(n, [(i, i + 1) for i in range(n - 1)], name=f"P{n}"))


def j_graph(r: int) -> LabelledGraph:
    """r copies of K_{2r+1} minus an edge, glued to a new central vertex.

    Each copy's two deficient vertices a, b are joined to the centre u,
    giving a 2r-regular simple graph on r(2r+1)+1 vertices.
    """
    if r <= 1:
        raise ValueError("r must be greater than 1")
    _check_size(r * (2 * r + 1) + 1, r * (r * (2 * r + 1) + 1))
    block = complete_minus_edge(2 * r + 1)
    a, b = block.vertex_labels["a"], block.vertex_labels["b"]
    size = block.graph.n
    centre = r * size
    edges, vlabels = [], {"u": centre}
    for c in range(r):
        base = c * size
        edges += [(base + i, base + j) for i, j in block.graph.edges]
        edges += [(base + a, centre), (base + b, centre)]
        vlabels[f"a^{c + 1}"], vlabels[f"b^{c + 1}"] = base + a, base + b
    return LabelledGraph(Multigraph(centre + 1, edges, name=f"J{2 * r}"), vlabels)


# -- exhaustive families ---------------------------------------------------

def _realisable(degrees) -> bool:
    """True iff a loopless multigraph has this degree sequence: the sum is
    even and no degree exceeds the sum of the others."""
    total = sum(degrees)
    return total % 2 == 0 and 2 * max(degrees, default=0) <= total


def _compositions(total: int, lo: list[int], hi: tuple[int, ...], ties: tuple[bool, ...],
                  prev: int = 0) -> list[tuple[int, ...]]:
    """Compositions of total with lo[k] <= part k <= hi[k] and, wherever
    ties[k], part k >= part k-1 (prev stands before part 0), in
    lexicographic order."""
    if not lo:
        return [()] if total == 0 else []
    floor = max(lo[0], prev) if ties[0] else lo[0]
    rest_lo = sum(lo) - lo[0]
    rest_hi = sum(hi) - hi[0]
    out = []
    for part in range(max(floor, total - rest_hi), min(hi[0], total - rest_lo) + 1):
        for rest in _compositions(total - part, lo[1:], hi[1:], ties[1:], part):
            out.append((part,) + rest)
    return out


def _rows(n: int, state: tuple, memo: dict) -> list:
    """(edges, next state) of each kept row of vertex i = n - len(rem), for
    state = (rem, ties): the remaining degrees of i..n-1, and whether each
    of i+1..n-1 shares the block of the vertex before it.  memo keeps the
    rows of every state for one walk."""
    found = memo.get(state)
    if found is None:
        rem, ties = state
        i, t, tail = n - len(rem), rem[0], rem[1:]
        half = (sum(tail) - t) // 2
        found = memo[state] = []
        for row in _compositions(t, [max(0, d - half) for d in tail], tail, ties):
            edges = [(i, j) for j, p in enumerate(row, i + 1) for _ in range(p)]
            child = tuple(d - p for d, p in zip(tail, row))
            split = tuple(s and a == b for s, a, b in zip(ties[2:], row[1:], row[2:]))
            found.append((edges, (child, (False,) + split)))
    return found


def _walk(n: int, state: tuple, above: list, memo: dict):
    """Edge lists of the block-sorted completions of above from state on."""
    for edges, child in _rows(n, state, memo):
        if len(child[0]) == 1:
            yield above + edges
        else:
            yield from _walk(n, child, above + edges, memo)


def _regular_multigraphs(n: int, r: int):
    """The block-sorted loopless multigraphs on n vertices with all degrees
    r, as edge lists: at least one labelling of every isomorphism class.

    The walk fills the upper-triangle multiplicity matrix row by row, so
    graphs come in lexicographic order of the multiplicity vector, pairs
    taken as (0,1), (0,2), ..., (n-2,n-1).  Row i is a composition of
    vertex i's remaining degree over vertices i+1..n-1, each part capped by
    that vertex's remaining degree d.  A row is kept only if the residual
    degrees of i+1..n-1 stay realisable (_realisable): every pair among
    them is still free, so that test is exact, and with the residual sum S
    fixed by the row's total it is a lower bound d - S // 2 on each part.

    Block rule: before row i, two of the vertices i+1..n-1 share a block
    when they have equal multiplicities to every vertex 0..i-1.  Blocks
    are intervals whose members have equal remaining degrees, and row i
    must be non-decreasing inside each block; the next row's blocks are
    these, without vertex i+1, cut wherever row i's part changes.

    Why no class is lost: take a class's least labelling in the walk's
    order.  If j < k shared a block before row i and m[i][j] > m[i][k],
    swapping j and k would keep rows 0..i-1 and lower entry (i, j), so the
    least labelling obeys the rule.  The stream is therefore the full
    labelled walk's stream with some graphs left out, and still holds the
    first member of every class, in the same order; the first member with
    any property that isomorphism keeps is the same in both.  No kept row
    is a dead end: of the completions of a realisable residual, the least
    under swaps inside the current blocks obeys the rule below it.
    """
    degrees = (r,) * n
    if not _realisable(degrees):
        return
    if n < 2:
        yield []
        return
    yield from _walk(n, (degrees, (False,) + (True,) * (n - 2)), [], {})


def k_family_members(t: int, r: int) -> list[Multigraph]:
    """All r-regular multigraphs on t pairwise-adjacent vertices, up to iso.

    Every vertex pair gets multiplicity at least 1: each member is the
    clique K_t plus an (r - t + 1)-regular multigraph on the same vertices.
    The first member of each class in _regular_multigraphs order is kept:
    its least labelling, which the full labelled walk would keep too.
    Infeasible parameters give the empty list.
    """
    if t < 2 or r < 1:
        raise ValueError("need t >= 2 and r >= 1")
    _check_size(t, t * r // 2)
    if t * r % 2 == 1 or r < t - 1:
        return []
    pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
    seen: dict[bytes, Multigraph] = {}
    for extra in _regular_multigraphs(t, r - (t - 1)):
        mult = Counter(extra)
        G = Multigraph(t, [p for p in pairs for _ in range(1 + mult[p])])
        seen.setdefault(canonical_form(G), G)
    return list(seen.values())


def poorly_matchable_ten_vertices() -> LabelledGraph:
    """A 4-regular multigraph with a perfect matching but no two disjoint ones.

    The Sylvester graph plus one perfect pairing of its vertex set.  The
    exhaustive search below proves no such graph exists on fewer than 10
    vertices, so this is order-minimal for degree 4.
    """
    base = s10()
    pairing = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
    graph = Multigraph(
        10, list(base.graph.edges) + pairing, name="S10+pairing"
    )
    return LabelledGraph(graph, dict(base.vertex_labels), dict(base.edge_labels))


def _witness_leaves(n: int, r: int):
    """The edge lists of _regular_multigraphs(n, r) that are poorly
    matchable candidates, decided on pair masks: a connected support with
    perfect matchings of which disjoint_pair finds no two sharing only
    doubled pairs."""
    from .structure import (
        disjoint_pair,
        support_connected,
        support_masks,
        support_perfect_matchings,
    )

    for edges in _regular_multigraphs(n, r):
        adj, double = support_masks(n, edges)
        if support_connected(adj):
            pms = support_perfect_matchings(n, adj)
            if pms and disjoint_pair(pms, double) is None:
                yield edges


def poorly_matchable_witness(r: int, max_order: int) -> Multigraph | None:
    """Smallest-order r-regular multigraph with a perfect matching but no
    two disjoint ones, or None if there is none up to max_order.

    Exhaustive deterministic search in increasing order over the connected
    candidates of _regular_multigraphs, which holds every isomorphism class
    in its least labelling; the first hit at the smallest feasible order
    wins, and it is the first hit of the full labelled walk too.  A
    disconnected witness would contain a smaller witness component, so
    restricting to connected graphs keeps the order minimal.

    Candidates are decided on pair masks (_witness_leaves); a Multigraph is
    built only for the hit, which is revalidated by is_connected,
    is_regular and the all-pairs check over the perfect matchings listed
    from its edge list before it is returned.
    """
    from .oracles import pairwise_intersecting_perfect_matchings
    from .structure import has_perfect_matching

    if r < 4:
        raise ValueError("poorly matchable search is defined for r >= 4")
    for n in range(2, max_order + 1, 2):
        for edges in _witness_leaves(n, r):
            G = Multigraph(n, edges, name=f"poorly-matchable-{r}")
            if not (
                G.is_connected()
                and G.is_regular(r)
                and has_perfect_matching(G)
                and pairwise_intersecting_perfect_matchings(G)
            ):
                raise RuntimeError(
                    f"mask search and edge-id revalidation disagree on {G.edges}"
                )
            return G
    return None


# -- the name registry -----------------------------------------------------

class UnknownGraphName(ValueError):
    """A name that matches no entry of the registry."""


def _j_by_subscript(two_r: int) -> LabelledGraph:
    """J_{2r} by its subscript 2r, as the paper names it."""
    if two_r % 2:
        raise ValueError("j-graphs are defined for even subscripts")
    return j_graph(two_r // 2)


def _kfamily(t: int, r: int, index: int = 0) -> LabelledGraph:
    """Member index of k_family_members(t, r), with no labels."""
    members = k_family_members(t, r)
    if index >= len(members):
        raise ValueError(
            f"kfamily-{t}-{r} has {len(members)} members; index {index} out of range"
        )
    return LabelledGraph(members[index])


# Every graph name the package accepts: a lower-case pattern and its
# constructor, called with the pattern's integer groups.
_REGISTRY: list[tuple[str, Callable[..., LabelledGraph]]] = [
    (r"petersen|p", petersen),
    (r"s4", s4),
    (r"s6", s6),
    (r"s10", s10),
    (r"s12", s12),
    (r"pm10", poorly_matchable_ten_vertices),
    (r"s4\+(\d+)m", s4_plus_km),
    (r"s6\+(\d+)m", s6_plus_km),
    (r"s12\+(\d+)m", s12_plus_km),
    (r"k(\d+)", complete),
    (r"k(\d+)-e", complete_minus_edge),
    (r"c(\d+)", cycle),
    (r"path(\d+)", path),
    (r"star(\d+)", star),
    (r"(\d+)k2", t_k2),
    (r"j(\d+)", _j_by_subscript),
    (r"kfamily-(\d+)-(\d+)(?:-(\d+))?", _kfamily),
]


def by_name(name: str) -> LabelledGraph:
    """The graph a registry name denotes, case-insensitively.

    Names are ASCII, so their digits are 0-9: \\d would also match U+0663,
    and lower() takes the Kelvin sign U+212A to k.  Raises UnknownGraphName
    if no pattern matches, and ValueError naming the reference if the
    constructor rejects its parameters.
    """
    if name.isascii():
        key = name.lower()
        for pattern, build in _REGISTRY:
            m = re.fullmatch(pattern, key)
            if m:
                try:
                    return build(*(int(g) for g in m.groups() if g is not None))
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from None
    raise UnknownGraphName(f"unknown graph name {name!r}")
