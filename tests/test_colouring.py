import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcolour.colouring import (
    AmbiguousHostError,
    Colouring,
    ColouringReport,
    ImageGraph,
    _trusted_colouring,
    check_colouring,
    induced_vertex_map,
    preimage,
    splitted_image,
    unused_vertices,
)
from hcolour.multigraph import Multigraph
from hcolour.named import complete, cycle, petersen, s4, s12_plus_km, t_k2
from hcolour.oracles import (
    image_subgraph,
    is_matching,
    naive_check_colouring,
    naive_solve_all,
    spanning_regular_check,
)
from hcolour.recipes import _LEMMA_PAIRS
from hcolour.solver import solve
from hcolour.structure import enumerate_matchings, perfect_matchings
from test_structure import small_multigraphs


def paw_colouring():
    """A 6-vertex guest coloured by the paw (triangle plus pendant edge).

    Host edges: e0=(0,1), e1=(1,2), e2=(0,2), e3=(0,3).  Host vertex 2 is
    unused and has degree 2 in the used subgraph, so its splitted image has
    two split vertices.
    """
    host = Multigraph(4, [(0, 1), (1, 2), (0, 2), (0, 3)], name="paw")
    guest = Multigraph(
        6,
        [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5)],
    )
    # guest vertices 0,1 play host vertex 1; 2,3 play 0; 4,5 play 3
    edge_map = (1, 0, 0, 2, 3, 3)
    return Colouring(host, guest, edge_map)


def test_colouring_totality_enforced():
    host = s4().graph
    guest = cycle(3).graph
    with pytest.raises(ValueError):
        Colouring(host, guest, (0, 1))  # too short
    with pytest.raises(ValueError):
        Colouring(host, guest, (0, 1, 99))  # out of range


def test_colouring_range_error_names_first_bad_id():
    host = s4().graph  # edge ids 0..4
    guest = cycle(4).graph
    with pytest.raises(ValueError, match=r"host edge id 7 out of range"):
        Colouring(host, guest, (0, 1, 7, 9))
    with pytest.raises(ValueError, match=r"host edge id -1 out of range"):
        Colouring(host, guest, (2, 4, -1, 6))
    with pytest.raises(ValueError, match=r"host edge id 5 out of range"):
        Colouring(host, guest, (0, 5, 1, -3))
    with pytest.raises(ValueError, match=r"^host edge id 1\.0 is not an integer$"):
        Colouring(host, guest, (0, 1.0, 2, 9))
    with pytest.raises(ValueError, match=r"^host edge id True is not an integer$"):
        Colouring(host, guest, (0, True, 2, 3))
    assert Colouring(host, guest, (0, 4, 2, 3)).edge_map == (0, 4, 2, 3)
    assert Colouring(host, Multigraph(1, []), ()).edge_map == ()


def test_check_colouring_accepts_valid():
    c = paw_colouring()
    rep = check_colouring(c)
    assert rep.ok and bool(rep)


def test_check_colouring_detects_properness_violation():
    host = t_k2(2).graph
    guest = cycle(4).graph
    bad = Colouring(host, guest, (0, 0, 1, 0))
    rep = check_colouring(bad)
    assert not rep.ok
    assert rep.properness_violations


def test_check_colouring_detects_vertex_violation():
    # proper but the vertex condition fails: {0, 2} is no P4 boundary
    host = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    guest = cycle(4).graph
    bad = Colouring(host, guest, (0, 2, 0, 2))
    rep = check_colouring(bad)
    assert not rep.ok
    assert rep.vertex_violations


# the full reports of three rejected colourings, worked out by hand: each
# clash is (the first edge at the vertex with that colour, the later edge)
REJECTED_REPORTS = [
    # 2K2 <- C4 with edges 0, 1 and 3 on host edge 0: vertices 0 and 1
    # clash, and their image {0} is no boundary of 2K2
    (t_k2(2).graph, cycle(4).graph, (0, 0, 1, 0),
     ColouringReport(ok=False, properness_violations=((0, 3), (0, 1)),
                     vertex_violations=(0, 1))),
    # P4 <- C4, proper, but every image is {0, 2}, no P4 boundary
    (Multigraph(4, [(0, 1), (1, 2), (2, 3)]), cycle(4).graph, (0, 2, 0, 2),
     ColouringReport(ok=False, vertex_violations=(0, 1, 2, 3))),
    # K4 <- K4, the identity with edge 0 moved onto edge 1: vertex 0 clashes
    # and has image {1, 2}, vertex 1 is proper with image {1, 3, 4}
    (complete(4).graph, complete(4).graph, (1, 1, 2, 3, 4, 5),
     ColouringReport(ok=False, properness_violations=((0, 1),),
                     vertex_violations=(0, 1))),
]


@pytest.mark.parametrize("host, guest, f, expected", REJECTED_REPORTS,
                         ids=["2K2<C4", "P4<C4", "K4<K4"])
def test_check_colouring_rejected_reports_pinned(host, guest, f, expected):
    assert check_colouring(Colouring(host, guest, f)) == expected


def test_induced_vertex_map_unique():
    c = paw_colouring()
    fv = induced_vertex_map(c)
    assert fv == (1, 1, 0, 0, 3, 3)


def test_induced_vertex_map_ambiguous_for_tk2():
    host = t_k2(2).graph
    guest = cycle(4).graph
    c = Colouring(host, guest, (0, 1, 0, 1))
    assert check_colouring(c).ok
    with pytest.raises(AmbiguousHostError):
        induced_vertex_map(c)


def test_image_subgraph_and_unused():
    c = paw_colouring()
    Hf, verts, eids = image_subgraph(c)
    assert verts == [0, 1, 2, 3]
    assert eids == [0, 1, 2, 3]
    assert Hf.edges == ((0, 1), (1, 2), (0, 2), (0, 3))
    assert unused_vertices(c) == frozenset({2})


def test_splitted_image_splits_degree_two_unused():
    c = paw_colouring()
    img = splitted_image(c)
    assert len(img.split) == 2
    assert img.pendant_unused == ()
    assert img.graph.n == 5  # 3 used + 2 split copies
    assert sorted(img.graph.degrees()).count(1) == 3  # 2 splits + host vertex 3


def test_splitted_image_keeps_pendant_unused():
    # the S4-colouring of the Petersen graph leaves only the degree-1
    # vertex z unused, so nothing is split
    res = solve(s4().graph, petersen().graph)
    img = splitted_image(res.witness)
    assert img.split == ()
    assert len(img.pendant_unused) == 1
    assert img.graph.n == 4 and img.graph.m == 5


def _s4_colouring_of_petersen():
    return solve(s4().graph, petersen().graph).witness


@pytest.mark.parametrize("fn", [splitted_image, unused_vertices])
@pytest.mark.parametrize("build", [paw_colouring, _s4_colouring_of_petersen])
def test_image_functions_validate_once(monkeypatch, fn, build):
    from hcolour import colouring

    c = build()
    calls = []
    real = colouring.check_colouring

    def counting(col):
        calls.append(col)
        return real(col)

    monkeypatch.setattr(colouring, "check_colouring", counting)
    fn(c)
    assert calls == [c]


@pytest.mark.parametrize("fn", [splitted_image, unused_vertices])
def test_image_functions_reject_invalid_colouring(fn):
    bad = Colouring(t_k2(2).graph, cycle(4).graph, (0, 0, 1, 0))
    with pytest.raises(ValueError, match="invalid colouring"):
        fn(bad)


def hf_splitted_image(c: Colouring) -> ImageGraph:
    """splitted_image built on the subgraph H_f itself: the oracle for the
    version that reads H_f's vertices and degrees off used-edge counts."""
    fv = induced_vertex_map(c)
    Hf, verts, eids = image_subgraph(c)
    pos = {v: i for i, v in enumerate(verts)}
    used_old = sorted(set(fv))
    new_id = {v: i for i, v in enumerate(used_old)}
    pendant = []
    for v in verts:
        if v not in new_id and Hf.degree(pos[v]) == 1:
            new_id[v] = len(new_id)
            pendant.append(new_id[v])
    split, edges, next_id = [], [], len(new_id)
    for e in eids:
        ends = []
        for v in c.host.edges[e]:
            if v in new_id:
                ends.append(new_id[v])
            else:
                ends.append(next_id)
                split.append(next_id)
                next_id += 1
        edges.append(tuple(ends))
    graph = Multigraph(next_id, edges, name=f"~H_f({c.host.name or 'H'})")
    return ImageGraph(graph, tuple(new_id[v] for v in used_old), tuple(split),
                      tuple(pendant), c)


def hf_unused_vertices(c: Colouring) -> frozenset[int]:
    _, verts, _ = image_subgraph(c)
    return frozenset(verts) - frozenset(induced_vertex_map(c))


def assert_image_matches_hf_oracle(c: Colouring) -> None:
    try:
        want = hf_splitted_image(c)
    except AmbiguousHostError:
        for fn in (splitted_image, unused_vertices):
            with pytest.raises(AmbiguousHostError):
                fn(c)
        return
    got = splitted_image(c)
    assert (got.graph, got.graph.name) == (want.graph, want.graph.name), c.edge_map
    assert (got.used, got.split, got.pendant_unused) == (
        want.used, want.split, want.pendant_unused), c.edge_map
    assert got.source is c
    assert unused_vertices(c) == hf_unused_vertices(c), c.edge_map


PAW = paw_colouring().host

# (host, guest, colourings, of which ambiguous, with a split, with a pendant)
IMAGE_PAIRS = {
    "paw<guest6": (PAW, paw_colouring().guest, 2, 0, 2, 0),
    "paw<C6": (PAW, cycle(6).graph, 16, 0, 12, 4),
    "S4<K4": (s4().graph, complete(4).graph, 30, 0, 24, 18),
    "S4<P": (s4().graph, petersen().graph, 480, 0, 0, 480),
    "P<P": (petersen().graph, petersen().graph, 120, 0, 0, 0),
    "3K2<K4": (t_k2(3).graph, complete(4).graph, 6, 6, 0, 0),
}


@pytest.mark.parametrize("pair", IMAGE_PAIRS)
def test_splitted_image_matches_the_hf_oracle_on_every_colouring(pair):
    host, guest, count, ambiguous, with_split, with_pendant = IMAGE_PAIRS[pair]
    colourings = []
    solve(host, guest, mode="count", visit=colourings.append)
    assert len(colourings) == count
    seen = [0, 0, 0]
    for c in colourings:
        assert_image_matches_hf_oracle(c)
        try:
            img = splitted_image(c)
        except AmbiguousHostError:
            seen[0] += 1
            continue
        seen[1] += bool(img.split)
        seen[2] += bool(img.pendant_unused)
    assert seen == [ambiguous, with_split, with_pendant]


@settings(max_examples=200, deadline=None)
@given(small_multigraphs(5, 6), small_multigraphs(5, 4))
def test_splitted_image_matches_the_hf_oracle_on_small_pairs(host, guest):
    identity = Colouring(host, host, tuple(range(host.m)))
    for c in [identity, *naive_solve_all(host, guest)]:
        assert_image_matches_hf_oracle(c)


@pytest.mark.parametrize("bad", [True, 1.0])
def test_preimage_takes_only_integer_edge_ids(bad):
    c = _s4_colouring_of_petersen()
    with pytest.raises(ValueError, match=rf"^host edge id {bad!r} is not an integer$"):
        preimage(c, [bad])
    with pytest.raises(ValueError, match="is not an integer"):
        preimage(c, [1, bad])
    assert preimage(c, [1]).edges == preimage(c, iter([1])).edges


def test_preimage_matching_and_pm():
    res = solve(s4().graph, petersen().graph)
    c = res.witness
    host = c.host
    for M in perfect_matchings(host):
        rep = preimage(c, M)
        assert rep.check("matching").applicable
        assert rep.check("matching").holds
        assert rep.check("perfect_matching").applicable
        assert rep.check("perfect_matching").holds
        assert rep.all_applicable_hold


def test_preimage_regular_subgraph():
    c = paw_colouring()
    # the triangle edges form a 2-regular host set meeting the vertex image
    rep = preimage(c, {0, 1, 2})
    chk = rep.check("regular_subgraph")
    assert chk.applicable and chk.holds


def test_preimage_edge_cut():
    res = solve(s4().graph, petersen().graph)
    c = res.witness
    # any perfect matching of S4 within the used edges is an edge cut of the
    # used subgraph leaving no isolated vertex
    used = set(c.edge_map)
    for M in perfect_matchings(c.host):
        if set(M) <= used:
            rep = preimage(c, M)
            chk = rep.check("edge_cut")
            if chk.applicable:
                assert chk.holds


def test_preimage_rejects_invalid_colouring():
    host = t_k2(2).graph
    bad = Colouring(host, cycle(4).graph, (0, 0, 1, 0))
    with pytest.raises(ValueError):
        preimage(bad, {0})


def definitional_vertex_map(c: Colouring) -> tuple[int, ...]:
    """f_V from the definition: the host vertex whose boundary equals each
    guest vertex's image set; AmbiguousHostError if there are two."""
    out = []
    for u in range(c.guest.n):
        img = {c.edge_map[e] for e, _ in c.guest.incident(u)}
        owners = [v for v in range(c.host.n) if {e for e, _ in c.host.incident(v)} == img]
        if len(owners) > 1:
            raise AmbiguousHostError(u)
        out.append(owners[0])
    return tuple(out)


def definitional_preimage(c: Colouring, F: frozenset[int]):
    """preimage's edges and (name, applicable, holds) flags from the
    definitions, on the structure module's predicates and on H_f itself."""
    H, G = c.host, c.guest
    pre = frozenset(e for e, h in enumerate(c.edge_map) if h in F)
    host_matching = is_matching(H, F)
    guest_pm = is_matching(G, pre) and 2 * len(pre) == G.n
    try:
        im_fv = set(definitional_vertex_map(c))
    except AmbiguousHostError:
        im_fv = None
    ends = {v for e in F for v in H.edges[e]}
    cut = False
    if G.n > 1 and G.is_connected():
        Hf, verts, eids = image_subgraph(c)
        if F <= set(eids):
            X = {eids.index(e) for e in F}
            cut = Hf.is_edge_cut(X) and all(
                Hf.degree(v) > sum(v in Hf.edges[e] for e in X) for v in range(Hf.n))
    regular = False
    k = 0
    if F and im_fv is not None:
        k = sum(1 for e in F if next(iter(ends)) in H.edges[e])
        regular = spanning_regular_check(H, F, k) and bool(ends & im_fv)
    return pre, (
        ("matching", host_matching, is_matching(G, pre)),
        ("perfect_matching", host_matching and 2 * len(F) == H.n, guest_pm),
        ("covering_matching",
         host_matching and im_fv is not None and im_fv <= ends, guest_pm),
        ("edge_cut", cut, cut and G.is_edge_cut(pre)),
        ("regular_subgraph", regular,
         regular and bool(pre) and spanning_regular_check(G, pre, k)),
    )


def assert_vertex_map_is_definitional(c: Colouring) -> None:
    try:
        expected = definitional_vertex_map(c)
    except AmbiguousHostError:
        with pytest.raises(AmbiguousHostError):
            induced_vertex_map(c)
    else:
        assert induced_vertex_map(c) == expected


def assert_preimage_is_definitional(c: Colouring, F) -> None:
    rep = preimage(c, F)
    pre, flags = definitional_preimage(c, frozenset(F))
    assert rep.edges == pre, (c.edge_map, F)
    assert [(k.name, k.applicable, k.holds) for k in rep.checks] == list(flags), (
        c.edge_map, F)


def all_subsets(m: int):
    for r in range(m + 1):
        yield from map(frozenset, itertools.combinations(range(m), r))


@settings(max_examples=400, deadline=None)
@given(small_multigraphs(5, 6), small_multigraphs(5, 4))
def test_preimage_and_vertex_map_match_their_definitions(host, guest):
    # the host colours itself by the identity, so every example has one
    identity = Colouring(host, host, tuple(range(host.m)))
    for c in [identity, *naive_solve_all(host, guest)[:6]]:
        assert_vertex_map_is_definitional(c)
        for F in all_subsets(host.m):
            assert_preimage_is_definitional(c, F)


@pytest.mark.parametrize("label, host, guest", _LEMMA_PAIRS())
def test_preimage_matches_its_definition_on_the_lemma_pairs(label, host, guest):
    c = solve(host, guest).witness
    assert_vertex_map_is_definitional(c)
    for F in [*enumerate_matchings(host), c.image_edges()]:
        assert_preimage_is_definitional(c, F)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_every_colouring_by_tk2_has_an_ambiguous_vertex_map(t):
    host = t_k2(t).graph
    colourings = naive_solve_all(host, Multigraph(4, [(0, 1), (2, 3)] * t))
    assert colourings
    for c in colourings:
        with pytest.raises(AmbiguousHostError, match="2 candidate host vertices"):
            induced_vertex_map(c)
        assert_preimage_is_definitional(c, c.image_edges())


@st.composite
def total_edge_maps(draw):
    def graph(n, max_edges):
        edges = []
        for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
            a = draw(st.integers(min_value=0, max_value=n - 1))
            b = draw(st.integers(min_value=0, max_value=n - 1))
            if a != b:
                edges.append((a, b))
        return Multigraph(n, edges)

    host = graph(draw(st.integers(min_value=2, max_value=5)), 6)
    guest = graph(draw(st.integers(min_value=1, max_value=6)), 8)
    if host.m == 0:
        guest = Multigraph(guest.n, [])
    f = tuple(
        draw(st.integers(min_value=0, max_value=host.m - 1)) for _ in range(guest.m)
    )
    return Colouring(host, guest, f)


@settings(max_examples=400, deadline=None)
@given(total_edge_maps())
def test_check_colouring_matches_definition(c):
    assert check_colouring(c) == naive_check_colouring(c)


def test_check_colouring_matches_definition_on_solver_output():
    host, guest = s4().graph, petersen().graph
    colourings = []
    solve(host, guest, mode="count", visit=colourings.append)
    for c in colourings[:50]:
        assert check_colouring(c) == naive_check_colouring(c)
        assert check_colouring(c).ok


# Hosts with isolated vertices (boundary mask 0) and with parallel edges
# (two edges, two bits, one pair of endpoints), each against guests with
# and without isolated vertices.  Every total map is checked.
EXPLICIT_PAIRS = [
    # host isolated vertex 2 serves guest isolated vertex 2
    (Multigraph(3, [(0, 1)]), Multigraph(3, [(0, 1)])),
    # no isolated host vertex: the isolated guest vertex never matches
    (Multigraph(2, [(0, 1)]), Multigraph(3, [(0, 1)])),
    # edgeless guest against a host with and without isolated vertices
    (Multigraph(3, [(0, 1)]), Multigraph(2, [])),
    (Multigraph(2, [(0, 1)]), Multigraph(2, [])),
    (Multigraph(2, []), Multigraph(3, [])),
    (Multigraph(0, []), Multigraph(1, [])),
    # parallel host edges
    (t_k2(2).graph, cycle(4).graph),
    (t_k2(3).graph, Multigraph(2, [(0, 1)] * 3)),
    (Multigraph(3, [(0, 1), (0, 1), (1, 2)]),
     Multigraph(6, [(1, 2), (1, 2), (0, 1), (4, 3), (4, 5), (4, 5)])),
    # parallel host edges and an isolated host vertex together
    (Multigraph(4, [(0, 1), (0, 1), (1, 2)]),
     Multigraph(5, [(0, 1), (0, 1), (1, 2)])),
]


@pytest.mark.parametrize("host, guest", EXPLICIT_PAIRS)
def test_check_colouring_explicit_isolated_and_parallel(host, guest):
    for f in itertools.product(range(host.m), repeat=guest.m):
        c = Colouring(host, guest, f)
        assert check_colouring(c) == naive_check_colouring(c), f
        # the same map with the last host edge id replaced by one out of
        # range, built without the range check: -1 must not wrap round to
        # the last edge, and no lookup may raise
        for bad in (-1, host.m, 10**9):
            g = tuple(bad if h == host.m - 1 else h for h in f)
            if g == f:
                continue
            c = _trusted_colouring(host, guest, g)
            expected = naive_check_colouring(c)
            assert not expected.ok
            touched = {u for e, h in enumerate(g) if h == bad for u in guest.edges[e]}
            assert touched <= set(expected.vertex_violations), g
            assert check_colouring(c) == expected, g


def test_trusted_colouring_matches_the_checked_constructor(monkeypatch):
    host, guest = s4().graph, petersen().graph
    f = solve(host, guest).witness.edge_map
    trusted = _trusted_colouring(host, guest, f)
    assert type(trusted) is Colouring
    assert trusted == Colouring(host, guest, f)
    assert (trusted.host, trusted.guest, trusted.edge_map) == (host, guest, f)
    # __post_init__ does not run: neither the patched one nor the range check
    ran = []
    monkeypatch.setattr(Colouring, "__post_init__", lambda self: ran.append(self))
    Colouring(host, guest, f)
    assert len(ran) == 1
    bad = (host.m,) * guest.m
    assert _trusted_colouring(host, guest, bad).edge_map == bad
    assert len(ran) == 1
    monkeypatch.undo()
    with pytest.raises(ValueError):
        Colouring(host, guest, bad)
    for name, value in [("host", guest), ("guest", host), ("edge_map", bad)]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trusted, name, value)
    assert trusted == Colouring(host, guest, f)


def test_check_colouring_explicit_pairs_reach_both_verdicts():
    ok_somewhere = {
        i for i, (host, guest) in enumerate(EXPLICIT_PAIRS)
        if any(check_colouring(Colouring(host, guest, f)).ok
               for f in itertools.product(range(host.m), repeat=guest.m))
    }
    # pairs 1, 3 and 5 have an isolated guest vertex and no isolated host
    # vertex; every other pair has a valid colouring
    assert ok_somewhere == set(range(len(EXPLICIT_PAIRS))) - {1, 3, 5}


def test_check_colouring_shares_one_report_for_valid_colourings():
    a = check_colouring(paw_colouring())
    b = check_colouring(solve(s4().graph, petersen().graph).witness)
    assert a.ok and a is b


def test_check_colouring_single_edge_recolourings_of_s12_plus_1m():
    H = s12_plus_km(1).graph
    sample = []
    seen = itertools.count()

    def every_415th(c):
        if next(seen) % 415 == 0:
            sample.append(c.edge_map)

    res = solve(H, H, mode="count", visit=every_415th)
    assert res.count == 82944 and len(sample) == 200
    rejected = 0
    for f in sample:
        for e in range(H.m):
            for h in range(H.m):
                if h == f[e]:
                    continue
                c = Colouring(H, H, f[:e] + (h,) + f[e + 1:])
                expected = naive_check_colouring(c)
                assert check_colouring(c) == expected, (f, e, h)
                rejected += not expected.ok
    assert rejected > 0  # the set-based report was compared, not only the verdict
