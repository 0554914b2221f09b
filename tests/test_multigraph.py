from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcolour.colouring import Colouring, unused_vertices
from hcolour.graphio import MAX_ORDER, from_edge_list_text, to_edge_list_text
from hcolour.multigraph import Multigraph
from hcolour.oracles import image_subgraph


def triangle():
    return Multigraph(3, [(0, 1), (1, 2), (0, 2)])


def test_basic_accessors():
    G = Multigraph(4, [(0, 1), (1, 2), (1, 2), (2, 3)])
    assert G.n == 4
    assert G.m == 4
    assert G.degree(1) == 3
    assert G.degrees() == (1, 3, 3, 1)
    assert Counter(G.edges) == {(0, 1): 1, (1, 2): 2, (2, 3): 1}
    assert G.incident(0) == ((0, 1),)
    assert dict(G.incident(2)) == {1: 1, 2: 1, 3: 3}


def test_edges_normalized_and_ids_stable():
    G = Multigraph(3, [(2, 0), (1, 0)])
    assert G.edges == ((0, 2), (0, 1))


def test_loops_rejected():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 0)])


def test_bad_endpoints_rejected():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Multigraph(-1, [])


def test_equality_and_hash():
    a = Multigraph(3, [(0, 1), (1, 2)])
    b = Multigraph(3, [(1, 0), (2, 1)])
    c = Multigraph(3, [(0, 1), (0, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_components_and_connectivity():
    G = Multigraph(5, [(0, 1), (2, 3)])
    assert G.components() == [[0, 1], [2, 3], [4]]
    assert not G.is_connected()
    assert triangle().is_connected()
    assert Multigraph(1, []).is_connected()
    assert Multigraph(0, []).is_connected()


def test_is_edge_cut():
    C4 = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not C4.is_edge_cut({0})
    assert C4.is_edge_cut({0, 2})
    assert not C4.is_edge_cut(set())
    with pytest.raises(ValueError):
        Multigraph(4, [(0, 1)]).is_edge_cut({0})


def test_bridges_path_and_cycle():
    P4 = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    assert P4.bridges() == frozenset({0, 1, 2})
    assert triangle().bridges() == frozenset()


def test_parallel_edges_are_never_bridges():
    G = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    assert G.bridges() == frozenset({2})


def test_bridges_across_components():
    G = Multigraph(5, [(0, 1), (2, 3), (3, 4), (2, 4), (2, 3)])
    assert G.bridges() == frozenset({0})


@st.composite
def multigraphs(draw, connected=False):
    """Multigraphs on 1..8 vertices; connected ones get a spanning tree in a
    random vertex order before the extra edges."""
    n = draw(st.integers(min_value=1, max_value=8))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = []
    if connected:
        order = draw(st.permutations(range(n)))
        for i in range(1, n):
            edges.append((order[draw(st.integers(0, i - 1))], order[i]))
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        a, b = draw(vertex), draw(vertex)
        if a != b:
            edges.append((a, b))
    return Multigraph(n, draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None)
@given(multigraphs(connected=True))
def test_single_edge_cuts_are_the_bridges(G):
    assert G.is_connected()
    assert frozenset(e for e in range(G.m) if G.is_edge_cut({e})) == G.bridges()


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_components_partition_the_vertices(G):
    comps = G.components()
    assert sorted(v for c in comps for v in c) == list(range(G.n))
    assert all(c == sorted(c) for c in comps)
    assert [c[0] for c in comps] == sorted(c[0] for c in comps)
    part = {v: i for i, c in enumerate(comps) for v in c}
    assert all(part[a] == part[b] for a, b in G.edges)
    assert all(G.induced_subgraph(c)[0].is_connected() for c in comps)
    assert G.is_connected() == (len(comps) <= 1)


def test_induced_subgraph():
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
    sub, verts = G.induced_subgraph([1, 2, 3])
    assert verts == [1, 2, 3]
    assert sub.n == 3
    assert sorted(sub.edges) == [(0, 1), (0, 1), (1, 2)]


def test_edge_induced_subgraph():
    # the subgraph of P4 on its two end edges, as the image of the
    # colouring of 2K2 that uses exactly those edges
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    c = Colouring(G, Multigraph(4, [(0, 1), (2, 3)]), (0, 2))
    sub, verts, eids = image_subgraph(c)
    assert verts == [0, 1, 2, 3]
    assert eids == [0, 2]
    assert sub.edges == ((0, 1), (2, 3))
    assert unused_vertices(c) == frozenset({1, 2})


def test_relabelled():
    G = Multigraph(3, [(0, 1), (1, 2)])
    H = G.relabelled([2, 0, 1])
    assert sorted(H.edges) == [(0, 2), (0, 1)] or sorted(H.edges) == [(0, 1), (0, 2)]
    assert H.degrees()[0] == 2
    with pytest.raises(ValueError):
        G.relabelled([0, 0, 1])


def test_sum_of_degrees_is_twice_edges():
    G = Multigraph(4, [(0, 1), (1, 2), (1, 2)])
    assert sum(G.degrees()) == 2 * G.m


def test_edge_list_text_roundtrip():
    G = Multigraph(3, [(0, 1), (1, 2), (1, 2)], name="demo")
    text = to_edge_list_text(G, comments=["a demo graph"])
    assert text.startswith("# a demo graph\n3 3\n")
    H = from_edge_list_text(text, name="demo")
    assert H == G


def test_edge_list_text_rejects_bad_header():
    with pytest.raises(ValueError):
        from_edge_list_text("3 2\n0 1\n")  # header claims 2 edges, has 1


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 2**36 - 1])
def test_edge_list_text_rejects_an_order_over_the_limit(order):
    with pytest.raises(ValueError, match=f"^line 2: order {order} exceeds {MAX_ORDER}$"):
        from_edge_list_text(f"# big\n{order} 0\n")
