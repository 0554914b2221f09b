import pytest

from hcolour.multigraph import (
    Multigraph,
    from_edge_list_text,
    to_edge_list_text,
)


def triangle():
    return Multigraph(3, [(0, 1), (1, 2), (0, 2)])


def test_basic_accessors():
    G = Multigraph(4, [(0, 1), (1, 2), (1, 2), (2, 3)])
    assert G.n == 4
    assert G.m == 4
    assert G.degree(1) == 3
    assert G.degrees() == (1, 3, 3, 1)
    assert G.multiplicity(1, 2) == 2
    assert G.multiplicity(0, 3) == 0
    assert G.incident_edges(0) == frozenset({0})
    assert dict(G.incident(2)) == {1: 1, 2: 1, 3: 3}


def test_edges_normalized_and_ids_stable():
    G = Multigraph(3, [(2, 0), (1, 0)])
    assert G.edges == ((0, 2), (0, 1))
    assert G.other_end(0, 2) == 0
    with pytest.raises(ValueError):
        G.other_end(0, 1)


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


def test_boundary():
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert G.boundary([0, 1]) == frozenset({1, 3})
    assert G.boundary([]) == frozenset()
    assert G.boundary(range(4)) == frozenset()


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


def test_induced_subgraph():
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
    sub, verts = G.induced_subgraph([1, 2, 3])
    assert verts == [1, 2, 3]
    assert sub.n == 3
    assert sorted(sub.edges) == [(0, 1), (0, 1), (1, 2)]


def test_edge_induced_subgraph():
    G = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    sub, verts, eids = G.edge_induced_subgraph([0, 2])
    assert verts == [0, 1, 2, 3]
    assert eids == [0, 2]
    assert sub.edges == ((0, 1), (2, 3))


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
