import gc
import hashlib
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcolour.canonical import is_isomorphic
from hcolour.multigraph import Multigraph
from hcolour.named import (
    complete,
    cycle,
    k_family_members,
    petersen,
    poorly_matchable_ten_vertices,
    s4,
    s10,
    s4_plus_km,
    s12_plus_km,
    t_k2,
)
from hcolour.oracles import is_matching, spanning_regular_check
from hcolour.solver import solve
from hcolour.structure import (
    _edge_colouring,
    _LimitExceeded,
    chromatic_index,
    edge_colouring,
    enumerate_matchings,
    has_perfect_matching,
    has_two_disjoint_perfect_matchings,
    perfect_matchings,
    support_connected,
    support_masks,
    support_perfect_matchings,
)
from test_named import _pairwise_regular_multigraphs


def test_is_matching():
    G = cycle(4).graph
    assert is_matching(G, [])
    assert is_matching(G, [0, 2])
    assert not is_matching(G, [0, 1])


def test_enumerate_matchings_counts_c4():
    # C4: empty, 4 singletons, 2 perfect -> 7 matchings
    ms = list(enumerate_matchings(cycle(4).graph))
    assert len(ms) == 7
    assert sum(1 for M in ms if 2 * len(M) == 4) == 2
    assert len(set(ms)) == 7  # each exactly once


def test_enumerate_matchings_order():
    # include edge i before excluding it; the lemma24 samples depend on this
    C4 = cycle(4).graph
    assert C4.edges == ((0, 1), (1, 2), (2, 3), (0, 3))
    assert list(enumerate_matchings(C4)) == [
        {0, 2}, {0}, {1, 3}, {1}, {2}, {3}, set(),
    ]


def test_petersen_has_six_perfect_matchings():
    # frozen after independent enumeration of all matchings of size 5
    P = petersen().graph
    assert sum(1 for _ in perfect_matchings(P)) == 6
    direct = {M for M in enumerate_matchings(P) if 2 * len(M) == P.n}
    assert direct == {frozenset(M) for M in perfect_matchings(P)}


def test_perfect_matchings_odd_order_empty():
    assert not has_perfect_matching(cycle(5).graph)


def test_two_disjoint_perfect_matchings():
    C4 = cycle(4).graph
    pair = has_two_disjoint_perfect_matchings(C4)
    assert pair is not None
    M1, M2 = pair
    assert not (M1 & M2)
    assert is_matching(C4, M1) and is_matching(C4, M2)


def test_petersen_no_two_disjoint_perfect_matchings():
    # any two of the six perfect matchings of P share exactly one edge
    P = petersen().graph
    assert has_two_disjoint_perfect_matchings(P) is None
    pms = [frozenset(M) for M in perfect_matchings(P)]
    assert all(len(a & b) == 1 for i, a in enumerate(pms) for b in pms[i + 1:])


def test_s10_has_no_perfect_matching():
    assert not has_perfect_matching(s10().graph)


def test_s12_plus_1m_has_two_disjoint_pms():
    pair = has_two_disjoint_perfect_matchings(s12_plus_km(1).graph)
    assert pair is not None


def test_edge_colouring_validity():
    P = petersen().graph
    assert edge_colouring(P, 3) is None
    col = edge_colouring(P, 4)
    assert col is not None
    for u in range(P.n):
        cols = [col[e] for e, _ in P.incident(u)]
        assert len(cols) == len(set(cols))


@st.composite
def small_multigraphs(draw, max_n=8, max_edges=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            edges.append((a, b))
    return Multigraph(n, edges)


def _first_edge_colouring(G, k):
    """The first proper restricted-growth k-edge-colouring in product order:
    edges sharing an endpoint differ, and every edge's colour is at most
    one above the largest colour before it."""
    for colour in product(range(k), repeat=G.m):
        if all(c <= max(colour[:i], default=-1) + 1 for i, c in enumerate(colour)) \
                and all(colour[e] != colour[f]
                        for e, f in combinations(range(G.m), 2)
                        if set(G.edges[e]) & set(G.edges[f])):
            return list(colour)
    return None


@settings(max_examples=300, deadline=None)
@given(small_multigraphs(5, 7), st.integers(min_value=1, max_value=4))
def test_edge_colouring_matches_the_product_order_oracle(G, k):
    assert edge_colouring(G, k) == _first_edge_colouring(G, k)


@pytest.mark.parametrize("k", [3, 4])
def test_edge_colouring_runs_out_instead_of_returning_none(k):
    P = petersen().graph  # no 3-edge-colouring, a 4-edge-colouring
    found, nodes = _edge_colouring(P, k, 10**8)
    assert (found is None) == (k == 3)
    assert edge_colouring(P, k) == found
    assert _edge_colouring(P, k, nodes) == (found, nodes)
    for limit in (0, nodes - 1):
        with pytest.raises(_LimitExceeded):
            _edge_colouring(P, k, limit)
    with pytest.raises(_LimitExceeded):
        _edge_colouring(Multigraph(1, []), k, 0)  # the root is a node


def test_chromatic_index_values():
    assert chromatic_index(petersen().graph) == 4  # class 2
    assert chromatic_index(cycle(4).graph) == 2
    assert chromatic_index(cycle(5).graph) == 3
    assert chromatic_index(t_k2(3).graph) == 3
    assert chromatic_index(Multigraph(3, [(0, 1), (1, 2), (0, 2), (0, 1)])) == 4


def test_chromatic_index_guard():
    big = Multigraph(40, [(i, j) for i in range(40) for j in range(i + 1, 40)][:70])
    with pytest.raises(ValueError):
        chromatic_index(big)


def test_spanning_regular_check():
    C4 = cycle(4).graph
    assert spanning_regular_check(C4, range(4), 2)
    assert spanning_regular_check(C4, [0, 2], 1)
    assert not spanning_regular_check(C4, [0, 1], 1)
    assert spanning_regular_check(C4, [], 3)


def exposed_copies(G: Multigraph, k: int = 0) -> list[frozenset[int]]:
    """All 4-vertex sets inducing a copy of S4+kM with full-degree heavy vertices.

    The three vertices playing the degree-(k+3) role must have all their
    edges inside the copy; the fourth vertex is unconstrained.
    """
    template = s4_plus_km(k).graph
    heavy = k + 3
    out = []
    for X in combinations(range(G.n), 4):
        sub, verts = G.induced_subgraph(X)
        if sub.m == template.m and is_isomorphic(sub, template) and all(
            G.degree(v) == heavy for i, v in enumerate(verts) if sub.degree(i) == heavy
        ):
            out.append(frozenset(X))
    return out


def test_exposed_copies_counts():
    # each graph built from triangle gadgets has one copy per gadget
    assert len(exposed_copies(s10().graph)) == 3
    assert len(exposed_copies(s12_plus_km(0).graph)) == 3
    assert len(exposed_copies(s12_plus_km(1).graph, k=1)) == 3
    assert len(exposed_copies(petersen().graph)) == 0
    # S4 itself is a single exposed copy
    assert exposed_copies(s4().graph) == [frozenset({0, 1, 2, 3})]


# -- the pair-mask core against the edge-id matchings ----------------------

def _assert_mask_core_matches_edge_ids(G: Multigraph) -> None:
    pms = list(perfect_matchings(G))
    adj, _ = support_masks(G.n, G.edges)
    pair_sets = {
        sum(1 << (a * G.n + b) for a, b in (G.edges[e] for e in M)) for M in pms
    }
    assert sorted(support_perfect_matchings(G.n, adj)) == sorted(pair_sets)
    assert support_connected(adj) == G.is_connected()
    disjoint = any(not (a & b) for a, b in combinations_with_replacement(pms, 2))
    pair = has_two_disjoint_perfect_matchings(G)
    assert (pair is not None) == disjoint
    if pair is not None:
        M1, M2 = pair
        assert M1 in pms and M2 in pms and not (M1 & M2)


def test_mask_core_matches_edge_ids_on_labelled_4_regular_order_6():
    count = 0
    for edges in _pairwise_regular_multigraphs(6, 4):
        _assert_mask_core_matches_edge_ids(Multigraph(6, edges))
        count += 1
    assert count == 3355


@pytest.mark.parametrize(
    "G",
    [cycle(4).graph, petersen().graph, s10().graph, s12_plus_km(1).graph,
     t_k2(2).graph, poorly_matchable_ten_vertices().graph, Multigraph(0, [])],
    ids=["C4", "P", "S10", "S12+1M", "2K2", "S10+pairing", "empty"],
)
def test_mask_core_matches_edge_ids_on_named_graphs(G):
    _assert_mask_core_matches_edge_ids(G)


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_mask_core_matches_edge_ids_random(G):
    _assert_mask_core_matches_edge_ids(G)


@settings(max_examples=300, deadline=None)
@given(small_multigraphs())
def test_perfect_matchings_are_the_matchings_of_half_order(G):
    pms = list(perfect_matchings(G))
    assert len(set(pms)) == len(pms)
    assert set(pms) == {M for M in enumerate_matchings(G) if 2 * len(M) == G.n}


# The ordered matching streams and the first k-edge-colourings, hashed.  The
# lemma24 reservoir indexes into these streams, so their order is behaviour.
ORDER_DIGEST = "58f7f94430cc127827878a8144f9abb98468f080c42ea9218777f6e41bbda4dc"


def test_search_orders_are_pinned():
    h = hashlib.sha256()
    for G in (petersen().graph, s12_plus_km(1).graph, s4_plus_km(1).graph,
              complete(6).graph, s10().graph, poorly_matchable_ten_vertices().graph):
        for M in perfect_matchings(G):
            h.update(repr(sorted(M)).encode())
        h.update(b";")
        for M in enumerate_matchings(G):
            h.update(repr(sorted(M)).encode())
        h.update(b";")
        for k in (3, 4, 5):
            h.update(repr(edge_colouring(G, k)).encode())
        h.update(b"\n")
    assert h.hexdigest() == ORDER_DIGEST


def test_searches_leave_no_cyclic_garbage():
    P = petersen().graph
    gc.disable()
    try:
        gc.collect()
        list(perfect_matchings(P))
        next(perfect_matchings(P))
        list(enumerate_matchings(P))
        next(enumerate_matchings(P))
        edge_colouring(P, 4)
        k_family_members(4, 4)
        solve(s4().graph, P)
        assert gc.collect() == 0
    finally:
        gc.enable()
