import hashlib
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcolour import canonical, oracles
from hcolour.canonical import (
    automorphism_generators,
    automorphism_group_order,
    canonical_digest,
    canonical_form,
    is_isomorphic,
)
from hcolour.graphio import ingest_graph6
from hcolour.multigraph import Multigraph
from hcolour.named import (
    by_name,
    complete,
    cycle,
    j_graph,
    petersen,
    s4,
    s10,
    s12,
    s12_plus_km,
)
from hcolour.oracles import naive_canonical_form


def test_canonical_form_is_relabelling_invariant_petersen():
    P = petersen().graph
    rng = random.Random(7)
    key = canonical_form(P)
    for _ in range(10):
        perm = list(range(P.n))
        rng.shuffle(perm)
        assert canonical_form(P.relabelled(perm)) == key


@st.composite
def multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.integers(min_value=0, max_value=10))
    edges = []
    for _ in range(m):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            edges.append((a, b))
    return Multigraph(n, edges)


@settings(max_examples=150, deadline=None)
@given(multigraphs(), st.randoms(use_true_random=False))
def test_canonical_form_permutation_invariance(G, rnd):
    perm = list(range(G.n))
    rnd.shuffle(perm)
    H = G.relabelled(perm)
    assert canonical_form(G) == canonical_form(H)
    assert is_isomorphic(G, H)


def test_non_isomorphic_same_degree_sequence():
    # C6 vs 2 triangles: both 2-regular on 6 vertices
    c6 = cycle(6).graph
    tt = Multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic(c6, tt)
    assert canonical_form(c6) != canonical_form(tt)


def test_parallel_edges_distinguished():
    double = Multigraph(2, [(0, 1), (0, 1)])
    single = Multigraph(2, [(0, 1)])
    assert not is_isomorphic(double, single)


def test_named_graphs_pairwise_distinct():
    graphs = [petersen().graph, s4().graph, s10().graph, s12().graph,
              complete(5).graph]
    keys = {canonical_form(g) for g in graphs}
    assert len(keys) == len(graphs)


def test_digest_is_stable_hex():
    d = canonical_digest(s4().graph)
    assert len(d) == 16
    int(d, 16)  # parses as hex
    assert d == canonical_digest(s4().graph)


def test_petersen_is_vertex_transitive_certificate():
    # relabelling by an automorphism maps to the same canonical form and the
    # identity-relabelled copy compares equal as well
    P = petersen().graph
    assert is_isomorphic(P, P.relabelled(list(range(10))))


def _heawood() -> Multigraph:
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Multigraph(14, edges)


# sha256 of canonical_form, recorded before the search was optimised.
# Certificate and atlas digests rest on these bytes, so they must not move.
CANONICAL_SHA256 = {
    "P": (
        lambda: petersen().graph,
        "8d183b25e3c8e6a3393c6b05833aa124ce1f70d832e6ddfcf9dad9e8002dc4ae",
    ),
    "S4": (
        lambda: s4().graph,
        "29f43a0b91a4278d18e109b1011b46ff4c910c6eeac9f930fb8d83642f6f2c06",
    ),
    "S10": (
        lambda: s10().graph,
        "a4418f9f722fbe7e49eb2051beaaf705d153872cd91ab8d4366d49c85a4ac208",
    ),
    "S12": (
        lambda: s12().graph,
        "630473c8cc236b25f06cde2ebc4398bf76db9e9494592c811a86ad41f7d946f1",
    ),
    "S12+1M": (
        lambda: s12_plus_km(1).graph,
        "84154efb3c5a397ff61b2cadb4a0fb8fd6693176c1e3c56a17a7564cfcba27b9",
    ),
    "K7": (
        lambda: complete(7).graph,
        "8bd051b63979b043e396ef46ae6f178bcaf2737d110c61b301dbc490617b47e9",
    ),
    "K8": (
        lambda: complete(8).graph,
        "a7c80d3d44d0f2eee0a6d74da23ac06bd23253bf4cfbaa1a7cca03057058dfda",
    ),
    "J4": (
        lambda: j_graph(2).graph,
        "c3f29c94cc46816d4a62d2e410b31b49b3fc48f90fc370152af89e3cd72d3448",
    ),
    "Heawood": (
        _heawood,
        "2232bd6029ab82aa38f0384fa35d23ebdb2f8f0a70df780433f9209dfaafff49",
    ),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_SHA256))
def test_canonical_form_pinned(name):
    build, expected = CANONICAL_SHA256[name]
    G = build()
    perm = list(range(G.n))
    random.Random(1).shuffle(perm)
    for H in (G, G.relabelled(perm)):
        assert hashlib.sha256(canonical_form(H)).hexdigest() == expected


# -- automorphism pruning against the unpruned search ------------------------

CORPUS = Path(__file__).resolve().parents[1] / "data" / "cubic_bridgeless_le14.g6"

# Registry names of the named constructions.  K8 is pinned above.  J6 and
# larger are left out: the unpruned oracle would walk all |Aut| = 82,944,000
# optimal leaves of J6.
NAMED = [
    "petersen", "s4", "s6", "s10", "s12", "pm10", "s4+0m", "s4+2m", "s6+1m",
    "s12+1m", "s12+2m", "k1", "k2", "k3", "k4", "k5", "k6", "k7", "k4-e",
    "k5-e", "c3", "c4", "c5", "c6", "c7", "c8", "path2", "path3", "path5",
    "star2", "star3", "star5", "2k2", "3k2", "5k2", "j4", "kfamily-3-4",
    "kfamily-5-4", "kfamily-4-5-1", "kfamily-4-7-3", "kfamily-3-6",
]


def _brute_force_aut_order(G: Multigraph) -> int:
    edges = sorted(G.edges)
    return sum(
        1
        for p in itertools.permutations(range(G.n))
        if sorted((min(p[a], p[b]), max(p[a], p[b])) for a, b in G.edges) == edges
    )


def _is_automorphism(G: Multigraph, g) -> bool:
    if sorted(g) != list(range(G.n)):
        return False
    moved = sorted((min(g[a], g[b]), max(g[a], g[b])) for a, b in G.edges)
    return moved == sorted(G.edges)


def _closure_order(gens, n: int) -> int:
    """Order of the group the permutations generate, by breadth-first closure."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[v]] for v in range(n))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def _check_group(G: Multigraph) -> None:
    """Pruned and unpruned forms agree, |Aut| is brute force's and the
    generators are automorphisms that generate a group of that order."""
    assert canonical_form(G) == naive_canonical_form(G)
    order = automorphism_group_order(G)
    gens = automorphism_generators(G)
    assert all(_is_automorphism(G, g) for g in gens)
    if G.n <= 7:
        assert order == _brute_force_aut_order(G)
        assert _closure_order(gens, G.n) == order


def test_canonical_form_matches_naive_on_corpus():
    count = 0
    for _, G in ingest_graph6(CORPUS):
        assert isinstance(G, Multigraph), G
        assert canonical_form(G) == naive_canonical_form(G)
        gens = automorphism_generators(G)
        assert all(_is_automorphism(G, g) for g in gens)
        # the count and the generators come out of the search separately
        assert _closure_order(gens, G.n) == automorphism_group_order(G)
        count += 1
    assert count == 587


@pytest.mark.parametrize("name", NAMED)
def test_named_graph_group_matches_oracles(name):
    _check_group(by_name(name).graph)


@st.composite
def multigraphs_with_parallel_edges(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    edges = []
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda ab: ab[0] != ab[1]
        )
        for ab, mult in draw(st.lists(st.tuples(pair, st.integers(1, 3)), max_size=9)):
            edges += [ab] * mult
    return Multigraph(n, draw(st.permutations(edges)))


@settings(max_examples=150, deadline=None)
@given(multigraphs_with_parallel_edges())
def test_group_matches_oracles_on_multigraphs(G):
    _check_group(G)


@st.composite
def ordered_partitions(draw):
    """A multigraph with parallel edges and an ordered partition of its
    vertices: random cells, in a random order, each in a random order."""
    G = draw(multigraphs_with_parallel_edges())
    part = draw(st.lists(st.integers(0, G.n - 1), min_size=G.n, max_size=G.n))
    cells = {}
    for v in draw(st.permutations(range(G.n))):
        cells.setdefault(part[v], []).append(v)
    return G, list(cells.values())


@settings(max_examples=300, deadline=None)
@given(ordered_partitions())
def test_sparse_refinement_matches_the_dense_definition(drawn):
    # the sparse signature must give the dense one's splits and sub-cell
    # order, which the canonical bytes depend on, from any ordered partition,
    # and so must a refinement keyed from one individualised vertex of an
    # equitable partition, as the search refines its children
    G, cells = drawn
    nbrs, mult = canonical._neighbours(G), canonical._mult_matrix(G)
    for start in (cells, canonical._initial_cells(nbrs)):
        assert canonical._refine(nbrs, start) == oracles._dense_refine(mult, start)
        equitable = oracles._dense_refine(mult, start)
        for i, cell in enumerate(equitable):
            if len(cell) == 1:
                continue
            for v in cell:
                rest = [w for w in cell if w != v]
                child = equitable[:i] + [[v], rest] + equitable[i + 1:]
                assert (canonical._refine(nbrs, child, [i])
                        == oracles._dense_refine(mult, child))


def test_empty_graph_group():
    G = Multigraph(0, [])
    assert canonical_form(G) == naive_canonical_form(G)
    assert automorphism_group_order(G) == 1
    assert automorphism_generators(G) == ()


def test_multiplicity_limit():
    # the encoding holds one byte per vertex pair: 255 parallel edges fit
    # and 256 do not, whichever way round each edge was given
    ok = Multigraph(3, [(0, 1), (1, 0)] * 127 + [(0, 1), (1, 2)])
    assert canonical_form(ok) == naive_canonical_form(ok)
    assert automorphism_group_order(ok) == 1
    with pytest.raises(ValueError, match="above 255"):
        canonical_form(Multigraph(3, [(1, 0), (0, 1)] * 128 + [(1, 2)]))


def _z4_squared_cayley(steps) -> Multigraph:
    """Cayley graph of Z4 x Z4 with connection set steps and their negatives."""
    edges = set()
    for v in range(16):
        i, j = divmod(v, 4)
        for a, b in steps:
            w = (i + a) % 4 * 4 + (j + b) % 4
            edges.add((min(v, w), max(v, w)))
    return Multigraph(16, sorted(edges))


def _shrikhande() -> Multigraph:
    return _z4_squared_cayley([(0, 1), (1, 0), (1, 1)])


def _rook4() -> Multigraph:
    """The 4 x 4 rook's graph: same row or same column."""
    return _z4_squared_cayley([(0, 1), (0, 2), (1, 0), (2, 0)])


def test_strongly_regular_16_vertex_pair():
    # both are strongly regular with parameters (16, 6, 2, 2), so equitable
    # refinement cannot tell their vertices apart; they are not isomorphic
    S, R = _shrikhande(), _rook4()
    assert sorted(S.degrees()) == sorted(R.degrees()) == [6] * 16
    assert not is_isomorphic(S, R)
    for G in (S, R):
        assert canonical_form(G) == naive_canonical_form(G)
        assert all(_is_automorphism(G, g) for g in automorphism_generators(G))


@pytest.mark.parametrize("name, order", [("P", 120), ("Heawood", 336), ("K7", 5040),
                                         ("K8", 40320), ("Shrikhande", 192),
                                         ("Rook4", 1152)])
def test_group_order_matches_networkx(name, order):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import MultiGraphMatcher

    extra = {"Shrikhande": _shrikhande, "Rook4": _rook4}
    G = (extra.get(name) or CANONICAL_SHA256[name][0])()
    H = nx.MultiGraph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    assert sum(1 for _ in MultiGraphMatcher(H, H).isomorphisms_iter()) == order
    assert automorphism_group_order(G) == order
    assert all(_is_automorphism(G, g) for g in automorphism_generators(G))


@pytest.mark.parametrize("name", ["j6", "j8", "k9", "s12+2m"])
def test_generators_generate_a_group_of_the_counted_order(name):
    sympy = pytest.importorskip("sympy")
    from sympy.combinatorics import Permutation, PermutationGroup

    G = by_name(name).graph
    gens = automorphism_generators(G)
    assert all(_is_automorphism(G, g) for g in gens)
    group = PermutationGroup([Permutation(list(g)) for g in gens])
    assert group.order() == automorphism_group_order(G)


def test_group_comes_from_the_canonical_search(monkeypatch):
    G = complete(6).graph
    key = canonical_form(G)

    def no_search(G):
        raise AssertionError("searched again")

    monkeypatch.setattr(canonical, "_search", no_search)
    assert canonical_form(G) == key
    assert automorphism_group_order(G) == 720
    assert len(automorphism_generators(G)) > 0


# Leaves the pruned search encodes; the unpruned search encodes every leaf
# (120, 336, 5,040, 40,320 and 362,880 for the first five).  A change to the
# pruning shows up here even where the bytes stay the same.
PRUNED_LEAVES = {"P": 10, "Heawood": 15, "K7": 22, "K8": 29, "K9": 37,
                 "J4": 12, "S12+1M": 7}


@pytest.mark.parametrize("name", sorted(PRUNED_LEAVES))
def test_pruned_search_leaf_count_pinned(monkeypatch, name):
    build = {"K9": lambda: complete(9).graph}.get(name) or CANONICAL_SHA256[name][0]
    G = build()
    leaves = []
    real = canonical._encode

    def counting(mult, order):
        leaves.append(order)
        return real(mult, order)

    monkeypatch.setattr(canonical, "_encode", counting)
    canonical_form(G)
    assert len(leaves) == PRUNED_LEAVES[name]
