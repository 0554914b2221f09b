import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcolour.canonical import canonical_digest, canonical_form, is_isomorphic
from hcolour.multigraph import Multigraph
from hcolour.named import (
    complete,
    cycle,
    j_graph,
    petersen,
    s4,
    s10,
    s12,
    s12_plus_km,
)


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
