import hashlib
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from math import factorial
from pathlib import Path

import pytest

import hcolour
from hcolour.canonical import (MAX_MULTIPLICITY, automorphism_group_order, canonical_form,
                               is_isomorphic)
from hcolour.multigraph import Multigraph
from hcolour.named import (
    LabelledGraph,
    _regular_multigraphs,
    _witness_leaves,
    complete,
    complete_minus_edge,
    cycle,
    j_graph,
    k_family_members,
    path,
    petersen,
    poorly_matchable_ten_vertices,
    poorly_matchable_witness,
    s4,
    s4_plus_km,
    s6,
    s6_plus_km,
    s10,
    s12,
    s12_plus_km,
    star,
    t_k2,
)
from hcolour.oracles import pairwise_intersecting_perfect_matchings
from hcolour.structure import (
    has_perfect_matching,
    has_two_disjoint_perfect_matchings,
    perfect_matchings,
)


def test_petersen_shape():
    P = petersen()
    assert P.graph.n == 10 and P.graph.m == 15
    assert P.graph.is_regular(3)
    assert P.graph.bridges() == frozenset()
    # girth 5: no two adjacent vertices share a neighbour
    for a, b in P.graph.edges:
        na = {w for _, w in P.graph.incident(a)} - {b}
        nb = {w for _, w in P.graph.incident(b)} - {a}
        assert not (na & nb)
    assert P.edge_labels["u1v1"] == 10


def test_s4_shape():
    g = s4().graph
    assert g.n == 4 and g.m == 5
    assert sorted(g.degrees()) == [1, 3, 3, 3]
    assert Counter(g.edges)[(2, 3)] == 2  # the doubled bold edge


def test_s4_plus_km_multiplicities():
    for k in (0, 1, 2):
        lab = s4_plus_km(k)
        g, v = lab.graph, lab.vertex_labels
        mult = Counter(g.edges)
        assert mult[(v["v"], v["w"])] == k + 2
        assert mult[(v["z"], v["u"])] == k + 1
        assert g.degree(lab.vertex_labels["u"]) == k + 3
    with pytest.raises(ValueError):
        s4_plus_km(-1)


def test_s6_shape():
    g = s6().graph
    assert g.n == 6 and g.m == 9
    assert g.is_regular(3)
    assert s6_plus_km(2).graph.is_regular(5)


def test_s10_shape():
    lab = s10()
    g = lab.graph
    assert g.n == 10 and g.m == 15
    assert g.is_regular(3)
    assert g.degree(lab.vertex_labels["c"]) == 3
    assert not is_isomorphic(g, petersen().graph)
    assert not has_perfect_matching(g)


def test_s12_shape():
    g = s12().graph
    assert g.n == 12 and g.m == 18
    assert g.is_regular(3)
    g1 = s12_plus_km(1).graph
    assert g1.is_regular(4)
    assert g1.m == 24


def test_classical_constructors():
    assert complete(5).graph.m == 10
    assert complete_minus_edge(5).graph.m == 9
    k5e = complete_minus_edge(5)
    assert (k5e.vertex_labels["a"], k5e.vertex_labels["b"]) not in k5e.graph.edges
    assert star(3).graph.degrees() == (3, 1, 1, 1)
    assert t_k2(4).graph.edges == ((0, 1),) * 4
    assert cycle(5).graph.is_regular(2)
    assert path(4).graph.m == 3


def test_j_graph():
    lab = j_graph(2)
    g = lab.graph
    assert g.n == 11
    assert g.is_regular(4)
    assert len(set(g.edges)) == g.m  # simple
    centre = lab.vertex_labels["u"]
    assert g.degree(centre) == 4


# sha256 of each construction's n, edge tuple, name and label items in
# insertion order, recorded before the constructors shared a gadget placer;
# `hcolour gen` prints the labels in this order.
CONSTRUCTIONS_DIGEST = "9529bbc9e7b2dfc424d66399738825408c2ba1af2f506c0fe5c851148f59e7ac"


def test_constructions_are_pinned():
    labs = ([build(k) for build in (s4_plus_km, s6_plus_km, s12_plus_km) for k in range(4)]
            + [s10(), petersen(), poorly_matchable_ten_vertices()]
            + [j_graph(r) for r in range(2, 7)])
    dump = json.dumps([[lab.graph.n, lab.graph.edges, lab.name,
                        list(lab.vertex_labels.items()), list(lab.edge_labels.items())]
                       for lab in labs])
    assert hashlib.sha256(dump.encode()).hexdigest() == CONSTRUCTIONS_DIGEST


@pytest.mark.parametrize("build", [s4_plus_km, s6_plus_km, s12_plus_km])
def test_negative_k_is_rejected(build):
    with pytest.raises(ValueError, match="k must be non-negative"):
        build(-1)


@pytest.mark.parametrize("build, args", [
    (complete, (5,)), (complete_minus_edge, (5,)), (star, (4,)), (cycle, (5,)),
    (path, (5,)), (j_graph, (2,)), (j_graph, (3,)),
    (lambda t, r: LabelledGraph(k_family_members(t, r)[0]), (4, 5)),
], ids=["complete", "complete_minus_edge", "star", "cycle", "path", "j4", "j6",
        "k_family_members"])
def test_each_constructor_checks_the_size_it_builds(monkeypatch, build, args):
    from hcolour import named

    seen = []
    real = named._check_size
    monkeypatch.setattr(named, "_check_size", lambda n, m: seen.append((n, m)) or real(n, m))
    g = build(*args).graph
    assert seen[0] == (g.n, g.m)
    monkeypatch.setattr(named, "MAX_ORDER", max(g.n, g.m) - 1)
    with pytest.raises(ValueError, match=f"at most {max(g.n, g.m) - 1} of each"):
        build(*args)


@pytest.mark.parametrize("build, limit", [
    (s4_plus_km, 253), (s6_plus_km, 253), (s12_plus_km, 253), (t_k2, 255)])
def test_multiplicity_is_capped_where_the_canonical_form_stops(build, limit):
    g = build(limit).graph
    assert max(Counter(g.edges).values()) == MAX_MULTIPLICITY
    canonical_form(g)
    with pytest.raises(ValueError, match=f"must be at most {limit}$"):
        build(limit + 1)


def test_regular_multigraphs_labelled_count():
    # the labelled loopless 3-regular multigraphs on 4 vertices: K4 (1),
    # two doubled edges plus a matching (6), two triple edges (3); the walk
    # keeps one labelling of each class, and the orbits give back all 10
    classes = _first_members(4, 3)
    assert len(classes) == 3
    assert _orbit_sum(4, classes) == 10
    for edges in _regular_multigraphs(4, 3):
        assert Multigraph(4, edges).is_regular(3)


def test_k_family_members():
    m3 = k_family_members(3, 4)
    assert len(m3) == 1
    assert m3[0].is_regular(4)
    m5 = k_family_members(5, 4)
    assert len(m5) == 1
    assert is_isomorphic(m5[0], complete(5).graph)
    assert k_family_members(4, 4) != []  # even t is feasible too
    assert k_family_members(7, 4) == []  # r < t-1
    with pytest.raises(ValueError):
        k_family_members(1, 4)


def test_k_family_members_edge_lists_pinned():
    # the labelling of each member the registry serves, not only its class:
    # 58 members over t = 2..7 and r = 1..8, as the full labelled walk gives them
    members = [(t, r, [G.edges for G in k_family_members(t, r)])
               for t in range(2, 8) for r in range(1, 9)]
    assert sum(len(ms) for _, _, ms in members) == 58
    assert hashlib.sha256(repr(members).encode()).hexdigest() == (
        "4ef9589c168bb4b6308572a25a666ddc53498c9fd242981be1a91b4e9bf3da97"
    )


def test_poorly_matchable_ten_vertices():
    g = poorly_matchable_ten_vertices().graph
    assert g.n == 10
    assert g.is_regular(4)
    assert has_perfect_matching(g)
    assert has_two_disjoint_perfect_matchings(g) is None
    # independent all-pairs verification
    pms = [frozenset(M) for M in perfect_matchings(g)]
    assert pms and all(a & b for i, a in enumerate(pms) for b in pms[i + 1:])


def test_poorly_matchable_witness_small_orders_exhausted():
    # no 4-regular example exists on up to 4 vertices (fast instance of the
    # exhaustive search; orders 6 and 8 were exhausted the same way)
    assert poorly_matchable_witness(4, 4) is None
    with pytest.raises(ValueError):
        poorly_matchable_witness(3, 6)


# -- the block-sorted walk against the full labelled walk ------------------

def _pairwise_regular_multigraphs(n: int, r: int):
    """All labelled loopless multigraphs on n vertices with all degrees r.

    DFS over the upper-triangle multiplicity matrix in lexicographic pair
    order, with remaining-degree feasibility pruning.  Yields edge lists.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    remaining = [r] * n
    # how many future pairs still touch vertex v, counting from pair index p
    touch_after = [[0] * (len(pairs) + 1) for _ in range(n)]
    for p in range(len(pairs) - 1, -1, -1):
        i, j = pairs[p]
        for v in range(n):
            touch_after[v][p] = touch_after[v][p + 1] + (1 if v in (i, j) else 0)
    mult = [0] * len(pairs)

    def rec(p: int):
        if p == len(pairs):
            if all(x == 0 for x in remaining):
                edges = []
                for q, m in enumerate(mult):
                    edges.extend([pairs[q]] * m)
                yield edges
            return
        i, j = pairs[p]
        hi = min(remaining[i], remaining[j], r)
        for m in range(hi + 1):
            remaining[i] -= m
            remaining[j] -= m
            feasible = all(
                remaining[v] <= r * (touch_after[v][p + 1]) for v in (i, j)
            ) and remaining[i] >= 0 and remaining[j] >= 0
            if feasible:
                mult[p] = m
                yield from rec(p + 1)
            remaining[i] += m
            remaining[j] += m
        mult[p] = 0

    yield from rec(0)


def _block_sorted(n: int, edges) -> bool:
    """The block rule from its definition: m[i][j] <= m[i][k] for all
    i < j < k where j and k have equal multiplicities to every vertex
    before i."""
    m = [[0] * n for _ in range(n)]
    for a, b in edges:
        m[a][b] += 1
        m[b][a] += 1
    return all(
        m[i][j] <= m[i][k]
        for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
        if all(m[a][j] == m[a][k] for a in range(i))
    )


def _first_members(n: int, r: int, walk=_regular_multigraphs) -> dict[bytes, tuple]:
    """The first edge list of each isomorphism class in walk(n, r), keyed
    by canonical form."""
    first: dict[bytes, tuple] = {}
    for edges in walk(n, r):
        first.setdefault(canonical_form(Multigraph(n, edges)), tuple(edges))
    return first


def _orbit_sum(n: int, classes: dict[bytes, tuple]) -> int:
    """The sum of n!/|Aut(G)| over one member G of each class: the number
    of labelled graphs in those classes."""
    return sum(factorial(n) // automorphism_group_order(Multigraph(n, edges))
               for edges in classes.values())


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_regular_multigraphs_matches_pairwise_oracle(r):
    # the walk is exactly the full labelled walk filtered by the block rule
    for n in range(7):
        expected = [e for e in _pairwise_regular_multigraphs(n, r) if _block_sorted(n, e)]
        assert list(_regular_multigraphs(n, r)) == expected, n


@pytest.mark.parametrize("r", [3, 4, 5])
def test_regular_multigraphs_keep_the_first_member_of_each_class(r):
    # the full walk's first member of each class, in the full walk's order:
    # what k_family_members keeps and where the witness search stops
    # (r = 6 at order 6 would take 36,935 canonical forms)
    for n in range(7):
        assert _first_members(n, r) == _first_members(n, r, _pairwise_regular_multigraphs), n


def test_regular_multigraphs_labelled_counts_pinned():
    # orbit counting: the classes' orbits give back every labelled graph
    sums = {(n, r): _orbit_sum(n, _first_members(n, r)) for n in (4, 6) for r in (4, 5, 6)}
    assert sums == {
        (4, 4): 15, (4, 5): 21, (4, 6): 28,
        (6, 4): 3355, (6, 5): 12043, (6, 6): 36935,
    }
    assert len(_first_members(6, 4)) == 24
    classes = _first_members(8, 4)
    assert len(classes) == 240
    assert sum(Multigraph(8, e).is_connected() for e in classes.values()) == 204
    assert _orbit_sum(8, classes) == 3535448


def test_poorly_matchable_witness_order_six():
    assert poorly_matchable_witness(4, 6) is None
    assert poorly_matchable_witness(6, 6) is None
    G = poorly_matchable_witness(5, 6)
    assert G.edges == (
        (0, 4), (0, 4), (0, 5), (0, 5), (0, 5), (1, 2), (1, 2), (1, 3),
        (1, 3), (1, 4), (2, 3), (2, 3), (2, 3), (4, 5), (4, 5),
    )
    assert has_perfect_matching(G) and has_two_disjoint_perfect_matchings(G) is None


# -- the mask verdict against the edge-id checks ---------------------------

def _per_candidate_witness(n: int, edges) -> bool:
    """The witness rule on one candidate's edge ids."""
    G = Multigraph(n, edges)
    return (G.is_connected() and has_perfect_matching(G)
            and pairwise_intersecting_perfect_matchings(G))


@pytest.mark.parametrize("r", [4, 5, 6])
def test_witness_verdict_per_support_matches_per_candidate_rule(r):
    # every candidate of orders 2, 4 and 6 in walk order: the search yields
    # exactly those the edge-id checks call witnesses
    for n in (2, 4, 6):
        expected = [e for e in _regular_multigraphs(n, r) if _per_candidate_witness(n, e)]
        assert list(_witness_leaves(n, r)) == expected, n
        assert (r == 5 and n == 6) == bool(expected)


_DISAGREEING_REVALIDATION_SCRIPT = textwrap.dedent("""
    from hcolour import oracles
    from hcolour.named import poorly_matchable_witness

    try:
        assert False
    except AssertionError:
        raise SystemExit("asserts are active; run under python -O")

    def two_disjoint(G):
        yield frozenset({0})
        yield frozenset({1})

    oracles.perfect_matchings = two_disjoint
    try:
        poorly_matchable_witness(5, 6)
    except RuntimeError as exc:
        print("raised:", exc)
    else:
        print("accepted a witness the revalidation rejects")
""")


def test_witness_revalidation_raises_under_python_O():
    src = Path(hcolour.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-O", "-B", "-c", _DISAGREEING_REVALIDATION_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised:"), out.stdout
