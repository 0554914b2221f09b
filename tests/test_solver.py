import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hcolour
from hcolour.colouring import Colouring, check_colouring
from hcolour.graphio import ingest_graph6
from hcolour.multigraph import Multigraph
from hcolour.named import (
    complete,
    cycle,
    j_graph,
    k_family_members,
    path,
    petersen,
    s4,
    s10,
    s12,
    s12_plus_km,
    star,
    t_k2,
)
from hcolour.oracles import naive_check_colouring, naive_solve_all
from hcolour.recipes import _LEMMA_PAIRS
from hcolour.solver import _assignment_sequence, _bfs_edge_order, solve, tk2_colourable

CORPUS = Path(__file__).resolve().parent.parent / "data" / "cubic_bridgeless_le14.g6"


def test_s4_colours_petersen():
    res = solve(s4().graph, petersen().graph)
    assert res.status == "sat"
    assert check_colouring(res.witness).ok


def test_star3_does_not_colour_petersen():
    res = solve(star(3).graph, petersen().graph)
    assert res.status == "unsat"
    assert res.count == 0


def test_petersen_colours_itself():
    res = solve(petersen().graph, petersen().graph)
    assert res.status == "sat"


def test_count_mode_s4_petersen():
    # frozen after cross-checking the full enumeration
    res = solve(s4().graph, petersen().graph, mode="count")
    assert res.count == 480
    # the witness is the first colouring, as in mode="first"
    first = solve(s4().graph, petersen().graph)
    assert first.count == 1
    assert res.witness.edge_map == first.witness.edge_map


def test_all_mode_matches_count():
    # all colourings, collected through visit, are distinct and counted
    seen = []
    res = solve(s4().graph, cycle(5).graph, mode="count", visit=seen.append)
    assert seen == [] and res.count == 0 and res.witness is None
    res = solve(complete(4).graph, complete(4).graph, mode="count", visit=seen.append)
    assert len(seen) == len({c.edge_map for c in seen}) == res.count == 48
    assert res.witness is seen[0]


def test_solve_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="mode must be 'first' or 'count', got 'all'"):
        solve(s4().graph, cycle(5).graph, mode="all")


def test_node_limit_gives_unknown_not_unsat():
    res = solve(s12().graph, s12().graph, node_limit=3)
    assert res.status == "unknown"


def test_empty_guest():
    host_with_isolated = Multigraph(2, [])
    res = solve(host_with_isolated, Multigraph(3, []))
    assert res.status == "sat"
    res2 = solve(s4().graph, Multigraph(1, []))
    assert res2.status == "unsat"  # S4 has no isolated vertex


def test_degree_mismatch_immediately_unsat():
    res = solve(cycle(3).graph, star(3).graph)
    assert res.status == "unsat"
    assert res.nodes == 0


@pytest.mark.parametrize(
    "host,guest",
    [
        (s4().graph, cycle(3).graph),
        (s4().graph, cycle(4).graph),
        (t_k2(2).graph, cycle(4).graph),
        (t_k2(2).graph, cycle(5).graph),
        (cycle(3).graph, cycle(3).graph),
        (cycle(3).graph, cycle(4).graph),
        (star(3).graph, star(3).graph),
        (path(3).graph, path(4).graph),
        (t_k2(3).graph, complete(4).graph),
        (complete(3).graph, cycle(6).graph),
    ],
)
def test_solver_agrees_with_naive_oracle(host, guest):
    found = []
    fast = solve(host, guest, mode="count", visit=found.append)
    slow = naive_solve_all(host, guest)
    assert {c.edge_map for c in found} == {c.edge_map for c in slow}
    assert fast.count == len(slow)
    assert (fast.status == "sat") == bool(slow)


def test_j4_exclusion():
    guest = j_graph(2).graph
    hosts = k_family_members(3, 4) + k_family_members(5, 4)
    assert len(hosts) == 2
    for h in hosts:
        assert solve(h, guest).status == "unsat"


def test_s12_plus_1m_does_not_colour_order10_witness():
    from hcolour.named import poorly_matchable_ten_vertices

    res = solve(s12_plus_km(1).graph, poorly_matchable_ten_vertices().graph)
    assert res.status == "unsat"


def test_tk2_colourable():
    assert tk2_colourable(cycle(4).graph, 2)
    assert not tk2_colourable(cycle(5).graph, 2)  # odd cycle needs 3 colours
    assert not tk2_colourable(petersen().graph, 3)  # class 2
    assert tk2_colourable(complete(4).graph, 3)
    assert not tk2_colourable(star(3).graph, 3)  # not regular


def test_tk2_equivalence_with_solver():
    for g in [cycle(4).graph, cycle(5).graph, cycle(6).graph,
              complete(4).graph, t_k2(3).graph]:
        t = g.degree(0)
        if not g.is_regular(t):
            continue
        via_solver = solve(t_k2(t).graph, g).status == "sat"
        via_star = solve(star(t).graph, g).status == "sat"
        assert via_solver == via_star == tk2_colourable(g, t)


def test_multiplicity_sensitivity():
    # the doubled triangle needs a host with parallel edges
    doubled = Multigraph(3, [(0, 1), (1, 2), (0, 2)] * 2)
    assert solve(complete(4).graph, doubled).status == "unsat"
    assert solve(doubled, doubled).status == "sat"


# -- the shape of the search -----------------------------------------------
# Node counts pin the order in which edges are assigned; the edge-map
# digests and first-mode counts pin the order in which candidates are
# tried.  A faster search must reproduce all of them exactly.

PAIR_SHAPES = {
    "s4<p": ("sat", 480, 6338),
    "p<p": ("sat", 120, 6796),
    "s10<s10": ("sat", 384, 3082),
    "s10<s12": ("sat", 384, 6010),
    "s12<s12": ("sat", 384, 6943),
    "k5<k5": ("sat", 120, 2111),
    "k4<k4": ("sat", 48, 199),
    "c5<c5": ("sat", 10, 86),
    "2k2<c4": ("sat", 2, 9),
    "s4+1M<s4+1M": ("sat", 24, 130),
}

EDGE_MAP_DIGESTS = {"s4<p": "161610f2b87149a0", "p<p": "2efe2eb10b93ebf1"}


@pytest.mark.parametrize("label", sorted(PAIR_SHAPES))
def test_search_shape_pinned(label):
    host, guest = next((h, g) for lb, h, g in _LEMMA_PAIRS() if lb == label)
    found = []
    res = solve(host, guest, mode="count", visit=found.append)
    assert (res.status, res.count, res.nodes) == PAIR_SHAPES[label]
    assert res.prunes == 0
    if label in EDGE_MAP_DIGESTS:
        text = repr([c.edge_map for c in found])
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == EDGE_MAP_DIGESTS[label]


def test_search_shape_pinned_deepest():
    # S12+1M against itself: the deepest search the recipes run
    g = s12_plus_km(1).graph
    res = solve(g, g, mode="count")
    assert (res.status, res.count, res.nodes) == ("sat", 82944, 857047)


@pytest.mark.parametrize("label", sorted(PAIR_SHAPES))
def test_visit_streams_the_all_mode_colourings(label):
    # visit sees all colourings, each once; the witness is the first of them
    host, guest = next((h, g) for lb, h, g in _LEMMA_PAIRS() if lb == label)
    seen = []
    counted = solve(host, guest, mode="count", visit=seen.append)
    assert (counted.status, counted.count, counted.nodes) == PAIR_SHAPES[label]
    assert len({c.edge_map for c in seen}) == len(seen) == counted.count
    assert counted.witness is seen[0]
    # built without the range check, each equals its publicly built twin
    for c in seen:
        twin = Colouring(host, guest, c.edge_map)
        assert c == twin and hash(c) == hash(twin)
    # mode="first" stops after the same first colouring
    first_seen = []
    first = solve(host, guest, visit=first_seen.append)
    assert first_seen == [first.witness]
    assert first.witness.edge_map == seen[0].edge_map


def test_visit_with_first_mode_and_node_limit():
    seen = []
    res = solve(s4().graph, petersen().graph, visit=seen.append)
    assert seen == [res.witness]
    seen = []
    res = solve(s12().graph, s12().graph, mode="count", node_limit=500,
                visit=seen.append)
    assert res.status == "unknown" and res.nodes == 501
    assert len(seen) == res.count and all(check_colouring(c).ok for c in seen)
    seen = []
    res = solve(Multigraph(2, []), Multigraph(3, []), mode="count", visit=seen.append)
    assert (res.status, res.count, res.nodes) == ("sat", 1, 1)
    assert [c.edge_map for c in seen] == [()]


def test_edgeless_guest_obeys_the_node_limit():
    # the root is a node, so a budget of 0 decides nothing
    res = solve(Multigraph(2, []), Multigraph(3, []), node_limit=0)
    assert (res.status, res.count, res.nodes) == ("unknown", 0, 1)


def test_search_shape_pinned_unsat():
    res = solve(star(3).graph, petersen().graph)
    assert (res.status, res.count, res.nodes) == ("unsat", 0, 202)


@pytest.mark.parametrize(
    "host,total,largest", [(s4(), 36049, 1331), (petersen(), 23639, 329)]
)
def test_search_shape_pinned_corpus(host, total, largest):
    nodes = []
    for _, G in ingest_graph6(CORPUS):
        res = solve(host.graph, G)
        assert res.status == "sat"
        nodes.append(res.nodes)
    assert (len(nodes), sum(nodes), max(nodes)) == (587, total, largest)


# -- differential tests against the naive oracle ---------------------------

@st.composite
def tiny_multigraphs(draw, max_edges):
    n = draw(st.integers(min_value=1, max_value=5))
    edges = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            edges.append((a, b))
    return Multigraph(n, edges)


@settings(max_examples=300, deadline=None)
@given(tiny_multigraphs(4), tiny_multigraphs(5))
def test_solver_matches_naive_oracle_random(host, guest):
    found = []
    fast = solve(host, guest, mode="count", visit=found.append)
    slow = naive_solve_all(host, guest)
    assert sorted(c.edge_map for c in found) == [c.edge_map for c in slow]
    assert fast.count == len(slow)
    assert fast.status == ("sat" if slow else "unsat")


# -- the edge sequence against its quadratic definition --------------------

def _quadratic_assignment_sequence(G: Multigraph) -> list[int]:
    """The sequence by its definition: the first of the maxima of the
    assigned-neighbour count, scanning the free edges in breadth-first
    order."""
    near = [0] * G.m
    free = _bfs_edge_order(G)
    sequence = []
    while free:
        e = max(free, key=near.__getitem__)
        free.remove(e)
        sequence.append(e)
        for v in G.edges[e]:
            for e2, _ in G.incident(v):
                if e2 != e:
                    near[e2] += 1
    return sequence


@pytest.mark.parametrize("build", [
    lambda: cycle(3000).graph, lambda: s12_plus_km(2).graph,
    lambda: complete(7).graph, lambda: petersen().graph,
    lambda: Multigraph(7, [(0, 1), (1, 2), (0, 1), (3, 4), (5, 6), (4, 5)]),
], ids=["C3000", "S12+2M", "K7", "Petersen", "disconnected"])
def test_assignment_sequence_matches_its_definition(build):
    G = build()
    assert _assignment_sequence(G) == _quadratic_assignment_sequence(G)


@settings(max_examples=300, deadline=None)
@given(tiny_multigraphs(12))
def test_assignment_sequence_matches_its_definition_random(G):
    sequence = _assignment_sequence(G)
    assert sequence == _quadratic_assignment_sequence(G)
    assert sorted(sequence) == list(range(G.m))


# -- revalidation survives python -O ----------------------------------------

_FAILING_CHECK_SCRIPT = textwrap.dedent("""
    from hcolour import images, solver
    from hcolour.colouring import ColouringReport
    from hcolour.named import complete, cycle

    try:
        assert False
    except AssertionError:
        raise SystemExit("asserts are active; run under python -O")

    def failing(c):
        return ColouringReport(ok=False, vertex_violations=(0,))

    solver.check_colouring = failing
    images.check_colouring = failing
    visited = []
    for name, call in [
        ("solve", lambda: solver.solve(complete(4).graph, complete(4).graph)),
        ("visit", lambda: solver.solve(complete(4).graph, complete(4).graph,
                                       mode="count", visit=visited.append)),
        ("realize_image", lambda: images.enumerate_splitted_images(cycle(4).graph)),
    ]:
        try:
            call()
        except RuntimeError as exc:
            print(name, "raised:", exc)
        else:
            print(name, "accepted an invalid colouring")
    print("visited", len(visited))

    from hcolour import colouring, oracles
    from hcolour.colouring import Colouring
    from hcolour.multigraph import Multigraph
    from hcolour.named import t_k2

    improper = Colouring(t_k2(2).graph, cycle(4).graph, (0, 0, 1, 0))
    no_vertex = Colouring(Multigraph(4, [(0, 1), (1, 2), (2, 3)]), cycle(4).graph,
                          (0, 2, 0, 2))
    for name, c in [("improper", improper), ("no_vertex", no_vertex)]:
        report = colouring.check_colouring(c)
        print(name, report.ok, report == oracles.naive_check_colouring(c),
              report.properness_violations, report.vertex_violations)
    oracles.naive_check_colouring = lambda c: ColouringReport(ok=True)
    try:
        colouring.check_colouring(improper)
    except RuntimeError as exc:
        print("disagreement raised:", exc)
    else:
        print("disagreement accepted")
""")


def test_revalidation_raises_under_python_O():
    src = Path(hcolour.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-O", "-B", "-c", _FAILING_CHECK_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [line.split()[:2] for line in lines[:4]] == [
        ["solve", "raised:"], ["visit", "raised:"], ["realize_image", "raised:"],
        ["visited", "0"],
    ], out.stdout
    # the mask verdict rejects both maps and the oracle supplies the report
    assert lines[4:6] == [
        "improper False True ((0, 3), (0, 1)) (0, 1)",
        "no_vertex False True () (0, 1, 2, 3)",
    ], out.stdout
    assert lines[6].startswith("disagreement raised:"), out.stdout
    assert len(lines) == 7, out.stdout


_REVALIDATOR_SCRIPT = textwrap.dedent("""
    from hcolour.multigraph import Multigraph
    from hcolour.solver import _revalidator

    try:
        assert False
    except AssertionError:
        raise SystemExit("asserts are active; run under python -O")

    def feed(host, guest, maps):
        revalidate = _revalidator(host, guest)
        for f in maps:
            try:
                c = revalidate(f)
            except RuntimeError:
                print(f, "raised")
            else:
                print(f, "accepted", c.edge_map == f)

    p3 = Multigraph(3, [(0, 1), (1, 2)])
    # (0, 0) keeps the accepted tuples 0 at both ends and breaks the middle;
    # each invalid map is fed twice, so a rejected tuple kept as accepted shows
    feed(p3, p3, [(0, 1), (1, 0), (0, 0), (0, 0), (0, 2), (0, 2), (1, 0)])
    feed(p3, p3, [(0, 2)])
    # an edgeless guest's only colouring, on hosts without and with an
    # isolated vertex: no image tuple is kept, and it is checked every time
    one = Multigraph(1, [])
    feed(Multigraph(2, [(0, 1)]), one, [(), ()])
    feed(Multigraph(3, [(0, 1)]), one, [()])
""")


def test_revalidator_raises_on_every_invalid_map_under_python_O():
    src = Path(hcolour.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-O", "-B", "-c", _REVALIDATOR_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "(0, 1) accepted True",
        "(1, 0) accepted True",
        "(0, 0) raised",
        "(0, 0) raised",
        "(0, 2) raised",
        "(0, 2) raised",
        "(1, 0) accepted True",
        "(0, 2) raised",
        "() raised",
        "() raised",
        "() accepted True",
    ], out.stdout


@pytest.mark.parametrize("label", ["s12<s12", "k5<k5", "s4+1M<s4+1M"])
def test_revalidation_checks_once_per_new_image_tuple(monkeypatch, label):
    # every streamed colouring passes the set-based oracle, and check_colouring
    # runs at most once per distinct vertex image tuple, plus one: on s12<s12
    # (24 tuples, 384 colourings) and s4+1M<s4+1M (18, 24) a check per
    # colouring exceeds that; k5<k5 has a tuple per colouring (120)
    from hcolour import solver

    calls = []

    def counting(c):
        calls.append(c.edge_map)
        return check_colouring(c)

    monkeypatch.setattr(solver, "check_colouring", counting)
    host, guest = next((h, g) for lb, h, g in _LEMMA_PAIRS() if lb == label)
    seen = []
    res = solve(host, guest, mode="count", visit=seen.append)
    assert len(seen) == res.count == PAIR_SHAPES[label][1]
    assert all(naive_check_colouring(c).ok for c in seen)
    tuples = {tuple(c.edge_map[e] for e, _ in inc) for c in seen for inc in guest._adj}
    assert calls[0] == seen[0].edge_map
    assert len(calls) <= len(tuples) + 1


# (status, count, nodes, first witness's edge map) of the S12+1M count-mode
# self-solve per node limit: a stopped search counts the node that passed
# the limit and keeps the colourings found before it.
BUDGETED_SOLVES = {
    0: ("unknown", 0, 1, None),
    1: ("unknown", 0, 2, None),
    1000: ("unknown", 0, 1001, None),
    100000: ("unknown", 4623, 100001, tuple(range(24))),
}


@pytest.mark.parametrize("limit", sorted(BUDGETED_SOLVES))
def test_budgeted_solve_pinned(limit):
    g = s12_plus_km(1).graph
    res = solve(g, g, mode="count", node_limit=limit)
    witness = res.witness.edge_map if res.witness else None
    assert (res.status, res.count, res.nodes, witness) == BUDGETED_SOLVES[limit]
