import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

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
from hcolour import solver
from hcolour.solver import (_assignment_sequence, _bfs_edge_order, _cuts, solve,
                            tk2_colourable)

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


def test_search_shape_pinned_first_mode_s12_plus_2m():
    # 44 million tree nodes, nearly all in colouring-free subtrees that the
    # dead-state table skips
    g = s12_plus_km(2).graph
    res = solve(g, g)
    assert (res.status, res.nodes, res.witness.edge_map) == ("sat", 44444315, tuple(range(30)))
    assert 0 < res.skipped < res.nodes


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
    from hcolour.solver import _assignment_sequence, _revalidator

    try:
        assert False
    except AssertionError:
        raise SystemExit("asserts are active; run under python -O")

    def feed(host, guest, maps):
        # each edge map goes in position order, hinted to agree with the
        # last accepted one everywhere
        sequence = _assignment_sequence(guest)
        revalidate = _revalidator(host, guest, sequence)
        for f in maps:
            try:
                c = revalidate(tuple(f[e] for e in sequence), len(f))
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


_HINT_SCRIPT = textwrap.dedent("""
    from hcolour.multigraph import Multigraph
    from hcolour.solver import _assignment_sequence, _revalidator

    try:
        assert False
    except AssertionError:
        raise SystemExit("asserts are active; run under python -O")

    p4 = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    # P4's positions are its edge ids, so each map below is in both orders
    print("sequence", _assignment_sequence(p4))
    revalidate = _revalidator(p4, p4, [0, 1, 2])
    # (1, 1, 2) differs from the accepted (0, 1, 2) at position 0, where
    # guest vertex 0 maps to 1, no host vertex's boundary; vertices 2 and 3,
    # the only ones with an edge at or after the hint 2, keep accepted
    # tuples.  It is fed twice: a rejected map leaves no prefix to trust.
    # (0, 1, 1) does agree below 2, and its vertex 2 is improper.
    for f, hint in [((0, 1, 2), 0), ((1, 1, 2), 2), ((1, 1, 2), 2),
                    ((0, 1, 1), 2), ((0, 1, 2), 3), ((0, 1, 0), 2)]:
        try:
            c = revalidate(f, hint)
        except RuntimeError:
            print(f, hint, "raised")
        else:
            print(f, hint, "accepted", c.edge_map == f)
""")


def test_revalidator_checks_the_hint_under_python_O():
    src = Path(hcolour.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-O", "-B", "-c", _HINT_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "sequence [0, 1, 2]",
        "(0, 1, 2) 0 accepted True",
        "(1, 1, 2) 2 raised",
        "(1, 1, 2) 2 raised",
        "(0, 1, 1) 2 raised",
        "(0, 1, 2) 3 accepted True",
        "(0, 1, 0) 2 accepted True",
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


# -- the dead-state table changes nothing but skipped ----------------------
# With the table off (0 entries), cleared at every store (1) and at its
# default size, a search gives the same status, count, nodes, witness and
# visit stream.

def _search(host, guest, capacity, mode, node_limit, with_visit):
    seen = []
    with mock.patch.object(solver, "_DEAD_STATES", capacity):
        res = solve(host, guest, mode=mode, node_limit=node_limit,
                    visit=seen.append if with_visit else None)
    assert 0 <= res.skipped <= res.nodes
    assert res.skipped == 0 or capacity
    witness = res.witness.edge_map if res.witness else None
    return (res.status, res.count, res.nodes, witness, [c.edge_map for c in seen])


@st.composite
def regular_pairs(draw):
    """A host on 3-6 vertices and a guest on 4-8, each from a random pairing
    of d stubs per vertex, d in 2..4, with loops dropped: parallel edges,
    shared degrees and some vertices of lower degree."""
    d = draw(st.integers(2, 4))

    def pairing(max_n):
        n = draw(st.integers(max_n // 2, max_n))
        stubs = draw(st.permutations([v for v in range(n) for _ in range(d)]))
        return Multigraph(n, [(a, b) for a, b in zip(stubs[::2], stubs[1::2]) if a != b])

    return pairing(6), pairing(8)


@settings(max_examples=400, deadline=None)
@given(regular_pairs(), st.sampled_from(["first", "count"]), st.booleans(), st.data())
def test_dead_state_table_keeps_every_answer_random(pair, mode, with_visit, data):
    host, guest = pair
    whole = solve(host, guest, mode=mode).nodes
    limit = data.draw(st.one_of(st.integers(0, whole), st.just(10**8)), label="node_limit")
    plain = _search(host, guest, 0, mode, limit, with_visit)
    for capacity in (1, solver._DEAD_STATES):
        assert _search(host, guest, capacity, mode, limit, with_visit) == plain


@pytest.mark.parametrize("label,mode", [
    ("c5<c5", "count"), ("s4+1M<s4+1M", "count"), ("s10<s12", "first"),
])
def test_dead_state_table_keeps_every_answer_at_every_limit(label, mode):
    # every node limit up to the whole tree, so that a limit falls inside
    # each subtree the table skips (15, 8 and 616 skipped nodes)
    host, guest = next((h, g) for lb, h, g in _LEMMA_PAIRS() if lb == label)
    whole = solve(host, guest, mode=mode)
    assert whole.skipped > 0
    for limit in range(whole.nodes + 1):
        plain = _search(host, guest, 0, mode, limit, True)
        for capacity in (1, solver._DEAD_STATES):
            assert _search(host, guest, capacity, mode, limit, True) == plain, limit


def _quadratic_cuts(G: Multigraph, sequence: list[int]) -> list[list[int]]:
    """The cut at depth d by its definition: the vertices with an edge among
    the first d of sequence and an edge after them."""
    return [[v for v in range(G.n)
             if any(v in G.edges[e] for e in sequence[:d])
             and any(v in G.edges[e] for e in sequence[d:])]
            for d in range(G.m)]


@pytest.mark.parametrize("build", [
    lambda: s12_plus_km(2).graph, lambda: complete(7).graph, lambda: petersen().graph,
    lambda: j_graph(2).graph,
    lambda: Multigraph(7, [(0, 1), (1, 2), (0, 1), (3, 4), (5, 6), (4, 5)]),
], ids=["S12+2M", "K7", "Petersen", "J4", "disconnected"])
def test_cuts_match_their_definition(build):
    G = build()
    sequence = _assignment_sequence(G)
    assert _cuts(G, sequence) == _quadratic_cuts(G, sequence)


@settings(max_examples=300, deadline=None)
@given(tiny_multigraphs(12))
def test_cuts_match_their_definition_random(G):
    sequence = _assignment_sequence(G)
    assert _cuts(G, sequence) == _quadratic_cuts(G, sequence)


# -- the revalidator's hint changes no check -------------------------------
# The hint only spares lookups of tuples the last accepted colouring had, so
# forcing it to 0 gives the same search and the same check_colouring calls.

def _revalidated(host, guest, mode, with_visit, hinted):
    calls, seen = [], []

    def counting(c):
        calls.append(c.edge_map)
        return check_colouring(c)

    def unhinted(host, guest, sequence):
        revalidate = real(host, guest, sequence)
        return lambda assigned, low: revalidate(assigned, 0)

    real = solver._revalidator
    with mock.patch.object(solver, "check_colouring", counting), \
            mock.patch.object(solver, "_revalidator", real if hinted else unhinted):
        res = solve(host, guest, mode=mode, visit=seen.append if with_visit else None)
    witness = res.witness.edge_map if res.witness else None
    return (res.status, res.count, res.nodes, res.skipped, witness,
            [c.edge_map for c in seen], calls)


@settings(max_examples=200, deadline=None)
@given(regular_pairs())
def test_revalidation_hint_keeps_every_check_random(pair):
    host, guest = pair
    for mode in ("first", "count"):
        for with_visit in (False, True):
            assert (_revalidated(host, guest, mode, with_visit, True)
                    == _revalidated(host, guest, mode, with_visit, False))
