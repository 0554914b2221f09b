"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with -s or look at captured output).

Criterion 8 is split: the literal witness-search assertion is expected to
fail (no qualifying graph exists on at most 8 vertices; the exhaustive
search proving this runs as part of the test), while the remainder of the
pipeline runs against the order-10 witness and passes.
"""

import os

import pytest

from hcolour.canonical import canonical_form
from hcolour.colouring import check_colouring, preimage, splitted_image
from hcolour.images import enumerate_splitted_images
from hcolour.multigraph import Multigraph
from hcolour.named import (
    complete,
    cycle,
    j_graph,
    k_family_members,
    path,
    petersen,
    poorly_matchable_ten_vertices,
    poorly_matchable_witness,
    s4,
    s10,
    s12,
    s12_plus_km,
    star,
    t_k2,
)
from hcolour.oracles import naive_solve_all
from hcolour.recipes import run_corpus, run_recipe
from hcolour.solver import solve
from hcolour.structure import (
    enumerate_matchings,
    has_two_disjoint_perfect_matchings,
    perfect_matchings,
)

DATA = os.path.join(os.path.dirname(__file__), "..", "data")


def report(num: int, ok: bool, note: str = ""):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}  {note}")
    assert ok, f"criterion {num}: {note}"


def test_criterion_01_petersen_atlas():
    atlas = enumerate_splitted_images(petersen().graph)
    ok = (
        atlas.complete
        and len(atlas.entries) == 2
        and atlas.canonical_set()
        == {canonical_form(petersen().graph), canonical_form(s4().graph)}
    )
    report(1, ok, "images of P are exactly {P, S4}")


def test_criterion_02_s4_colours_petersen():
    res = solve(s4().graph, petersen().graph)
    ok = res.status == "sat" and check_colouring(res.witness).ok
    report(2, ok, "solve(S4, P) SAT with revalidating certificate")


def test_criterion_03_s10_s12_atlases():
    a10 = enumerate_splitted_images(s10().graph)
    a12 = enumerate_splitted_images(s12().graph)
    ok = (
        a10.complete
        and a10.canonical_set() == {canonical_form(s10().graph)}
        and a12.complete
        and a12.canonical_set()
        == {canonical_form(s10().graph), canonical_form(s12().graph)}
    )
    report(3, ok, "atlas(S10) = {S10}; atlas(S12) = {S10, S12}")


def test_criterion_04_bridge_and_degree_invariants():
    atlas = enumerate_splitted_images(petersen().graph)
    ok = True
    for e in atlas.entries:
        g = e.graph
        if not all(g.degree(v) in (1, 3) for v in range(g.n)):
            ok = False
        for eid in g.bridges():
            a, b = g.edges[eid]
            if (g.degree(a) == 1) == (g.degree(b) == 1):
                ok = False
    report(4, ok, "every image of P: bridges have exactly one degree-1 end; "
                  "degrees in {1,3}")


def test_criterion_05_matching_cut_fact():
    P = petersen().graph
    pms = {frozenset(M) for M in perfect_matchings(P)}
    cuts = {M for M in enumerate_matchings(P) if M and P.is_edge_cut(M)}
    ok = cuts == pms and len(pms) == 6
    report(5, ok, "matching edge-cuts of P = its 6 perfect matchings")


def test_criterion_06_k5_atlas():
    atlas = enumerate_splitted_images(complete(5).graph)
    ok = atlas.complete
    for e in atlas.entries:
        t = e.graph.n
        if t % 2 == 0:
            ok = False
            continue
        members = {canonical_form(m) for m in k_family_members(t, 4)}
        if e.canonical not in members:
            ok = False
    report(6, ok, "every image of K5 lies in K_t^4 with t odd")


def test_criterion_07_j4_exclusion():
    guest = j_graph(2).graph
    hosts = k_family_members(3, 4) + k_family_members(5, 4)
    statuses = [solve(h, guest).status for h in hosts]
    ok = len(hosts) == 2 and all(s == "unsat" for s in statuses)
    report(7, ok, f"J4 exclusion: {len(hosts)} hosts, statuses {statuses}")


@pytest.mark.xfail(
    strict=True,
    reason="no 4-regular multigraph on <= 8 vertices has a perfect matching "
    "but no two disjoint ones; the exhaustive search over all connected "
    "candidates (run here) proves the requested witness cannot exist. The "
    "smallest witnesses have 10 vertices (see test_criterion_08_pipeline).",
)
def test_criterion_08_witness_search_bounded_order():
    witness = poorly_matchable_witness(4, 8)
    report(8, witness is not None, "poorly_matchable_witness(4, 8) witness")


def test_criterion_08_pipeline_with_order10_witness():
    witness = poorly_matchable_ten_vertices().graph
    host = s12_plus_km(1).graph
    pms = [frozenset(M) for M in perfect_matchings(witness)]
    independent = bool(pms) and all(
        a & b for i, a in enumerate(pms) for b in pms[i + 1:]
    )
    ok = (
        witness.is_regular(4)
        and bool(pms)
        and has_two_disjoint_perfect_matchings(witness) is None
        and independent
        and has_two_disjoint_perfect_matchings(host) is not None
        and solve(host, witness).status == "unsat"
    )
    report(8, ok, "pipeline holds for the order-10 witness (order-minimal)")


def test_criterion_09_s12_plus_1m_rigidity():
    g = s12_plus_km(1).graph
    atlas = enumerate_splitted_images(g, node_limit=10**8)
    ok = atlas.complete and atlas.canonical_set() == {canonical_form(g)}
    report(9, ok, f"atlas(S12+1M) = {{S12+1M}} in {atlas.nodes} nodes")


def test_criterion_10_preimage_property_suite():
    report_ = run_recipe("lemma24-props")
    coverage = report_.checks[-1].details
    ok = (
        report_.status == "pass"
        and coverage["colourings"] >= 100
        and len(coverage["applications"]) == 5
    )
    report(10, ok, f"{coverage['colourings']} colourings over "
                   f"{len(report_.checks) - 1} (host, guest) pairs, "
                   "zero violations")


def test_criterion_11_oracle_equivalence():
    guests = [cycle(3).graph, cycle(4).graph, path(4).graph, star(3).graph,
              complete(4).graph, cycle(5).graph, Multigraph(3, [(0, 1), (0, 1), (1, 2)]),
              t_k2(3).graph, cycle(6).graph, Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])]
    hosts = [cycle(3).graph, cycle(4).graph, path(4).graph, s4().graph,
             t_k2(2).graph, t_k2(3).graph, star(3).graph, complete(3).graph]
    assert all(g.m <= 8 for g in guests)
    assert all(h.m <= 6 for h in hosts)
    ok = True
    for guest in guests:
        extracted = set()
        for host in hosts:
            found = []
            solve(host, guest, mode="count", visit=found.append)
            fast = {c.edge_map for c in found}
            slow = {c.edge_map for c in naive_solve_all(host, guest)}
            if fast != slow:
                ok = False
            for em in slow:
                from hcolour.colouring import AmbiguousHostError, Colouring

                try:
                    img = splitted_image(Colouring(host, guest, em))
                except AmbiguousHostError:
                    continue
                if not img.split:
                    extracted.add(canonical_form(img.graph))
        if guest.is_connected() and guest.n > 2:
            atlas_keys = enumerate_splitted_images(guest).canonical_set()
            if not extracted <= atlas_keys:
                ok = False
    report(11, ok, "solver = naive oracle on the fixture grid; extracted "
                   "images all appear in the atlas")


def test_criterion_12_corpus():
    host_s4 = s4().graph
    host_p = petersen().graph
    corpus = os.path.join(DATA, "cubic_bridgeless_le14.g6")
    ok = os.path.exists(corpus)
    counts = {}
    if ok:
        for host, name in ((host_s4, "s4"), (host_p, "petersen")):
            checks = run_corpus(corpus, host, name, workers=1)
            solved = [c for c in checks if "status" in c.details]
            counts[name] = len(solved)
            if len(checks) != 587 or any(c.outcome != "pass" for c in checks):
                ok = False
            if any(c.details.get("status") != "sat" for c in solved):
                ok = False
    report(12, ok, f"corpus of 587 bridgeless cubic graphs (<= 14 vertices) "
                   f"all SAT for both hosts {counts}")
