import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcolour.canonical import canonical_form, is_isomorphic
from hcolour.colouring import check_colouring
from hcolour.images import enumerate_splitted_images, realize_image
from hcolour.multigraph import Multigraph
from hcolour.named import (
    cycle,
    k_family_members,
    path,
    petersen,
    s4,
    s10,
    s12,
    s12_plus_km,
    complete,
    complete_minus_edge,
)
from hcolour.oracles import naive_solve_all
from hcolour.solver import _bfs_edge_order, solve, tk2_colourable


def test_realize_image_validation():
    C4 = cycle(4).graph
    realize_image(C4, (0, 1, 0, 1), (0, 1, 2, 3))
    with pytest.raises(ValueError):
        realize_image(C4, (0, 0, 1, 1), (0, 1, 2, 3))  # improper
    with pytest.raises(ValueError):
        realize_image(C4, (1, 0, 1, 0), (0, 1, 2, 3))  # not RGS
    with pytest.raises(ValueError):
        realize_image(C4, (0, 1, 0), (0, 1, 2, 3))  # not total


def test_realize_image_two_types_per_class():
    # a star's edges all meet at the centre, so a path partitioned into
    # three singleton classes is fine, but K1,3 coloured with one class per
    # edge yields three distinct leaf types sharing no class; construct a
    # genuine violation instead: a path of 4 edges alternating 2 classes
    P5 = path(5).graph
    # class 0 appears in types {0}, {0,1}, {0,1}: fine (2 distinct)
    realize_image(P5, (0, 1, 0, 1), (0, 1, 2, 3))
    # triangle with three classes, all types distinct pairs: class 0 in
    # {0,1} and {0,2} -> 2 types, still fine
    realize_image(cycle(3).graph, (0, 1, 2), (0, 1, 2))
    # paw with classes 0,1,2,1: class 1 lands in four distinct vertex types
    paw = Multigraph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    with pytest.raises(ValueError):
        realize_image(paw, (0, 1, 2, 1), (0, 1, 2, 3))


def test_realize_image_rejects_bad_order_and_classes():
    C4 = cycle(4).graph
    for order in [(0, 0, 2, 3), (0, 1, 2, 4), (0, 1, 2), (0, 1, 2, 3, 0)]:
        with pytest.raises(ValueError, match="permutation"):
            realize_image(C4, (0, 1, 0, 1), order)
    with pytest.raises(ValueError, match="restricted-growth"):
        realize_image(C4, (-1, 0, 1, 0), (0, 1, 2, 3))


def _two_pass_image(guest, classes, order):
    """The image computed plainly in separate passes: check the labelling,
    then build types as sets, sort them by their sorted class lists and
    join the types of each class."""
    if len(classes) != guest.m or sorted(order) != list(range(guest.m)):
        raise ValueError("not total or not a permutation")
    nxt = 0
    for e in order:
        if not 0 <= classes[e] <= nxt:
            raise ValueError("not restricted-growth")
        nxt = max(nxt, classes[e] + 1)
    types = []
    for u in range(guest.n):
        mine = [classes[eid] for eid, _ in guest.incident(u)]
        if len(set(mine)) < len(mine):
            raise ValueError("improper")
        types.append(frozenset(mine))
    distinct = sorted(set(types), key=sorted)
    n, edges, pendant = len(distinct), [], []
    for c in range(nxt):
        ends = [i for i, t in enumerate(distinct) if c in t]
        if len(ends) > 2:
            raise ValueError("class in more than two types")
        if len(ends) == 1:
            pendant.append(n)
            ends.append(n)
            n += 1
        edges.append(tuple(ends))
    return n, tuple(edges), tuple(pendant), len(distinct)


@st.composite
def labelled_multigraphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ab: ab[0] != ab[1]
    )
    edges = draw(st.lists(pairs, max_size=8)) if n > 1 else []
    m = len(edges)
    order = draw(st.permutations(range(m)))
    classes = [0] * m
    if draw(st.booleans()):
        # restricted growth along order, so that most labellings are valid
        nxt = 0
        for e in order:
            classes[e] = draw(st.integers(0, nxt))
            nxt = max(nxt, classes[e] + 1)
    else:
        classes = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
    return Multigraph(n, edges), tuple(classes), tuple(order)


@settings(max_examples=300, deadline=None)
@given(labelled_multigraphs())
def test_realize_image_matches_two_pass_definition(case):
    guest, classes, order = case
    try:
        want = _two_pass_image(guest, classes, order)
    except ValueError:
        with pytest.raises(ValueError):
            realize_image(guest, classes, order)
        return
    img = realize_image(guest, classes, order)
    g = img.graph
    assert (g.n, g.edges, img.pendant_unused, len(img.used)) == want
    assert img.split == () and img.source.edge_map == classes


def test_realize_image_cycle():
    # alternating classes give every C4 vertex the same type {0,1}, so both
    # classes are single-type and realize as pendant edges: the image is P3
    C4 = cycle(4).graph
    img = realize_image(C4, (0, 1, 0, 1), (0, 1, 2, 3))
    assert img.graph.n == 3 and img.graph.m == 2
    assert img.split == ()
    assert len(img.pendant_unused) == 2
    assert check_colouring(img.source).ok


def test_realize_image_single_type_class_gets_pendant():
    P3 = path(3).graph
    img = realize_image(P3, (0, 1), (0, 1))
    # centre type {0,1}; leaf types {0} and {1}; no single-type class
    assert img.graph.m == 2
    img2 = realize_image(path(2).graph, (0,), (0,))
    # both endpoints share type {0}: one used vertex plus a fresh pendant
    assert img2.graph.n == 2
    assert len(img2.pendant_unused) == 1


def test_realize_image_of_an_edgeless_vertex():
    # one empty type and no class: a single used vertex and no edge
    guest = Multigraph(1, [])
    img = realize_image(guest, (), ())
    assert (img.graph.n, img.graph.m, img.used, img.pendant_unused) == (1, 0, (0,), ())
    assert (img.graph.n, img.graph.edges, img.pendant_unused,
            len(img.used)) == _two_pass_image(guest, (), ())


def test_petersen_atlas_exact():
    atlas = enumerate_splitted_images(petersen().graph)
    assert atlas.complete
    assert len(atlas.entries) == 2
    expected = {canonical_form(petersen().graph), canonical_form(s4().graph)}
    assert atlas.canonical_set() == expected
    assert all(check_colouring(e.witness).ok for e in atlas.entries)
    # multiplicities frozen after independent computation
    assert atlas.find(petersen().graph).multiplicity == 1
    assert atlas.find(s4().graph).multiplicity == 120
    assert atlas.tk2_realizable is False  # P is class 2


def test_s10_atlas_exact():
    g = s10().graph
    atlas = enumerate_splitted_images(g)
    assert atlas.complete
    assert atlas.canonical_set() == {canonical_form(g)}


def test_s12_atlas_exact():
    atlas = enumerate_splitted_images(s12().graph)
    assert atlas.complete
    assert atlas.canonical_set() == {
        canonical_form(s10().graph),
        canonical_form(s12().graph),
    }


def test_s12_plus_1m_rigidity():
    g = s12_plus_km(1).graph
    atlas = enumerate_splitted_images(g)
    assert atlas.complete
    assert atlas.canonical_set() == {canonical_form(g)}


def test_k5_atlas_within_k_family():
    atlas = enumerate_splitted_images(complete(5).graph)
    assert atlas.complete
    for e in atlas.entries:
        t = e.graph.n
        assert t % 2 == 1
        members = {canonical_form(m) for m in k_family_members(t, 4)}
        assert e.canonical in members
        assert all(e.graph.degree(v) == 4 for v in range(e.graph.n))


def test_c4_atlas_and_tk2_flag():
    atlas = enumerate_splitted_images(cycle(4).graph)
    assert atlas.tk2_realizable is True
    ns = sorted((e.graph.n, e.graph.m) for e in atlas.entries)
    # images: the path P3 (digon collapse), P4, and C4 itself
    assert (4, 4) in ns
    assert atlas.complete


def test_atlas_matches_colourings_found_by_solver():
    """Oracle agreement: images extracted from explicit colourings of small
    guests against every small host are all present in the atlas."""
    from hcolour.colouring import splitted_image, AmbiguousHostError
    from hcolour.named import star

    guests = [cycle(3).graph, cycle(4).graph, path(4).graph, star(3).graph]
    hosts = [cycle(3).graph, cycle(4).graph, path(4).graph, s4().graph,
             complete(3).graph]
    for guest in guests:
        atlas = enumerate_splitted_images(guest)
        keys = atlas.canonical_set()
        for host in hosts:
            for c in naive_solve_all(host, guest):
                try:
                    img = splitted_image(c)
                except AmbiguousHostError:
                    continue
                if img.split:
                    continue  # extension of an atlas entry, not an entry
                assert canonical_form(img.graph) in keys


def test_enumeration_rejects_trivial_guests():
    with pytest.raises(ValueError):
        enumerate_splitted_images(Multigraph(2, [(0, 1)]))
    with pytest.raises(ValueError):
        enumerate_splitted_images(Multigraph(4, [(0, 1), (2, 3)]))


def test_node_limit_marks_incomplete():
    atlas = enumerate_splitted_images(petersen().graph, node_limit=10)
    assert not atlas.complete


def test_bridge_and_degree_facts_on_petersen_images():
    atlas = enumerate_splitted_images(petersen().graph)
    for e in atlas.entries:
        g = e.graph
        assert all(g.degree(v) in (1, 3) for v in range(g.n))
        for eid in g.bridges():
            a, b = g.edges[eid]
            assert (g.degree(a) == 1) != (g.degree(b) == 1)


# -- oracle and pins for the atlas search -----------------------------------

def _restricted_growth_strings(m: int):
    def rec(prefix: list[int], nxt: int):
        if len(prefix) == m:
            yield prefix
            return
        for c in range(nxt + 1):
            yield from rec(prefix + [c], max(nxt, c + 1))

    yield from rec([], 0)


def naive_atlas(guest: Multigraph) -> dict[bytes, int]:
    """Every restricted-growth labelling along the breadth-first edge order
    that realize_image accepts, grouped by the canonical form of its image.
    The search walks another order, the solver's edge sequence; each
    partition has one restricted-growth labelling along either."""
    order = _bfs_edge_order(guest)
    out: dict[bytes, int] = {}
    for rgs in _restricted_growth_strings(guest.m):
        classes = [0] * guest.m
        for eid, c in zip(order, rgs):
            classes[eid] = c
        try:
            img = realize_image(guest, tuple(classes), tuple(order))
        except ValueError:
            continue
        key = canonical_form(img.graph)
        out[key] = out.get(key, 0) + 1
    return out


@st.composite
def small_connected_multigraphs(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda ab: ab[0] != ab[1]
    )
    edges += draw(st.lists(pairs, max_size=7 - len(edges)))
    return Multigraph(n, draw(st.permutations(edges)))


@settings(max_examples=120, deadline=None)
@given(small_connected_multigraphs())
def test_atlas_matches_naive_oracle(guest):
    atlas = enumerate_splitted_images(guest)
    assert atlas.complete
    assert {e.canonical: e.multiplicity for e in atlas.entries} == naive_atlas(guest)
    assert atlas.tk2_realizable is _tk2_oracle(guest)


def _tk2_oracle(guest: Multigraph) -> bool:
    """The flag from its definition: t-regular with a t-edge-colouring."""
    degrees = set(guest.degrees())
    return len(degrees) == 1 and tk2_colourable(guest, degrees.pop())


@pytest.mark.parametrize("guest", [cycle(4).graph, cycle(5).graph] + [
    complete(t).graph for t in range(4, 8)], ids=["C4", "C5", "K4", "K5", "K6", "K7"])
def test_tk2_flag_matches_chromatic_index(guest):
    atlas = enumerate_splitted_images(guest)
    assert atlas.complete
    assert atlas.tk2_realizable is _tk2_oracle(guest)


def test_tk2_flag_of_incomplete_atlas():
    # the single-type leaf of Q3 is the 13th node; before it nothing is known
    assert enumerate_splitted_images(_q3(), node_limit=12).tk2_realizable is None
    atlas = enumerate_splitted_images(_q3(), node_limit=13)
    assert not atlas.complete and atlas.tk2_realizable is True
    # past the 64 edges up to which the chromatic index is computed
    c66 = enumerate_splitted_images(cycle(66).graph, node_limit=200)
    assert not c66.complete and c66.tk2_realizable is True
    c67 = enumerate_splitted_images(cycle(67).graph, node_limit=200)
    assert not c67.complete and c67.tk2_realizable is None


def _k33() -> Multigraph:
    return Multigraph(6, [(a, b) for a in range(3) for b in range(3, 6)])


def _heawood() -> Multigraph:
    """The Heawood graph from its LCF notation [5, -5]^7."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Multigraph(14, edges)


def _q3() -> Multigraph:
    return Multigraph(8, [(a, a | 1 << k) for a in range(8) for k in range(3)
                          if not a >> k & 1])


# (canonical digest, multiplicity) per image class, recorded with the
# set-based search that had no saturated-class propagation (S4 and K_n minus
# an edge with the mask search before room masks); node counts of the
# current search, so a change to its pruning shows up.
ATLAS_PINS = {
    "K3,3": (
        _k33,
        143,
        {
            ("24bfe3da65c40abf", 6),
            ("29f43a0b91a4278d", 18),
            ("7132725cf9b7d7e9", 18),
            ("76da90a9f29a1ae7", 2),
            ("89ef8ad20eabb517", 1),
        },
    ),
    "Q3": (
        _q3,
        866,
        {
            ("1827aa3ad4ddfb4b", 21),
            ("24bfe3da65c40abf", 12),
            ("29f43a0b91a4278d", 60),
            ("45faba53ed9e5c6c", 3),
            ("67097345f15149e4", 12),
            ("7132725cf9b7d7e9", 84),
            ("76da90a9f29a1ae7", 4),
            ("91b42e29669d9584", 1),
            ("a029a425eec7619d", 10),
            ("ac2587a1a9c758ec", 12),
            ("cb48b3a3a4cfa4fb", 3),
        },
    ),
    "K6": (
        lambda: complete(6).graph,
        1116,
        {
            ("0a68481d6da81e32", 90),
            ("3df277ab6419b438", 45),
            ("5fbee7bb8cbb5195", 1),
            ("ed58e035ab7e8649", 15),
            ("eeb672768bd8c84e", 6),
        },
    ),
    "Petersen": (
        lambda: petersen().graph,
        1722,
        {
            ("29f43a0b91a4278d", 120),
            ("8d183b25e3c8e6a3", 1),
        },
    ),
    "K7": (
        lambda: complete(7).graph,
        29641,
        {
            ("8bd051b63979b043", 1),
            ("c4d7ed4e2cda6575", 140),
        },
    ),
    # non-regular guests: only their node counts see the degree-size test
    # of a saturated class's types, which never cuts a leaf
    "S4": (lambda: s4().graph, 7, {("29f43a0b91a4278d", 1)}),
    "K5-e": (
        lambda: complete_minus_edge(5).graph,
        22,
        {("d9e113351ba4e06f", 1)},
    ),
    "K6-e": (
        lambda: complete_minus_edge(6).graph,
        239,
        {
            ("358c5b1f405da031", 3),
            ("51239b9032599262", 1),
            ("6429e695b2e21301", 6),
            ("d080eea16363ca22", 3),
        },
    ),
    "K7-e": (
        lambda: complete_minus_edge(7).graph,
        2881,
        {("0dd3a21ef4d943d3", 1)},
    ),
    # the first edge at vertex 4 meets a saturated class with no completed
    # type of size 2
    "K1,3+digon": (
        lambda: Multigraph(5, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 4)]),
        6,
        {("6c7e974a79534a5e", 1)},
    ),
    # an empty vertex may take a saturated class only through a completed
    # type of its own degree: without that size test this takes 9 nodes
    "room-size": (
        lambda: Multigraph(6, [(0, 3), (1, 5), (4, 2), (2, 0), (5, 1), (0, 1)]),
        8,
        {("68926edcb0a2a15a", 1)},
    ),
    # the paper's gadget guests
    "S10": (lambda: s10().graph, 68, {("a4418f9f722fbe7e", 1)}),
    "S12": (
        lambda: s12().graph,
        350,
        {("630473c8cc236b25", 1), ("a4418f9f722fbe7e", 1)},
    ),
    "S12+1M": (lambda: s12_plus_km(1).graph, 7878, {("84154efb3c5a397f", 1)}),
    # the benchmark's largest atlas; classes as in bench/reference.json
    "Heawood": (
        _heawood,
        60183,
        {
            ("2232bd6029ab82aa", 1),
            ("24bfe3da65c40abf", 168),
            ("284b7e452c35b4f6", 252),
            ("29f43a0b91a4278d", 4368),
            ("2f9ee076ab177dd7", 28),
            ("547cf490721e4ced", 28),
            ("5697f2d512921ee1", 84),
            ("7132725cf9b7d7e9", 1512),
            ("76da90a9f29a1ae7", 8),
            ("9fc7b7d0eafae480", 42),
            ("a029a425eec7619d", 336),
            ("ac2587a1a9c758ec", 168),
        },
    ),
}


@pytest.mark.parametrize("name", list(ATLAS_PINS))
def test_atlas_pinned(name):
    build, nodes, classes = ATLAS_PINS[name]
    atlas = enumerate_splitted_images(build())
    assert atlas.complete
    got = {(hashlib.sha256(e.canonical).hexdigest()[:16], e.multiplicity)
           for e in atlas.entries}
    assert got == classes
    assert atlas.nodes == nodes
    assert atlas.tk2_realizable is _tk2_oracle(build())


# -- budgeted runs -----------------------------------------------------------
# (complete, tk2_realizable, nodes, classes) per guest and node limit: a
# stopped search counts the node that passed the limit, records no leaf
# beyond it and keeps the classes found before it.

BUDGETED_ATLASES = {
    "Petersen": (lambda: petersen().graph, {
        0: (False, None, 1, []),
        1: (False, None, 2, []),
        100: (False, None, 101, [("29f43a0b91a4278d", 11)]),
        1000: (False, None, 1001, [("29f43a0b91a4278d", 78)]),
        5000: (True, False, 1722,
               [("29f43a0b91a4278d", 120), ("8d183b25e3c8e6a3", 1)]),
    }),
    "K7": (lambda: complete(7).graph, {
        0: (False, None, 1, []),
        1: (False, None, 2, []),
        100: (False, None, 101, [("c4d7ed4e2cda6575", 2)]),
        1000: (False, None, 1001, [("c4d7ed4e2cda6575", 8)]),
        5000: (False, None, 5001, [("c4d7ed4e2cda6575", 20)]),
    }),
    "S12+1M": (lambda: s12_plus_km(1).graph, {
        0: (False, None, 1, []),
        1: (False, None, 2, []),
        100: (False, None, 101, []),
        1000: (False, None, 1001, []),
        5000: (False, None, 5001, []),
    }),
}


@pytest.mark.parametrize("name", list(BUDGETED_ATLASES))
def test_budgeted_atlas_pinned(name):
    build, pins = BUDGETED_ATLASES[name]
    guest = build()
    for limit, pin in pins.items():
        atlas = enumerate_splitted_images(guest, node_limit=limit)
        got = sorted((hashlib.sha256(e.canonical).hexdigest()[:16], e.multiplicity)
                     for e in atlas.entries)
        assert (atlas.complete, atlas.tk2_realizable, atlas.nodes, got) == pin, limit


# -- every leaf is revalidated ------------------------------------------------

@pytest.mark.parametrize("build, leaves, forms", [
    (lambda: petersen().graph, 121, 4), (lambda: complete(7).graph, 141, 2),
    (_heawood, 6995, 67),
], ids=["Petersen", "K7", "Heawood"])
def test_every_leaf_is_revalidated(monkeypatch, build, leaves, forms):
    """The image of a set of vertex types is built once, but each leaf's
    witness still goes through check_colouring, and the canonical form is
    taken once per distinct labelled image, its edge multiset (Heawood's
    308 type sets build 67 of them)."""
    import hcolour.images as images

    checked = []
    canonical_calls = []

    def counting_check(c):
        checked.append(c)
        return check_colouring(c)

    def counting_canonical(g):
        canonical_calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(images, "check_colouring", counting_check)
    monkeypatch.setattr(images, "canonical_form", counting_canonical)
    atlas = enumerate_splitted_images(build())
    assert atlas.complete
    assert sum(e.multiplicity for e in atlas.entries) == leaves
    assert len(checked) == leaves
    assert len({c.edge_map for c in checked}) == leaves
    labelled = {(c.host.n, tuple(sorted(c.host.edges))) for c in checked}
    assert len(canonical_calls) == len(labelled) == forms
