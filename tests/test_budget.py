"""Every budgeted search shares one node budget, DEFAULT_NODE_BUDGET."""

import argparse
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcolour import recipes
from hcolour.cli import build_parser, main
from hcolour.images import enumerate_splitted_images
from hcolour.named import complete, petersen, s4, s12_plus_km
from hcolour.recipes import run_corpus, run_recipe
from hcolour.solver import DEFAULT_NODE_BUDGET, solve
from hcolour.structure import _edge_colouring
from test_images import small_connected_multigraphs
from test_solver import regular_pairs, tiny_multigraphs


def test_the_budget_is_ten_to_the_eighth():
    assert DEFAULT_NODE_BUDGET == 10**8


@pytest.mark.parametrize("search", [solve, enumerate_splitted_images, run_corpus])
def test_every_budgeted_entry_point_defaults_to_the_budget(search):
    node_limit = inspect.signature(search).parameters["node_limit"]
    assert node_limit.default == DEFAULT_NODE_BUDGET


# each budgeted entry point called with a node_limit; the first solve is
# decided before its first node (no host vertex of degree 4), and the corpus
# file does not exist, so a bad budget must be caught before it matters
BUDGETED_CALLS = {
    "solve-s4-k5": lambda limit: solve(s4().graph, complete(5).graph, node_limit=limit),
    "solve-s4-petersen": lambda limit: solve(s4().graph, petersen().graph,
                                             node_limit=limit),
    "atlas-petersen": lambda limit: enumerate_splitted_images(petersen().graph,
                                                              node_limit=limit),
    "corpus": lambda limit: run_corpus("missing.g6", s4().graph, "s4", node_limit=limit),
    "edge-colouring-petersen": lambda limit: _edge_colouring(petersen().graph, 3, limit),
}


@pytest.mark.parametrize("bad", [None, 2.5, "100", True])
@pytest.mark.parametrize("call", list(BUDGETED_CALLS))
def test_a_non_integer_node_limit_is_rejected_before_the_search(call, bad):
    with pytest.raises(ValueError, match=rf"^node_limit must be an integer, got {bad!r}$"):
        BUDGETED_CALLS[call](bad)


def _node_limit_actions(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _node_limit_actions(sub)
        elif "--node-limit" in action.option_strings:
            yield parser.prog, action


def test_every_node_limit_option_defaults_to_the_budget():
    found = {prog.split()[-1]: action.default
             for prog, action in _node_limit_actions(build_parser())}
    assert found == dict.fromkeys(["solve", "images", "corpus"], DEFAULT_NODE_BUDGET)


def test_a_recipe_receives_every_parameter_with_its_default(monkeypatch):
    # each recipe receives exactly the keys it declares, the rest at their defaults
    seen = []
    for name in ("petersen-images", "s12kM-rigidity", "lemma24-props"):
        monkeypatch.setitem(recipes.RECIPES, name,
                            lambda params: seen.append(params) or [])
    run_recipe("petersen-images")
    run_recipe("s12kM-rigidity")
    run_recipe("lemma24-props")
    run_recipe("lemma24-props", {"seed": 7})
    assert seen == [
        {"node_limit": DEFAULT_NODE_BUDGET},
        {"k": 1, "node_limit": DEFAULT_NODE_BUDGET},
        {"node_limit": DEFAULT_NODE_BUDGET, "seed": 0},
        {"node_limit": DEFAULT_NODE_BUDGET, "seed": 7},
    ]


def test_a_recipe_node_limit_of_none_is_rejected(monkeypatch):
    def never(params):
        raise AssertionError("the recipe ran")

    monkeypatch.setitem(recipes.RECIPES, "petersen-images", never)
    with pytest.raises(ValueError,
                       match=r"^parameter 'node_limit' must be an integer, got None$"):
        run_recipe("petersen-images", {"node_limit": None})


@pytest.mark.parametrize("call", list(BUDGETED_CALLS))
def test_a_negative_node_limit_is_rejected_before_the_search(call):
    with pytest.raises(ValueError, match=r"^node_limit must be non-negative, got -1$"):
        BUDGETED_CALLS[call](-1)


def test_a_recipe_node_limit_of_minus_one_is_rejected(monkeypatch):
    def never(params):
        raise AssertionError("the recipe ran")

    monkeypatch.setitem(recipes.RECIPES, "petersen-images", never)
    with pytest.raises(ValueError, match=r"^node_limit must be non-negative, got -1$"):
        run_recipe("petersen-images", {"node_limit": -1})


@pytest.mark.parametrize("argv", [
    ["solve", "--host", "s4", "--guest", "petersen"],
    ["images", "--guest", "petersen"],
    ["corpus", "missing.g6", "--host", "s4"],
])
def test_a_node_limit_option_of_minus_one_is_a_parse_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--node-limit", "-1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith(
        "error: argument --node-limit: must be a non-negative integer, got '-1'")
    assert "Traceback" not in err


def test_the_budget_bounds_tree_nodes_with_skipped_subtrees_in_full():
    # the S12+1M self-count stops at node 100,001 of its search tree having
    # visited 18,660 nodes: the dead-state table skipped the other 81,341
    g = s12_plus_km(1).graph
    res = solve(g, g, mode="count", node_limit=100_000)
    assert res.status == "unknown"
    assert (res.nodes, res.nodes - res.skipped, res.skipped) == (100_001, 18_660, 81_341)


# -- the stop rule: a search ran out iff nodes > node_limit, and then
# nodes == node_limit + 1; at any limit it reaches, it is the full search --

@settings(max_examples=300, deadline=None)
@given(st.one_of(regular_pairs(), st.tuples(tiny_multigraphs(4), tiny_multigraphs(5))),
       st.sampled_from(["first", "count"]), st.data())
def test_solve_runs_out_iff_the_limit_is_below_the_full_search(pair, mode, data):
    host, guest = pair
    full = solve(host, guest, mode=mode)
    limit = data.draw(st.integers(0, full.nodes), label="node_limit")
    res = solve(host, guest, mode=mode, node_limit=limit)
    if limit < full.nodes:
        assert (res.status, res.nodes) == ("unknown", limit + 1)
    else:
        assert res == full


def _atlas_summary(atlas):
    return (atlas.complete, atlas.nodes, atlas.tk2_realizable,
            [(e.canonical, e.multiplicity, e.witness.edge_map) for e in atlas.entries])


@settings(max_examples=120, deadline=None)
@given(small_connected_multigraphs(), st.data())
def test_an_atlas_is_complete_iff_the_limit_covers_the_full_search(guest, data):
    full = enumerate_splitted_images(guest)
    limit = data.draw(st.integers(0, full.nodes), label="node_limit")
    atlas = enumerate_splitted_images(guest, node_limit=limit)
    if limit < full.nodes:
        assert (atlas.complete, atlas.nodes) == (False, limit + 1)
    else:
        assert _atlas_summary(atlas) == _atlas_summary(full)


@settings(max_examples=300, deadline=None)
@given(tiny_multigraphs(7), st.data())
def test_edge_colouring_runs_out_iff_the_limit_is_below_the_full_search(G, data):
    full = _edge_colouring(G, 3, DEFAULT_NODE_BUDGET)
    limit = data.draw(st.integers(0, full[1]), label="node_limit")
    got = _edge_colouring(G, 3, limit)
    assert got == ((None, limit + 1) if limit < full[1] else full)
