"""Every budgeted search shares one node budget, DEFAULT_NODE_BUDGET."""

import argparse
import inspect

import pytest

from hcolour import recipes
from hcolour.cli import build_parser, main
from hcolour.images import enumerate_splitted_images
from hcolour.named import complete, petersen, s4
from hcolour.recipes import run_corpus, run_recipe
from hcolour.solver import DEFAULT_NODE_BUDGET, solve
from hcolour.structure import _edge_colouring


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
