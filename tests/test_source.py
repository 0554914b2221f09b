"""Properties of the package source itself."""

import ast
import inspect
import textwrap
from pathlib import Path

import hcolour

SRC = Path(hcolour.__file__).resolve().parent


def test_no_check_relies_on_assert():
    # python -O strips assert statements, so a check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    # no linter is installed, so an unused import would go unnoticed
    found = [
        hit
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"  # its imports are the package's API
        for hit in _unused_imports(path)
    ]
    assert found == []


# What oracles.py may import from the package: the graph and the colouring
# records, nothing that the fast paths compute with.
ORACLE_IMPORTS = {("multigraph", "Multigraph"), ("colouring", "Colouring"),
                  ("colouring", "ColouringReport")}
# The Multigraph attributes an oracle may read: the definition's inputs.
ORACLE_READS = {"n", "m", "edges"}


def _oracle_rule_breaks(source: str) -> list[str]:
    """Package imports beyond ORACLE_IMPORTS, and reads of Multigraph
    attributes beyond ORACLE_READS, in the oracle module's source."""
    from hcolour.multigraph import Multigraph

    graph_attrs = {a for a in dir(Multigraph) if not a.startswith("__")}
    graph_attrs |= set(Multigraph.__slots__)
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            module = node.module or ""
            if node.level == 0 and not module.startswith("hcolour"):
                continue  # the standard library
            module = module.removeprefix("hcolour").lstrip(".")
            found += [f"{node.lineno}: from {module or '.'} import {alias.name}"
                      for alias in node.names
                      if (module, alias.name) not in ORACLE_IMPORTS]
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.partition(".")[0] == "hcolour"]
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and node.attr in graph_attrs - ORACLE_READS):
            found.append(f"{node.lineno}: .{node.attr}")
    return found


def test_oracles_read_only_n_and_edges():
    # an oracle that read the incidence lists or boundary tables the fast
    # paths read would share their faults; see the oracles module docstring
    assert _oracle_rule_breaks((SRC / "oracles.py").read_text()) == []


def test_oracle_rule_catches_a_derived_read_and_a_package_import():
    assert _oracle_rule_breaks("def f(G):\n    return G.degree(0)\n") == ["2: .degree"]
    assert _oracle_rule_breaks("from .structure import perfect_matchings\n") == [
        "1: from structure import perfect_matchings"]
    assert _oracle_rule_breaks("import hcolour.solver\n") == ["1: import hcolour.solver"]
    assert _oracle_rule_breaks("from hcolour.multigraph import Multigraph\n"
                               "from itertools import product\n") == []


def _params_read(fn) -> set[str]:
    """The keys of the params["..."] subscripts in fn's source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "params" and isinstance(node.slice, ast.Constant)}


def test_each_recipe_reads_exactly_the_params_it_declares():
    # a declared key that is never read would be accepted and do nothing
    from hcolour.recipes import _PARAMS, RECIPES

    # p-matching-cuts runs no budgeted search, so it takes node_limit unread
    unread = {"p-matching-cuts": {"node_limit"}}
    assert {name: _params_read(fn) for name, fn in RECIPES.items()} == {
        name: set(_PARAMS[name]) - unread.get(name, set()) for name in RECIPES}
