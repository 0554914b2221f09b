"""The public bindings the benchmark's tracer wraps must exist.

bench/spans.py replaces each (module, attribute) in its WRAPPED table at
run time; a deleted or renamed name would only show when the benchmark
runs with --trace 1.  The table is read from the source, not executed.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _wrapped() -> list[tuple[str, str, str]]:
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {SPANS}")


def test_every_wrapped_binding_is_callable():
    wrapped = _wrapped()
    assert wrapped
    missing = [
        (module, attr)
        for module, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing
