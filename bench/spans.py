"""In-memory span tracing around the public functions of each hcolour layer.

The benchmark never edits the package.  Tracing replaces the module
attributes through which the workloads and the package's own modules call
each other (for example ``hcolour.recipes.solve`` and
``hcolour.solver.check_colouring``) with wrappers that record one span per
call: name, start, end, parent span and operation id.  Generator functions
record one span per resumption, so a span never stays open while the
consumer runs.  Spans are kept in flat arrays and written out when the run
ends.  A layer's self time is the duration of its spans minus the time
their child spans cover.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

# (module, attribute, span name).  One entry per binding: a package module
# that imported a name with ``from .x import f`` holds its own reference.
WRAPPED = [
    ("hcolour.graphio", "ingest_graph6", "graphio.ingest_graph6"),
    ("hcolour.recipes", "ingest_graph6", "graphio.ingest_graph6"),
    ("hcolour.recipes", "solve", "solver.solve"),
    ("hcolour.solver", "check_colouring", "colouring.check_colouring"),
    ("hcolour.images", "check_colouring", "colouring.check_colouring"),
    ("hcolour.recipes", "check_colouring", "colouring.check_colouring"),
    ("hcolour.colouring", "check_colouring", "colouring.check_colouring"),
    ("hcolour.recipes", "preimage", "colouring.preimage"),
    ("hcolour.images", "enumerate_splitted_images", "images.enumerate_splitted_images"),
    ("hcolour.images", "realize_image", "images.realize_image"),
    ("hcolour.images", "canonical_form", "canonical.canonical_form"),
    ("hcolour.structure", "perfect_matchings", "structure.perfect_matchings"),
    ("hcolour.recipes", "perfect_matchings", "structure.perfect_matchings"),
    ("hcolour.structure", "has_perfect_matching", "structure.has_perfect_matching"),
    ("hcolour.structure", "has_two_disjoint_perfect_matchings",
     "structure.has_two_disjoint_perfect_matchings"),
    ("hcolour.recipes", "has_two_disjoint_perfect_matchings",
     "structure.has_two_disjoint_perfect_matchings"),
    ("hcolour.structure", "enumerate_matchings", "structure.enumerate_matchings"),
    ("hcolour.recipes", "enumerate_matchings", "structure.enumerate_matchings"),
    ("hcolour.named", "poorly_matchable_witness", "named.poorly_matchable_witness"),
    ("hcolour.recipes", "run_corpus", "recipes.run_corpus"),
    ("hcolour.recipes", "run_recipe", "recipes.run_recipe"),
]

GENERATORS = {
    "graphio.ingest_graph6",
    "structure.perfect_matchings",
    "structure.enumerate_matchings",
}

ROOT = "bench.pass"
PM_SPANS = (
    "structure.perfect_matchings",
    "structure.has_perfect_matching",
    "structure.has_two_disjoint_perfect_matchings",
)


class Tracer:
    """Spans in columnar arrays plus exact counters taken at the same calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = 0
        self.active = False
        self.counters: dict[str, int] = {}
        self.broken = 0  # spans closed out of stack order or outlasting their parent

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        if not self.stack or self.stack.pop() != i:
            self.broken += 1

    def bump(self, key: str, by: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def current(self) -> str:
        return self.names[self.name[self.stack[-1]]] if self.stack else ""

    def self_times(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Self time, inclusive time and span count per name for spans lo..hi-1."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        own: dict[str, float] = {}
        incl: dict[str, float] = {}
        count: dict[str, int] = {}
        for i in range(lo, hi):
            nm = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            if dur < 0 or child[i - lo] > dur + 1e-9:
                self.broken += 1
            own[nm] = own.get(nm, 0.0) + dur - child[i - lo]
            incl[nm] = incl.get(nm, 0.0) + dur
            count[nm] = count.get(nm, 0) + 1
        return own, incl, count

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tname\tparent\top\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}"
                    f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )


def _post_solve(t: Tracer, res) -> None:
    t.bump("solver.nodes", res.nodes)
    t.bump("solver.prunes", res.prunes)
    t.bump("solver.solutions", res.count)


def _post_atlas(t: Tracer, atlas) -> None:
    t.bump("images.nodes", atlas.nodes)
    t.bump("images.leaves", sum(e.multiplicity for e in atlas.entries))


POST = {"solver.solve": _post_solve, "images.enumerate_splitted_images": _post_atlas}


def _wrap(t: Tracer, fn, span: str):
    post = POST.get(span)

    if span in GENERATORS:
        def resumed(it):
            try:
                while True:
                    i = t.open(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t.close(i)
                    t.bump(span + ".yields")
                    yield item
            finally:
                it.close()

        def gen_wrapper(*args, **kwargs):
            if not t.active:
                return fn(*args, **kwargs)
            t.bump(span + ".calls")
            return resumed(fn(*args, **kwargs))

        return gen_wrapper

    def wrapper(*args, **kwargs):
        if not t.active:
            return fn(*args, **kwargs)
        if span == "structure.has_perfect_matching" and t.current() == "named.poorly_matchable_witness":
            t.bump("named.candidates")
        i = t.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            t.close(i)
        if post is not None:
            post(t, result)
        return result

    return wrapper


def install(t: Tracer) -> None:
    """Replace every binding in WRAPPED with a wrapper that records into t."""
    for module, attr, span in WRAPPED:
        mod = importlib.import_module(module)
        setattr(mod, attr, _wrap(t, getattr(mod, attr), span))


def layer_metrics(t: Tracer, lo: int, hi: int, counters: dict[str, int]) -> dict[str, float]:
    """Per-layer numbers for the spans lo..hi-1 of one traced pass.

    Counts are ints and repeat exactly for one seed; times and rates are
    floats.
    """
    own, incl, count = t.self_times(lo, hi)

    def s(*names: str) -> float:
        return sum((own.get(n, 0.0) for n in names), 0.0)

    def layer(prefix: str) -> float:
        return sum((v for n, v in own.items() if n.startswith(prefix + ".")), 0.0)

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    c = counters.get
    solver_calls = count.get("solver.solve", 0)
    canon_calls = count.get("canonical.canonical_form", 0)
    nodes = c("solver.nodes", 0)
    images_nodes = c("images.nodes", 0)
    candidates = c("named.candidates", 0)
    return {
        "graphio.ingest_s": layer("graphio"),
        "graphio.records": c("graphio.ingest_graph6.yields", 0),
        "solver.calls": solver_calls,
        "solver.nodes": nodes,
        "solver.prunes": c("solver.prunes", 0),
        "solver.solutions": c("solver.solutions", 0),
        "solver.self_s": layer("solver"),
        "solver.nodes_per_s": rate(nodes, layer("solver")),
        "solver.solution_ratio": rate(c("solver.solutions", 0), nodes),
        "solver.ms_per_call": rate(1000 * incl.get("solver.solve", 0.0), solver_calls),
        "colouring.check_calls": count.get("colouring.check_colouring", 0),
        "colouring.check_s": s("colouring.check_colouring"),
        "colouring.preimage_calls": count.get("colouring.preimage", 0),
        "colouring.preimage_s": s("colouring.preimage"),
        "images.nodes": images_nodes,
        "images.leaves": c("images.leaves", 0),
        "images.leaf_ratio": rate(c("images.leaves", 0), images_nodes),
        "images.self_s": layer("images"),
        "images.nodes_per_s": rate(images_nodes, layer("images")),
        "canonical.calls": canon_calls,
        "canonical.self_s": layer("canonical"),
        "canonical.ms_per_call": rate(1000 * layer("canonical"), canon_calls),
        "structure.pm_calls": c("structure.perfect_matchings.calls", 0),
        "structure.pm_s": s(*PM_SPANS),
        "structure.matchings_s": s("structure.enumerate_matchings"),
        "named.candidates": candidates,
        "named.candidates_per_s": rate(candidates, incl.get("named.poorly_matchable_witness", 0.0)),
        "named.gen_s": layer("named"),
        "recipes.self_s": layer("recipes"),
        "bench.self_s": s(ROOT),
        "trace.layer_self_sum_s": sum(v for n, v in own.items() if n != ROOT),
        "trace.spans": hi - lo,
    }
