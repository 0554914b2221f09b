"""Named verification recipes binding the solver, enumerator and structure
tools into reproducible pass/fail reports.

Each recipe runs a fixed list of checks and returns a VerificationReport.
Reports are deterministic for identical inputs and limits: every value that
lands in the serialized output is derived from the computation itself, never
from the clock.  _check is the one rule that turns evidence into an outcome,
and the one place where a search that did not finish becomes "unknown".
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, Iterator, Optional, TypeVar

from .canonical import canonical_digest, canonical_form
from .colouring import Colouring, check_colouring, preimage
from .graphio import GraphFormatError, ingest_graph6
from .images import ImageAtlas, enumerate_splitted_images
from .multigraph import Multigraph
from .named import (
    complete,
    cycle,
    j_graph,
    k_family_members,
    petersen,
    poorly_matchable_ten_vertices,
    s4,
    s4_plus_km,
    s10,
    s12,
    s12_plus_km,
    t_k2,
)
from .oracles import naive_check_colouring, pairwise_intersecting_perfect_matchings
from .solver import solve
from .structure import (
    DEFAULT_NODE_BUDGET,
    _check_node_limit,
    _edge_colouring,
    enumerate_matchings,
    has_perfect_matching,
    has_two_disjoint_perfect_matchings,
    perfect_matchings,
)

T = TypeVar("T")

Outcome = str  # "pass" | "fail" | "unknown"


@dataclass
class CheckResult:
    name: str
    outcome: Outcome
    details: dict = field(default_factory=dict)
    nodes: int = 0

    def to_json(self) -> str:
        payload = {"check": self.name, "outcome": self.outcome, "nodes": self.nodes}
        payload.update(self.details)
        return json.dumps(payload, sort_keys=True)


@dataclass
class VerificationReport:
    recipe: str
    checks: list[CheckResult] = field(default_factory=list)
    version: str = ""

    @property
    def status(self) -> Outcome:
        if any(c.outcome == "fail" for c in self.checks):
            return "fail"
        if any(c.outcome == "unknown" for c in self.checks):
            return "unknown"
        return "pass"

    @property
    def total_nodes(self) -> int:
        return sum(c.nodes for c in self.checks)

    def summary_json(self) -> str:
        """The report's last line: one JSON object without the checks."""
        return json.dumps(
            {
                "recipe": self.recipe,
                "status": self.status,
                "checks": len(self.checks),
                "total_nodes": self.total_nodes,
                "version": self.version,
            },
            sort_keys=True,
        )

    def to_json_lines(self) -> str:
        lines = [c.to_json() for c in self.checks] + [self.summary_json()]
        return "\n".join(lines) + "\n"


def artifact_version() -> str:
    """Digest of the package sources, stamped into every report."""
    h = hashlib.sha256()
    pkg_dir = Path(__file__).parent
    for path in sorted(pkg_dir.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def _check(name: str, ok: bool | str, nodes: int = 0, *, settled: bool = True,
           expect: Optional[str] = None, **details) -> CheckResult:
    """The one rule that turns a check's evidence into its outcome.

    ok is the claim, True or False, and settled says whether the search it
    rests on finished (for an atlas claim, atlas.complete).  With expect
    ("sat" or "unsat"), ok is a solver status instead, kept as the "status"
    detail, the claim is that it equals expect, and "unknown" is not
    settled.  Evidence short of settled is "unknown", never "pass" or
    "fail": a spent budget proves and refutes nothing.
    """
    if expect is not None:
        details["status"] = ok
        settled = settled and ok != "unknown"
        ok = ok == expect
    outcome = ("pass" if ok else "fail") if settled else "unknown"
    return CheckResult(name, outcome, details, nodes)


def _atlas_complete(guest_name: str, atlas: ImageAtlas) -> CheckResult:
    """<guest>-atlas-complete: every claim about the atlas but its witnesses rests on it."""
    return _check(f"{guest_name}-atlas-complete", atlas.complete, atlas.nodes,
                  settled=atlas.complete, entries=len(atlas.entries))


def _atlas_checks(
    guest_name: str, atlas: ImageAtlas, expected: dict[str, Multigraph]
) -> list[CheckResult]:
    """Compare the guest's image atlas against the expected classes."""
    expected_keys = {name: canonical_form(g) for name, g in expected.items()}
    # _witness's check_colouring accepted each witness; recheck with the oracle
    bad = [i for i, e in enumerate(atlas.entries) if not naive_check_colouring(e.witness).ok]
    return [
        _atlas_complete(guest_name, atlas),
        _check(
            f"{guest_name}-atlas-classes",
            atlas.canonical_set() == set(expected_keys.values()),
            settled=atlas.complete,
            expected=sorted(expected_keys),
            found=[canonical_digest(e.graph) for e in atlas.entries],
            multiplicities={
                nm: (atlas.find(g).multiplicity if atlas.find(g) else 0)
                for nm, g in expected.items()
            },
        ),
        # settled on any atlas: it speaks only of the witnesses found
        _check(f"{guest_name}-atlas-witnesses-revalidate", not bad, bad=bad),
    ]


# -- individual recipes ----------------------------------------------------

def _recipe_petersen_images(params: dict) -> list[CheckResult]:
    P = petersen().graph
    atlas = enumerate_splitted_images(P, node_limit=params["node_limit"])
    images = [e.graph for e in atlas.entries]
    return _atlas_checks("petersen", atlas, {"petersen": P, "s4": s4().graph}) + [
        _check("petersen-atlas-exactly-two", len(images) == 2,
               settled=atlas.complete, entries=len(images)),
        # in every image, each bridge uv has exactly one endpoint of degree 1
        _check("petersen-image-bridge-endpoints",
               all(sum(g.degree(v) == 1 for v in g.edges[e]) == 1
                   for g in images for e in g.bridges()),
               settled=atlas.complete),
        _check("petersen-image-degrees-1-or-3",
               all(g.degree(v) in (1, 3) for g in images for v in range(g.n)),
               settled=atlas.complete),
    ]


def _recipe_s10_images(params: dict) -> list[CheckResult]:
    g = s10().graph
    atlas = enumerate_splitted_images(g, node_limit=params["node_limit"])
    return _atlas_checks("s10", atlas, {"s10": g})


def _recipe_s12_images(params: dict) -> list[CheckResult]:
    g = s12().graph
    atlas = enumerate_splitted_images(g, node_limit=params["node_limit"])
    return _atlas_checks("s12", atlas, {"s10": s10().graph, "s12": g})


def _recipe_p_matching_cuts(params: dict) -> list[CheckResult]:
    P = petersen().graph
    pms = {frozenset(M) for M in perfect_matchings(P)}
    cuts = {M for M in enumerate_matchings(P) if M and P.is_edge_cut(M)}
    return [
        _check("p-perfect-matching-count", len(pms) == 6, count=len(pms)),
        _check(
            "p-matching-cuts-are-perfect-matchings",
            cuts == pms,
            cut_matchings=len(cuts),
        ),
    ]


def _recipe_k5_images(params: dict) -> list[CheckResult]:
    K5 = complete(5).graph
    atlas = enumerate_splitted_images(K5, node_limit=params["node_limit"])
    odd = [e for e in atlas.entries if e.graph.n % 2]  # an even t fails the family check
    family = {t: {canonical_form(m) for m in k_family_members(t, 4)}
              for t in {e.graph.n for e in odd}}
    return [
        _atlas_complete("k5", atlas),
        _check("k5-images-in-k-family-odd-t",
               all(e.graph.n % 2 and e.canonical in family[e.graph.n]
                   for e in atlas.entries),
               settled=atlas.complete),
        _check("k5-images-no-unused-vertex",
               all(e.graph.degree(v) == 4 for e in odd for v in range(e.graph.n)),
               settled=atlas.complete),
    ]


def _recipe_j4_exclusion(params: dict) -> list[CheckResult]:
    guest = j_graph(2).graph
    hosts = [(3, m) for m in k_family_members(3, 4)] + [
        (5, m) for m in k_family_members(5, 4)
    ]
    checks = [
        _check("j4-host-count", len(hosts) == 2, hosts=len(hosts))
    ]
    for t, h in hosts:
        r = solve(h, guest, node_limit=params["node_limit"])
        checks.append(
            _check(
                f"j4-unsat-vs-{h.name or f'kfamily-{t}'}",
                r.status,
                nodes=r.nodes,
                expect="unsat",
            )
        )
    return checks


def _recipe_s12km_rigidity(params: dict) -> list[CheckResult]:
    k = params["k"]
    if k < 1:  # theorem (i) speaks of k >= 1; S12+0M is S12, with S10 in its atlas
        raise ValueError(f"k must be at least 1, got {k}")
    g = s12_plus_km(k).graph
    atlas = enumerate_splitted_images(g, node_limit=params["node_limit"])
    return _atlas_checks(f"s12+{k}M", atlas, {f"s12+{k}M": g})


def _recipe_thm44(params: dict) -> list[CheckResult]:
    """Poorly matchable 4-regular pipeline.

    Exhaustive search shows no 4-regular multigraph on at most 8 vertices
    has a perfect matching but no two disjoint ones, so the witness here is
    the order-10 construction (see poorly_matchable_ten_vertices).
    """
    witness = poorly_matchable_ten_vertices().graph
    host = s12_plus_km(1).graph
    checks = [
        _check("witness-4-regular", witness.is_regular(4), n=witness.n),
        _check(
            "witness-has-perfect-matching",
            has_perfect_matching(witness),
        ),
        _check(
            "witness-no-two-disjoint-pms",
            has_two_disjoint_perfect_matchings(witness) is None,
        ),
        _check(
            "witness-no-two-disjoint-pms-independent",
            pairwise_intersecting_perfect_matchings(witness),
        ),
    ]
    pair = has_two_disjoint_perfect_matchings(host)
    checks.append(_check("s12+1M-two-disjoint-pms", pair is not None))
    r = solve(host, witness, node_limit=params["node_limit"])
    checks.append(
        _check("s12+1M-does-not-colour-witness", r.status, nodes=r.nodes,
               expect="unsat")
    )
    return checks


_LEMMA_PAIRS: Callable[[], list[tuple[str, Multigraph, Multigraph]]] = lambda: [
    ("s4<p", s4().graph, petersen().graph),
    ("p<p", petersen().graph, petersen().graph),
    ("s10<s10", s10().graph, s10().graph),
    ("s10<s12", s10().graph, s12().graph),
    ("s12<s12", s12().graph, s12().graph),
    ("s12+1M<s12+1M", s12_plus_km(1).graph, s12_plus_km(1).graph),
    ("k5<k5", complete(5).graph, complete(5).graph),
    ("k4<k4", complete(4).graph, complete(4).graph),
    ("c5<c5", cycle(5).graph, cycle(5).graph),
    ("2k2<c4", t_k2(2).graph, cycle(4).graph),
    ("s4+1M<s4+1M", s4_plus_km(1).graph, s4_plus_km(1).graph),
]


def _recipe_lemma24_props(params: dict) -> list[CheckResult]:
    """Preimage classification properties over sampled solver colourings.

    For each (host, guest) pair, sample 12 colourings with a reservoir as
    the solver streams them, and host edge sets F, and assert every
    applicable preimage classification holds: matchings pull back to
    matchings, host perfect matchings and image-covering matchings to guest
    perfect matchings, isolated-free edge-cuts of the used subgraph to guest
    edge-cuts, and k-regular host sets meeting the vertex image to k-regular
    guest sets.
    """
    rng = Random(params["seed"])
    checks: list[CheckResult] = []
    applied: dict[str, int] = {}
    total_colourings = 0
    for label, host, guest in _LEMMA_PAIRS():
        sample, keep = _reservoir(12, rng)
        res = solve(host, guest, mode="count", node_limit=params["node_limit"],
                    visit=keep)
        if res.status != "sat":
            checks.append(
                _check(f"lemma24-{label}-sat", res.status, nodes=res.nodes,
                       expect="sat")
            )
            continue
        total_colourings += len(sample)
        violations = []
        edge_sets = _edge_set_samples(host, sample, rng)
        for ci, (c, subsets) in enumerate(zip(sample, edge_sets)):
            for F in subsets:
                rep = preimage(c, F)
                for chk in rep.checks:
                    if chk.applicable:
                        applied[chk.name] = applied.get(chk.name, 0) + 1
                        if not chk.holds:
                            violations.append((ci, sorted(F), chk.name))
        checks.append(
            _check(
                f"lemma24-{label}",
                not violations,
                colourings=len(sample),
                nodes=res.nodes,
                violations=violations[:5],
            )
        )
    checks.append(
        _check(
            "lemma24-coverage",
            total_colourings >= 100 and len(applied) == 5,
            # the tally is partial when a solve ran out of budget
            settled=all(c.outcome != "unknown" for c in checks),
            colourings=total_colourings,
            applications=dict(sorted(applied.items())),
        )
    )
    return checks


def _reservoir(k: int, rng: Random) -> tuple[list[T], Callable[[T], None]]:
    """A uniform sample of k items from a stream of unknown length.

    Algorithm R (Vitter, ACM TOMS 11, 1985): returns the sample list and
    the function to feed each item to.  The i-th item (0-based) is taken
    while i < k; after that it replaces slot j = rng.randrange(i + 1) when
    j < k.  Shorter streams are kept whole, in order, without drawing.
    """
    sample: list[T] = []
    seen = 0

    def keep(item: T) -> None:
        nonlocal seen
        if seen < k:
            sample.append(item)
        else:
            j = rng.randrange(seen + 1)
            if j < k:
                sample[j] = item
        seen += 1

    return sample, keep


def _edge_set_samples(
    host: Multigraph, sample: list[Colouring], rng: Random
) -> Iterator[list[set[int]]]:
    """Per sampled colouring, host edge sets exercising each preimage
    classification.  The host's matchings are enumerated once for all."""
    pms = [set(M) for M in perfect_matchings(host)]
    matchings = [set(M) for M in enumerate_matchings(host) if M]
    for c in sample:
        out: list[set[int]] = []
        out.extend(rng.sample(pms, min(3, len(pms))))
        if matchings:
            out.extend(rng.sample(matchings, min(4, len(matchings))))
        img = sorted(set(c.edge_map))
        out.append(set(img))
        for _ in range(4):
            out.append({e for e in range(host.m) if rng.random() < 0.4})
        for _ in range(2):
            if img:
                out.append({e for e in img if rng.random() < 0.5})
        yield [F for F in out if F]


# -- corpus ----------------------------------------------------------------

def _corpus_entry(job: tuple) -> CheckResult:
    """The check entry-<index> for one corpus record.

    job is (index, line number, graph or parse error, host, host name,
    node limit, star), where star is the incidences of the host's first
    degree-3 vertex, or None if it has none; run_corpus finds it once per
    run.  A parse error is "unknown" with the error in its details; a graph
    that is not connected bridgeless cubic simple passes as skipped.
    Otherwise host ≺ G is decided on one of two routes, named in the
    "route" detail:

    * "edge-colouring": when the host has a vertex v of degree 3, any
      3-edge-colouring of G composed with v's three edges (colour i to
      v's i-th edge) is a colouring, since every guest vertex then sees
      exactly v's boundary.  edge_colouring(G, 3) is run first.
    * "solver": when there is no such v, or G is not 3-edge-colourable,
      solve decides with the budget the first search left.

    SAT passes with its certificate once check_colouring has revalidated
    it on G itself, and UNSAT, which only the solver reports, fails.  A hit
    node limit, or an exception in either search (named in "error", so one
    entry cannot abort the batch), is "unknown".  nodes is the total over
    both searches: the solver gets what the edge colouring left of
    node_limit, so a spent budget reads node_limit + 1 on either route.
    """
    index, lineno, G, host, host_name, node_limit, star = job
    name = f"entry-{index}"
    if isinstance(G, GraphFormatError):
        return _check(name, False, settled=False, line=lineno, error=str(G))
    if not (
        G.is_regular(3) and G.is_connected()
        and not G.bridges()
        # edges are stored as (min, max), so a repeated pair is a parallel edge
        and len(set(G.edges)) == G.m
    ):
        return _check(name, True, line=lineno,
                      skipped="not a connected bridgeless cubic simple graph")
    details = {"line": lineno, "n": G.n, "m": G.m, "host": host_name}
    colours = None
    nodes = 0
    try:
        if star is not None:
            details["route"] = "edge-colouring"
            colours, nodes = _edge_colouring(G, 3, node_limit)
        if colours is not None:
            status = "sat"
            edge_map = tuple(star[c][0] for c in colours)
        elif nodes > node_limit:  # the edge colouring spent the budget
            status, edge_map = "unknown", None
        else:
            details["route"] = "solver"
            r = solve(host, G, node_limit=node_limit - nodes)
            nodes += r.nodes
            status = r.status
            edge_map = None if r.witness is None else r.witness.edge_map
    except Exception as exc:
        return _check(name, "unknown", nodes, expect="sat",
                      error=f"{type(exc).__name__}: {exc}", **details)
    if edge_map is not None:
        cert = Colouring(host, G, edge_map)
        if not check_colouring(cert).ok:
            return _check(name, False, nodes, status=status,
                          error="certificate failed revalidation", **details)
        details["certificate"] = " ".join(f"{g}:{h}" for g, h in cert.pairs())
    return _check(name, status, nodes, expect="sat", **details)


def run_corpus(
    path: str,
    host: Multigraph,
    host_name: str,
    node_limit: int = DEFAULT_NODE_BUDGET,
    workers: int = 1,
    progress: Optional[Callable[[CheckResult], None]] = None,
) -> list[CheckResult]:
    """Solve host ≺ G for every bridgeless cubic graph in a graph6 file.

    Returns one check per input record, named entry-<index>, in input
    order; progress, if given, receives each check in that order as soon
    as it is decided.  Each record is mapped through _corpus_entry in a
    pool of min(workers, records, CPUs) processes when that is more than
    one, and serially otherwise; parse errors, skipped graphs, hit node
    limits and solves that raise are per-entry outcomes and never stop the
    run.
    Raises ValueError before reading the file when node_limit is not an
    integer or workers is not a positive integer.
    """
    _check_node_limit(node_limit)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValueError(f"--workers must be a positive integer, got {workers!r}")
    star = next((host.incident(v) for v in range(host.n) if host.degree(v) == 3),
                None)
    jobs = [(index, lineno, G, host, host_name, node_limit, star)
            for index, (lineno, G) in enumerate(ingest_graph6(path))]
    import os

    # a pool forks all its workers up front; more than the CPUs gain nothing
    size = min(workers, len(jobs), os.cpu_count() or 1)
    parallel = size > 1
    if parallel:  # imported here, so that importing hcolour loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    checks: list[CheckResult] = []
    with ProcessPoolExecutor(max_workers=size) if parallel else nullcontext() as pool:
        for check in (pool.map if parallel else map)(_corpus_entry, jobs):
            checks.append(check)
            if progress is not None:
                progress(check)
    return checks


RECIPES: dict[str, Callable[[dict], list[CheckResult]]] = {
    "petersen-images": _recipe_petersen_images,
    "s10-images": _recipe_s10_images,
    "s12-images": _recipe_s12_images,
    "p-matching-cuts": _recipe_p_matching_cuts,
    "k5-images": _recipe_k5_images,
    "j4-exclusion": _recipe_j4_exclusion,
    "s12kM-rigidity": _recipe_s12km_rigidity,
    "thm44": _recipe_thm44,
    "lemma24-props": _recipe_lemma24_props,
}


# the parameters each recipe reads, with their defaults: every recipe takes
# node_limit, the package budget, and two recipes read one key more
_PARAMS = {name: {"node_limit": DEFAULT_NODE_BUDGET} for name in RECIPES}
_PARAMS["s12kM-rigidity"]["k"] = 1
_PARAMS["lemma24-props"]["seed"] = 0


def run_recipe(name: str, params: Optional[dict] = None) -> VerificationReport:
    """Run a named recipe; see RECIPES for the available names.

    Raises ValueError before running anything when the name is unknown, a
    parameter is not one that _PARAMS declares for the recipe (a misspelt
    key, or another recipe's, would otherwise run it at its defaults), a
    parameter is not an integer or node_limit is negative.  The recipe
    receives exactly its declared parameters, the rest at their defaults.
    """
    if name not in RECIPES:
        raise ValueError(
            f"unknown recipe {name!r}; available: {', '.join(sorted(RECIPES))}"
        )
    declared = _PARAMS[name]
    params = params or {}
    for key, value in params.items():
        if key not in declared:
            raise ValueError(f"unknown parameter {key!r} for recipe {name!r}; "
                             f"known: {', '.join(sorted(declared))}")
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"parameter {key!r} must be an integer, got {value!r}")
    _check_node_limit(params.get("node_limit", 0))
    checks = RECIPES[name]({**declared, **params})
    return VerificationReport(recipe=name, checks=checks, version=artifact_version())
