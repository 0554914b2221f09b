import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import hcolour
from hcolour.cli import load_graph, main
from hcolour.colouring import Colouring, check_colouring
from hcolour.graphio import encode_graph6, ingest_graph6
from hcolour.images import enumerate_splitted_images
from hcolour.multigraph import Multigraph
from hcolour.named import complete, petersen, s4, s12_plus_km
from hcolour.oracles import naive_check_colouring
from hcolour.recipes import (RECIPES, VerificationReport, artifact_version, run_corpus,
                             run_recipe)
from hcolour.solver import solve
from hcolour.structure import _edge_colouring, edge_colouring

DATA = Path(__file__).resolve().parent.parent / "data"


def test_run_recipe_unknown_name():
    with pytest.raises(ValueError):
        run_recipe("no-such-recipe")


@pytest.mark.parametrize(
    "name",
    ["petersen-images", "s10-images", "s12-images", "p-matching-cuts",
     "k5-images", "j4-exclusion", "s12kM-rigidity", "thm44"],
)
def test_named_recipes_pass(name):
    report = run_recipe(name)
    assert report.status == "pass", report.to_json_lines()
    assert report.version


@pytest.mark.parametrize("node_limit", [0, 1])
@pytest.mark.parametrize("name", sorted(RECIPES))
def test_a_spent_budget_is_unknown_never_fail(name, node_limit):
    report = run_recipe(name, {"node_limit": node_limit})
    assert [c.name for c in report.checks if c.outcome == "fail"] == []
    # p-matching-cuts runs no budgeted search
    want = "pass" if name == "p-matching-cuts" else "unknown"
    assert report.status == want, report.to_json_lines()


@pytest.mark.parametrize("node_limit", [0, 1, 50])
@pytest.mark.parametrize("name", ["k5-images", "petersen-images", "s10-images",
                                  "s12-images", "s12kM-rigidity"])
def test_every_atlas_claim_on_a_partial_atlas_is_unknown(name, node_limit):
    # no atlas here completes, yet the claims are checked on what was found:
    # only the witnesses found can be settled
    checks = run_recipe(name, {"node_limit": node_limit}).checks
    assert checks[0].name.endswith("-atlas-complete")
    outcomes = {c.name: c.outcome for c in checks}
    assert outcomes == {c.name: "pass" if c.name.endswith("-atlas-witnesses-revalidate")
                        else "unknown" for c in checks}


def test_a_settled_contradiction_still_fails(monkeypatch):
    from hcolour import recipes
    from hcolour.solver import SolveResult

    monkeypatch.setattr(recipes, "solve", lambda *a, **kw: SolveResult("sat"))
    report = run_recipe("j4-exclusion")
    unsat = [c for c in report.checks if c.name.startswith("j4-unsat-")]
    assert len(unsat) == 2
    assert all(c.outcome == "fail" and c.details["status"] == "sat" for c in unsat)
    assert report.status == "fail"


def test_cli_recipe_spent_budget_exits_unknown_under_python_O():
    src = Path(hcolour.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-O", "-m", "hcolour.cli", "recipe", "thm44",
         "--param", "node_limit=10"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 2, out.stderr
    assert '"fail"' not in out.stdout
    assert json.loads(out.stdout.splitlines()[-1])["status"] == "unknown"


@pytest.mark.parametrize("args", [["solve", "--host", "c3", "--guest", "c3000"],
                                  ["images", "--guest", "c3000"]])
def test_cli_crash_exits_unknown_with_traceback(args):
    # a search deeper than the recursion limit decides nothing: exit 2, not
    # the fail/UNSAT code 1
    src = Path(hcolour.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-m", "hcolour.cli", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 2, out.stderr
    assert out.stderr.splitlines()[-1].startswith("RecursionError")
    assert "unsat" not in out.stdout


def test_petersen_images_enumerates_the_atlas_once(monkeypatch):
    from hcolour import recipes

    limits = []

    def counting(guest, node_limit=None):
        limits.append(node_limit)
        return enumerate_splitted_images(guest, node_limit=node_limit)

    monkeypatch.setattr(recipes, "enumerate_splitted_images", counting)
    report = run_recipe("petersen-images", {"node_limit": 10**6})
    assert report.status == "pass", report.to_json_lines()
    assert limits == [10**6]


# sha256 of the seed-0 lemma24-props report with its version blanked
LEMMA24_REPORT_DIGEST = (
    "663924d141d16b98e29c2623be8f2a6c50cefc9f34862d74f0aea34daa1c0a4a"
)


def test_lemma24_props_pass_and_coverage(monkeypatch):
    from hcolour import recipes

    modes = []

    def recording(host, guest, *args, **kwargs):
        modes.append(kwargs.get("mode", args[0] if args else "first"))
        return solve(host, guest, *args, **kwargs)

    monkeypatch.setattr(recipes, "solve", recording)
    report = run_recipe("lemma24-props")
    assert report.status == "pass", report.to_json_lines()
    # the colourings are streamed into a reservoir, never listed whole
    assert modes == ["count"] * len(recipes._LEMMA_PAIRS())
    coverage = report.checks[-1]
    assert coverage.details["colourings"] >= 100
    assert set(coverage.details["applications"]) == {
        "matching", "perfect_matching", "covering_matching", "edge_cut",
        "regular_subgraph",
    }
    # the reservoir's sample, and so the whole report, follows the exact
    # order in which the solver streams its colourings
    text = dataclasses.replace(report, version="").to_json_lines()
    assert hashlib.sha256(text.encode()).hexdigest() == LEMMA24_REPORT_DIGEST


def test_reports_are_deterministic():
    a = run_recipe("petersen-images").to_json_lines()
    b = run_recipe("petersen-images").to_json_lines()
    assert a == b
    for line in a.strip().splitlines():
        json.loads(line)  # every line is one JSON object


def _mixed_corpus(path: Path) -> None:
    """A cubic graph, a parse error, C4 (skipped), a second cubic graph and
    the triple edge on two vertices (skipped: cubic, connected and
    bridgeless, but not simple), as a sparse6 record."""
    path.write_text(
        encode_graph6(petersen().graph) + "\n"
        + "!!bad!!\n"
        + encode_graph6(Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])) + "\n"
        + encode_graph6(complete(4).graph) + "\n"
        + ":A_\n"
    )


def test_run_corpus_mixed_entries(tmp_path):
    path = tmp_path / "corpus.g6"
    _mixed_corpus(path)
    for workers in (1, 2):
        seen = []
        checks = run_corpus(str(path), s4().graph, "s4", workers=workers,
                            progress=seen.append)
        assert seen == checks  # every entry, in input order
        assert [c.name for c in checks] == [f"entry-{i}" for i in range(5)]
        assert checks[0].outcome == checks[3].outcome == "pass"
        assert "certificate" in checks[0].details
        assert checks[1].outcome == "unknown"  # parse error, run continued
        assert checks[2].outcome == "pass"  # skipped: C4 is not cubic
        assert "skipped" in checks[2].details
        assert checks[4].outcome == "pass"  # skipped: a parallel edge
        assert "skipped" in checks[4].details


def test_run_corpus_survives_a_failing_entry(monkeypatch):
    from hcolour import recipes

    calls = []
    search = recipes._edge_colouring  # every entry runs it first

    def failing_third(guest, *args, **kwargs):
        calls.append(guest)
        if len(calls) == 3:
            raise RecursionError("maximum recursion depth exceeded")
        return search(guest, *args, **kwargs)

    monkeypatch.setattr(recipes, "_edge_colouring", failing_third)
    corpus = DATA / "cubic_bridgeless_10.g6"
    checks = run_corpus(str(corpus), s4().graph, "s4", workers=1)
    entries = len(corpus.read_text().split())
    assert len(checks) == len(calls) == entries > 3
    bad = checks[2]
    assert bad.outcome == "unknown"
    assert bad.details["status"] == "unknown"
    assert bad.details["error"] == "RecursionError: maximum recursion depth exceeded"
    assert "certificate" not in bad.details
    assert all(c.outcome == "pass" for i, c in enumerate(checks) if i != 2)


def test_run_corpus_fails_an_entry_whose_certificate_does_not_revalidate(monkeypatch):
    from hcolour import recipes
    from hcolour.colouring import ColouringReport

    monkeypatch.setattr(recipes, "check_colouring", lambda c: ColouringReport(ok=False))
    [entry] = run_corpus(str(DATA / "cubic_bridgeless_04.g6"), s4().graph, "s4",
                         workers=1)
    assert entry.outcome == "fail"
    assert entry.details["status"] == "sat"
    assert entry.details["error"] == "certificate failed revalidation"
    assert "certificate" not in entry.details


@pytest.mark.parametrize("host_name", ["s4", "petersen"])
def test_run_corpus_routes_agree_with_the_solver(host_name):
    host = {"s4": s4(), "petersen": petersen()}[host_name].graph
    corpus = DATA / "cubic_bridgeless_le14.g6"
    graphs = [G for _, G in ingest_graph6(corpus)]
    checks = run_corpus(str(corpus), host, host_name, workers=1)
    assert len(checks) == len(graphs) == 587
    for G, check in zip(graphs, checks):
        assert check.details["status"] == solve(host, G).status == "sat"
        edge_map = tuple(int(p.split(":")[1])
                         for p in check.details["certificate"].split())
        cert = Colouring(host, G, edge_map)
        assert check_colouring(cert).ok and naive_check_colouring(cert).ok
    solver_route = [i for i, c in enumerate(checks) if c.details["route"] == "solver"]
    assert solver_route == [i for i, G in enumerate(graphs)
                            if edge_colouring(G, 3) is None]
    assert len(solver_route) == 7
    assert {c.details["route"] for c in checks} == {"edge-colouring", "solver"}


def test_run_corpus_spends_one_budget_over_both_searches(tmp_path):
    corpus = tmp_path / "petersen.g6"
    corpus.write_text(encode_graph6(petersen().graph) + "\n")
    [(_, P)] = ingest_graph6(corpus)  # not 3-edge-colourable: both searches run
    colouring_nodes = _edge_colouring(P, 3, 10**8)[1]
    total = colouring_nodes + solve(s4().graph, P).nodes
    for limit, outcome in ((total, "pass"), (total - 1, "unknown"),
                           (colouring_nodes, "unknown"), (0, "unknown")):
        [entry] = run_corpus(str(corpus), s4().graph, "s4", node_limit=limit)
        assert entry.outcome == outcome
        assert entry.nodes == min(total, limit + 1)
        assert entry.details["route"] == ("solver" if limit >= colouring_nodes
                                          else "edge-colouring")
        assert ("certificate" in entry.details) == (outcome == "pass")


def test_run_corpus_spent_budget_on_the_edge_colouring_route():
    [entry] = run_corpus(str(DATA / "cubic_bridgeless_04.g6"), s4().graph, "s4",
                         node_limit=0)
    assert entry.outcome == "unknown"
    assert entry.details["status"] == "unknown"
    assert entry.details["route"] == "edge-colouring"
    assert entry.nodes == 1
    assert "certificate" not in entry.details and "error" not in entry.details


def test_run_corpus_unsat_comes_from_the_solver():
    # K5 has no vertex of degree 3, so every entry goes to the solver
    [entry] = run_corpus(str(DATA / "cubic_bridgeless_04.g6"), complete(5).graph,
                         "k5")
    assert entry.outcome == "fail"
    assert entry.details["status"] == "unsat"
    assert entry.details["route"] == "solver"


def test_reservoir_is_a_seeded_sample_of_the_stream():
    from hcolour.recipes import _reservoir

    host, guest = s4().graph, petersen().graph
    found = []
    solve(host, guest, mode="count", visit=found.append)
    every = [c.edge_map for c in found]
    for k in (1, 12, len(every), len(every) + 5):
        runs = []
        for _ in range(2):
            sample, keep = _reservoir(k, Random(7))
            res = solve(host, guest, mode="count", visit=keep)
            runs.append([c.edge_map for c in sample])
        assert res.count == len(every)
        assert runs[0] == runs[1]  # same seed, same sample
        assert len(runs[0]) == len(set(runs[0])) == min(k, len(every))
        assert set(runs[0]) <= set(every)
    sample, keep = _reservoir(len(every), Random(7))
    solve(host, guest, mode="count", visit=keep)
    assert [c.edge_map for c in sample] == every  # a short stream is kept whole


def test_reservoir_is_uniform():
    from hcolour.recipes import _reservoir

    hits = [0] * 10
    for seed in range(3000):
        sample, keep = _reservoir(3, Random(seed))
        for item in range(10):
            keep(item)
        assert len(set(sample)) == 3
        for item in sample:
            hits[item] += 1
    # each item is kept with probability 3/10: 900 of 3000, sd 25
    assert all(abs(h - 900) < 125 for h in hits), hits


def test_hcolor_threads_env(tmp_path, capsys, monkeypatch):
    # the pool size is --workers alone, default 1 (serial); no environment
    # variable overrides it
    def no_pool(**kwargs):
        raise AssertionError(f"a process pool was started: {kwargs}")

    path = tmp_path / "c.g6"
    path.write_text((encode_graph6(petersen().graph) + "\n") * 2)
    monkeypatch.setenv("HCOLOR_THREADS", "3")
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    monkeypatch.setattr("os.cpu_count", lambda: 8)  # the pool stops at the CPU count
    assert [c.outcome for c in run_corpus(str(path), s4().graph, "s4")] == ["pass"] * 2
    assert main(["corpus", str(path), "--host", "s4"]) == 0
    assert capsys.readouterr().err.startswith(f"corpus {path} vs s4: pass")
    with pytest.raises(AssertionError, match="max_workers': 2"):
        run_corpus(str(path), s4().graph, "s4", workers=2)


def test_corpus_pool_never_outnumbers_the_records(tmp_path, monkeypatch):
    # a pool forks all its workers up front, so 2 records get 2 workers
    # however many --workers asks for
    from concurrent.futures import ThreadPoolExecutor

    sizes = []

    def recording_pool(**kwargs):
        sizes.append(kwargs["max_workers"])
        return ThreadPoolExecutor(**kwargs)

    path = tmp_path / "c.g6"
    path.write_text((encode_graph6(petersen().graph) + "\n") * 2)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording_pool)
    monkeypatch.setattr("os.cpu_count", lambda: 8)  # the pool stops at the CPU count
    for workers, pools in ((6, [2]), (2, [2]), (1, [])):
        sizes.clear()
        checks = run_corpus(str(path), s4().graph, "s4", workers=workers)
        assert [c.outcome for c in checks] == ["pass"] * 2
        assert sizes == pools


def test_corpus_pool_never_outnumbers_the_cpus(tmp_path, monkeypatch):
    # more workers than CPUs gain nothing, so the pool stops at the CPU
    # count, and an unknown count runs serially
    from concurrent.futures import ThreadPoolExecutor

    sizes = []

    def recording_pool(**kwargs):
        sizes.append(kwargs["max_workers"])
        return ThreadPoolExecutor(**kwargs)

    path = tmp_path / "c.g6"
    path.write_text((encode_graph6(petersen().graph) + "\n") * 5)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", recording_pool)
    for cpus, workers, pools in ((3, 8, [3]), (3, 2, [2]), (8, 8, [5]), (1, 8, []),
                                 (None, 8, [])):
        monkeypatch.setattr("os.cpu_count", lambda cpus=cpus: cpus)
        sizes.clear()
        checks = run_corpus(str(path), s4().graph, "s4", workers=workers)
        assert [c.outcome for c in checks] == ["pass"] * 5
        assert sizes == pools


def test_importing_hcolour_loads_no_process_pool():
    # only a corpus run with more than one worker imports the pool
    src = Path(hcolour.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-B", "-c",
         "import sys, hcolour, hcolour.cli; print('multiprocessing' in sys.modules, "
         "'concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False False\n"


# -- CLI ---------------------------------------------------------------------

def test_cli_gen_and_load(tmp_path, capsys):
    assert main(["gen", "s12+1M"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-24:]  # 24 edges
    f = tmp_path / "g.txt"
    f.write_text(out)
    G = load_graph(str(f))
    assert G.n == 12 and G.m == 24
    assert G == s12_plus_km(1).graph


def test_cli_gen_unknown():
    with pytest.raises(SystemExit):
        main(["gen", "nonesuch"])


def test_load_graph_named_and_g6(tmp_path):
    assert load_graph("petersen").m == 15
    assert load_graph("kfamily-5-4").n == 5
    f = tmp_path / "p.g6"
    f.write_text(encode_graph6(petersen().graph) + "\n")
    assert load_graph(str(f)).m == 15


def test_cli_solve_exit_codes(capsys):
    assert main(["solve", "--host", "s4", "--guest", "petersen"]) == 0
    capsys.readouterr()
    assert main(["solve", "--host", "star3", "--guest", "petersen"]) == 1
    capsys.readouterr()
    assert main(["solve", "--host", "s12", "--guest", "s12",
                 "--node-limit", "2"]) == 2
    capsys.readouterr()


def test_cli_solve_emits_certificate(capsys):
    main(["solve", "--host", "s4", "--guest", "petersen"])
    out = capsys.readouterr().out
    assert "status sat" in out
    assert "# hcolour certificate" in out


def test_cli_check_roundtrip(tmp_path, capsys):
    main(["solve", "--host", "s4", "--guest", "petersen"])
    out = capsys.readouterr().out
    cert = out[out.index("# hcolour certificate"):]
    f = tmp_path / "cert.txt"
    f.write_text(cert)
    assert main(["check", "--host", "s4", "--guest", "petersen",
                 "--certificate", str(f)]) == 0
    out = capsys.readouterr().out
    assert "valid" in out
    # tampered certificate fails
    lines = cert.splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 0"
    f.write_text("\n".join(lines) + "\n")
    code = main(["check", "--host", "s4", "--guest", "petersen",
                 "--certificate", str(f)])
    capsys.readouterr()
    assert code == 1


def test_cli_images(capsys):
    assert main(["images", "--guest", "petersen"]) == 0
    out = capsys.readouterr().out
    assert "classes 2" in out
    assert "tk2_realizable false" in out


def test_cli_recipe(capsys):
    assert main(["recipe", "p-matching-cuts"]) == 0
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert last["status"] == "pass"
    assert main(["recipe", "nonesuch"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("param", ["node_limit=x", "seed=1.5", "k=many",
                                   "k=", "node_limit=0x10", "seed=--5",
                                   "seed=1_0", "k=\u0663", "seed=+2", "seed=\u0662",
                                   "seed= 2", "seed=-", "seed=2 "])
def test_cli_recipe_rejects_a_non_integer_param(capsys, monkeypatch, param):
    from hcolour import recipes

    def never(params):
        raise AssertionError("the recipe ran")

    key, _, value = param.partition("=")
    # a recipe that reads the key
    name = {"seed": "lemma24-props", "k": "s12kM-rigidity"}.get(key, "petersen-images")
    monkeypatch.setitem(recipes.RECIPES, name, never)
    assert main(["recipe", name, "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: parameter {key!r} must be an integer, got {value!r}\n"


def test_cli_recipe_param_is_a_minus_then_ascii_digits(capsys, monkeypatch):
    from hcolour import recipes

    seen = []
    for name in ("lemma24-props", "s12kM-rigidity"):
        monkeypatch.setitem(recipes.RECIPES, name, lambda p: seen.append(p) or [])
    assert main(["recipe", "lemma24-props", "--param", "seed=-3"]) == 0
    assert main(["recipe", "s12kM-rigidity", "--param", "k=07"]) == 0
    assert seen == [{"node_limit": recipes.DEFAULT_NODE_BUDGET, "seed": -3},
                    {"k": 7, "node_limit": recipes.DEFAULT_NODE_BUDGET}]


@pytest.mark.parametrize("param", ["node_limt=5", "noequals", "Seed=1",
                                   "colourings_per_pair=12", "witness=pm10",
                                   # keys that other recipes read
                                   "seed=7", "k=2"])
def test_cli_recipe_rejects_an_unknown_param(capsys, monkeypatch, param):
    from hcolour import recipes

    def never(params):
        raise AssertionError("the recipe ran")

    monkeypatch.setitem(recipes.RECIPES, "petersen-images", never)
    assert main(["recipe", "petersen-images", "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    key = param.partition("=")[0]
    assert captured.err == (
        f"error: unknown parameter {key!r} for recipe 'petersen-images'; "
        "known: node_limit\n"
    )


@pytest.mark.parametrize("k", [0, -1])
def test_run_recipe_s12km_rigidity_rejects_k_below_1(monkeypatch, k):
    # theorem (i) is about k >= 1: S12+0M is S12, whose atlas holds S10 too
    from hcolour import recipes

    def never(*args, **kwargs):
        raise AssertionError("the atlas search ran")

    monkeypatch.setattr(recipes, "enumerate_splitted_images", never)
    with pytest.raises(ValueError, match=rf"^k must be at least 1, got {k}$"):
        run_recipe("s12kM-rigidity", {"k": k})


def test_cli_recipe_s12km_rigidity_rejects_k_0(capsys):
    assert main(["recipe", "s12kM-rigidity", "--param", "k=0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be at least 1, got 0\n"


def test_run_recipe_rejects_an_unknown_param(monkeypatch):
    from hcolour import recipes

    def never(params):
        raise AssertionError("the recipe ran")

    monkeypatch.setitem(recipes.RECIPES, "lemma24-props", never)
    for key in ("node_limt", "k"):  # a misspelt key, and one another recipe reads
        with pytest.raises(ValueError, match=rf"^unknown parameter '{key}' for recipe "
                           r"'lemma24-props'; known: node_limit, seed$"):
            run_recipe("lemma24-props", {"seed": 0, key: 5})
    # every declared key passes the check and reaches the recipe
    known = {"node_limit": 1, "seed": 0}
    with pytest.raises(AssertionError, match="the recipe ran"):
        run_recipe("lemma24-props", known)


def test_run_recipe_accepts_only_the_keys_each_recipe_declares(monkeypatch):
    from hcolour import recipes

    accepted = []
    for name in RECIPES:
        monkeypatch.setitem(recipes.RECIPES, name, lambda params: [])
        for key in ("k", "node_limit", "seed"):
            try:
                run_recipe(name, {key: 1})
            except ValueError as exc:
                assert str(exc).startswith(
                    f"unknown parameter {key!r} for recipe {name!r}; known: ")
            else:
                accepted.append((name, key))
    assert sorted(accepted) == sorted(
        [(name, "node_limit") for name in RECIPES]
        + [("lemma24-props", "seed"), ("s12kM-rigidity", "k")])


def test_cli_recipe_s12km_rigidity_rejects_k_past_the_multiplicity_limit(capsys):
    # S12+kM has k + 2 parallel edges, and the canonical form encodes 255
    assert main(["recipe", "s12kM-rigidity", "--param", "k=50000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be at most 253\n"


def test_run_recipe_rejects_a_non_integer_param():
    with pytest.raises(ValueError, match="parameter 'seed' must be an integer"):
        run_recipe("lemma24-props", {"seed": True})


def test_cli_corpus(tmp_path, capsys):
    path = tmp_path / "c.g6"
    path.write_text(encode_graph6(petersen().graph) + "\n")
    assert main(["corpus", str(path), "--host", "s4", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    first = json.loads(out.strip().splitlines()[0])
    assert first["check"] == "entry-0"
    assert first["outcome"] == "pass"


def test_cli_corpus_bad_hcolor_threads(tmp_path, capsys, monkeypatch):
    # the environment is not read, so a bad value there cannot abort a run
    path = tmp_path / "c.g6"
    path.write_text(encode_graph6(petersen().graph) + "\n")
    monkeypatch.setenv("HCOLOR_THREADS", "abc")
    assert main(["corpus", str(path), "--host", "s4", "--workers", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out.splitlines()[0])["outcome"] == "pass"
    assert "error" not in captured.err


@pytest.mark.parametrize("bad", [0, -1, 2.5, "2", True])
def test_worker_count_rejects_non_positive_request(tmp_path, capsys, bad):
    # rejected before the file is read: it does not exist
    missing = str(tmp_path / "missing.g6")
    message = f"--workers must be a positive integer, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_corpus(missing, s4().graph, "s4", workers=bad)
    if type(bad) is int:  # --workers takes integers only, so nothing else reaches the CLI
        assert main(["corpus", missing, "--host", "s4", "--workers", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("workers", ["1_0", "+2", "\u0662", " 2", "2 ", "2.0", "x", "-"])
def test_cli_workers_is_a_minus_then_ascii_digits(workers, tmp_path, capsys):
    missing = str(tmp_path / "missing.g6")
    with pytest.raises(SystemExit) as info:
        main(["corpus", missing, "--host", "s4", "--workers", workers])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"hcolour corpus: error: argument --workers: must be an integer, got {workers!r}")


@pytest.mark.parametrize("cmd", ["corpus"])
def test_cli_workers_zero_is_an_error(tmp_path, capsys, cmd):
    path = tmp_path / "c.g6"
    path.write_text(encode_graph6(petersen().graph) + "\n")
    assert main([cmd, str(path), "--host", "s4", "--workers", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --workers must be a positive integer, got 0\n"


def test_cli_solve_count_prints_a_certificate(tmp_path, capsys):
    assert main(["solve", "--host", "s4", "--guest", "petersen", "--count"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[:2] == ["status sat", "count 480"]
    f = tmp_path / "cert.txt"
    f.write_text(out[out.index("# hcolour certificate"):])
    assert main(["check", "--host", "s4", "--guest", "petersen",
                 "--certificate", str(f)]) == 0
    assert capsys.readouterr().out == "valid\n"


@pytest.mark.parametrize("cmd", ["corpus"])
def test_cli_corpus_missing_file_is_an_error(tmp_path, capsys, cmd):
    missing = str(tmp_path / "missing.g6")
    assert main([cmd, missing, "--host", "s4", "--workers", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and missing in captured.err
    assert len(captured.err.splitlines()) == 1



def test_cli_corpus_streams_in_input_order(tmp_path, capsys):
    path = tmp_path / "mixed.g6"
    _mixed_corpus(path)
    checks = run_corpus(str(path), s4().graph, "s4", workers=1)
    report = VerificationReport(recipe="corpus:s4", checks=checks,
                                version=artifact_version())
    # each entry's line, then the report's summary line, byte for byte
    want = "".join(c.to_json() + "\n" for c in checks)
    want += report.to_json_lines().splitlines()[-1] + "\n"
    outs = []
    for workers in ("1", "2"):
        assert main(["corpus", str(path), "--host", "s4", "--workers", workers]) == 2
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == want
    rows = [json.loads(line) for line in outs[0].splitlines()]
    assert [r.get("check") for r in rows] == [
        "entry-0", "entry-1", "entry-2", "entry-3", "entry-4", None,
    ]
    assert rows[-1]["status"] == "unknown" and rows[-1]["checks"] == 5


def test_over_limit_record_is_an_unknown_entry(tmp_path, capsys):
    path = tmp_path / "big.g6"
    g6 = encode_graph6(petersen().graph)
    path.write_text(f"{g6}\n:~~~~~~~~\n{g6}\n")
    checks = run_corpus(str(path), s4().graph, "s4", workers=1)
    assert [c.outcome for c in checks] == ["pass", "unknown", "pass"]
    assert checks[1].details == {"line": 2, "error": f"line 2: order {2**36 - 1} exceeds 258047"}
    assert main(["corpus", str(path), "--host", "s4", "--workers", "1"]) == 2
    assert len(capsys.readouterr().out.splitlines()) == 4


@pytest.mark.parametrize("text", [":~~~~~~~~\n", "68719476735 0\n"])
def test_cli_over_limit_graph_is_an_error(tmp_path, capsys, text):
    path = tmp_path / "big.txt"
    path.write_text(text)
    with pytest.raises(SystemExit) as info:
        main(["solve", "--host", "s4", "--guest", str(path)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.endswith(f"order {2**36 - 1} exceeds 258047\n")
    assert len(captured.err.splitlines()) == 1


def test_cli_corpus_node_limit_zero_is_honoured(tmp_path, capsys):
    path = tmp_path / "c.g6"
    path.write_text(encode_graph6(petersen().graph) + "\n")
    assert main(["corpus", str(path), "--host", "s4", "--workers", "1",
                 "--node-limit", "0"]) == 2
    entry = json.loads(capsys.readouterr().out.splitlines()[0])
    assert entry["status"] == "unknown" and entry["outcome"] == "unknown"


def test_corpus_survives_a_non_ascii_byte(tmp_path, capsys):
    path = tmp_path / "latin1.g6"
    g6 = encode_graph6(petersen().graph).encode()
    path.write_bytes(g6 + b"\nI\xe9bad\n" + g6 + b"\n# caf\xc3\xa9, a comment\n")
    checks = run_corpus(str(path), s4().graph, "s4", workers=1)
    assert [c.outcome for c in checks] == ["pass", "unknown", "pass"]
    assert checks[1].details["line"] == 2
    assert "can't decode byte 0xe9" in checks[1].details["error"]
    assert main(["corpus", str(path), "--host", "s4", "--workers", "1"]) == 2
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_corpus_reports_a_del_size_byte_as_unknown(tmp_path):
    # DEL (127) is no size byte: it once read as '~' and gave the empty graph
    path = tmp_path / "del.g6"
    g6 = encode_graph6(petersen().graph)
    path.write_text(f"{g6}\n\x7f???\n{g6}\n")
    checks = run_corpus(str(path), s4().graph, "s4", workers=1)
    assert [c.outcome for c in checks] == ["pass", "unknown", "pass"]
    assert checks[1].details["line"] == 2
    assert "invalid size byte" in checks[1].details["error"]


@pytest.mark.parametrize("text", ["11 1\n0 1_0\n", "2 1\n+1 0\n", "4 1\n0 \u0663\n",
                                  "\u0663 1\n0 1\n"])
def test_cli_rejects_an_edge_list_field_that_is_not_ascii_digits(text, tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text(text, encoding="utf-8")
    with pytest.raises(SystemExit) as info:
        main(["solve", "--host", str(f), "--guest", "petersen"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {f}: ")


def test_load_graph_rejects_a_non_ascii_record_in_one_line(tmp_path, capsys):
    f = tmp_path / "g.g6"
    f.write_text("\u0663 1\n", encoding="utf-8")  # one record, not an edge list
    with pytest.raises(ValueError, match=f"^{re.escape(str(f))}: record is not ASCII$"):
        load_graph(str(f))
    with pytest.raises(SystemExit) as info:
        main(["solve", "--host", str(f), "--guest", "petersen"])
    assert info.value.code == 2
    assert capsys.readouterr().err == f"error: {f}: record is not ASCII\n"


def test_readme_lists_every_recipe():
    from hcolour.recipes import RECIPES

    readme = (DATA.parent / "README.md").read_text()
    sentence = re.search(r"^Recipes: (.*?)\.\s", readme, re.M | re.S).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == sorted(RECIPES)


def test_readme_lists_every_option_and_param():
    import argparse

    from hcolour.cli import build_parser
    from hcolour.recipes import _PARAMS

    readme = (DATA.parent / "README.md").read_text()
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt
        for command in sub.choices.values()
        for action in command._actions
        if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
        if opt.startswith("--")
    }
    assert "--witness" in options and "--param" in options
    assert sorted(o for o in options if o not in readme) == []
    # each recipe's keys as _PARAMS declares them: node_limit for every recipe
    readme = " ".join(readme.split())
    every = set.intersection(*map(set, _PARAMS.values()))
    assert every == {"node_limit"} and "Every recipe takes `node_limit`" in readme
    assert [(name, key) for name, declared in _PARAMS.items() for key in declared
            if key not in every and f"`{name}` also takes `{key}`" not in readme] == []


@pytest.mark.parametrize("guest", ["3k2", "<disconnected>", "<two vertices>"])
def test_cli_images_rejects_an_unsuitable_guest(tmp_path, capsys, guest):
    files = {"<disconnected>": "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n",
             "<two vertices>": "2 3\n0 1\n0 1\n0 1\n"}
    if guest in files:
        (tmp_path / "g.txt").write_text(files[guest])
        guest = str(tmp_path / "g.txt")
    assert main(["images", "--guest", guest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {guest}: guest must be connected with more than 2 vertices\n"
    )


def test_load_graph_rejects_a_multi_record_file(capsys):
    corpus = DATA / "cubic_bridgeless_10.g6"
    with pytest.raises(ValueError, match=r"cubic_bridgeless_10\.g6: 18 graph records; "
                                         r"expected one$"):
        load_graph(str(corpus))
    with pytest.raises(SystemExit) as info:
        main(["solve", "--host", "s4", "--guest", str(corpus)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {corpus}: 18 graph records; expected one\n"


def test_load_graph_skips_an_indented_comment(tmp_path):
    f = tmp_path / "triangle.txt"
    f.write_text("  # an indented note\n3 3\n0 1\n1 2\n\t# another\n0 2\n")
    assert load_graph(str(f)) == Multigraph(3, [(0, 1), (1, 2), (0, 2)])


def test_atlas_witness_revalidation_is_independent_of_check_colouring(monkeypatch):
    from hcolour import recipes
    from hcolour.colouring import Colouring, ColouringReport

    monkeypatch.setattr(recipes, "check_colouring", lambda c: ColouringReport(ok=True))
    P = petersen().graph
    atlas = enumerate_splitted_images(P)
    e = atlas.entries[1]
    e.witness = Colouring(e.witness.host, P, (0,) * P.m)  # every edge one colour
    checks = {c.name: c for c in recipes._atlas_checks("p", atlas, {"p": P})}
    assert checks["p-atlas-witnesses-revalidate"].outcome == "fail"
    assert checks["p-atlas-witnesses-revalidate"].details == {"bad": [1]}


@pytest.mark.parametrize("count", [[], ["--count"]])
def test_cli_check_accepts_the_stdout_of_solve(tmp_path, capsys, count):
    graphs = ["--host", "s4", "--guest", "petersen"]
    assert main(["solve", *graphs, *count]) == 0
    f = tmp_path / "cert.txt"
    f.write_text(capsys.readouterr().out)
    assert main(["check", *graphs, "--certificate", str(f)]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_cli_check_a_host_path_with_a_space(tmp_path, capsys):
    host = tmp_path / "my host.txt"
    assert main(["gen", "s4"]) == 0
    host.write_text(capsys.readouterr().out)
    graphs = ["--host", str(host), "--guest", "petersen"]
    assert main(["solve", *graphs]) == 0
    out = capsys.readouterr().out
    assert f"\nhost {host} " in out
    f = tmp_path / "cert.txt"
    f.write_text(out)
    assert main(["check", *graphs, "--certificate", str(f)]) == 0
    assert capsys.readouterr().out == "valid\n"
    # a tampered map in the same file is still caught
    lines = out.splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 0"
    f.write_text("\n".join(lines) + "\n")
    assert main(["check", *graphs, "--certificate", str(f)]) == 1
    assert capsys.readouterr().out.startswith("invalid\n")


# the last three are forms int() reads as numbers: a sign, a digit separator
# (edge 10) and a non-ASCII digit (edge 1); "0 +0" keeps edge 0's mapping
@pytest.mark.parametrize("bad", ["0 a", "0", "0 1 2", "0 +0", "1_0 0", "\u0661 0"])
def test_cli_check_names_the_line_of_a_bad_mapping(tmp_path, capsys, bad):
    graphs = ["--host", "s4", "--guest", "petersen"]
    assert main(["solve", *graphs]) == 0
    lines = capsys.readouterr().out.splitlines()
    lineno = lines.index("map") + 2  # the line of guest edge 0, counted from 1
    lines[lineno - 1] = bad
    f = tmp_path / "cert.txt"
    f.write_text("\n".join(lines) + "\n")
    assert main(["check", *graphs, "--certificate", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {lineno}: bad mapping line {bad!r}\n"

