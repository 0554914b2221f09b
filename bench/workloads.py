"""The four benchmark workloads, run inside one fresh process per run.

Run from the repository root with ``src`` on PYTHONPATH:

    python3 bench/workloads.py setup <workload> <seed>
    python3 bench/workloads.py measure <workload> <seed> <seconds> <trace>

``setup`` builds the workload's inputs and prints its set-up time.
``measure`` sets up, then repeats whole passes of the in-process leg (on
corpus each followed by the CLI leg) until ``seconds`` have passed, checks
every answer against ``bench/reference.json`` and prints one JSON object of
raw measurements.  ``bench/run.py`` turns those into the reported metrics.

The CPU speed of a shared virtual machine drifts by a third within seconds
and between minutes, and the package's time drifts with it.  So while an
untraced pass runs, a SpeedSampler times a short fixed
pure-Python graph search, which shares no code with hcolour, every
SAMPLE_EVERY_S, and the pass's time is also given in reference seconds:
measured seconds x the mean of CAL_REF_S / search seconds over the samples,
the time the pass would take on a CPU that runs the search in CAL_REF_S.

Each workload takes its inputs from the seed (an order, a relabelling, a
recipe seed) and hands the package only those generated inputs; its answers
do not depend on the seed.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()  # set-up is timed from here, before hcolour is imported

import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from random import Random  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".benchwork")
CORPUS = Path("data/cubic_bridgeless_le14.g6")
CLI_TIMEOUT_S = 150
ALL_CPUS = os.sched_getaffinity(0)
# About the time of one sample during a pass on a 2-vCPU VM, Python 3.11.7;
# it only sets the scale of the reference seconds.
CAL_REF_S = 0.0015
# Each sample costs about CAL_REF_S, 1.5% of the pass; its time is taken out.
SAMPLE_EVERY_S = 0.1


def pin() -> None:
    """Keep this process on one CPU: a process that migrates between CPUs
    of unequal speed gives bimodal timings."""
    os.sched_setaffinity(0, {min(ALL_CPUS)})


_CAL_ADJ = [[(i * 31 + j * 17) % 200 for j in range(3)] for i in range(200)]


def _cal_mix(a: int, b: int, c: int) -> int:
    return (a ^ b) & c


def _cal_kernel() -> None:
    """Depth-first searches over a fixed 3-out graph: the sets, dicts, tuples
    and small calls that dominate hcolour's searches."""
    n = 0
    for rep in range(10):
        seen = set()
        stack = [rep % 200]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            n += _cal_mix(v, rep, 255)
            for w in _CAL_ADJ[v]:
                if w not in seen:
                    stack.append(w)
        order = {x: i for i, x in enumerate(tuple(sorted(seen)))}
        n += len(order)


class SpeedSampler:
    """Samples CPU speed while the code it brackets runs.

    A SIGALRM handler runs _cal_kernel every SAMPLE_EVERY_S, between the
    bytecodes of whatever code is running, with the collector off so that
    the package's heap does not enter the sample.  ``clock()`` is
    perf_counter less the time spent sampling.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []  # CAL_REF_S / kernel seconds
        self.spent = 0.0

    def clock(self) -> float:
        return perf_counter() - self.spent

    def sample(self, *_signal) -> None:
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        _cal_kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.speeds.append(CAL_REF_S / (t1 - t0))
        self.spent += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def reference_seconds(self, seconds: float) -> float:
        return seconds * statistics.fmean(self.speeds)


def answer_digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:16]


# -- CLI leg ---------------------------------------------------------------

def _tree_rss_bytes(pid: int) -> int:
    """Resident set size of a process and all of its descendants."""
    total = 0
    todo = [pid]
    page = os.sysconf("SC_PAGE_SIZE")
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/statm") as fh:
                total += int(fh.read().split()[1]) * page
            with open(f"/proc/{p}/task/{p}/children") as fh:
                todo.extend(int(c) for c in fh.read().split())
        except (OSError, ValueError):
            continue  # the process ended between listing and reading
    return total


def run_cli(args: list[str]) -> dict:
    """Run ``python -m hcolour.cli <args>``; time it and sample its tree's RSS."""
    err_path = WORK_DIR / "cli-stderr.txt"
    with open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "hcolour.cli", *args],
            stdout=subprocess.PIPE, stderr=err, text=True, start_new_session=True,
        )
        peak = [0]
        done = threading.Event()

        def sample() -> None:
            while not done.wait(0.01):
                peak[0] = max(peak[0], _tree_rss_bytes(proc.pid))

        sampler = threading.Thread(target=sample)
        sampler.start()
        timer = threading.Timer(CLI_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        first = None
        lines = []
        try:
            for line in proc.stdout:
                if first is None:
                    first = perf_counter()
                lines.append(line)
            rc = proc.wait()
            wall = perf_counter() - t0
        finally:
            timer.cancel()
            done.set()
            sampler.join()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()
    return {
        "rc": rc, "wall": wall, "startup": (first or perf_counter()) - t0,
        "peak_rss": peak[0], "lines": lines, "stderr": err_path.read_text(errors="replace"),
    }


# -- workloads -------------------------------------------------------------
#
# A workload builds its inputs from the seed in __init__ (this is its
# set-up).  A pass of its in-process leg runs ``operations(answered, clock)``,
# a list of (key, thunk), and answers ``graphs_per_pass`` questions, calling
# ``answered(seconds)`` after each: the pass loop calls it after each
# operation unless the workload reports finer answers itself
# (``per_entry``).  ``answer(results)`` turns the {key: result} of a pass
# into a dict shaped like the workload's entry in reference.json.  Only
# corpus has a CLI leg; the others load one process.

class Workload:
    name = ""
    per_entry = False

    def cli_args(self) -> list[list[str]]:
        return []

    def check(self, answer: dict, ref: dict) -> tuple[int, int]:
        """(operations attempted, operations whose answer differs)."""
        return len(ref), sum(answer.get(k) != v for k, v in ref.items())


class Corpus(Workload):
    """587 bridgeless cubic graphs in a seeded order, against S4 and Petersen."""

    name = "corpus"
    hosts = ("s4", "petersen")
    per_entry = True  # one answer per run_corpus progress callback

    def __init__(self, seed: int) -> None:
        from hcolour.graphio import ingest_graph6
        from hcolour.named import petersen, s4

        self.host_graphs = {"s4": s4().graph, "petersen": petersen().graph}
        records = [ln.strip() for ln in CORPUS.read_text().splitlines()
                   if ln.strip() and not ln.startswith("#")]
        Random(seed).shuffle(records)
        self.g6 = records
        self.path = WORK_DIR / f"corpus-{seed}.g6"
        self.path.write_text("\n".join(records) + "\n")
        self.graphs = []
        for lineno, item in ingest_graph6(self.path):
            if isinstance(item, Exception):
                raise SystemExit(f"corpus line {lineno}: {item}")
            self.graphs.append(item)
        self.graphs_per_pass = len(self.host_graphs) * len(self.graphs)

    def operations(self, answered, clock) -> list:
        from hcolour import recipes

        def op(name):
            last = clock()

            def progress(_res) -> None:
                nonlocal last
                now = clock()
                answered(now - last)
                last = now

            checks = recipes.run_corpus(
                str(self.path), self.host_graphs[name], name, workers=1, progress=progress
            )
            return [(c.name, c.details) for c in checks]

        return [(name, lambda name=name: op(name)) for name in self.hosts]

    def answer(self, results: dict) -> dict:
        return {name: self._answer(name, entries) for name, entries in results.items()}

    def _answer(self, host: str, entries: list[tuple[str, dict]]) -> dict:
        """Graph6 texts of the entries that are not SAT with a valid certificate."""
        from hcolour.colouring import Colouring, check_colouring

        ans = {"entries": 0, "unsat": [], "unknown": [], "bad_certificate": []}
        for check_name, details in entries:
            index = int(check_name.split("-")[1])
            g6 = self.g6[index]
            status = details.get("status", "unknown")
            ans["entries"] += 1
            if status == "sat":
                try:
                    em = tuple(int(p.split(":")[1]) for p in details["certificate"].split())
                    colouring = Colouring(self.host_graphs[host], self.graphs[index], em)
                    ok = check_colouring(colouring).ok
                except (KeyError, IndexError, ValueError):
                    ok = False
                if not ok:
                    ans["bad_certificate"].append(g6)
            elif status == "unsat":
                ans["unsat"].append(g6)
            else:
                ans["unknown"].append(g6)
        for key in ("unsat", "unknown", "bad_certificate"):
            ans[key].sort()
        return ans

    def cli_args(self) -> list[list[str]]:
        return [["corpus", str(self.path), "--host", h, "--workers", "2"] for h in self.hosts]

    def cli_answers(self, outputs: list[dict]) -> dict:
        answers = {}
        for host, out in zip(self.hosts, outputs):
            entries = []
            for line in out["lines"]:
                try:
                    row = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if row.get("check", "").startswith("entry-"):
                    entries.append((row["check"], row))
            answers[host] = self._answer(host, entries)
        return answers

    def check(self, answer: dict, ref: dict) -> tuple[int, int]:
        """Counted per corpus entry."""
        attempted = bad = 0
        for host, want in ref.items():
            got = answer.get(host, {})
            attempted += want["entries"]
            bad += abs(got.get("entries", 0) - want["entries"])
            for key in ("unsat", "unknown", "bad_certificate"):
                bad += len(set(got.get(key, [])) ^ set(want[key]))
        return attempted, min(bad, attempted)


class Lemma24(Workload):
    """The lemma24-props recipe: the deepest solver search in the package."""

    name = "lemma24"
    graphs_per_pass = 1  # one recipe run per pass

    def __init__(self, seed: int) -> None:
        from hcolour import recipes

        self.seed = seed
        self.solves: list[tuple[str, str, int]] = []
        solve = recipes.solve

        def recorded(host, guest, *args, **kwargs):
            """Record each solve's status and count of colourings."""
            res = solve(host, guest, *args, **kwargs)
            self.solves.append((f"{host.name}<{guest.name}", res.status, res.count))
            return res

        recipes.solve = recorded

    def operations(self, answered, clock) -> list:
        from hcolour import recipes

        def op():
            self.solves.clear()
            report = recipes.run_recipe("lemma24-props", {"seed": self.seed})
            return report, list(self.solves)

        return [("lemma24-props", op)]

    def answer(self, results: dict) -> dict:
        """The recipe's status and check outcomes, and the status and count
        of each of its solver calls, keyed by call order."""
        report, solves = results["lemma24-props"]
        ans = {"lemma24-props": {"status": report.status,
                                 "checks": [[c.name, c.outcome] for c in report.checks]}}
        for i, (pair, status, count) in enumerate(solves):
            ans[f"solve-{i:02d} {pair}"] = [status, count]
        return ans


def heawood():
    """The Heawood graph from its LCF notation [5, -5]^7."""
    from hcolour.multigraph import Multigraph

    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Multigraph(14, edges, name="Heawood")


class Atlas(Workload):
    """Splitted-image atlases of seeded relabellings of four guests."""

    name = "atlas"

    def __init__(self, seed: int) -> None:
        from hcolour.multigraph import Multigraph
        from hcolour.named import complete, petersen, s12_plus_km

        rng = Random(seed)
        self.guests = {}
        base = {"heawood": heawood(), "k7": complete(7).graph,
                "petersen": petersen().graph, "s12+1M": s12_plus_km(1).graph}
        for name, G in base.items():
            perm = list(range(G.n))
            rng.shuffle(perm)
            edges = [(perm[a], perm[b]) for a, b in G.edges]
            rng.shuffle(edges)
            self.guests[name] = Multigraph(G.n, edges, name=name)
        self.graphs_per_pass = len(self.guests)

    def operations(self, answered, clock) -> list:
        from hcolour import images

        return [(name, lambda g=guest: images.enumerate_splitted_images(g))
                for name, guest in self.guests.items()]

    def answer(self, results: dict) -> dict:
        return {
            name: {
                "complete": atlas.complete,
                "classes": sorted([hashlib.sha256(e.canonical).hexdigest()[:16], e.multiplicity]
                                  for e in atlas.entries),
            }
            for name, atlas in results.items()
        }


def naive_perfect_matchings(n: int, edges: list[tuple[int, int]]) -> list[frozenset[int]]:
    """Perfect matchings as n/2-subsets of edge ids covering every vertex."""
    return [
        frozenset(combo)
        for combo in itertools.combinations(range(len(edges)), n // 2)
        if len({v for e in combo for v in edges[e]}) == n
    ]


def witness_answer(G, r: int):
    """"none", or the order of a verified r-regular poorly matchable witness."""
    if G is None:
        return "none"
    degree = [0] * G.n
    for a, b in G.edges:
        degree[a] += 1
        degree[b] += 1
    pms = naive_perfect_matchings(G.n, list(G.edges))
    poorly = bool(pms) and all(p & q for p, q in itertools.combinations(pms, 2))
    if set(degree) != {r} or not poorly:
        return "invalid"
    return G.n


class Witness(Workload):
    """Exhaustive poorly matchable witness searches up to order 6."""

    name = "witness"
    max_order = 6

    def __init__(self, seed: int) -> None:
        import hcolour.named  # noqa: F401

        self.degrees = [4, 5, 6]
        Random(seed).shuffle(self.degrees)
        self.graphs_per_pass = len(self.degrees)

    def operations(self, answered, clock) -> list:
        from hcolour import named

        return [(r, lambda r=r: named.poorly_matchable_witness(r, self.max_order))
                for r in self.degrees]

    def answer(self, results: dict) -> dict:
        return {str(r): witness_answer(G, r) for r, G in results.items()}


WORKLOADS = {w.name: w for w in (Corpus, Lemma24, Atlas, Witness)}


def reference(name: str) -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text())[name]


# -- one measuring process ---------------------------------------------------

def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for ``seconds`` and gate every answer; raw numbers out.

    Untraced: sampled passes of the in-process leg, each followed by the
    CLI leg if the workload has one.  Traced: untraced and traced passes in
    turn, neither sampled, so that drift in machine speed cancels out of
    the tracing overhead, then one CLI leg.
    """
    WORK_DIR.mkdir(exist_ok=True)
    w = WORKLOADS[name](seed)
    setup_s = perf_counter() - T_START
    ref = reference(name)
    res = {"setup_s": setup_s, "walls": [], "ref_walls": [], "latencies": [], "cli_walls": [],
           "cli_startups": [], "cli_peak_rss": 0, "attempted": 0, "failed": 0,
           "errors": [], "digests": {}, "graphs_per_pass": w.graphs_per_pass}

    def gate(answer: dict, leg: str) -> None:
        attempted, bad = w.check(answer, ref)
        res["attempted"] += attempted
        res["failed"] += bad
        if bad:
            res["errors"].append(f"{leg}: {bad} of {attempted} answers differ from the reference")
        res["digests"][leg] = answer_digest(answer)

    def cli_leg() -> None:
        if not w.cli_args():
            return
        os.sched_setaffinity(0, ALL_CPUS)  # the CLI's pool gets every CPU
        outputs = [run_cli(a) for a in w.cli_args()]
        pin()
        res["cli_walls"].append(sum(o["wall"] for o in outputs))
        res["cli_startups"].extend(o["startup"] for o in outputs)
        res["cli_peak_rss"] = max([res["cli_peak_rss"]] + [o["peak_rss"] for o in outputs])
        for o in outputs:
            if o["rc"] != 0:
                res["errors"].append(f"cli exited {o['rc']}: {o['stderr'][-500:]}")
        gate(w.cli_answers(outputs), "cli")

    def run_pass(answered, sampled: bool):
        """Run one pass: its {key: result}, or None when an operation raised
        (then every answer of the pass counts as failed); its measured
        seconds; and, if sampled, its reference seconds."""
        out, wall = {}, 0.0
        with SpeedSampler() if sampled else contextlib.nullcontext() as sampler:
            clock = sampler.clock if sampled else perf_counter
            try:
                for key, op in w.operations(answered, clock):
                    t0 = clock()
                    out[key] = op()
                    dt = clock() - t0
                    if not w.per_entry:
                        answered(dt)
                    wall += dt
            except Exception as exc:  # noqa: BLE001 - recorded and counted, run goes on
                res["errors"].append(f"pass raised {exc!r}")
                out = None
        return out, wall, sampler.reference_seconds(wall) if sampled else None

    def gate_pass(out) -> None:
        gate({} if out is None else w.answer(out), "in-process")

    t_measure = perf_counter()
    if not trace:
        while True:
            out, wall, ref_wall = run_pass(res["latencies"].append, sampled=True)
            res["walls"].append(wall)
            res["ref_walls"].append(ref_wall)
            gate_pass(out)
            cli_leg()
            if perf_counter() - t_measure >= seconds:
                break
        res["peak_rss"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        return res

    import spans

    t = spans.Tracer()
    spans.install(t)

    def next_op(_s: float) -> None:  # spans of one answer share an op id
        t.op_id += 1

    res["traced_walls"], res["layers"], counts = [], [], []
    while True:
        out, wall, _ = run_pass(lambda _s: None, sampled=False)
        res["walls"].append(wall)
        gate_pass(out)
        t.counters = {}
        lo = len(t.start)
        t0 = perf_counter()
        t.active = True
        root = t.open(spans.ROOT)
        out, _, _ = run_pass(next_op, sampled=False)
        t.close(root)
        t.active = False
        wall = perf_counter() - t0
        res["traced_walls"].append(wall)
        layers = spans.layer_metrics(t, lo, len(t.start), t.counters)
        res["layers"].append(layers)
        counts.append({k: v for k, v in layers.items() if isinstance(v, int)})
        covered = layers["trace.layer_self_sum_s"]
        if wall - covered > max(0.01 * wall, 0.002):
            res["errors"].append(
                f"layer self times sum to {covered:.6f} s of the traced wall {wall:.6f} s"
            )
        gate_pass(out)
        if perf_counter() - t_measure >= seconds:
            break
    if t.broken:
        res["errors"].append(f"{t.broken} spans were not properly nested")
    if any(c != counts[0] for c in counts):
        res["errors"].append("exact counts differ between traced passes")
    res["counts"] = counts[0]
    cli_leg()
    t.write(WORK_DIR / f"trace-{name}-{seed}.tsv")
    return res


def main(argv: list[str]) -> int:
    pin()
    if len(argv) == 3 and argv[0] == "setup":
        WORK_DIR.mkdir(exist_ok=True)
        WORKLOADS[argv[1]](int(argv[2]))
        print(json.dumps({"setup_s": perf_counter() - T_START}))
        return 0
    if len(argv) == 5 and argv[0] == "measure":
        print(json.dumps(measure(argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
