"""Answer-gated benchmark of hcolour over four workloads.

Run from the repository root:

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  Each workload is
measured in fresh processes: several that only set up (their median is
``setup_s``) and one that sets up, runs whole in-process passes for
``--seconds`` seconds and checks every answer against
``bench/reference.json``.  On corpus each pass is followed by a CLI leg,
``python -m hcolour.cli corpus`` in a subprocess; the other workloads load
one process.

Workloads (the seed sets the inputs, never the answers):

  corpus   the 587 graphs of data/cubic_bridgeless_le14.g6 in a seeded
           order, run_corpus(workers=1) against S4 and Petersen; CLI leg
           ``corpus --workers 2`` for each host.
  lemma24  run_recipe("lemma24-props", {"seed": seed}).
  atlas    enumerate_splitted_images on seeded vertex and edge
           relabellings of Heawood, K7, Petersen and S12+1M.
  witness  poorly_matchable_witness(r, 6) for r = 4, 5, 6 in a seeded order.

Metrics in the result line (``--trace 0``; BENCHMARK.json gives units,
direction and bounds), defined on every workload:

  setup_s       import, graph construction, relabelling and corpus ingest,
                median over fresh processes.
  wall_s        one in-process pass, median over the run's passes, in
                reference seconds.
  peak_rss_mb   the larger of the measuring process's peak RSS and the
                sampled peak RSS of a CLI process with its pool workers.

Reference seconds are measured seconds scaled by the CPU speed that a
fixed pure-Python loop, sampled every 0.1 s while the measured code runs,
sees (SpeedSampler in bench/workloads.py): this virtual machine's speed
drifts by a third, which measured seconds follow and reference seconds
mostly cancel.

Printed as well, above the result line, in measured seconds:

  measured_wall_s
                wall_s before scaling.
  graphs_per_s  answers per second of pass time; on corpus the entries
                verified per second (1,174 per pass).
  entry_p50_ms, entry_p99_ms
                time per answer, nearest rank over the run's passes, with
                the sample count: on corpus the gap between successive
                run_corpus progress callbacks; elsewhere the time of each
                recipe run, atlas or search.
  cli_wall_s    corpus only: the CLI leg of one pass, both hosts,
                interpreter start to exit.
  failed_ratio  answers that differ from the reference, raised, or came
                back unknown or incomplete, over answers attempted; the
                result line carries it as ``failed`` and ``attempted``.

``--trace 1`` runs untraced and traced passes in turn, and prints the
per-layer metrics of bench/spans.py, the CLI start-up time and the tracing
overhead (traced over untraced measured wall time).
Spans are written to .benchwork/trace-<workload>-<seed>.tsv.

The last line of standard output is one JSON object.  The exit code is 0
only when every answer matches the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from math import ceil
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("corpus", "lemma24", "atlas", "witness")
REQUIRED = ("src/hcolour/__init__.py", "data/cubic_bridgeless_le14.g6", "BENCHMARK.json")
SETUP_PROCESSES = 9
RUN_BUDGET_S = 170


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, ceil(round(q * len(s), 9)) - 1)]


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("HCOLOR_THREADS", None)  # it would override --workers and workers=1
    # An installed package imports cached bytecode, so set-up should too.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(Path(".benchwork/pycache").resolve())
    env["PYTHONPATH"] = os.pathsep.join(["src"] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Run bench/workloads.py with args and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "workloads.py"), *args],
        capture_output=True, text=True, env=child_env(),
        timeout=max(1.0, deadline - perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workloads.py {' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Measure one workload; print its metrics; return the result object."""
    deadline = perf_counter() + RUN_BUDGET_S
    setups = [run_child(["setup", name, str(seed)], deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    raw = run_child(["measure", name, str(seed), str(seconds), "1" if trace else "0"], deadline)
    walls = raw["walls"]
    wall = statistics.median(walls)  # measured seconds
    extra = {}
    if trace:
        values = {
            k: statistics.median(layer[k] for layer in raw["layers"])
            for k in raw["layers"][0]
        }
        values.update(raw["counts"])
        values["cli.startup_s"] = statistics.median(raw["cli_startups"] or [0.0])
        values["trace.overhead"] = statistics.median(raw["traced_walls"]) / wall
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(raw["ref_walls"]),
            "peak_rss_mb": max(raw["peak_rss"], raw["cli_peak_rss"]) / 2**20,
        }
        wanted = spec["end_to_end"]
        lat = raw["latencies"]
        extra = {
            "measured_wall_s": (wall, "s"),
            "graphs_per_s": (raw["graphs_per_pass"] / wall, "1/s"),
            "entry_p50_ms": (1000 * percentile(lat, 0.50), f"ms  ({len(lat)} samples)"),
            "entry_p99_ms": (1000 * percentile(lat, 0.99), f"ms  ({len(lat)} samples)"),
        }
        if raw["cli_walls"]:
            extra["cli_wall_s"] = (statistics.median(raw["cli_walls"]),
                                   f"s  ({len(raw['cli_walls'])} samples)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = raw["attempted"], raw["failed"]
    for m, v in metrics.items():
        print(f"{name:8s} {m:26s} {v['value']:16.6f} {v['unit']}")
    for m, (v, unit) in extra.items():
        print(f"{name:8s} {m:26s} {v:16.6f} {unit}")
    print(f"{name:8s} {'failed_ratio':26s} {failed / max(attempted, 1):16.6f} ratio"
          f"  ({failed} of {attempted} answers)")
    print(f"{name:8s} passes={len(walls)} setup_samples={[round(s, 4) for s in setups]} "
          f"answer_digests={raw['digests']}")
    if trace:
        print(f"{name:8s} traced_passes={len(raw['traced_walls'])} "
              f"traced_wall_s={statistics.median(raw['traced_walls']):.6f} "
              f"layer_self_sum_s={values['trace.layer_self_sum_s']:.6f} spans={values['trace.spans']}")
    for err in raw["errors"]:
        print(f"{name:8s} ERROR {err}", file=sys.stderr)
    return {"correct": failed == 0 and not raw["errors"], "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    # The benchmark invocation passes --seconds (run_seconds of BENCHMARK.json).
    # At most 60, so that a run with its last pass ends within RUN_BUDGET_S.
    ap.add_argument("--seconds", type=int, choices=range(1, 61), metavar="{1..60}",
                    help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not Path(p).is_file()]
    if missing:
        print(f"run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "loadavg_start": os.getloadavg()}
    print("# env " + json.dumps(env))

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    print("# loadavg_end " + json.dumps(os.getloadavg()))

    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
