"""Command-line surface.

Subcommands: gen, solve, images, check, recipe, corpus.  Structured results
(JSON objects, certificates, edge lists) go to stdout; timings and other
diagnostics go to stderr.  Exit codes: 0 all pass / SAT, 1 any fail / UNSAT,
2 any unknown or error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path
from typing import Optional

from . import named
from .canonical import canonical_digest
from .colouring import Colouring, check_colouring
from .graphio import (
    GraphFormatError,
    certificate_text,
    decode_graph6,
    decode_sparse6,
    parse_certificate,
)
from .images import enumerate_splitted_images
from .multigraph import Multigraph, from_edge_list_text, to_edge_list_text
from .recipes import (
    DEFAULT_NODE_BUDGET,
    CheckResult,
    VerificationReport,
    artifact_version,
    run_corpus,
    run_recipe,
    worker_count,
)
from .solver import solve

EXIT_PASS, EXIT_FAIL, EXIT_UNKNOWN = 0, 1, 2


def _labelled(name: str) -> Optional[named.LabelledGraph]:
    """Resolve a graph name to a labelled construction, or None."""
    plain = {
        "petersen": named.petersen,
        "p": named.petersen,
        "s4": named.s4,
        "s6": named.s6,
        "s10": named.s10,
        "s12": named.s12,
        "pm10": named.poorly_matchable_ten_vertices,
    }
    if name in plain:
        return plain[name]()
    m = re.fullmatch(r"s(4|6|12)\+(\d+)m", name, re.IGNORECASE)
    if m:
        fam = {"4": named.s4_plus_km, "6": named.s6_plus_km, "12": named.s12_plus_km}
        return fam[m.group(1)](int(m.group(2)))
    m = re.fullmatch(r"k(\d+)", name)
    if m:
        return named.complete(int(m.group(1)))
    m = re.fullmatch(r"k(\d+)-e", name)
    if m:
        return named.complete_minus_edge(int(m.group(1)))
    m = re.fullmatch(r"c(\d+)", name)
    if m:
        return named.cycle(int(m.group(1)))
    m = re.fullmatch(r"path(\d+)", name)
    if m:
        return named.path(int(m.group(1)))
    m = re.fullmatch(r"star(\d+)", name)
    if m:
        return named.star(int(m.group(1)))
    m = re.fullmatch(r"(\d+)k2", name)
    if m:
        return named.t_k2(int(m.group(1)))
    m = re.fullmatch(r"j(\d+)", name)
    if m:
        r = int(m.group(1))
        if r % 2:
            raise SystemExit(f"j-graphs are defined for even subscripts, got j{r}")
        return named.j_graph(r // 2)
    return None


def load_graph(ref: str) -> Multigraph:
    """A graph from a recognised name, an edge-list file, or a graph6 file."""
    lab = _labelled(ref.lower())
    if lab is not None:
        return lab.graph
    m = re.fullmatch(r"kfamily-(\d+)-(\d+)(?:-(\d+))?", ref.lower())
    if m:
        t, r = int(m.group(1)), int(m.group(2))
        idx = int(m.group(3) or 0)
        members = named.k_family_members(t, r)
        if idx >= len(members):
            raise SystemExit(
                f"kfamily-{t}-{r} has {len(members)} members; index {idx} out of range"
            )
        return members[idx]
    path = Path(ref)
    if not path.exists():
        raise SystemExit(f"{ref!r} is neither a known graph name nor a file")
    text = path.read_text()
    stripped = [l.strip() for l in text.splitlines() if l.strip() and not l.startswith("#")]
    if not stripped:
        raise SystemExit(f"{ref}: no graph data found")
    first = stripped[0]
    try:
        if first.startswith(":") or first.startswith(">>sparse6<<"):
            return decode_sparse6(first)
        if re.fullmatch(r"\d+(\s+\d+)?", first):
            return from_edge_list_text(text, name=path.stem)
        return decode_graph6(first)
    except (GraphFormatError, ValueError) as exc:
        raise SystemExit(f"{ref}: {exc}")


def _cmd_gen(args) -> int:
    name = args.name.lower()
    if name.startswith("kfamily"):
        m = re.fullmatch(r"kfamily-(\d+)-(\d+)", name)
        if not m:
            raise SystemExit("usage: gen kfamily-<t>-<r> [--index i]")
        t, r = int(m.group(1)), int(m.group(2))
        members = named.k_family_members(t, r)
        if args.index >= len(members):
            raise SystemExit(
                f"kfamily-{t}-{r} has {len(members)} members; index {args.index} "
                "out of range"
            )
        g = members[args.index]
        comments = [f"{g.name or name}", f"canonical {canonical_digest(g)}"]
        sys.stdout.write(to_edge_list_text(g, comments))
        return EXIT_PASS
    lab = _labelled(name)
    if lab is None:
        raise SystemExit(f"unknown graph name {args.name!r}")
    g = lab.graph
    comments = [g.name or name, f"canonical {canonical_digest(g)}"]
    if lab.vertex_labels:
        comments.append(
            "vertices: " + " ".join(f"{i}={l}" for i, l in enumerate(lab.vertex_labels))
        )
    if lab.edge_labels:
        comments.append(
            "edges: " + " ".join(f"{i}={l}" for i, l in enumerate(lab.edge_labels))
        )
    sys.stdout.write(to_edge_list_text(g, comments))
    return EXIT_PASS


def _cmd_solve(args) -> int:
    host = load_graph(args.host)
    guest = load_graph(args.guest)
    mode = "all" if args.all else ("count" if args.count else "first")
    t0 = time.perf_counter()
    res = solve(host, guest, mode=mode, node_limit=args.node_limit)
    dt = time.perf_counter() - t0
    print(f"solved in {dt:.3f}s, {res.nodes} nodes", file=sys.stderr)
    print(f"status {res.status}")
    if mode in ("all", "count"):
        print(f"count {res.count}")
    if res.witness is not None:
        sys.stdout.write(certificate_text(res.witness, args.host, args.guest))
    if res.status == "sat":
        return EXIT_PASS
    return EXIT_FAIL if res.status == "unsat" else EXIT_UNKNOWN


def _cmd_images(args) -> int:
    guest = load_graph(args.guest)
    t0 = time.perf_counter()
    atlas = enumerate_splitted_images(guest, node_limit=args.node_limit)
    dt = time.perf_counter() - t0
    print(f"enumerated in {dt:.3f}s, {atlas.nodes} nodes", file=sys.stderr)
    print(f"guest {args.guest} canonical {canonical_digest(guest)}")
    print(f"complete {str(atlas.complete).lower()}")
    print(f"tk2_realizable {str(atlas.tk2_realizable).lower()}")
    print(f"classes {len(atlas.entries)}")
    for i, e in enumerate(atlas.entries):
        g = e.graph
        print(f"image {i}: n={g.n} m={g.m} canonical={canonical_digest(g)} "
              f"multiplicity={e.multiplicity} split={e.split_vertex_count} "
              f"pendant={e.pendant_count}")
        for a, b in g.edges:
            print(f"  {a} {b}")
        if args.witness:
            sys.stdout.write(certificate_text(e.witness, f"image-{i}", args.guest))
    if not atlas.complete:
        return EXIT_UNKNOWN
    return EXIT_PASS


def _cmd_check(args) -> int:
    host = load_graph(args.host)
    guest = load_graph(args.guest)
    try:
        text = Path(args.certificate).read_text()
        c = parse_certificate(text, host, guest)
    except (OSError, GraphFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    rep = check_colouring(c)
    if rep.ok:
        print("valid")
        return EXIT_PASS
    print("invalid")
    for a, b in rep.properness_violations:
        print(f"properness violation: guest edges {a} and {b} share a colour")
    for u in rep.vertex_violations:
        print(f"vertex violation: guest vertex {u} matches no host vertex")
    return EXIT_FAIL


def _report_exit(report: VerificationReport) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL, "unknown": EXIT_UNKNOWN}[report.status]


def _cmd_recipe(args) -> int:
    params: dict = {}
    if args.path:
        params["path"] = args.path
    if args.node_limit is not None:
        params["node_limit"] = args.node_limit
    if args.workers is not None:
        params["workers"] = args.workers
    if args.start_index:
        params["start_index"] = args.start_index
    for kv in args.param or []:
        k, _, v = kv.partition("=")
        params[k] = int(v) if v.lstrip("-").isdigit() else v
    try:
        report = run_recipe(args.name, params)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    sys.stdout.write(report.to_json_lines())
    print(f"recipe {args.name}: {report.status} in {report.elapsed:.3f}s",
          file=sys.stderr)
    return _report_exit(report)


def _cmd_corpus(args) -> int:
    host = load_graph(args.host)
    try:
        workers = worker_count(args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    t0 = time.perf_counter()

    def stream(res: CheckResult) -> None:
        print(res.to_json(), flush=True)

    checks = run_corpus(
        args.file,
        host,
        args.host,
        node_limit=args.node_limit or DEFAULT_NODE_BUDGET,
        workers=workers,
        start_index=args.start_index,
        progress=stream,
    )
    report = VerificationReport(
        recipe=f"corpus:{args.host}", checks=checks, version=artifact_version()
    )
    # entries already streamed; emit parse errors, skips, and the summary
    for c in checks:
        if "status" not in c.details:
            print(c.to_json())
    print(report.to_json_lines().splitlines()[-1])
    print(
        f"corpus {args.file} vs {args.host}: {report.status}, "
        f"{len(checks)} entries in {time.perf_counter() - t0:.1f}s",
        file=sys.stderr,
    )
    return _report_exit(report)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hcolour",
        description="Exact H-colouring tools: solve, enumerate images, verify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a named graph as an edge list")
    g.add_argument("name", help="e.g. petersen, s4, s12+1M, k5, c5, j4, kfamily-5-4")
    g.add_argument("--index", type=int, default=0, help="member index for kfamily")
    g.set_defaults(func=_cmd_gen)

    s = sub.add_parser("solve", help="decide host ≺ guest")
    s.add_argument("--host", required=True)
    s.add_argument("--guest", required=True)
    s.add_argument("--all", action="store_true", help="enumerate all colourings")
    s.add_argument("--count", action="store_true", help="count colourings only")
    s.add_argument("--node-limit", type=int, default=DEFAULT_NODE_BUDGET)
    s.set_defaults(func=_cmd_solve)

    i = sub.add_parser("images", help="enumerate all splitted images of a guest")
    i.add_argument("--guest", required=True)
    i.add_argument("--node-limit", type=int, default=None)
    i.add_argument("--witness", action="store_true",
                   help="print a witness certificate per image class")
    i.set_defaults(func=_cmd_images)

    c = sub.add_parser("check", help="validate a colouring certificate")
    c.add_argument("--host", required=True)
    c.add_argument("--guest", required=True)
    c.add_argument("--certificate", required=True)
    c.set_defaults(func=_cmd_check)

    r = sub.add_parser("recipe", help="run a named verification recipe")
    r.add_argument("name")
    r.add_argument("--path", help="corpus file for corpus recipes")
    r.add_argument("--node-limit", type=int, default=None)
    r.add_argument("--workers", type=int, default=None)
    r.add_argument("--start-index", type=int, default=0)
    r.add_argument("--param", action="append", metavar="KEY=VALUE")
    r.set_defaults(func=_cmd_recipe)

    co = sub.add_parser("corpus", help="batch-solve a graph6 corpus against a host")
    co.add_argument("file")
    co.add_argument("--host", required=True)
    co.add_argument("--node-limit", type=int, default=None)
    co.add_argument("--workers", type=int, default=None,
                    help="pool size (HCOLOR_THREADS overrides)")
    co.add_argument("--start-index", type=int, default=0)
    co.set_defaults(func=_cmd_corpus)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
