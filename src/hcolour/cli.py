"""Command-line surface.

Subcommands: gen, solve, images, check, recipe, corpus.  Structured results
(JSON objects, certificates, edge lists) go to stdout; timings and other
diagnostics go to stderr.  corpus prints one JSON object per input record,
in input order as each is decided, then a summary object.  Exit codes: 0 all
pass / SAT, 1 any fail / UNSAT, 2 any unknown or error; a command that
raises exits 2 with the traceback on stderr.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

from . import named
from .canonical import canonical_digest
from .colouring import check_colouring
from .graphio import (certificate_text, is_digits, parse_certificate, read_graph,
                      to_edge_list_text)
from .images import enumerate_splitted_images
from .multigraph import Multigraph
from .recipes import VerificationReport, artifact_version, run_corpus, run_recipe
from .solver import DEFAULT_NODE_BUDGET, solve

EXIT_PASS, EXIT_FAIL, EXIT_UNKNOWN = 0, 1, 2
# the exit code of a recipe or corpus status, or of a solver status
EXIT = {"pass": EXIT_PASS, "sat": EXIT_PASS, "fail": EXIT_FAIL, "unsat": EXIT_FAIL,
        "unknown": EXIT_UNKNOWN}


def _integer(text: str) -> int:
    """The type of --workers and of --param values: an optional '-', then
    ASCII digits.  int() would also take '+2', ' 2', '1_0' or U+0662."""
    if not is_digits(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    return int(text)


def _node_budget(text: str) -> int:
    """The type of --node-limit: a non-negative integer."""
    if not is_digits(text):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def load_graph(ref: str) -> Multigraph:
    """A graph from a registry name (named.by_name), else from an edge-list
    or one-record graph6/sparse6 file.  Raises ValueError naming ref if not."""
    try:
        return named.by_name(ref).graph
    except named.UnknownGraphName:
        pass
    path = Path(ref)
    if not path.is_file():
        raise ValueError(f"{ref!r} is neither a known graph name nor a file")
    try:
        return read_graph(path, path.stem)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{ref}: {exc}") from None


def _resolve(load, ref: str):
    """load(ref); a bad graph reference exits 2 with a one-line error."""
    try:
        return load(ref)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_UNKNOWN) from None


def _cmd_gen(args) -> int:
    lab = _resolve(named.by_name, args.name)
    g = lab.graph
    comments = [g.name or args.name.lower(), f"canonical {canonical_digest(g)}"]
    if lab.vertex_labels:
        comments.append(
            "vertices: " + " ".join(f"{v}={l}" for l, v in lab.vertex_labels.items())
        )
    if lab.edge_labels:
        comments.append(
            "edges: " + " ".join(f"{e}={l}" for l, e in lab.edge_labels.items())
        )
    sys.stdout.write(to_edge_list_text(g, comments))
    return EXIT_PASS


def _cmd_solve(args) -> int:
    host = _resolve(load_graph, args.host)
    guest = _resolve(load_graph, args.guest)
    t0 = time.perf_counter()
    res = solve(host, guest, mode="count" if args.count else "first",
                node_limit=args.node_limit)
    dt = time.perf_counter() - t0
    print(f"solved in {dt:.3f}s, {res.nodes} nodes", file=sys.stderr)
    print(f"status {res.status}")
    if args.count:
        print(f"count {res.count}")
    if res.witness is not None:
        sys.stdout.write(certificate_text(res.witness, args.host, args.guest))
    return EXIT[res.status]


def _cmd_images(args) -> int:
    guest = _resolve(load_graph, args.guest)
    t0 = time.perf_counter()
    try:
        atlas = enumerate_splitted_images(guest, node_limit=args.node_limit)
    except ValueError as exc:  # a disconnected guest, or one on 2 vertices or fewer
        print(f"error: {args.guest}: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    dt = time.perf_counter() - t0
    print(f"enumerated in {dt:.3f}s, {atlas.nodes} nodes", file=sys.stderr)
    print(f"guest {args.guest} canonical {canonical_digest(guest)}")
    print(f"complete {str(atlas.complete).lower()}")
    print(f"tk2_realizable {str(atlas.tk2_realizable).lower()}")
    print(f"classes {len(atlas.entries)}")
    for i, e in enumerate(atlas.entries):
        g = e.graph
        print(f"image {i}: n={g.n} m={g.m} canonical={canonical_digest(g)} "
              f"multiplicity={e.multiplicity} pendant={e.pendant_count}")
        for a, b in g.edges:
            print(f"  {a} {b}")
        if args.witness:
            sys.stdout.write(certificate_text(e.witness, f"image-{i}", args.guest))
    if not atlas.complete:
        return EXIT_UNKNOWN
    return EXIT_PASS


def _cmd_check(args) -> int:
    host = _resolve(load_graph, args.host)
    guest = _resolve(load_graph, args.guest)
    try:
        text = Path(args.certificate).read_text()
        c = parse_certificate(text, host, guest)
    except (OSError, ValueError) as exc:
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


def _cmd_recipe(args) -> int:
    params: dict = {}
    for kv in args.param or []:
        k, _, v = kv.partition("=")
        try:
            params[k] = _integer(v)
        except (argparse.ArgumentTypeError, ValueError):  # ValueError: too many digits
            params[k] = v  # run_recipe rejects it where it must be an integer
    t0 = time.perf_counter()
    try:
        report = run_recipe(args.name, params)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    dt = time.perf_counter() - t0
    sys.stdout.write(report.to_json_lines())
    print(f"recipe {args.name}: {report.status} in {dt:.3f}s", file=sys.stderr)
    return EXIT[report.status]


def _cmd_corpus(args) -> int:
    host = _resolve(load_graph, args.host)
    t0 = time.perf_counter()
    try:
        checks = run_corpus(
            args.file,
            host,
            args.host,
            node_limit=args.node_limit,
            workers=args.workers,
            progress=lambda res: print(res.to_json(), flush=True),
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    report = VerificationReport(
        recipe=f"corpus:{args.host}", checks=checks, version=artifact_version()
    )
    print(report.summary_json())
    print(
        f"corpus {args.file} vs {args.host}: {report.status}, "
        f"{len(checks)} entries in {time.perf_counter() - t0:.1f}s",
        file=sys.stderr,
    )
    return EXIT[report.status]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hcolour",
        description="Exact H-colouring tools: solve, enumerate images, verify.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a named graph as an edge list")
    g.add_argument("name", help="a graph name, e.g. petersen, s4, s12+1M, k5, c5, j4, "
                   "kfamily-5-4 (member 0) or kfamily-5-4-1 (member 1)")
    g.set_defaults(func=_cmd_gen)

    # the searching subcommands, solve, images and corpus, share --node-limit
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--node-limit", type=_node_budget, default=DEFAULT_NODE_BUDGET,
                        help="nodes a search may visit before it answers unknown "
                        "(default: %(default)s)")

    s = sub.add_parser("solve", parents=[budget], help="decide host ≺ guest")
    s.add_argument("--host", required=True)
    s.add_argument("--guest", required=True)
    s.add_argument("--count", action="store_true", help="count all colourings")
    s.set_defaults(func=_cmd_solve)

    i = sub.add_parser("images", parents=[budget],
                       help="enumerate all splitted images of a guest")
    i.add_argument("--guest", required=True)
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
    r.add_argument("--param", action="append", metavar="KEY=VALUE")
    r.set_defaults(func=_cmd_recipe)

    co = sub.add_parser("corpus", parents=[budget],
                        help="batch-solve a graph6 corpus against a host")
    co.add_argument("file")
    co.add_argument("--host", required=True)
    co.add_argument("--workers", type=_integer, default=1,
                    help="pool size; 1 solves serially (default: %(default)s)")
    co.set_defaults(func=_cmd_corpus)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception:  # a crash decides nothing: never report it as fail
        traceback.print_exc()
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
