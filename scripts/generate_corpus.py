"""Generate the bundled corpus of bridgeless cubic simple graphs (<= 14 vertices).

Generation runs over connected cubic pseudographs (loops allowed, counting 2
toward the degree) closed under edge insertion: subdivide two edge slots --
two distinct edges, the same edge twice, or loops -- and join the two new
vertices.  Deleting a non-bridge non-loop edge and smoothing its endpoints
inverts the operation (smoothing may create loops, which is why loops must
be carried as intermediates).  Every edge at a loop vertex is a bridge, so a
connected cubic pseudograph is irreducible exactly when its non-loop edges
form a tree with all degrees in {1, 3} and a loop on each leaf ("loop
trees"), plus the triple edge at order 2.  Seeding the closure with the
triple edge and every loop tree therefore reaches every connected cubic
pseudograph, and in particular every connected cubic simple graph.

Two cost cuts that do not lose simple graphs: reducing a loopless multigraph
never needs parents below order-(n-2) loops... more precisely, reducing a
*simple* graph never creates a loop, so the top level (14) only needs
loopless order-12 parents, and level 12 itself is only kept loopless.

Validations before anything is written:
  * isomorphism classes of loopless multigraphs at orders 4-8 against a
    direct enumeration of block-sorted multiplicity matrices, which holds
    every class;
  * simple-graph counts per order against the known sequence 1, 2, 5, 19,
    85, 509 (connected cubic simple graphs on 4..14 vertices).

Output: one graph6 file per order plus a combined file, bridgeless
connected simple graphs only.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hcolour.canonical import canonical_form
from hcolour.graphio import encode_graph6
from hcolour.multigraph import Multigraph
from hcolour.named import _regular_multigraphs

KNOWN_SIMPLE_COUNTS = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509}
MAX_N = 14
OUT_DIR = Path(__file__).resolve().parent.parent / "data"

Pseudo = tuple[int, tuple[tuple[int, int], ...]]  # (n, sorted edge slots)


def make_pseudo(n: int, edges) -> Pseudo:
    return n, tuple(sorted(tuple(sorted(e)) for e in edges))


def canon_pseudo(g: Pseudo) -> bytes:
    """Canonical key via the loop-subdivided multigraph.

    Subdividing each loop once yields a loopless multigraph whose degree-2
    vertices are exactly the subdivision points, so the encoding is a
    complete isomorphism invariant for cubic pseudographs.
    """
    n, edges = g
    out = []
    extra = n
    for a, b in edges:
        if a == b:
            out.append((a, extra))
            out.append((a, extra))
            extra += 1
        else:
            out.append((a, b))
    return canonical_form(Multigraph(extra, out))


def is_loopless(g: Pseudo) -> bool:
    return all(a != b for a, b in g[1])


def is_simple(g: Pseudo) -> bool:
    return is_loopless(g) and len(set(g[1])) == len(g[1])


def _subdivide(edges: list, i: int, x: int) -> list:
    a, b = edges[i]
    rest = edges[:i] + edges[i + 1:]
    # a == b (loop) gives the digon a-x, which the formula already covers
    return rest + [(a, x), (x, b)]


def insertions(g: Pseudo):
    """All one-step edge insertions (children on n + 2 vertices)."""
    n, edges = g
    edges = list(edges)
    m = len(edges)
    x, y = n, n + 1
    for i in range(m):
        a, b = edges[i]
        # same slot twice: the path a-x-y-b plus the joining edge
        rest = edges[:i] + edges[i + 1:]
        yield make_pseudo(n + 2, rest + [(a, x), (x, y), (x, y), (y, b)])
        for j in range(i + 1, m):
            once = _subdivide(edges, j, y)  # j first keeps index i stable
            yield make_pseudo(n + 2, _subdivide(once, i, x) + [(x, y)])


def cubic_trees(n: int) -> list[Pseudo]:
    """Trees with every degree 1 or 3, up to isomorphism."""
    level: dict[bytes, Pseudo] = {}
    base = make_pseudo(2, [(0, 1)])
    level[canon_pseudo(base)] = base
    for k in range(2, n, 2):
        nxt: dict[bytes, Pseudo] = {}
        for _, (kn, edges) in level.items():
            for i in range(len(edges)):
                grown = _subdivide(list(edges), i, kn) + [(kn, kn + 1)]
                t = make_pseudo(kn + 2, grown)
                nxt.setdefault(canon_pseudo(t), t)
        level = nxt
    return list(level.values())


def loop_tree_seeds(n: int) -> list[Pseudo]:
    """Irreducible cubic pseudographs on n vertices: loops on tree leaves."""
    seeds = []
    for kn, edges in cubic_trees(n):
        deg = [0] * kn
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        seeds.append(make_pseudo(kn, list(edges) + [(v, v) for v in range(kn) if deg[v] == 1]))
    return seeds


def _expand(args) -> list[tuple[bytes, Pseudo]]:
    parent, keep = args
    out = []
    for child in insertions(parent):
        if keep == "loopless" and not is_loopless(child):
            continue
        if keep == "simple" and not is_simple(child):
            continue
        out.append((canon_pseudo(child), child))
    return out


def next_level(parents: list[Pseudo], keep: str) -> dict[bytes, Pseudo]:
    found: dict[bytes, Pseudo] = {}
    jobs = [(p, keep) for p in parents]
    with ProcessPoolExecutor() as pool:
        for chunk in pool.map(_expand, jobs, chunksize=8):
            for key, child in chunk:
                found.setdefault(key, child)
    return found


def validate_small_orders(levels: dict[int, dict[bytes, Pseudo]]) -> None:
    """Loopless classes at orders 4-8 against direct enumeration: the
    block-sorted multigraphs of _regular_multigraphs, which hold every
    class."""
    for n in (4, 6, 8):
        direct = set()
        for edges in _regular_multigraphs(n, 3):
            G = Multigraph(n, edges)
            if G.is_connected():
                direct.add(canonical_form(G))
        ours = {
            canonical_form(Multigraph(g[0], list(g[1])))
            for g in levels[n].values()
            if is_loopless(g)
        }
        if ours != direct:
            raise SystemExit(
                f"closure mismatch at n={n}: closure {len(ours)} vs "
                f"direct {len(direct)} loopless classes"
            )
        print(f"n={n}: loopless classes match direct enumeration ({len(direct)})")


def main() -> None:
    theta = make_pseudo(2, [(0, 1), (0, 1), (0, 1)])
    dumbbell = make_pseudo(2, [(0, 1), (0, 0), (1, 1)])
    levels: dict[int, dict[bytes, Pseudo]] = {
        2: {canon_pseudo(g): g for g in (theta, dumbbell)}
    }
    for n in range(2, MAX_N, 2):
        t0 = time.perf_counter()
        target = n + 2
        keep = "simple" if target == MAX_N else (
            "loopless" if target == MAX_N - 2 else "all"
        )
        level = next_level(list(levels[n].values()), keep)
        if keep == "all":
            for seed in loop_tree_seeds(target):
                level.setdefault(canon_pseudo(seed), seed)
        levels[target] = level
        simple = sum(1 for g in level.values() if is_simple(g))
        print(
            f"n={target}: {len(level)} classes ({keep}), {simple} simple "
            f"({time.perf_counter() - t0:.1f}s)",
            flush=True,
        )
        expected = KNOWN_SIMPLE_COUNTS[target]
        if simple != expected:
            raise SystemExit(
                f"simple count mismatch at n={target}: got {simple}, "
                f"expected {expected}"
            )

    validate_small_orders(levels)

    OUT_DIR.mkdir(exist_ok=True)
    combined = []
    for n in range(4, MAX_N + 2, 2):
        rows = []
        for g in levels[n].values():
            if not is_simple(g):
                continue
            G = Multigraph(g[0], list(g[1]))
            if not G.bridges():
                rows.append(encode_graph6(G))
        rows.sort()
        (OUT_DIR / f"cubic_bridgeless_{n:02d}.g6").write_text(
            "\n".join(rows) + "\n"
        )
        combined.extend(rows)
        print(f"n={n}: {len(rows)} bridgeless simple graphs written")
    (OUT_DIR / "cubic_bridgeless_le14.g6").write_text("\n".join(combined) + "\n")
    print(f"total: {len(combined)} graphs -> {OUT_DIR / 'cubic_bridgeless_le14.g6'}")


if __name__ == "__main__":
    main()
