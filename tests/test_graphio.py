import random
import re
import tracemalloc

import pytest

from hcolour.canonical import is_isomorphic
from hcolour.colouring import check_colouring
from hcolour.graphio import (
    MAX_ORDER,
    GraphFormatError,
    _read_n,
    certificate_text,
    decode_graph6,
    decode_sparse6,
    decode_record,
    encode_graph6,
    from_edge_list_text,
    ingest_graph6,
    parse_certificate,
    read_graph,
)
from hcolour.multigraph import Multigraph
from hcolour.named import complete, cycle, petersen, s4
from hcolour.solver import solve


def test_decode_graph6_k4():
    G = decode_graph6("C~")
    assert G.n == 4 and G.m == 6
    assert is_isomorphic(G, complete(4).graph)


def test_decode_graph6_rejects_wrong_data_length(tmp_path):
    assert decode_graph6("Bw").m == 3
    for bad in ("Bwwwwww", "Bww", "C"):  # trailing bytes, or too few
        with pytest.raises(GraphFormatError, match="data bytes"):
            decode_graph6(bad)
    path = tmp_path / "trailing.g6"
    path.write_text("Bw\nBwwwwww\n")
    items = list(ingest_graph6(path))
    assert isinstance(items[0][1], Multigraph)
    assert items[1][0] == 2 and isinstance(items[1][1], GraphFormatError)


def test_decode_graph6_header_prefix():
    assert decode_graph6(">>graph6<<C~").m == 6


def test_encode_decode_roundtrip():
    for G in (petersen().graph, cycle(5).graph, complete(7).graph,
              Multigraph(3, []), Multigraph(1, [])):
        back = decode_graph6(encode_graph6(G))
        assert back.n == G.n
        assert sorted(back.edges) == sorted(G.edges)


def test_encode_rejects_parallel_edges():
    with pytest.raises(GraphFormatError):
        encode_graph6(Multigraph(2, [(0, 1), (0, 1)]))


def test_decode_sparse6_known_example():
    # 7 vertices: triangle 0-1-2 plus the edge 5-6
    G = decode_sparse6(":Fa@x^")
    assert G.n == 7
    assert sorted(G.edges) == [(0, 1), (0, 2), (1, 2), (5, 6)]


def test_decode_sparse6_keeps_parallel_edges():
    G = decode_sparse6(":C_kQ")
    assert G.n == 4
    assert sorted(G.edges) == [(0, 1), (0, 1), (0, 3), (1, 2), (2, 3), (2, 3)]


def test_decode_sparse6_rejects_loops():
    with pytest.raises(GraphFormatError, match="loops"):
        decode_sparse6(":@N")  # one vertex with a loop


def test_decode_sparse6_networkx_multigraph_roundtrip():
    nx = pytest.importorskip("networkx")
    rng = random.Random(6)
    for _ in range(200):
        n = rng.choice([2, 3, 4, 5, 8, 9, 16, 17, 63, 70])
        edges = []
        for _ in range(rng.randrange(3 * n)):
            a, b = sorted(rng.sample(range(n), 2))
            edges.append((a, b))
        H = nx.MultiGraph()
        H.add_nodes_from(range(n))
        H.add_edges_from(edges)
        G = decode_sparse6(nx.to_sparse6_bytes(H, header=False).decode("ascii"))
        assert G.n == n
        assert sorted(G.edges) == sorted(edges)


def test_decode_graph6_networkx_roundtrip():
    nx = pytest.importorskip("networkx")
    rng = random.Random(6)
    for n in (0, 1, 2, 62, 63, 64, 100, 300):  # 63 and up take the four-byte size form
        for p in (0.0, 0.1, 0.5, 1.0):
            H = nx.gnp_random_graph(n, p, seed=rng.randrange(2**32))
            G = decode_graph6(nx.to_graph6_bytes(H, header=False).decode("ascii"))
            assert G.n == n
            assert sorted(G.edges) == sorted(tuple(sorted(e)) for e in H.edges())


def test_decode_sparse6_requires_colon():
    with pytest.raises(GraphFormatError):
        decode_sparse6("C~")


def test_ingest_mixed_file(tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text(
        "# a comment\n"
        + encode_graph6(complete(4).graph) + "\n"
        + "\n"
        + ":Fa@x^\n"
        + "!!notag6!!\n"
        + encode_graph6(cycle(5).graph) + "\n"
    )
    items = list(ingest_graph6(path))
    assert len(items) == 4
    good = [g for _, g in items if isinstance(g, Multigraph)]
    bad = [(ln, e) for ln, e in items if isinstance(e, GraphFormatError)]
    assert len(good) == 3
    assert len(bad) == 1
    assert bad[0][0] == 5  # line number of the malformed record


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    assert list(ingest_graph6(path)) == []


def test_certificate_roundtrip():
    host, guest = s4().graph, petersen().graph
    c = solve(host, guest).witness
    text = certificate_text(c, "s4", "petersen")
    back = parse_certificate(text, host, guest)
    assert back.edge_map == c.edge_map
    assert check_colouring(back).ok


def test_certificate_digest_mismatch():
    host, guest = s4().graph, petersen().graph
    text = certificate_text(solve(host, guest).witness, "s4", "petersen")
    with pytest.raises(GraphFormatError):
        parse_certificate(text, cycle(5).graph, guest)


def test_certificate_header_lines():
    # solve's stdout checks as it is, and a reference may hold spaces
    host, guest = s4().graph, petersen().graph
    c = solve(host, guest).witness
    text = certificate_text(c, "my host.txt", "petersen")
    back = parse_certificate("status sat\ncount 480\n" + text, host, guest)
    assert back.edge_map == c.edge_map
    for line in ("status unsat", "status unknown", "status", "count",
                 "count -1", "count 4 8", "count ４", "hosts s4 x"):
        with pytest.raises(GraphFormatError, match="bad header line"):
            parse_certificate(line + "\n" + text, host, guest)


def test_certificate_partial_map_rejected():
    host, guest = s4().graph, petersen().graph
    text = certificate_text(solve(host, guest).witness, "s4", "petersen")
    truncated = "\n".join(text.splitlines()[:-1]) + "\n"
    with pytest.raises(GraphFormatError):
        parse_certificate(truncated, host, guest)


def test_size_prefix_order_limit():
    # MAX_ORDER in the four-byte and the eight-byte size form
    assert _read_n(b"~}~~") == (MAX_ORDER, b"")
    assert _read_n(b"~~???}~~") == (MAX_ORDER, b"")
    over = [(":~~???~??", MAX_ORDER + 1), (":~~?@????", 2**24),
            (":~~~~~~~~", 2**36 - 1), ("~~~~~~~~", 2**36 - 1)]
    tracemalloc.start()
    try:
        for record, order in over:
            decode = decode_sparse6 if record.startswith(":") else decode_graph6
            with pytest.raises(GraphFormatError, match=f"^order {order} exceeds {MAX_ORDER}$"):
                decode(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the announced order is never allocated


@pytest.mark.parametrize("record, message", [
    ("\x7f???", "invalid size byte"),  # DEL is not '~'
    (":\x7f???", "invalid size byte"),
    ("~~?????\x7f" + "?" * 336, "invalid data byte 127"),  # a bad eight-byte size
    ("~?!~", "invalid data byte 33"),  # a bad four-byte size
], ids=["graph6-del", "sparse6-del", "eight-byte-size", "four-byte-size"])
def test_size_prefix_rejects_a_byte_outside_63_to_126(record, message):
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        decode_record(record)


@pytest.mark.parametrize("text, lineno, line", [
    ("11 1\n0 1_0\n", 2, "0 1_0"),
    ("2 1\n+1 0\n", 2, "+1 0"),
    ("\u0663 1\n0 1\n", 1, "\u0663 1"),  # ARABIC-INDIC DIGIT THREE
])
def test_edge_list_fields_are_ascii_digits(text, lineno, line):
    with pytest.raises(ValueError,
                       match=f"^line {lineno}: expected two integers, got '{re.escape(line)}'$"):
        from_edge_list_text(text)


@pytest.mark.parametrize("decode, record", [
    (decode_record, "\u0663 1"),  # ARABIC-INDIC DIGIT THREE
    (decode_graph6, "\u0663 1"),
    (decode_sparse6, ":\u0663"),
    (decode_record, ">>sparse6<<:\u0663"),
])
def test_a_non_ascii_record_is_a_format_error(decode, record):
    with pytest.raises(GraphFormatError, match="^record is not ASCII$"):
        decode(record)


def _noisy(lines: list[str]) -> bytes:
    """lines with comments, some indented, and blank lines between them, and
    CRLF line ends."""
    noise = ["  # an indented note", "", *lines[:1], "\t# another", " ", *lines[1:], ""]
    return "\r\n".join(noise).encode("ascii")


@pytest.mark.parametrize("reader", ["edge list", "one-record file", "ingest", "certificate"])
def test_every_reader_skips_comments_blank_lines_and_crs(reader, tmp_path):
    record = encode_graph6(petersen().graph)
    P = decode_graph6(record)
    path = tmp_path / "g"
    if reader == "edge list":
        text = _noisy(["3 3", "0 1", "1 2", "0 2"]).decode("ascii")
        assert from_edge_list_text(text) == Multigraph(3, [(0, 1), (1, 2), (0, 2)])
    elif reader == "one-record file":
        path.write_bytes(_noisy([record]))
        assert read_graph(path) == P
    elif reader == "ingest":
        path.write_bytes(_noisy([record, ":Fa@x^"]))
        assert list(ingest_graph6(path)) == [(3, P), (6, decode_sparse6(":Fa@x^"))]
    else:
        host = s4().graph
        c = solve(host, P).witness
        text = _noisy(certificate_text(c, "s4", "petersen").splitlines()).decode("ascii")
        assert parse_certificate(text, host, P).edge_map == c.edge_map


@pytest.mark.parametrize("fmt", ["edge list", "sparse6"])
def test_read_graph_takes_multiplicities_the_canonical_form_encodes(fmt, tmp_path):
    path = tmp_path / "g.txt"
    for count in (255, 256):
        if fmt == "edge list":
            path.write_text(f"2 {count}\n" + "0 1\n" * count)
        else:
            nx = pytest.importorskip("networkx")
            H = nx.MultiGraph([(0, 1)] * count)
            path.write_bytes(nx.to_sparse6_bytes(H, header=False))
        if count == 255:
            assert read_graph(path).edges == ((0, 1),) * 255
        else:
            with pytest.raises(ValueError,
                               match="^edge multiplicities above 255 are not supported$"):
                read_graph(path)
