"""Graph text, read and written: edge lists, graph6/sparse6 (McKay's
formats.txt) and colouring certificates.  Every reader takes lines by one
rule (_data_lines), integer fields by one rule (is_digits) and graph6 bytes
through one 6-bit reader (_bits), so malformed text raises."""

from __future__ import annotations

import os
from typing import AnyStr, Iterable, Iterator, Optional

from .canonical import canonical_digest, check_multiplicity
from .colouring import Colouring
from .multigraph import Multigraph

# the largest order a graph input may announce, the most that graph6's
# four-byte size form encodes; inputs check it before allocating anything
MAX_ORDER = 258_047


class GraphFormatError(ValueError):
    def __init__(self, message: str, lineno: Optional[int] = None):
        self.lineno = lineno
        super().__init__(message if lineno is None else f"line {lineno}: {message}")


def _data_lines(lines: Iterable[AnyStr],
                comment: AnyStr = "#") -> Iterator[tuple[int, AnyStr]]:
    """(line number from 1, stripped line) for each line that is neither
    blank nor a comment; bytes lines take comment=b"#"."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith(comment):
            yield lineno, line


def is_digits(field: str) -> bool:
    """Whether a text field is an integer: ASCII digits only.  int() would
    also take a sign, "1_0" or a non-ASCII digit such as U+0663."""
    return field.isascii() and field.isdigit()


# each graph6 byte 63..126 as its 6 bits, highest first
_SIX_BITS = {b: f"{b - 63:06b}" for b in range(63, 127)}


def _bits(data: bytes) -> str:
    """The bits that graph6 bytes spell, 6 a byte; a string, not an int, so
    reading a field does not cost the record's length."""
    try:
        return "".join([_SIX_BITS[b] for b in data])
    except KeyError as exc:
        raise GraphFormatError(f"invalid data byte {exc.args[0]}") from None


def _read_n(data: bytes) -> tuple[int, bytes]:
    """A graph6/sparse6 size prefix's order, at most MAX_ORDER, and the rest.

    A byte 63..125 is the order itself; only '~' (126) opens the long
    forms, three size bytes after one '~' or six after two."""
    if not data:
        raise GraphFormatError("empty record")
    if not 63 <= data[0] <= 126:
        raise GraphFormatError("invalid size byte")
    if data[0] < 126:
        return data[0] - 63, data[1:]
    if len(data) >= 4 and data[1] != 126:
        size, rest = data[1:4], data[4:]
    elif len(data) >= 8:
        size, rest = data[2:8], data[8:]
    else:
        raise GraphFormatError("truncated size prefix")
    n = int(_bits(size), 2)
    if n > MAX_ORDER:
        raise GraphFormatError(f"order {n} exceeds {MAX_ORDER}")
    return n, rest


def _record_bytes(line: str, header: bytes) -> bytes:
    """A record's bytes: stripped, ASCII, and without its header."""
    line = line.strip()
    if not line.isascii():
        raise GraphFormatError("record is not ASCII")
    return line.encode().removeprefix(header)


def decode_graph6(line: str) -> Multigraph:
    """Decode one graph6 record (simple graphs)."""
    data = _record_bytes(line, b">>graph6<<")
    n, rest = _read_n(data)
    need = -(-n * (n - 1) // 12)  # ceil(n(n-1)/2 bits / 6 bits per byte)
    if len(rest) != need:
        raise GraphFormatError(
            f"graph6 record for n={n} needs {need} data bytes, got {len(rest)}"
        )
    bits = _bits(rest)
    # the upper triangle column by column: bit j(j-1)/2 + i is the pair (i, j)
    return Multigraph(n, [(i, j) for j in range(1, n) for i in range(j)
                          if bits[j * (j - 1) // 2 + i] == "1"])


def encode_graph6(G: Multigraph) -> str:
    """Encode a simple graph as graph6 (n < 63 is all this package needs)."""
    if G.n >= 63:
        raise GraphFormatError("graph6 encoding implemented for n < 63 only")
    present = set()
    for a, b in G.edges:
        if (a, b) in present:
            raise GraphFormatError("graph6 cannot encode parallel edges")
        present.add((a, b))
    bits = "".join("1" if (i, j) in present else "0"
                   for j in range(1, G.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    return chr(G.n + 63) + "".join(chr(int(bits[k:k + 6], 2) + 63)
                                   for k in range(0, len(bits), 6))


def decode_sparse6(line: str) -> Multigraph:
    """Decode one sparse6 record; parallel edges are kept, loops are rejected."""
    data = _record_bytes(line, b">>sparse6<<")
    if not data.startswith(b":"):
        raise GraphFormatError("sparse6 record must start with ':'")
    n, rest = _read_n(data[1:])
    k = max(1, (n - 1).bit_length())
    bits = _bits(rest)
    edges = []
    v = 0
    # fields of 1 + k bits: b, then x; a short tail is padding
    for pos in range(0, len(bits) - k, k + 1):
        if bits[pos] == "1":
            v += 1
        x = int(bits[pos + 1:pos + 1 + k], 2)
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            if x == v:
                raise GraphFormatError("loops are not supported")
            edges.append((x, v))
    return Multigraph(n, edges)


def decode_record(line: str) -> Multigraph:
    """Decode one record: sparse6 if it starts with ':' or its header, else graph6."""
    line = line.strip()
    if line.startswith((":", ">>sparse6<<")):
        return decode_sparse6(line)
    return decode_graph6(line)


def to_edge_list_text(G: Multigraph, comments: Iterable[str] = ()) -> str:
    """Serialize as the plain text format: '# ...' comments, 'n m', then edges."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{G.n} {G.m}")
    lines.extend(f"{a} {b}" for a, b in G.edges)
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str, name: str = "") -> Multigraph:
    """Parse the text edge-list format; edge ids follow line order."""
    header = None
    edges = []
    for lineno, line in _data_lines(text.splitlines()):
        parts = line.split()
        if len(parts) != 2 or not all(map(is_digits, parts)):
            raise ValueError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:  # more digits than int() converts
            raise ValueError(f"line {lineno}: {exc}") from None
        if header is None:
            if a > MAX_ORDER:
                raise ValueError(f"line {lineno}: order {a} exceeds {MAX_ORDER}")
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise ValueError("empty input: missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise ValueError(f"header announces {m} edges but {len(edges)} were given")
    return Multigraph(n, edges, name=name)


def read_graph(path: str | os.PathLike, name: str = "") -> Multigraph:
    """The one graph in a file: an edge list, given the name name, if its
    first line of data is one or two integers, else one graph6/sparse6 record."""
    with open(path) as fh:
        text = fh.read()
    records = [line for _, line in _data_lines(text.splitlines())]
    if not records:
        raise ValueError("no graph data found")
    first = records[0].split()
    if len(first) <= 2 and all(map(is_digits, first)):
        G = from_edge_list_text(text, name)
    elif len(records) > 1:
        raise ValueError(f"{len(records)} graph records; expected one")
    else:
        G = decode_record(records[0])
    check_multiplicity(G)  # else printing its digest would raise
    return G


def ingest_graph6(path: str | os.PathLike) -> Iterator[tuple[int, Multigraph | GraphFormatError]]:
    """Stream (line number, graph-or-error) pairs from a graph6/sparse6 file.

    Malformed records, non-ASCII bytes among them, are yielded as errors so
    batch runs can continue: each line is decoded on its own.
    """
    with open(path, "rb") as fh:
        for lineno, line in _data_lines(fh, b"#"):
            try:
                item = decode_record(line.decode("ascii"))
            except ValueError as exc:  # UnicodeDecodeError is one
                item = GraphFormatError(str(exc), lineno)
            yield lineno, item


# -- colouring certificates ------------------------------------------------

def certificate_text(c: Colouring, host_name: str = "", guest_name: str = "") -> str:
    """Serialize a colouring with canonical digests of both graphs."""
    lines = [
        "# hcolour certificate",
        f"host {host_name or c.host.name or '-'} {canonical_digest(c.host)}",
        f"guest {guest_name or c.guest.name or '-'} {canonical_digest(c.guest)}",
        "map",
    ]
    lines.extend(f"{g} {h}" for g, h in c.pairs())
    return "\n".join(lines) + "\n"


def parse_certificate(
    text: str, host: Multigraph, guest: Multigraph
) -> Colouring:
    """Parse a certificate and bind it to the given graphs.

    The digest is the last field of the host and guest lines, so a graph
    reference may contain spaces.  The "status sat" and "count N" lines
    that hcolour solve prints before the certificate are accepted, so its
    stdout checks as it is.  Raises on digest mismatch, any other header
    line or malformed mapping lines; validity of the colouring itself is
    the caller's business (check_colouring).
    """
    host_digest = guest_digest = None
    mapping: dict[int, int] = {}
    in_map = False
    for lineno, line in _data_lines(text.splitlines()):
        if line == "map":
            in_map = True
            continue
        parts = line.split()
        if not in_map:
            if parts[0] == "host" and len(parts) >= 3:
                host_digest = parts[-1]
            elif parts[0] == "guest" and len(parts) >= 3:
                guest_digest = parts[-1]
            elif parts != ["status", "sat"] and not (
                parts[0] == "count" and len(parts) == 2 and is_digits(parts[1])
            ):
                raise GraphFormatError(f"bad header line {line!r}", lineno)
        else:
            if len(parts) != 2 or not all(map(is_digits, parts)):
                raise GraphFormatError(f"bad mapping line {line!r}", lineno)
            g, h = int(parts[0]), int(parts[1])
            if g in mapping:
                raise GraphFormatError(f"duplicate guest edge {g}", lineno)
            mapping[g] = h
    if host_digest != canonical_digest(host):
        raise GraphFormatError("host digest mismatch")
    if guest_digest != canonical_digest(guest):
        raise GraphFormatError("guest digest mismatch")
    if sorted(mapping) != list(range(guest.m)):
        raise GraphFormatError("mapping is not total over guest edges")
    return Colouring(host, guest, tuple(mapping[g] for g in range(guest.m)))
