"""graph6/sparse6 ingestion and colouring certificates."""

from __future__ import annotations

import os
from typing import Iterator, Optional

from .canonical import canonical_digest
from .colouring import Colouring
from .multigraph import MAX_ORDER, Multigraph


class GraphFormatError(ValueError):
    def __init__(self, message: str, lineno: Optional[int] = None):
        self.lineno = lineno
        super().__init__(message if lineno is None else f"line {lineno}: {message}")


def _read_n(data: bytes) -> tuple[int, bytes]:
    """A graph6/sparse6 size prefix's order, at most MAX_ORDER, and the rest."""
    if not data:
        raise GraphFormatError("empty record")
    first = data[0] - 63
    if first < 0:
        raise GraphFormatError("invalid size byte")
    if first <= 62:
        return first, data[1:]
    if len(data) >= 4 and data[1] - 63 <= 62:
        size, rest = data[1:4], data[4:]
    elif len(data) >= 8:
        size, rest = data[2:8], data[8:]
    else:
        raise GraphFormatError("truncated size prefix")
    n = 0
    for b in size:
        n = (n << 6) | (b - 63)
    if n > MAX_ORDER:
        raise GraphFormatError(f"order {n} exceeds {MAX_ORDER}")
    return n, rest


def _bit_stream(data: bytes) -> Iterator[int]:
    for b in data:
        v = b - 63
        if not (0 <= v <= 63):
            raise GraphFormatError(f"invalid data byte {b}")
        for shift in (5, 4, 3, 2, 1, 0):
            yield (v >> shift) & 1


def decode_graph6(line: str) -> Multigraph:
    """Decode one graph6 record (simple graphs)."""
    data = line.strip().encode("ascii")
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    n, rest = _read_n(data)
    need = -(-n * (n - 1) // 12)  # ceil(n(n-1)/2 bits / 6 bits per byte)
    if len(rest) != need:
        raise GraphFormatError(
            f"graph6 record for n={n} needs {need} data bytes, got {len(rest)}"
        )
    bits = _bit_stream(rest)
    edges = []
    for j in range(1, n):
        for i in range(j):
            if next(bits):
                edges.append((i, j))
    return Multigraph(n, edges)


def encode_graph6(G: Multigraph) -> str:
    """Encode a simple graph as graph6 (n < 63 is all this package needs)."""
    if G.n >= 63:
        raise GraphFormatError("graph6 encoding implemented for n < 63 only")
    present = set()
    for a, b in G.edges:
        if (a, b) in present:
            raise GraphFormatError("graph6 cannot encode parallel edges")
        present.add((a, b))
    bits = []
    for j in range(1, G.n):
        for i in range(j):
            bits.append(1 if (i, j) in present else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(G.n + 63)]
    for k in range(0, len(bits), 6):
        v = 0
        for bit in bits[k:k + 6]:
            v = (v << 1) | bit
        out.append(chr(v + 63))
    return "".join(out)


def decode_sparse6(line: str) -> Multigraph:
    """Decode one sparse6 record; parallel edges are kept, loops are rejected."""
    data = line.strip().encode("ascii")
    if data.startswith(b">>sparse6<<"):
        data = data[11:]
    if not data.startswith(b":"):
        raise GraphFormatError("sparse6 record must start with ':'")
    n, rest = _read_n(data[1:])
    k = max(1, (n - 1).bit_length())
    bits = list(_bit_stream(rest))
    edges = []
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = 0
        for bit in bits[pos + 1:pos + 1 + k]:
            x = (x << 1) | bit
        pos += 1 + k
        if b:
            v += 1
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


def ingest_graph6(path: str | os.PathLike) -> Iterator[tuple[int, Multigraph | GraphFormatError]]:
    """Stream (line number, graph-or-error) pairs from a graph6/sparse6 file.

    Malformed records, non-ASCII bytes among them, are yielded as errors so
    batch runs can continue: each line is decoded on its own.
    """
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith(b"#"):
                continue
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
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
                parts[0] == "count" and len(parts) == 2
                and parts[1].isascii() and parts[1].isdigit()
            ):
                raise GraphFormatError(f"bad header line {line!r}", lineno)
        else:
            # two fields of ASCII digits: int() would also take a sign, "1_0"
            # or non-ASCII digits
            if len(parts) != 2 or not all(f.isascii() and f.isdigit() for f in parts):
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
