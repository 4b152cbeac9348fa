"""Reader and writer for the short-form graph6 text format.

One graph per line.  The first byte encodes the order as n + 63 (n <= 62
only), followed by the upper triangle of the adjacency matrix in the
colex slot order of `graphs.edge_slots`, packed into 6-bit groups, each
group offset by 63, zero-padded at the end.

Decoding checks every byte, gathers the record's edge mask and hands it
to `graphs.graph_from_mask`, which turns it into adjacency rows through
per-order lookup tables (one per 6-bit group of the mask), built the
first time an order is decoded.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import Graph, edge_slots, graph_from_mask, mask_of_graph

HEADER = ">>graph6<<"
# Byte k of a record carries data bits 6k..6k+5 from its high bit down,
# so a 6-bit group read in reverse is that byte's share of the edge mask.
_REVERSED6 = tuple(int(f"{c:06b}"[::-1], 2) for c in range(64))


class Graph6FormatError(ValueError):
    """Malformed graph6 input; carries the byte offset and line number."""

    def __init__(self, message: str, offset: int, lineno: int | None = None):
        self.message = message
        self.offset = offset
        self.lineno = lineno
        where = f"byte {offset}" if lineno is None else f"line {lineno}, byte {offset}"
        super().__init__(f"{message} ({where})")


def decode_graph6(line: str) -> Graph:
    """Decode one short-form graph6 record into a Graph.

    A leading ">>graph6<<" header is tolerated and stripped; byte offsets
    in errors refer to the line as given.
    """
    base = 0
    body = line.rstrip("\r\n")
    if body.startswith(HEADER):
        base = len(HEADER)
        body = body[base:]
    if not body:
        raise Graph6FormatError("empty record", base)
    first = ord(body[0])
    if first == 126:
        raise Graph6FormatError("long-form record (n > 62) not supported", base)
    if not 63 <= first <= 126:
        raise Graph6FormatError(f"byte {first} outside printable range 63..126", base)
    n = first - 63
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) - 1 < nbytes:
        raise Graph6FormatError(
            f"truncated record: order {n} needs {nbytes} data bytes, got {len(body) - 1}",
            base + len(body),
        )
    if len(body) - 1 > nbytes:
        raise Graph6FormatError(
            f"trailing bytes after record of order {n}", base + 1 + nbytes
        )
    if n == 0:
        raise Graph6FormatError("graph of order 0 not supported", base)

    mask = 0
    for k in range(nbytes):
        c = ord(body[1 + k])
        if not 63 <= c <= 126:
            raise Graph6FormatError(
                f"byte {c} outside printable range 63..126", base + 1 + k
            )
        mask |= _REVERSED6[c - 63] << 6 * k
    if mask >> nbits:
        raise Graph6FormatError("nonzero padding bits", base + nbytes)
    return graph_from_mask(n, mask)


def encode_graph6(g: Graph) -> str:
    """Encode a Graph as a short-form graph6 record (no trailing newline)."""
    if g.n > 62:
        raise ValueError(f"cannot encode order {g.n} > 62 in short form")
    mask = mask_of_graph(g)
    nbytes = (len(edge_slots(g.n)) + 5) // 6
    return chr(g.n + 63) + "".join(chr(_REVERSED6[mask >> 6 * k & 63] + 63)
                                   for k in range(nbytes))


def stream_graph6(
    lines: Iterable[str],
    strict: bool = True,
    bad: list | None = None,
) -> Iterator[tuple[int, Graph]]:
    """Yield (lineno, graph) for each nonblank line of a graph6 stream.

    The optional ">>graph6<<" header is accepted at the start of the
    stream only.  With strict=True a malformed line raises Graph6FormatError
    carrying its line number; with strict=False bad lines are skipped and
    appended to `bad` as (lineno, error) when a list is supplied.
    """
    first = True
    for lineno, raw in enumerate(lines, start=1):
        body = raw.rstrip("\r\n")
        if first and body.startswith(HEADER):
            body = body[len(HEADER):]
        first = False
        if not body:
            continue
        try:
            yield lineno, decode_graph6(body)
        except Graph6FormatError as err:
            if strict:
                raise Graph6FormatError(err.message, err.offset, lineno) from None
            if bad is not None:
                bad.append((lineno, Graph6FormatError(err.message, err.offset, lineno)))


def read_graph6_file(path: str, strict: bool = True, bad: list | None = None):
    """Stream a graph6 corpus file lazily.

    latin-1 reads each byte as one character and only "\\n" ends a line,
    so a byte above 126 or a lone carriage return fails decode_graph6's
    checks with its line and offset like any other bad byte.
    """
    with open(path, "r", encoding="latin-1", newline="\n") as fh:
        yield from stream_graph6(fh, strict=strict, bad=bad)
