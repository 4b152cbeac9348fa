"""Reader and writer for the short-form graph6 text format.

One graph per line.  The first byte encodes the order as n + 63 (n <= 62
only), followed by the upper triangle of the adjacency matrix in the
colex slot order of `graphs.edge_slots`, packed into 6-bit groups, each
group offset by 63, zero-padded at the end.

Decoding reads each data byte's share of the adjacency rows straight from
the per-order tables of `graphs._row_tables`, indexed by the byte's raw
value, and ORs them; no edge mask is built.  An entry is None for a byte
outside 63..126 or a last byte with padding bits set, and only then does
decoding work out which error to raise.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graphs import _REVERSED6, Graph, _row_tables, edge_slots, mask_of_graph

HEADER = ">>graph6<<"
_PRINTABLE = "".join(map(chr, range(63, 127)))


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
    body = line.rstrip("\r\n")
    if body.startswith(HEADER):
        return _decode(body[len(HEADER):], len(HEADER))
    return _decode(body, 0)


def _decode(body: str, base: int) -> Graph:
    """Decode a record with no header and no line end; error offsets are
    base plus the offset into body."""
    if not body:
        raise Graph6FormatError("empty record", base)
    first = ord(body[0])
    if first == 126:
        raise Graph6FormatError("long-form record (n > 62) not supported", base)
    if not 63 <= first <= 126:
        raise Graph6FormatError(f"byte {first} outside printable range 63..126", base)
    n = first - 63
    nbytes = (n * (n - 1) // 2 + 5) // 6
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

    tables, width, unpack = _row_tables(n)
    packed = 0
    try:
        # latin-1 maps characters 0..255 to bytes of the same value
        for table, c in zip(tables, body[1:].encode("latin-1")):
            packed |= table[c]
    except (TypeError, UnicodeEncodeError):  # a None entry, or a character above 255
        k = len(body) - len(body[1:].lstrip(_PRINTABLE))  # the first byte outside 63..126
        if k < len(body):
            raise Graph6FormatError(
                f"byte {ord(body[k])} outside printable range 63..126", base + k) from None
        raise Graph6FormatError("nonzero padding bits", base + nbytes) from None
    return Graph._from_rows_unchecked(n, unpack.unpack(packed.to_bytes(width, "little")))


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
    stream only, and byte offsets on that line count from after it; on a
    later line it is a format error at byte 0.  With strict=True a
    malformed line raises Graph6FormatError carrying its line number; with
    strict=False bad lines are skipped and appended to `bad` as
    (lineno, error) when a list is supplied.
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
            # decode_graph6, the per-record decode, would strip a header
            # again; past the start of the stream it is a malformed record
            yield lineno, _decode(body, 0) if body.startswith(HEADER) else decode_graph6(body)
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
