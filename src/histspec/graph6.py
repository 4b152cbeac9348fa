"""Reader and writer for the short-form graph6 text format.

One graph per line.  The first byte encodes the order as n + 63 (n <= 62
only), followed by the upper triangle of the adjacency matrix in the
colex slot order of `graphs.edge_slots`, packed into 6-bit groups, each
group offset by 63, zero-padded at the end.

Decoding reads each data byte's share of the adjacency rows straight from
the per-order tables of `graphs._row_tables`, indexed by the byte's raw
value, and adds them (the shares are disjoint, so the sum is their OR); no
edge mask is built.  An entry is None for a byte outside 63..126 or a last
byte with padding bits set.  A record of the length its order byte
calls for is decoded at once; every other line, and a record that meets
a None entry, goes through the checks of `_decode`, which raise the
first error.
"""

from __future__ import annotations

from functools import cache
from operator import getitem
from typing import Callable, Iterable, Iterator

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
    length, decode = _record_decoder(body[:1])
    if len(body) == length:
        try:
            return decode(body)
        except (TypeError, UnicodeEncodeError):  # a None entry, or a character above 255
            pass  # _decode names the byte
    if body.startswith(HEADER):
        return _decode(body[len(HEADER):], len(HEADER))
    return _decode(body, 0)


@cache
def _record_decoder(order_byte: str) -> tuple[int, Callable[[str], Graph] | None]:
    """The record length and the decoder of the short-form records whose
    first character is `order_byte`, built on first use; (-1, None) when
    it names no order 1..62.

    The decoder takes a record of that length.  It raises TypeError on a
    byte outside 63..126 or set padding bits (a None entry), and
    UnicodeEncodeError on a character above 255.
    """
    n = ord(order_byte) - 63 if len(order_byte) == 1 else -1
    if not 1 <= n <= 62:
        return -1, None
    tables, width, unpack = _row_tables(n)
    unpack = unpack.unpack

    def decode(body: str) -> Graph:
        # latin-1 maps characters 0..255 to bytes of the same value
        packed = sum(map(getitem, tables, body[1:].encode("latin-1")))
        return Graph._from_rows_unchecked(n, unpack(packed.to_bytes(width, "little")))

    return 1 + len(tables), decode


def _decode(body: str, base: int) -> Graph:
    """Decode a record with no header and no line end, checking it in
    full; error offsets are base plus the offset into body."""
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

    try:
        return _record_decoder(body[0])[1](body)
    except (TypeError, UnicodeEncodeError):
        k = len(body) - len(body[1:].lstrip(_PRINTABLE))  # the first byte outside 63..126
        if k < len(body):
            raise Graph6FormatError(
                f"byte {ord(body[k])} outside printable range 63..126", base + k) from None
        raise Graph6FormatError("nonzero padding bits", base + nbytes) from None


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
    for lineno, raw in enumerate(lines, start=1):
        try:
            # ">" (byte 62) sorts below every order byte, and a blank line,
            # a header and any byte below 63 sort at or below it
            if raw[:1] > ">":
                yield lineno, decode_graph6(raw)
                continue
            body = raw.rstrip("\r\n")
            if lineno == 1 and body.startswith(HEADER):
                body = body[len(HEADER):]
            if body:
                # decode_graph6 would strip a header again; past the start
                # of the stream it is a malformed record
                yield lineno, decode_graph6(body) if body[:1] > ">" else _decode(body, 0)
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
