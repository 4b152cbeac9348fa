import functools
import random
import re

import pytest

from histspec import (
    Graph,
    Graph6FormatError,
    complete,
    decode_graph6,
    encode_graph6,
    family_B,
    read_graph6_file,
    stream_graph6,
)
from histspec.graphs import graph_from_mask, mask_of_graph

from helpers import all_labeled_graphs


def test_hand_encoded_vectors():
    # order byte is n + 63; triangle bits packed high-to-low in 6-bit
    # groups, each + 63.  Worked out by hand from the format definition.
    assert decode_graph6("A_") == complete(2)
    assert encode_graph6(complete(2)) == "A_"
    assert encode_graph6(Graph(1)) == "@"
    assert decode_graph6("@") == Graph(1)
    assert decode_graph6("D??") == Graph(5)
    assert encode_graph6(Graph(5)) == "D??"
    assert encode_graph6(complete(4)) == "C~"
    # path 0-1-2-3: bits (0,1),(1,2),(2,3) -> 101001 -> 'h'
    assert encode_graph6(Graph(4, [(0, 1), (1, 2), (2, 3)])) == "Ch"
    # Every order-5 graph against the format's own statement of the bit
    # order, spelled out here: columns j, then rows i < j.  Round trips
    # cannot see an order error that encode and decode share; this can.
    pairs = [(i, j) for j in range(1, 5) for i in range(j)]
    for g in all_labeled_graphs(5):
        bits = "".join("1" if g.has_edge(i, j) else "0" for i, j in pairs) + "00"
        packed = "".join(chr(int(bits[k:k + 6], 2) + 63) for k in range(0, 12, 6))
        assert encode_graph6(g) == chr(5 + 63) + packed
        mask = mask_of_graph(g)
        assert [mask >> b & 1 for b in range(10)] == [g.has_edge(i, j) for i, j in pairs]


def test_round_trip_every_order_against_spelled_out_bits():
    # Random graphs of every short-form order, the word-size boundaries
    # 8/9, 16/17 and 32/33 of the decode tables among them, against a
    # record and an edge mask spelled out pair by pair in the format's bit
    # order: columns j, then rows i < j, zero-padded to whole 6-bit groups.
    rng = random.Random(62)
    for n in range(1, 63):
        pairs = [(i, j) for j in range(1, n) for i in range(j)]
        for p in (0.0, 0.1, 0.5, 0.9, 1.0):
            edges = {e for e in pairs if rng.random() < p}
            g = Graph(n, edges)
            bits = "".join("1" if e in edges else "0" for e in pairs)
            bits += "0" * (-len(bits) % 6)
            record = chr(n + 63) + "".join(
                chr(int(bits[k:k + 6], 2) + 63) for k in range(0, len(bits), 6))
            mask = sum(1 << b for b, e in enumerate(pairs) if e in edges)
            assert encode_graph6(g) == record
            assert decode_graph6(record) == g
            assert mask_of_graph(g) == mask
            assert graph_from_mask(n, mask) == g
            assert all(type(row) is int for row in decode_graph6(record).rows)


def test_header_tolerated():
    assert decode_graph6(">>graph6<<A_") == complete(2)


def test_round_trip_family():
    b8 = family_B(8)
    assert decode_graph6(encode_graph6(b8)) == b8


def test_round_trip_exhaustive_small():
    for n in range(1, 6):
        for g in all_labeled_graphs(n):
            assert decode_graph6(encode_graph6(g)) == g


def test_encode_rejects_large():
    with pytest.raises(ValueError):
        encode_graph6(Graph(63))


def test_format_errors_carry_offsets():
    with pytest.raises(Graph6FormatError) as exc:
        decode_graph6("")
    assert exc.value.offset == 0

    with pytest.raises(Graph6FormatError) as exc:
        decode_graph6("~??")  # long form marker
    assert exc.value.offset == 0

    with pytest.raises(Graph6FormatError) as exc:
        decode_graph6("D?")  # truncated: order 5 needs 2 data bytes
    assert exc.value.offset == 2

    with pytest.raises(Graph6FormatError) as exc:
        decode_graph6("D???")  # trailing byte
    assert exc.value.offset == 3

    with pytest.raises(Graph6FormatError) as exc:
        decode_graph6("B" + chr(40))  # byte below 63
    assert exc.value.offset == 1

    # nonzero padding: order 2 has one data bit, five padding bits
    with pytest.raises(Graph6FormatError) as exc:
        decode_graph6("A" + chr(63 + 1))
    assert exc.value.offset == 1
    assert "padding" in str(exc.value)

    # order 7 has 21 data bits in four bytes, order 62 has 1,891 in 316:
    # the low bit of the last byte is padding, reported at that byte
    for n, nbytes in ((7, 4), (62, 316)):
        with pytest.raises(Graph6FormatError, match="nonzero padding bits") as exc:
            decode_graph6(chr(n + 63) + "?" * (nbytes - 1) + chr(63 + 1))
        assert exc.value.offset == nbytes


def test_stream_reads_with_line_numbers():
    lines = [">>graph6<<A_", "", "C~", "D??"]
    got = list(stream_graph6(lines))
    assert [ln for ln, _ in got] == [1, 3, 4]
    assert got[0][1] == complete(2)
    assert got[1][1] == complete(4)


def test_stream_strict_raises_with_lineno():
    with pytest.raises(Graph6FormatError) as exc:
        list(stream_graph6(["A_", "garbage\x19"]))
    assert exc.value.lineno == 2


def test_stream_skip_and_count():
    bad = []
    got = list(stream_graph6(["A_", "~bad", "C~"], strict=False, bad=bad))
    assert len(got) == 2
    assert len(bad) == 1 and bad[0][0] == 2


def test_file_byte_above_ascii_is_a_format_error(tmp_path):
    # Each byte of a file is one character, so 0xff and a lone CR meet the
    # same checks as any other bad byte and report their line and offset.
    path = tmp_path / "bad.g6"
    path.write_bytes(b"A_\nD?\xff\n")
    with pytest.raises(Graph6FormatError, match="byte 255 outside") as exc:
        list(read_graph6_file(str(path)))
    assert (exc.value.lineno, exc.value.offset) == (2, 2)
    path.write_bytes(b"A_\r\nC~\rC~\n")  # a lone CR is a byte, not a line break
    with pytest.raises(Graph6FormatError, match="trailing bytes") as exc:
        list(read_graph6_file(str(path)))
    assert (exc.value.lineno, exc.value.offset) == (2, 2)
    good = [encode_graph6(family_B(n)) for n in (6, 7, 8)]
    path.write_text(">>graph6<<" + "\n".join(good) + "\n")
    assert [encode_graph6(g) for _, g in read_graph6_file(str(path))] == good


def _reference_error(line):
    """The first error of a header-free line by the format definition, as
    (message, offset), or None for a well-formed record."""
    record = line.rstrip("\r\n")
    if not record:
        return "empty record", 0
    first = ord(record[0])
    if first == 126:
        return "long-form record (n > 62) not supported", 0
    if not 63 <= first <= 126:
        return f"byte {first} outside printable range 63..126", 0
    n = first - 63
    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    data = record[1:]
    if len(data) < nbytes:
        return f"truncated record: order {n} needs {nbytes} data bytes, got {len(data)}", len(record)
    if len(data) > nbytes:
        return f"trailing bytes after record of order {n}", 1 + nbytes
    if n == 0:
        return "graph of order 0 not supported", 0
    bad = re.search("[^?-~]", data)  # outside 63..126
    if bad:
        return f"byte {ord(bad.group())} outside printable range 63..126", 1 + bad.start()
    if nbits < 6 * nbytes and ord(data[-1]) - 63 & (1 << 6 * nbytes - nbits) - 1:
        return "nonzero padding bits", nbytes
    return None


@functools.cache
def _pairs(n):
    """Bit b of a record is pair b, in columns j, then rows i < j."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def _byte_edges(n, k, ch):
    """The vertex pairs whose bits data byte k (from 0) sets, high bit first."""
    pairs = _pairs(n)
    return [pairs[b] for b in range(6 * k, min(6 * k + 6, len(pairs)))
            if ord(ch) - 63 >> 5 - (b - 6 * k) & 1]


def _reference_decode(line):
    """Decode a header-free line bit by bit: the Graph, or the first error."""
    err = _reference_error(line)
    if err:
        return err
    record = line.rstrip("\r\n")
    n = ord(record[0]) - 63
    return Graph(n, [e for k, ch in enumerate(record[1:]) for e in _byte_edges(n, k, ch)])


def _decode_or_error(record):
    try:
        return decode_graph6(record)
    except Graph6FormatError as err:
        return err.message, err.offset


def test_decode_matches_bit_by_bit_reference_on_every_byte_value():
    # Every data-byte position of a random record set to every value
    # 0..255 and to one character above 255: the decode tables give the
    # reference's Graph, or its first error with the same message and
    # offset (a byte outside 63..126 before padding, padding at the last
    # byte).  Orders 1 (no data byte), 2 and 3 (one byte, mostly
    # padding), 7 (21 bits, one padding bit), 9 (the corpus order), 32/33
    # (a word-size boundary of the packed rows) and 62 (the largest).  A
    # well-formed variant differs from the base record in byte k alone, so
    # its reference rows are the base's with that byte's pairs swapped.
    rng = random.Random(6)
    for n in (1, 2, 3, 7, 9, 32, 33, 62):
        base = encode_graph6(Graph(n, [(i, j) for j in range(n) for i in range(j)
                                       if rng.random() < 0.5]))
        want_base = _reference_decode(base)
        assert decode_graph6(base) == want_base
        for k in range(1, len(base)):
            old = _byte_edges(n, k - 1, base[k])
            for ch in (*map(chr, range(256)), chr(256 + k)):
                record = base[:k] + ch + base[k + 1:]
                got = _decode_or_error(record)
                want = _reference_error(record)
                if want is None:
                    rows = list(want_base.rows)
                    for edges, on in ((old, False), (_byte_edges(n, k - 1, ch), True)):
                        for i, j in edges:
                            rows[i] = rows[i] & ~(1 << j) | on << j
                            rows[j] = rows[j] & ~(1 << i) | on << i
                    assert type(got) is Graph and got.rows == tuple(rows), (n, k, ord(ch))
                else:
                    assert got == want, (n, k, ord(ch))


def test_stream_line_numbers_and_offsets_match_reference():
    # Blank lines keep their numbers; a header only leads the first line,
    # and a header on a later line is the byte-62 error at its offset 0.
    lines = [">>graph6<<C~", "", "D??", "D?", ">>graph6<<Bw", "Bw", "A" + chr(64),
             "C" + chr(300), "\r\n", "D???", "A_\r\n"]
    bodies = [lines[0][len(">>graph6<<"):], *lines[1:]]
    want = [(lineno, _reference_decode(body)) for lineno, body in enumerate(bodies, start=1)
            if body.rstrip("\r\n")]
    good = [(lineno, out) for lineno, out in want if isinstance(out, Graph)]
    errors = [(lineno, out) for lineno, out in want if not isinstance(out, Graph)]
    assert [lineno for lineno, _ in good] == [1, 3, 6, 11]
    assert errors[1] == (5, ("byte 62 outside printable range 63..126", 0))

    bad = []
    assert list(stream_graph6(lines, strict=False, bad=bad)) == good
    assert [(lineno, (err.message, err.offset)) for lineno, err in bad] == errors
    assert all(err.lineno == lineno for lineno, err in bad)

    with pytest.raises(Graph6FormatError) as exc:
        list(stream_graph6(lines))
    assert (exc.value.lineno, exc.value.message, exc.value.offset) == (4, *errors[0][1])
    with pytest.raises(Graph6FormatError) as exc:
        list(stream_graph6([">>graph6<<Bw", ">>graph6<<Bw"]))
    assert (exc.value.lineno, exc.value.offset) == (2, 0)
    assert "byte 62 outside printable range" in exc.value.message
