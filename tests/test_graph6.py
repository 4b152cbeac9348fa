import random

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
