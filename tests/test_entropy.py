import itertools
import random
import string
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from stegoseal.cipher import caesar_encrypt
from stegoseal.digest import hash_message
from stegoseal.entropy import (BLOCK_MAGIC, BLOCK_TABLE, DC_SYMBOL, EOB, MAGIC,
                               ZIGZAG_ORDER, ZRL, EncodedStream, HuffmanTable,
                               block_stream_bound, build_table, decode,
                               decode_blocks, decode_bytes, decode_prefix,
                               encode, encode_blocks, signed_to_symbol,
                               symbol_to_signed, zigzag_scan, zigzag_unscan)
from stegoseal.errors import (BadLength, BadShape, CorruptHeader,
                              DanglingBits, EmptyAlphabet, StegosealError,
                              TruncatedStream, UnknownSymbol)
from stegoseal.payload import pack, to_tiles
from stegoseal.transform import int_dct2


def diagonal_walk_oracle():
    """Generate the zig-zag order independently: walk the anti-diagonals,
    reversing direction on every other one."""
    order = []
    for s in range(15):
        cells = [(r, s - r) for r in range(max(0, s - 7), min(s, 7) + 1)]
        if s % 2 == 0:
            cells.reverse()
        order.extend(cells)
    return order


# --- zig-zag -------------------------------------------------------------


def test_zigzag_first_six_cells():
    assert ZIGZAG_ORDER[:6] == ((0, 0), (0, 1), (1, 0), (2, 0), (1, 1), (0, 2))


def test_zigzag_starts_and_ends():
    assert ZIGZAG_ORDER[0] == (0, 0)
    assert ZIGZAG_ORDER[-1] == (7, 7)


def test_zigzag_is_permutation_on_adjacent_diagonals():
    assert sorted(ZIGZAG_ORDER) == sorted((r, c) for r in range(8) for c in range(8))
    for (r1, c1), (r2, c2) in zip(ZIGZAG_ORDER, ZIGZAG_ORDER[1:]):
        assert abs((r1 + c1) - (r2 + c2)) <= 1


def test_zigzag_matches_walk_oracle():
    assert list(ZIGZAG_ORDER) == diagonal_walk_oracle()


def test_scan_constant_matrix():
    assert np.array_equal(zigzag_scan(np.full((8, 8), 9)), np.full(64, 9))


def test_scan_unscan_inverse():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        m = rng.integers(-500, 500, (8, 8))
        assert np.array_equal(zigzag_unscan(zigzag_scan(m)), m)


def test_unscan_definitional():
    m = zigzag_unscan(np.arange(64))
    assert np.array_equal(zigzag_scan(m), np.arange(64))


def test_zigzag_errors():
    with pytest.raises(BadShape):
        zigzag_scan(np.zeros((8, 7)))
    with pytest.raises(BadLength):
        zigzag_unscan(np.zeros(63))


# --- signed <-> symbol mapping -------------------------------------------


def test_signed_symbol_mapping():
    assert [signed_to_symbol(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
    for v in range(-300, 301):
        assert symbol_to_signed(signed_to_symbol(v)) == v
    arr = np.arange(-50, 51)
    assert np.array_equal(symbol_to_signed(signed_to_symbol(arr)), arr)


# --- table construction ---------------------------------------------------


def test_single_symbol_code():
    table = build_table({7: 1})
    assert table.codes == {7: "0"}


def test_three_symbol_lengths():
    table = build_table({0: 3, 1: 1, 2: 1})
    lengths = table.lengths
    assert lengths[0] == 1
    assert lengths[1] == 2
    assert lengths[2] == 2


def test_uniform_four_symbols():
    table = build_table({s: 1 for s in range(4)})
    assert all(len(c) == 2 for c in table.codes.values())


def test_empty_alphabet():
    with pytest.raises(EmptyAlphabet):
        build_table({})


def test_non_positive_count():
    with pytest.raises(ValueError):
        build_table({1: 0})


def test_prefix_free_and_kraft_equality():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(2, 200)
        freq = {s: rng.randint(1, 1000) for s in rng.sample(range(10000), n)}
        table = build_table(freq)
        codes = sorted(table.codes.values())
        for a, b in zip(codes, codes[1:]):
            assert not b.startswith(a)
        assert table.kraft_sum() == Fraction(1)


def test_optimality_vs_exhaustive_enumeration():
    """Huffman cost must match the best cost over every feasible prefix code
    (equivalently, every Kraft-satisfying length assignment) for small
    alphabets."""
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(1, 4)
        freqs = [rng.randint(1, 50) for _ in range(n)]
        table = build_table(dict(enumerate(freqs)))
        huffman_cost = sum(freqs[s] * len(code) for s, code in table.codes.items())
        best = min(
            sum(f * l for f, l in zip(freqs, lengths))
            for lengths in itertools.product(range(1, 5), repeat=n)
            if sum(Fraction(1, 2 ** l) for l in lengths) <= 1
        )
        assert huffman_cost == best


def test_deterministic_tables():
    freq = {5: 3, 9: 3, 1: 3, 7: 2}
    tables = [build_table(dict(freq)) for _ in range(5)]
    assert all(t.codes == tables[0].codes for t in tables)


def test_canonical_code_assignment():
    # equal lengths get codes in ascending symbol order
    table = build_table({10: 1, 20: 1, 30: 1, 40: 1})
    assert table.codes == {10: "00", 20: "01", 30: "10", 40: "11"}


# --- encode / decode -------------------------------------------------------


def test_encode_payload_bits():
    table = build_table({ord("a"): 3, ord("b"): 1})
    stream = encode([ord(c) for c in "aaab"], table)
    assert stream.bit_length == 4  # three 1-bit codes plus one 1-bit code
    table3 = build_table({ord("a"): 3, ord("b"): 1, ord("c"): 1})
    stream3 = encode([ord(c) for c in "aaab"], table3)
    assert stream3.bit_length == 3 * 1 + 2


def test_encode_empty_sequence():
    table = build_table({1: 1, 2: 1})
    stream = encode([], table)
    assert stream.bit_length == 0
    assert stream.payload == b""
    assert decode(stream) == []
    assert decode_bytes(stream.to_bytes()) == []


def test_encode_unknown_symbol():
    table = build_table({1: 1, 2: 1})
    with pytest.raises(UnknownSymbol):
        encode([1, 3], table)


def test_round_trip_random_sequences():
    rng = random.Random(33)
    for _ in range(300):
        n = rng.randint(1, 4096)
        seq = [rng.randrange(256) for _ in range(n)]
        table = build_table(Counter(seq))
        stream = encode(seq, table)
        assert decode(stream) == seq
        assert decode_bytes(stream.to_bytes()) == seq


def test_round_trip_single_symbol_runs():
    seq = [42] * 100
    table = build_table(Counter(seq))
    stream = encode(seq, table)
    assert stream.bit_length == 100
    assert decode_bytes(stream.to_bytes()) == seq


def test_wire_format_layout():
    table = build_table({0: 2, 1: 1, 2: 1})
    stream = encode([0, 1, 2, 0], table)
    data = stream.to_bytes()
    assert data[0] == MAGIC == 0x48
    assert int.from_bytes(data[1:3], "big") == 3
    # canonical entry order: (len 1, sym 0), (len 2, sym 1), (len 2, sym 2)
    assert list(data[3:9]) == [0, 1, 1, 2, 2, 2]
    assert int.from_bytes(data[9:13], "big") == 4
    # payload bits: 0 10 11 0 -> 01011 0 padded to 01011000
    assert data[13:] == bytes([0b01011000])


def test_from_bytes_round_trip():
    rng = random.Random(34)
    seq = [rng.randrange(1000) for _ in range(500)]
    stream = encode(seq, build_table(Counter(seq)))
    parsed = EncodedStream.from_bytes(stream.to_bytes())
    assert parsed.symbol_count == 500
    assert parsed.table.codes == stream.table.codes
    assert decode(parsed) == seq


def test_truncated_stream():
    seq = list(range(20)) * 3
    stream = encode(seq, build_table(Counter(seq)))
    data = stream.to_bytes()
    with pytest.raises(TruncatedStream):
        decode_bytes(data[:-1])


def test_dangling_bytes():
    seq = [1, 2, 3, 1, 1]
    stream = encode(seq, build_table(Counter(seq)))
    with pytest.raises(DanglingBits):
        decode_bytes(stream.to_bytes() + b"\xff")


def test_nonzero_padding_rejected():
    seq = [1, 1, 2]
    stream = encode(seq, build_table(Counter(seq)))
    data = bytearray(stream.to_bytes())
    assert stream.bit_length % 8 != 0
    data[-1] |= 1  # light up a padding bit
    with pytest.raises(DanglingBits):
        decode_bytes(bytes(data))


def test_corrupt_magic():
    seq = [1, 1, 2]
    data = bytearray(encode(seq, build_table(Counter(seq))).to_bytes())
    data[0] ^= 0xFF
    with pytest.raises(CorruptHeader):
        decode_bytes(bytes(data))


def test_corrupt_kraft():
    seq = [1, 1, 2, 3]
    data = bytearray(encode(seq, build_table(Counter(seq))).to_bytes())
    # entry lengths live at fixed offsets: magic(1) count(2) then (sym, len)*
    data[4] += 1  # lengthen the first code without touching the others
    with pytest.raises(CorruptHeader):
        decode_bytes(bytes(data))


def test_decode_prefix_ignores_trailing_garbage():
    rng = random.Random(35)
    seq = [rng.randrange(64) for _ in range(200)]
    stream = encode(seq, build_table(Counter(seq)))
    data = stream.to_bytes()
    symbols, table, consumed = decode_prefix(data + b"garbage garbage")
    assert symbols == seq
    assert consumed == len(data)
    assert table.codes == stream.table.codes


def test_decode_prefix_still_checks_padding():
    seq = [1, 1, 2]
    stream = encode(seq, build_table(Counter(seq)))
    data = bytearray(stream.to_bytes() + b"tail")
    data[len(stream.to_bytes()) - 1] |= 1
    with pytest.raises(DanglingBits):
        decode_prefix(bytes(data))


def test_compresses_the_skewed_default_payload():
    """A zero-heavy 384-byte block (the shape the sealing pipeline packs)
    must come out smaller than its raw size, header included."""
    block = bytearray(384)
    block[0:27] = b"Y'c ie fhekt je ru Uwofjyqd"
    block[128:130] = b"16"
    block[256:384] = b"0123456789abcdef" * 8
    seq = list(block)
    stream = encode(seq, build_table(Counter(seq)))
    assert len(stream.to_bytes()) < 384


# --- block stream ------------------------------------------------------------

CODES = BLOCK_TABLE.codes


def block_stream(tiles, *bit_strings):
    """A block stream header followed by the given bits, zero-padded."""
    body = "".join(bit_strings)
    body += "0" * (-len(body) % 8)
    payload = int(body, 2).to_bytes(len(body) // 8, "big") if body else b""
    return bytes([BLOCK_MAGIC]) + tiles.to_bytes(2, "big") + payload


def random_coefficient_tiles(rng, n):
    """Tiles of every density, with values of every category up to 10."""
    flat = np.zeros((n, 64), np.int64)
    for row in flat:
        count = int(rng.integers(0, 65))
        where = rng.choice(64, count, replace=False)
        sizes = rng.integers(1, 11, count)
        row[where] = rng.choice([-1, 1], count) * rng.integers(1 << (sizes - 1), 1 << sizes)
    return flat.reshape(n, 8, 8)


def test_block_stream_round_trip():
    rng = np.random.default_rng(40)
    special = np.zeros((4, 8, 8), np.int64)
    special[1] = 7                                  # no EOB: position 63 is set
    special[2][7, 7] = -3                           # 62 zeros: three ZRLs first
    special[3][0, 1] = special[3][3, 2] = 1         # zig-zag 1 and 18: 16 zeros, one ZRL
    for tiles in [special] + [random_coefficient_tiles(rng, int(rng.integers(1, 9)))
                              for _ in range(200)]:
        data = encode_blocks(tiles)
        decoded = decode_blocks(data + b"trailing bytes")
        assert np.array_equal(decoded.coeffs, tiles)
        assert decoded.consumed == len(data)
        assert len(data) <= block_stream_bound(len(tiles))


def test_block_stream_layout():
    tiles = np.zeros((2, 8, 8), np.int64)
    tiles[0, 0, 0] = 5       # DC category 3, bits 101
    tiles[0, 0, 1] = 1       # zig-zag index 1: (run 0, size 1), bit 1
    tiles[1, 0, 0] = -2      # DC difference -7: category 3, bits 000
    data = encode_blocks(tiles)
    assert data == block_stream(
        2, CODES[DC_SYMBOL + 3], "101", CODES[0x01], "1", CODES[EOB],
        CODES[DC_SYMBOL + 3], "000", CODES[EOB])
    decoded = decode_blocks(data)
    assert decoded.symbols == [DC_SYMBOL + 3, 0x01, EOB, DC_SYMBOL + 3, EOB]
    assert decoded.payload_bits == sum(len(CODES[s]) for s in decoded.symbols) + 7
    assert decoded.consumed == 3 + (decoded.payload_bits + 7) // 8


def test_block_stream_rejects_non_canonical_forms():
    dc0 = CODES[DC_SYMBOL]
    zrl = CODES[ZRL]
    # zig-zag index 63 after three ZRLs and a run of 14 is canonical
    decoded = decode_blocks(block_stream(1, dc0, zrl, zrl, zrl, CODES[0xE1], "1"))
    assert decoded.coeffs[0, 7, 7] == 1
    bad = {
        "ZRL before EOB": block_stream(1, dc0, zrl, CODES[EOB]),
        "ZRL past the end": block_stream(1, dc0, zrl, zrl, zrl, zrl),
        "run past the end": block_stream(1, dc0, zrl, zrl, zrl, CODES[0xF1], "1"),
        "AC symbol for DC": block_stream(1, CODES[0x01], "1", CODES[EOB]),
        "DC symbol for AC": block_stream(1, dc0, CODES[DC_SYMBOL + 1], "1", CODES[EOB]),
        "zero tiles": block_stream(0),
        "general stream magic": bytes([MAGIC]) + block_stream(1, dc0, CODES[EOB])[1:],
    }
    for name, data in bad.items():
        with pytest.raises(CorruptHeader):
            decode_blocks(data)
    valid = bytearray(block_stream(1, dc0, CODES[EOB]))
    with pytest.raises(TruncatedStream):
        decode_blocks(bytes(valid[:-1]))
    valid[-1] |= 1
    with pytest.raises(DanglingBits):
        decode_blocks(bytes(valid))


def test_block_stream_prefixes_are_truncated():
    """Every proper prefix of a stream raises TruncatedStream, also when
    the cut falls inside the amplitude of a tile's last coefficient."""
    rng = np.random.default_rng(44)
    last = np.zeros((1, 8, 8), np.int64)
    last[0, 0, 0], last[0, 7, 7] = 3, -700       # no EOB: the stream ends in an amplitude
    for tiles in [last] + [random_coefficient_tiles(rng, 2) for _ in range(20)]:
        data = encode_blocks(tiles)
        for cut in range(3, len(data)):
            with pytest.raises(TruncatedStream):
                decode_blocks(data[:cut])
    with pytest.raises(TruncatedStream, match="inside an amplitude"):
        decode_blocks(encode_blocks(last)[:-1])


def test_block_stream_checks_tile_count_first():
    data = encode_blocks(np.zeros((3, 8, 8), np.int64))
    assert len(decode_blocks(data, tiles=3).coeffs) == 3
    with pytest.raises(CorruptHeader, match="expected 6"):
        decode_blocks(data[:3], tiles=6)


def test_block_stream_is_the_only_encoding():
    """Every single-bit flip of a stream either fails to decode or decodes
    to coefficients whose own encoding is the flipped stream."""
    rng = np.random.default_rng(41)
    decoded_flips = 0
    for _ in range(2):
        tiles = int_dct2(rng.integers(0, 256, (2, 8, 8)) * (rng.random((2, 8, 8)) < 0.2))
        data = bytearray(encode_blocks(tiles))
        for bit in range(8 * len(data)):
            data[bit // 8] ^= 0x80 >> (bit % 8)
            try:
                decoded = decode_blocks(bytes(data))
            except StegosealError:
                pass
            else:
                decoded_flips += 1
                assert encode_blocks(decoded.coeffs) == bytes(data[:decoded.consumed])
            data[bit // 8] ^= 0x80 >> (bit % 8)
    assert decoded_flips > 0


def test_decode_prefix_reads_block_streams():
    rng = np.random.default_rng(42)
    data = encode_blocks(random_coefficient_tiles(rng, 6))
    symbols, table, consumed = decode_prefix(data + b"garbage")
    assert table is BLOCK_TABLE
    assert consumed == len(data)
    assert all(s in table.codes for s in symbols)
    assert symbols == decode_blocks(data).symbols


def test_block_table_codes_every_8bit_tile():
    """The table holds every symbol int_dct2 of a byte tile can need."""
    from test_transform import byte_tiles
    tiles = int_dct2(byte_tiles(43))
    decoded = decode_blocks(encode_blocks(tiles))
    assert np.array_equal(decoded.coeffs, tiles)
    assert sorted(BLOCK_TABLE.codes) == sorted(
        [DC_SYMBOL + c for c in range(12)] + [EOB, ZRL]
        + [(run << 4) | size for run in range(16) for size in range(1, 12)])
    assert BLOCK_TABLE.kraft_sum() == Fraction(1)
    with pytest.raises(UnknownSymbol):
        encode_blocks(np.full((1, 8, 8), 4096))


def test_encode_blocks_time_is_linear_in_tiles():
    """The most tiles a header can declare encode in well under 3 s, which
    a single growing bit accumulator for the whole stream would not."""
    start = time.perf_counter()
    data = encode_blocks(np.zeros((0xFFFF, 8, 8), np.int64))
    assert time.perf_counter() - start < 3
    assert len(data) == 3 + (0xFFFF * (len(CODES[DC_SYMBOL]) + len(CODES[EOB])) + 7) // 8


def test_encode_blocks_rejects_values_past_the_table():
    for value in (2 ** 11, 2 ** 15, 2 ** 16, -(2 ** 20)):
        tiles = np.zeros((1, 8, 8), np.int64)
        tiles[0, 0, 1] = value
        with pytest.raises(UnknownSymbol):
            encode_blocks(tiles)


def test_block_table_matches_its_derivation():
    """Re-derive the fixed table as the entropy module docstring describes."""
    chars = string.ascii_letters + string.digits + " .,!?'\"-:;()"
    rng = random.Random(2110)
    counts = Counter(dict.fromkeys(BLOCK_TABLE.codes, 1))
    for i in range(1000):
        message = "".join(rng.choice(chars) for _ in range(rng.randint(1, 120)))
        key = rng.randrange(26)
        digest = hash_message(message, ("sha256", "sha512")[i % 2]).hex
        block = pack(caesar_encrypt(message, key), str(key), digest)
        counts.update(decode_blocks(encode_blocks(int_dct2(to_tiles(block)))).symbols)
    assert build_table(counts).lengths == BLOCK_TABLE.lengths
