import itertools
import random
import re
import string
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stegoseal.cipher import normalize_letters
from stegoseal.digest import hash_message
from stegoseal.entropy import (_AMPLITUDE, _LONG_BASE, _LONG_TOKENS, _PAIRS, _TOKENS, _WORD,
                               _ZIGZAG_FLAT, BLOCK_HEADER_BYTES, BLOCK_MAGIC, BLOCK_TABLE,
                               DC_SYMBOL, EOB, ZRL,
                               block_stream_bound, build_table, decode_blocks, decode_prefix,
                               encode_blocks, zigzag_scan, zigzag_unscan)
from stegoseal.errors import StegosealError, StreamError
from stegoseal.payload import TILES, pack, to_tiles
from stegoseal.pipeline import _pack_block
from stegoseal.transform import int_dct2

from conftest import FUZZ, dense_forged_tiles, kraft_sum


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

# The (row, column) cells of the module's flat zig-zag indices, in scan order.
ZIGZAG_ORDER = tuple(divmod(i, 8) for i in _ZIGZAG_FLAT.tolist())


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
    with pytest.raises(StreamError, match=r"zigzag scan needs an 8x8 block, got \(8, 7\)"):
        zigzag_scan(np.zeros((8, 7)))
    with pytest.raises(StreamError, match=r"zigzag unscan needs 64 values, got shape \(63,\)"):
        zigzag_unscan(np.zeros(63))


# --- table construction ---------------------------------------------------


def test_single_symbol_code():
    table = build_table({7: 1})
    assert table.codes == {7: "0"}


def test_three_symbol_lengths():
    table = build_table({0: 3, 1: 1, 2: 1})
    assert len(table.codes[0]) == 1
    assert len(table.codes[1]) == 2
    assert len(table.codes[2]) == 2


def test_uniform_four_symbols():
    table = build_table({s: 1 for s in range(4)})
    assert all(len(c) == 2 for c in table.codes.values())


def test_empty_alphabet():
    with pytest.raises(ValueError):
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
        assert kraft_sum(table) == Fraction(1)


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
    bad = [
        (block_stream(1, dc0, zrl, CODES[EOB]), "ZRL before the end of a block"),
        (block_stream(1, dc0, zrl, zrl, zrl, zrl), "zero run past the end of a block"),
        (block_stream(1, dc0, zrl, zrl, zrl, CODES[0xF1], "1"),
         "zero run past the end of a block"),
        (block_stream(1, CODES[0x01], "1", CODES[EOB]), "AC symbol where a DC category belongs"),
        (block_stream(1, dc0, CODES[DC_SYMBOL + 1], "1", CODES[EOB]),
         "DC category where an AC symbol belongs"),
        (block_stream(0), "block stream with zero tiles"),
        (bytes([0x48]) + block_stream(1, dc0, CODES[EOB])[1:], "missing block stream header"),
    ]
    for data, message in bad:
        with pytest.raises(StreamError, match=message):
            decode_blocks(data)
    valid = bytearray(block_stream(1, dc0, CODES[EOB]))
    with pytest.raises(StreamError, match="bits ran out after 1 symbols"):
        decode_blocks(bytes(valid[:-1]))
    valid[-1] |= 1
    with pytest.raises(StreamError, match="padding bits after the last block are not zero"):
        decode_blocks(bytes(valid))


def test_block_stream_prefixes_are_truncated():
    """A stream cut at any byte raises at the first symbol the cut reaches:
    "after n symbols" when it reaches the symbol's code, "inside an
    amplitude" when it reaches only the amplitude bits. DC differences of
    1024-2047 in size have 17-bit codes, so those tile starts are read
    through the codes longer than the decoder's 12-bit window."""
    assert len(CODES[DC_SYMBOL + 11]) == 17
    last = np.zeros((1, 8, 8), np.int64)
    last[0, 0, 0], last[0, 7, 7] = 3, -700       # no EOB: the stream ends in an amplitude
    small_steps = np.zeros((9, 64), np.int64)
    small_steps[:, 0] = [1024, 1024, 0, 1, -1023, -1023, 1024, 0, -1]
    small_steps[[1, 4, 7], [5, 1, 40]] = [2, -1, 300]
    stacks = [last, np.array([zigzag_unscan(row) for row in small_steps])]
    for i, message in enumerate(["I'm so proud to be Egyptian", "a", "Pay 10 to B. " * 9]):
        digest = hash_message(message, ("sha256", "sha512")[i % 2])
        stacks.append(int_dct2(to_tiles(_pack_block(message, "caesar", i + 3, digest))))
    rng = np.random.default_rng(44)
    stacks += [random_coefficient_tiles(rng, 2) for _ in range(20)]
    in_code = set()
    for tiles in stacks:
        data = encode_blocks(tiles)
        ends, end = [], 0        # bit after each symbol's code, and after its amplitude
        for symbol in decode_blocks(data).symbols:
            end += len(CODES[symbol])
            ends.append((end, end + symbol_size(symbol)))
            end += symbol_size(symbol)
        for cut in range(3, len(data)):
            have = 8 * (cut - 3)
            n, (code_end, _) = next((n, e) for n, e in enumerate(ends) if e[1] > have)
            message = (f"bits ran out after {n} symbols" if code_end > have
                       else "bits ran out inside an amplitude")
            with pytest.raises(StreamError, match=f"^{re.escape(message)}$"):
                decode_blocks(data[:cut])
            in_code.add(code_end > have)
    assert in_code == {True, False}          # both messages were predicted


def test_block_stream_checks_tile_count_first():
    data = encode_blocks(np.zeros((3, 8, 8), np.int64))
    assert len(decode_blocks(data, tiles=3).coeffs) == 3
    with pytest.raises(StreamError, match="stream declares 3 tiles, expected 6"):
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


def test_decode_prefix_rejects_the_retired_general_stream():
    """A well-formed stream of the old self-describing format (magic 0x48,
    a one-entry table {0: "0"} and one symbol) is not a block stream."""
    with pytest.raises(StreamError, match="missing block stream header"):
        decode_prefix(bytes.fromhex("48 0001 00 01 00000001 00"))


def test_block_table_codes_every_8bit_tile():
    """The table holds every symbol int_dct2 of a byte tile can need."""
    from test_transform import byte_tiles
    tiles = int_dct2(byte_tiles(43))
    decoded = decode_blocks(encode_blocks(tiles))
    assert np.array_equal(decoded.coeffs, tiles)
    assert sorted(BLOCK_TABLE.codes) == sorted(
        [DC_SYMBOL + c for c in range(12)] + [EOB, ZRL]
        + [(run << 4) | size for run in range(16) for size in range(1, 12)])
    assert kraft_sum(BLOCK_TABLE) == Fraction(1)
    with pytest.raises(StreamError, match="coefficient symbol 0x10d has no code"):
        encode_blocks(np.full((1, 8, 8), 4096))


def test_encode_blocks_time_is_linear_in_tiles():
    """The most tiles a header can declare encode in well under 3 s, which
    a single growing bit accumulator for the whole stream would not."""
    start = time.perf_counter()
    data = encode_blocks(np.zeros((0xFFFF, 8, 8), np.int64))
    assert time.perf_counter() - start < 3
    assert len(data) == 3 + (0xFFFF * (len(CODES[DC_SYMBOL]) + len(CODES[EOB])) + 7) // 8


def test_decode_blocks_time_is_linear_in_tiles():
    """The stream of the most tiles a header can declare decodes in well
    under 3 s, and in under 4 times the time per tile of a 4096-tile
    stream, the best of 5 runs each, taken in turn so that a busy host
    slows both. A bit hold that kept the bits it has read would grow with
    the stream, and every shift of it with it: such a hold took 8 times
    the time per tile, the masked one under 2 times."""
    def seconds(data):
        start = time.perf_counter()
        decode_blocks(data)
        return time.perf_counter() - start

    data = encode_blocks(np.zeros((0xFFFF, 8, 8), np.int64))
    short = encode_blocks(np.zeros((0x1000, 8, 8), np.int64))
    runs = [(seconds(data), seconds(short)) for _ in range(5)]
    long_best, short_best = map(min, zip(*runs))
    assert long_best < 3
    assert long_best / 0xFFFF < 4 * short_best / 0x1000
    decoded = decode_blocks(data)
    assert decoded.consumed == len(data)
    assert decoded.tile_bits == [len(CODES[DC_SYMBOL]) + len(CODES[EOB])] * 0xFFFF
    assert not decoded.zigzag.any()


def test_encode_blocks_rejects_values_past_the_table():
    for value, message in ((2 ** 11, "coefficient symbol 0xc has no code"),
                           (2 ** 15, "coefficient category 16 has no code"),
                           (2 ** 16, "coefficient category 17 has no code"),
                           (-(2 ** 20), "coefficient category 21 has no code")):
        tiles = np.zeros((1, 8, 8), np.int64)
        tiles[0, 0, 1] = value
        with pytest.raises(StreamError, match=message):
            encode_blocks(tiles)


def test_block_table_matches_its_derivation():
    """Re-derive the fixed table as the entropy module docstring describes,
    from blocks built by the pipeline's own _pack_block."""
    from test_pipeline import random_hill_key
    chars = string.ascii_letters + string.digits + " .,!?'\"-:;()"
    rng = random.Random(2110)
    counts = Counter(dict.fromkeys(BLOCK_TABLE.codes, 1))
    for i in range(1000):
        message = "".join(rng.choice(chars) for _ in range(rng.randint(1, 120)))
        algorithm = ("sha256", "sha512")[i % 2]
        if i % 4 < 2:
            kind, key = "caesar", rng.randrange(26)
        else:
            if not normalize_letters(message):
                message += rng.choice(string.ascii_letters)
            message, kind, key = normalize_letters(message), "hill", random_hill_key(rng)
        block = _pack_block(message, kind, key, hash_message(message, algorithm))
        counts.update(decode_blocks(encode_blocks(int_dct2(to_tiles(block)))).symbols)
    assert len(counts) == 190
    assert build_table(counts) == BLOCK_TABLE


def test_block_table_codes_are_at_most_18_bits():
    """A symbol is at most 18 code bits and 11 amplitude bits, which the
    decoder's refill, taken when it holds fewer than 18 + 11 bits, and the
    pipeline's stream bound allow for."""
    assert max(len(code) for code in BLOCK_TABLE.codes.values()) <= 18
    assert block_stream_bound(TILES) <= 3 + (TILES * 68 * (18 + 11) + 7) // 8


# --- block stream: header, amplitude and padding details ---------------------


def amplitude_bits(value):
    """The amplitude bits the module docstring prescribes for `value`: the
    low category bits of value, or of value - 1 when it is negative."""
    size = abs(value).bit_length()
    if not size:
        return ""
    return format((value if value > 0 else value - 1) & ((1 << size) - 1), f"0{size}b")


def symbol_size(symbol):
    return symbol - DC_SYMBOL if symbol >= DC_SYMBOL else symbol & 15


TILES_GOT = "expected 1-65535 tiles of shape (n, 8, 8), got "


@pytest.mark.parametrize("coeffs, error, message", [
    (np.zeros((0, 8, 8), np.int64), StreamError, TILES_GOT + "(0, 8, 8)"),
    (np.zeros((8, 8), np.int64), StreamError, TILES_GOT + "(8, 8)"),
    (np.zeros((1, 8, 9), np.int64), StreamError, TILES_GOT + "(1, 8, 9)"),
    (np.broadcast_to(np.zeros((1, 8, 8), np.int64), (0x10000, 8, 8)), StreamError,
     TILES_GOT + "(65536, 8, 8)"),
    (np.zeros((1, 8, 8)), TypeError, "coefficients must be integers, got float64"),
], ids=["no tiles", "one 2d tile", "wide tile", "65536 tiles", "float"])
def test_encode_blocks_rejects_bad_input(coeffs, error, message):
    with pytest.raises(error, match=re.escape(message)):
        encode_blocks(coeffs)


@pytest.mark.parametrize("data", [b"", bytes([BLOCK_MAGIC]), bytes([BLOCK_MAGIC, 0])],
                         ids=["empty", "magic only", "half a tile count"])
def test_decode_blocks_rejects_short_headers(data):
    with pytest.raises(StreamError, match="missing block stream header"):
        decode_blocks(data)


def test_decode_blocks_rejects_every_other_magic():
    valid = block_stream(1, CODES[DC_SYMBOL], CODES[EOB])
    assert decode_blocks(valid).consumed == len(valid)
    for magic in range(256):
        if magic != BLOCK_MAGIC:
            with pytest.raises(StreamError, match="missing block stream header"):
                decode_blocks(bytes([magic]) + valid[1:])


@pytest.mark.parametrize("dcs", [(2048,), (-2048,), (2047, -2047), (-2047, 2047)],
                         ids=["2048", "-2048", "down 4094", "up 4094"])
def test_encode_blocks_rejects_dc_differences_past_the_table(dcs):
    """DC categories stop at 11, which bounds the difference between
    neighbouring tiles, not only each DC value."""
    tiles = np.zeros((len(dcs), 8, 8), np.int64)
    tiles[:, 0, 0] = dcs
    for tile in tiles:
        if abs(tile[0, 0]) < 2048:
            assert decode_blocks(encode_blocks(tile[None])).coeffs[0, 0, 0] == tile[0, 0]
    with pytest.raises(StreamError, match=f"coefficient symbol {DC_SYMBOL + 12:#x} has no code"):
        encode_blocks(tiles)


def test_dc_amplitude_bits_follow_the_category_rule():
    for value in range(-2047, 2048):
        tile = np.zeros((1, 8, 8), np.int64)
        tile[0, 0, 0] = value
        size = abs(value).bit_length()
        data = encode_blocks(tile)
        assert data == block_stream(1, CODES[DC_SYMBOL + size], amplitude_bits(value),
                                    CODES[EOB])
        assert decode_blocks(data).coeffs[0, 0, 0] == value


def test_every_ac_symbol_codes_its_extreme_amplitudes():
    """Each (run, size) symbol of the table, with the smallest and largest
    magnitude of its category, codes as its codeword plus the amplitude
    bits; this reaches every code longer than the decoder's window."""
    for run in range(16):
        for size in range(1, 12):
            for value in (1 << (size - 1), (1 << size) - 1,
                          -(1 << (size - 1)), 1 - (1 << size)):
                flat = np.zeros(64, np.int64)
                flat[run + 1] = value
                tiles = zigzag_unscan(flat)[None]
                data = encode_blocks(tiles)
                assert data == block_stream(1, CODES[DC_SYMBOL], CODES[(run << 4) | size],
                                            amplitude_bits(value), CODES[EOB])
                decoded = decode_blocks(data)
                assert decoded.symbols == [DC_SYMBOL, (run << 4) | size, EOB]
                assert np.array_equal(decoded.coeffs, tiles)


def test_equal_dc_tiles_code_zero_differences():
    tiles = np.zeros((50, 8, 8), np.int64)
    tiles[:, 0, 0] = 42
    data = encode_blocks(tiles)
    rest = [CODES[DC_SYMBOL] + CODES[EOB]] * 49
    assert data == block_stream(50, CODES[DC_SYMBOL + 6], amplitude_bits(42), CODES[EOB], *rest)
    decoded = decode_blocks(data)
    assert decoded.symbols == [DC_SYMBOL + 6, EOB] + [DC_SYMBOL, EOB] * 49
    assert np.array_equal(decoded.coeffs, tiles)


def test_payload_bits_count_codes_and_amplitudes():
    rng = np.random.default_rng(45)
    for _ in range(50):
        tiles = random_coefficient_tiles(rng, int(rng.integers(1, 5)))
        data = encode_blocks(tiles)
        decoded = decode_blocks(data)
        assert decoded.payload_bits == sum(len(CODES[s]) + symbol_size(s)
                                           for s in decoded.symbols)
        assert decoded.consumed == len(data) == 3 + (decoded.payload_bits + 7) // 8
        # tile k's bits are what coding it after the tiles before it adds
        ends = [decode_blocks(encode_blocks(tiles[:k + 1])).payload_bits
                for k in range(len(tiles))]
        assert decoded.tile_bits == [end - start for start, end in zip([0] + ends, ends)]
        assert sum(decoded.tile_bits) == decoded.payload_bits


def test_every_padding_bit_is_checked():
    """Lighting any one padding bit fails the stream; bytes after the
    padding are not read."""
    rng = np.random.default_rng(46)
    widths = set()
    for _ in range(60):
        data = encode_blocks(random_coefficient_tiles(rng, 1))
        decoded = decode_blocks(data + b"\xff")
        assert decoded.consumed == len(data)
        pad = -decoded.payload_bits % 8
        widths.add(pad)
        for bit in range(pad):
            flipped = bytearray(data)
            flipped[-1] |= 1 << bit
            with pytest.raises(StreamError, match="padding bits after the last block"):
                decode_blocks(bytes(flipped))
    assert widths == set(range(8))


def test_decode_prefix_still_checks_padding():
    data = bytearray(block_stream(1, CODES[DC_SYMBOL], CODES[EOB]))
    assert (len(CODES[DC_SYMBOL]) + len(CODES[EOB])) % 8
    assert decode_prefix(bytes(data) + b"tail")[2] == len(data)
    data[-1] |= 1
    with pytest.raises(StreamError, match="padding bits after the last block are not zero"):
        decode_prefix(bytes(data) + b"tail")


def test_decode_prefix_raises_as_decode_blocks_does():
    rng = np.random.default_rng(47)
    data = encode_blocks(random_coefficient_tiles(rng, 3))
    with pytest.raises(StreamError, match="bits ran out after 45 symbols"):
        decode_prefix(data[:-1])
    with pytest.raises(StreamError, match="missing block stream header"):
        decode_prefix(data[:2])
    with pytest.raises(StreamError, match="block stream with zero tiles"):
        decode_prefix(block_stream(0) + data)


def test_concatenated_streams_are_self_delimiting():
    rng = np.random.default_rng(48)
    first = encode_blocks(random_coefficient_tiles(rng, 4))
    second = encode_blocks(random_coefficient_tiles(rng, 2))
    decoded = decode_blocks(first + second)
    assert decoded.consumed == len(first)
    assert decoded.symbols == decode_blocks(first).symbols
    assert (decode_blocks((first + second)[decoded.consumed:]).symbols
            == decode_blocks(second).symbols)


def test_skewed_payload_block_compresses():
    """A zero-heavy 384-byte block, the shape the sealing pipeline packs,
    comes out smaller than its raw size, header included."""
    tiles = to_tiles(pack("Y'c ie fhekt je ru Uwofjyqd", 128 * "Q", "0123456789abcdef" * 8))
    data = encode_blocks(int_dct2(tiles))
    assert len(data) < 384
    assert np.array_equal(decode_blocks(data).coeffs, int_dct2(tiles))


# --- block stream: the encoder against a reference ---------------------------


def reference_encode(tiles):
    """The block stream of `tiles` as the module docstring describes it,
    symbol by symbol from BLOCK_TABLE.codes, raising at the first symbol
    without a code."""
    bits, previous = [], 0
    for tile in tiles:
        zz = [int(tile[r][c]) for r, c in diagonal_walk_oracle()]
        symbols, previous, run = [(DC_SYMBOL, zz[0] - previous)], zz[0], 0
        for value in zz[1:]:
            if value:
                symbols += [(ZRL, 0)] * (run // 16) + [(run % 16 << 4, value)]
            run = 0 if value else run + 1
        for base, value in symbols + [(EOB, 0)] * bool(run):
            size = abs(value).bit_length()
            if size > 11:
                raise StreamError(f"coefficient category {size} has no code"
                                  if base < DC_SYMBOL and size > 15
                                  else f"coefficient symbol {base + size:#x} has no code")
            bits += [CODES[base + size], amplitude_bits(value)]
    return block_stream(len(tiles), *bits)


@st.composite
def coefficient_stacks(draw, value, dc_step):
    """1-8 tiles in which the zeros before each nonzero AC value run 0-62,
    some tiles end on a nonzero value (no EOB), and the DC changes by
    dc_step between tiles."""
    tiles, dc = [], 0
    for _ in range(draw(st.integers(1, 8))):
        dc += draw(dc_step)
        zz, k = [dc] + [0] * 63, 1 + draw(st.integers(0, 62))
        while k < 64:
            zz[k] = draw(value)
            k += 1 + draw(st.integers(0, 15) | st.integers(16, 62))
        if draw(st.booleans()):
            zz[63] = draw(value)
        tiles.append(zigzag_unscan(np.array(zz, np.int64)))
    return np.array(tiles)


AC_VALUES = st.sampled_from([1, -1, 2047, -2047]) | st.integers(-2047, 2047).filter(bool)
DC_STEPS = st.sampled_from([2047, -2047, 0]) | st.integers(-2047, 2047)


@settings(FUZZ, max_examples=200)
@given(coefficient_stacks(AC_VALUES, DC_STEPS))
def test_encode_blocks_matches_the_reference(tiles):
    data = encode_blocks(tiles)
    assert data == reference_encode(tiles)
    assert np.array_equal(decode_blocks(data).coeffs, tiles)


PAST_THE_TABLE = AC_VALUES | st.sampled_from([2048, -2048, 4095, 32767, -32768, 2 ** 15,
                                              -(2 ** 16), 2 ** 40, -(2 ** 62)])


@settings(FUZZ, max_examples=200)
@given(coefficient_stacks(PAST_THE_TABLE, DC_STEPS | st.sampled_from([2048, -2048, 4095])))
def test_encode_blocks_raises_at_the_first_symbol_without_a_code(tiles):
    try:
        expected = reference_encode(tiles)
    except StreamError as exc:
        with pytest.raises(StreamError, match=f"^{re.escape(str(exc))}$"):
            encode_blocks(tiles)
    else:
        assert encode_blocks(tiles) == expected


# --- block stream: the decoder against a reference ---------------------------


AMPLITUDE_VALUES = {amplitude_bits(v): v for v in range(-2047, 2048) if v}
SYMBOL_OF = {code: symbol for symbol, code in CODES.items()}


def reference_decode(data, tiles=None):
    """decode_blocks as the module docstring describes it, symbol by symbol
    from BLOCK_TABLE.codes, with the checks in the same order. Returns
    (coeffs, symbols, payload_bits, consumed, tile_bits)."""
    if len(data) < 3 or data[0] != BLOCK_MAGIC:
        raise StreamError("missing block stream header")
    count = int.from_bytes(data[1:3], "big")
    if count == 0:
        raise StreamError("block stream with zero tiles")
    if tiles is not None and count != tiles:
        raise StreamError(f"stream declares {count} tiles, expected {tiles}")
    bits = "".join(format(byte, "08b") for byte in data[3:])
    pos, dc, symbols, coeffs, ends = 0, 0, [], [], []
    for _ in range(count):
        zz, k = [0] * 64, 0
        while k < 64:
            length = 1
            while bits[pos:pos + length] not in SYMBOL_OF:
                length += 1
                if pos + length > len(bits):
                    raise StreamError(f"bits ran out after {len(symbols)} symbols")
            symbol = SYMBOL_OF[bits[pos:pos + length]]
            pos += length
            symbols.append(symbol)
            if not k and symbol < DC_SYMBOL:
                raise StreamError("AC symbol where a DC category belongs")
            if k and symbol >= DC_SYMBOL:
                raise StreamError("DC category where an AC symbol belongs")
            if k and symbol == EOB:
                if symbols[-2] == ZRL:
                    raise StreamError("ZRL before the end of a block")
                break
            if k:
                k += 16 if symbol == ZRL else symbol >> 4
                if k >= 64:
                    raise StreamError("zero run past the end of a block")
                if symbol == ZRL:
                    continue
            size = symbol_size(symbol)
            if pos + size > len(bits):
                raise StreamError("bits ran out inside an amplitude")
            value = AMPLITUDE_VALUES[bits[pos:pos + size]] if size else 0
            pos += size
            if k:
                zz[k] = value
                k += 1
            else:
                dc += value
                zz[0], k = dc, 1
        tile = np.zeros((8, 8), np.int64)
        for value, (r, c) in zip(zz, diagonal_walk_oracle()):
            tile[r, c] = value
        coeffs.append(tile)
        ends.append(pos)
    if "1" in bits[pos:-(-pos // 8) * 8]:
        raise StreamError("padding bits after the last block are not zero")
    return (np.array(coeffs), symbols, pos, 3 + (pos + 7) // 8,
            [end - start for start, end in zip([0] + ends, ends)])


def decodes_as_the_reference(data, tiles=None):
    """Require decode_blocks to give the reference's fields or raise its
    exact StreamError text; returns the DecodedBlocks or the text."""
    try:
        coeffs, *fields = reference_decode(data, tiles)
    except StreamError as exc:
        with pytest.raises(StreamError, match=f"^{re.escape(str(exc))}$"):
            decode_blocks(data, tiles)
        return str(exc)
    decoded = decode_blocks(data, tiles)
    assert decoded.coeffs.dtype == np.int64
    assert np.array_equal(decoded.coeffs, coeffs) and decoded.coeffs.shape == coeffs.shape
    assert [decoded.symbols, decoded.payload_bits, decoded.consumed, decoded.tile_bits] == fields
    return decoded


@st.composite
def edited_streams(draw):
    """The block stream of a coefficient stack, as it is, with one bit
    flipped, or cut at a byte."""
    data = encode_blocks(draw(coefficient_stacks(AC_VALUES | st.integers(-15, 15).filter(bool),
                                                 DC_STEPS)))
    edit = draw(st.sampled_from(["none", "flip", "cut"]))
    if edit == "flip":
        bit = draw(st.integers(0, 8 * len(data) - 1))
        data = bytearray(data)
        data[bit // 8] ^= 0x80 >> (bit % 8)
    elif edit == "cut":
        data = data[:draw(st.integers(0, len(data) - 1))]
    return bytes(data)


@settings(FUZZ, max_examples=200)
@given(edited_streams(), st.sampled_from([None, 1, 6]))
def test_decode_blocks_matches_the_reference(data, tiles):
    decodes_as_the_reference(data, tiles)


@settings(FUZZ)
@given(st.integers(1, 8), st.binary(max_size=300))
def test_decode_blocks_matches_the_reference_on_random_bodies(count, body):
    decodes_as_the_reference(bytes([BLOCK_MAGIC]) + count.to_bytes(2, "big") + body)


def test_decode_memory_follows_the_data_not_the_declared_tiles():
    """A header that declares 65535 tiles and no body is rejected at its
    first symbol without first allocating room for every declared tile."""
    tracemalloc.start()
    try:
        with pytest.raises(StreamError, match="^bits ran out after 0 symbols$"):
            decode_blocks(bytes([BLOCK_MAGIC]) + b"\xff\xff")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- block stream: the decoder's two-token path ------------------------------


def window_at(data, bit):
    """The decoder's 12-bit window at payload bit `bit` of a block stream,
    with zeros past its end, as an index into _PAIRS."""
    body = "".join(format(byte, "08b") for byte in data[3:]) + "0" * 12
    return int(body[bit:bit + 12], 2)


def token(symbol, value):
    return CODES[symbol] + amplitude_bits(value)


def amplitude_size(symbol):
    """The amplitude bits the module docstring gives a symbol: its DC
    category, or the low nibble of an AC symbol."""
    return symbol - DC_SYMBOL if symbol >= DC_SYMBOL else symbol & 15


def test_token_table_holds_the_code_that_starts_each_window():
    """Each window holds (symbol, code length, amplitude size) of the one
    code of BLOCK_TABLE that starts it, and None exactly where that code
    is longer than the window's 12 bits."""
    long_codes = [code for code in CODES.values() if len(code) > 12]
    assert len(_TOKENS) == 4096
    for window, entry in enumerate(_TOKENS):
        bits = format(window, "012b")
        codes = [bits[:n] for n in range(1, 13) if bits[:n] in SYMBOL_OF]
        if not codes:
            assert entry is None and any(code.startswith(bits) for code in long_codes), bits
            continue
        (code,) = codes
        symbol = SYMBOL_OF[code]
        assert entry == (symbol, len(code), amplitude_size(symbol)), bits
    assert {entry[0] for entry in _TOKENS if entry} == {
        symbol for symbol, code in CODES.items() if len(code) <= 12}


def test_long_code_table_holds_each_long_code_at_every_18_bit_value_it_starts():
    """_LONG_TOKENS, indexed by the next 18 bits less _LONG_BASE, holds
    (symbol, code length, amplitude size) of each 13-18 bit code at every
    value that code starts. Its base is the first window where _TOKENS
    holds None, shifted left by 6, and no entry of it is None."""
    long_codes = {symbol: code for symbol, code in CODES.items() if len(code) > 12}
    assert {len(code) for code in long_codes.values()} == set(range(13, 19))
    assert _LONG_BASE == _TOKENS.index(None) << 6
    assert len(_LONG_TOKENS) == (1 << 18) - _LONG_BASE == 640
    assert None not in _LONG_TOKENS
    seen = 0
    for symbol, code in long_codes.items():
        room = 18 - len(code)
        for low in range(1 << room):
            entry = _LONG_TOKENS[(int(code, 2) << room | low) - _LONG_BASE]
            assert entry == (symbol, len(code), amplitude_size(symbol)), (code, low)
        seen += 1 << room
    assert seen == len(_LONG_TOKENS)


def test_long_codes_decode_whatever_the_bits_below_and_above():
    """Each 13-18 bit code, after a first tile of random length and before
    random bits, decodes through decode_blocks as the reference decodes it
    symbol by symbol: the spent bits above the code in the decoder's hold
    and the bits below it do not change what it reads."""
    rng = random.Random(29)
    long_codes = {symbol: code for symbol, code in CODES.items() if len(code) > 12}
    for symbol, code in long_codes.items():
        for _ in range(8):
            values = [rng.choice([-5, -2, -1, 1, 2, 5]) for _ in range(rng.randrange(40))]
            first = [token(DC_SYMBOL + 2, rng.choice([-3, 2]))]
            first += [token(abs(value).bit_length(), value) for value in values] + [CODES[EOB]]
            second = [code] if symbol >= DC_SYMBOL else [CODES[DC_SYMBOL], code]
            tail = format(rng.getrandbits(64), "064b")
            decoded = decodes_as_the_reference(block_stream(2, *first, *second, tail))
            if not isinstance(decoded, str):
                assert decoded.symbols[len(first) + len(second) - 1] == symbol


def test_value_table_holds_the_whole_value_tokens_of_each_window():
    """Each entry spells the first one or two tokens of its window: codes
    from BLOCK_TABLE.codes and amplitudes from _AMPLITUDE. A window has
    an entry exactly when it starts with a whole AC value token (size >=
    1), and a second token when one follows whole; equal entries are one
    tuple."""

    def value_token(bits):
        """(symbol, value, length) of the whole AC value token that
        starts `bits`, or None."""
        code = next((bits[:n] for n in range(1, len(bits) + 1) if bits[:n] in SYMBOL_OF), None)
        symbol = SYMBOL_OF.get(code)
        if symbol is None or symbol >= DC_SYMBOL or not symbol & 15:
            return None
        end = len(code) + (symbol & 15)
        return (symbol, AMPLITUDE_VALUES[bits[len(code):end]], end) if end <= len(bits) else None

    kinds = Counter()
    for window, entry in enumerate(_PAIRS):
        bits = format(window, "012b")
        first = value_token(bits)
        if first is None:
            assert entry is None, bits
            continue
        second = value_token(bits[first[2]:])
        length, symbols, last, step, run1, value1, value2 = entry
        run2 = step - run1 - 2                       # of the second token, if any
        runs_values = [(run1, value1), (run2, value2)][:symbols]
        strings = [CODES[run << 4 | abs(v).bit_length()] + _AMPLITUDE[v] for run, v in runs_values]
        assert length == sum(map(len, strings)) and bits.startswith("".join(strings))
        assert (value1, run1) == (first[1], first[0] >> 4)
        if second is None:
            assert (symbols, step, value2) == (1, run1 + 1, value1), bits
        else:
            assert (symbols, value2, run2) == (2, second[1], second[0] >> 4), bits
        assert last == 64 - step, bits
        kinds[symbols] += 1
    assert kinds[1] and kinds[2]
    entries = [entry for entry in _PAIRS if entry]
    assert len({id(entry) for entry in entries}) == len(set(entries))


def test_a_value_at_index_63_is_not_paired_with_what_follows():
    """Tile 0 ends on a value at zig-zag index 63, with no EOB, and that
    token and the next tile's DC code fill one window: the entry there
    holds the one value, and the DC is read as a DC. When an AC value
    follows instead, the window holds a pair whose second write would
    land at 64, so the decoder reads the one value through the symbol
    path and then rejects the AC symbol at the next tile's DC. A pair
    whose second write lands on 63 is taken."""
    zrls = [CODES[ZRL]] * 3                          # zig-zag 1-48 are zero
    start = len(CODES[DC_SYMBOL]) + 3 * len(CODES[ZRL]) + len(token(0xD1, 1))
    assert len(token(0x01, 1) + CODES[DC_SYMBOL]) == 12
    tiles = np.zeros((2, 64), np.int64)
    tiles[0, 62:] = 1
    tiles = np.array([zigzag_unscan(row) for row in tiles])
    data = block_stream(2, CODES[DC_SYMBOL], *zrls, token(0xD1, 1), token(0x01, 1),
                        CODES[DC_SYMBOL], CODES[EOB])
    assert data == encode_blocks(tiles)
    assert _PAIRS[window_at(data, start)][1:] == (1, 63, 1, 0, 1, 1)
    assert np.array_equal(decodes_as_the_reference(data).coeffs, tiles)

    data = block_stream(2, CODES[DC_SYMBOL], *zrls, token(0xD1, 1), token(0x01, 1),
                        token(0x01, 1), CODES[EOB])
    assert _PAIRS[window_at(data, start)][1:] == (2, 62, 2, 0, 1, 1)
    assert decodes_as_the_reference(data) == "AC symbol where a DC category belongs"

    # the value at 62 is read through the symbol path (its code is 17 bits)
    data = block_stream(2, CODES[DC_SYMBOL], *zrls, token(0xC1, 1), token(0x01, 1),
                        token(0x01, 1), CODES[DC_SYMBOL], CODES[EOB])
    start = len(CODES[DC_SYMBOL]) + 3 * len(CODES[ZRL]) + len(token(0xC1, 1))
    assert len(CODES[0xC1]) > 12
    assert _PAIRS[window_at(data, start)][1:] == (2, 62, 2, 0, 1, 1)
    assert decodes_as_the_reference(data).tile_bits[0] == start + 2 * len(token(0x01, 1))


def test_a_pair_whose_second_run_passes_63_raises():
    """At zig-zag index 62 the window holds a value and then a value after
    one zero, which would land at 64: the decoder writes the first and
    rejects the run of the second, as symbol by symbol."""
    data = block_stream(1, CODES[DC_SYMBOL], *[CODES[ZRL]] * 3, token(0xC1, 1),
                        token(0x01, 1), token(0x11, 1))
    start = len(CODES[DC_SYMBOL]) + 3 * len(CODES[ZRL]) + len(token(0xC1, 1))
    assert _PAIRS[window_at(data, start)][1:] == (2, 61, 3, 0, 1, 1)
    assert decodes_as_the_reference(data) == "zero run past the end of a block"


@pytest.mark.parametrize("second, message", [
    ((0x02, 3, 0x11, 1), "bits ran out after 4 symbols"),
    ((0x03, 4, 0x04, 8), "bits ran out inside an amplitude"),
], ids=["in a code", "in an amplitude"])
def test_a_stream_cut_inside_a_pairs_second_token(second, message):
    """A cut after payload byte 3 falls in the second token of the pair
    at bit 16: in its code, or in its amplitude. The decoder raises at
    the same symbol as symbol by symbol."""
    symbol1, value1, symbol2, value2 = second
    pair = token(symbol1, value1) + token(symbol2, value2)
    data = block_stream(1, CODES[DC_SYMBOL], token(0x01, 1), token(0x01, -1), pair, CODES[EOB])
    assert len(CODES[DC_SYMBOL] + token(0x01, 1) + token(0x01, -1)) == 16
    code_end = 16 + len(token(symbol1, value1) + CODES[symbol2])
    assert (code_end > 24) == message.startswith("bits ran out after")
    assert 24 < 16 + len(pair) <= 28
    step = (symbol1 >> 4) + (symbol2 >> 4) + 2
    assert _PAIRS[window_at(data, 16)][1:] == (2, 64 - step, step, symbol1 >> 4, value1, value2)
    assert len(decodes_as_the_reference(data).symbols) == 6
    assert decodes_as_the_reference(data[:6]) == message


def test_a_zrl_after_a_pair_entry_value_before_eob_raises():
    """DC, a value written through a _PAIRS entry, ZRL, EOB: at the EOB the
    tile's last written index holds the ZRL's zero, so the decoder rejects
    the ZRL as symbol by symbol."""
    data = block_stream(1, CODES[DC_SYMBOL], token(0x01, 1), CODES[ZRL], CODES[EOB])
    assert _PAIRS[window_at(data, len(CODES[DC_SYMBOL]))][1:] == (1, 63, 1, 0, 1, 1)
    assert decodes_as_the_reference(data) == "ZRL before the end of a block"


def test_an_eob_after_a_pair_whose_second_value_is_last_decodes():
    """A pair writes its second value at the index just before the EOB;
    that nonzero is what tells the EOB it follows a value, not a ZRL."""
    data = block_stream(1, CODES[DC_SYMBOL], token(0x01, 1), token(0x11, -1), CODES[EOB])
    assert _PAIRS[window_at(data, len(CODES[DC_SYMBOL]))][1:] == (2, 61, 3, 0, 1, -1)
    decoded = decodes_as_the_reference(data)
    assert decoded.symbols == [DC_SYMBOL, 0x01, 0x11, EOB]
    assert zigzag_scan(decoded.coeffs[0])[:5].tolist() == [0, 1, 0, -1, 0]


def test_symbols_read_on_access_are_the_decoded_ones():
    """DecodedBlocks.symbols, worked out from the coefficients, is the
    reference decoder's symbol list on every single-bit flip of the paper
    example's stream that decodes, and on the dense forged stream; every
    other flip raises the reference's error text."""
    message = "I'm so proud to be Egyptian"
    block = _pack_block(message, "caesar", 16, hash_message(message, "sha512"))
    data = bytearray(encode_blocks(int_dct2(to_tiles(block))))
    decoded = 0
    for bit in range(8 * len(data)):
        data[bit // 8] ^= 0x80 >> (bit % 8)
        decoded += not isinstance(decodes_as_the_reference(bytes(data)), str)
        data[bit // 8] ^= 0x80 >> (bit % 8)
    assert decoded > 0
    dense = decodes_as_the_reference(encode_blocks(dense_forged_tiles()))
    assert len(dense.symbols) == 6 * 64


def test_cuts_at_the_decoders_word_boundaries_decode_as_the_reference():
    """The dense forged stream cut after every byte of two consecutive
    refill words, and after the last byte of every word, decodes as the
    reference does or raises its text. A cut stream ends inside some
    word, and a word read from its last byte must still be whole."""
    data = encode_blocks(dense_forged_tiles())
    # the lengths that end a word: word w is data[3 + 32w:3 + 32(w + 1)]
    ends = range(BLOCK_HEADER_BYTES + _WORD, len(data), _WORD)
    lengths = sorted({*range(ends[0] + 1, ends[2] + 1), *ends, len(data)})
    results = [decodes_as_the_reference(data[:n], 6) for n in lengths]
    assert results[-1].consumed == len(data)
    assert all(isinstance(result, str) for result in results[:-1])


def test_decoded_blocks_hand_over_one_read_only_zigzag_array():
    """decode_blocks hands its values over as one int64 (tiles, 64) array in
    zig-zag order, which cannot be written to; coeffs is that array in
    natural order, worked out once, and symbols reads it as the reference
    decoder reads the stream."""
    message = "I'm so proud to be Egyptian"
    block = _pack_block(message, "caesar", 16, hash_message(message, "sha512"))
    data = encode_blocks(int_dct2(to_tiles(block)))
    decoded = decode_blocks(data)
    zigzag = decoded.zigzag
    assert zigzag.dtype == np.int64 and zigzag.shape == (TILES, 64)
    with pytest.raises(ValueError):
        zigzag[0, 0] = 1
    for t in range(TILES):
        assert np.array_equal(decoded.coeffs[t], zigzag_unscan(zigzag[t]))
    assert decoded.coeffs is decoded.coeffs
    assert decoded.symbols == reference_decode(data)[1]


def test_the_largest_dc_walk_decodes_exactly():
    """A 4096-tile stream whose DC climbs by the largest difference, 2047,
    on each tile and then comes back down by -2047 holds DCs up to
    2047 * 2048, and every one decodes exactly."""
    dcs = 2047 * np.concatenate((np.arange(1, 2049), np.arange(2047, -1, -1)))
    tiles = np.zeros((4096, 8, 8), np.int64)
    tiles[:, 0, 0] = dcs
    decoded = decode_blocks(encode_blocks(tiles))
    assert np.array_equal(decoded.zigzag[:, 0], dcs)
    assert not decoded.zigzag[:, 1:].any()
    assert np.array_equal(decoded.coeffs, tiles)
