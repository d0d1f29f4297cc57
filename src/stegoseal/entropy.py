"""Zig-zag coefficient ordering and the Huffman-coded block stream.

The block stream is what the sealing pipeline embeds. It codes a stack
of 8x8 integer coefficient tiles the way baseline JPEG codes its blocks
(ITU-T T.81, Annex F.1.2):

    magic byte 0x4D
    tile count, 2 bytes big-endian (>= 1)
    per tile, in zig-zag order:
        DC  the category of the difference from the previous tile's DC
            (the first tile's is taken from 0), then its amplitude bits
        AC  for each nonzero value a (run, size) symbol, where run counts
            the zeros before it (0-15) and size is its category, then its
            amplitude bits; ZRL stands for 16 zeros of a longer run, and
            EOB ends a tile whose remaining values are all zero
    zero bits up to a whole byte

The category of a value v is the bit length of |v|; its amplitude bits
are the low `category` bits of v, or of v - 1 when v is negative, so
the first of them is 1 exactly when v > 0. Symbols are DC_SYMBOL + c for
a DC category c (0-11) and (run << 4) | size for AC (size 1-11), with EOB
= 0x00 and ZRL = 0xF0. These cover every coefficient of an 8-bit tile
under transform.int_dct2. All of them share one fixed canonical Huffman
table, BLOCK_TABLE, which never travels in the stream.

Decoding is strict. It rejects a symbol of the wrong kind (a DC category
among AC symbols or the reverse), a run past the end of a tile, a ZRL
that no nonzero value follows, and padding that is not zero. Every other
bit string decodes, so a stream is the only encoding of its coefficients:
encode_blocks(decode_blocks(data).coeffs) == data[:consumed].

Both directions are table-driven. As in JPEG (ITU-T T.81, Annex C), the
encoder emits each symbol from a precomputed bit string: a DC difference
or an AC value after no zeros keys a dict of code-plus-amplitude strings
that holds the values -2047..2047; after a run, the (run, size) code
precedes the value's amplitude string. The strings are joined once and
become bytes in one int(bits, 2). The encoder's core, _encode_rows,
takes each tile's zig-zag values as a list of Python ints: encode_blocks
checks its tiles and scans them into that form, and seal gathers them
straight from the transform's output. A tile whose AC values are all zero,
as found by one scan of them, writes its EOB right after its DC. A value
the dicts lack has no code: its KeyError stops the encoder at the first
symbol without a code, and the StreamError names that symbol from the
loop's state, the value and the run of zeros before it (None at a DC).
The decoder keeps the next bits of the stream in an integer, its hold.
Holding fewer than _REFILL = 29 bits (the longest code and amplitude), it
drops the bits it has read and takes in the next word of _WORD = 32
bytes, so the hold stays under 285 bits; the body is read with _WORD - 1
zero bytes after it, so that a word read from its last byte is whole. A
refill costs about one table lookup. The paper example's stream takes 5
refills of 32 bytes for its 115 lookups, against 18 of 8 bytes, and
words of 16 to 64 bytes decoded 6-9% faster than 8-byte ones and within
2% of each other, 32 as fast as any (ROADMAP, "Tried and rejected"). The
decoder indexes 4096-entry tables with the next 12 bits, as the fast
paths of zlib's inflate and libjpeg do. At an AC position, where those
bits start with one or two whole AC values of size >= 1, one lookup
writes both if both land inside the tile and the stream: its entry holds
the last index it may start at and how far it moves the index. All
else, and so every rejection, takes the symbol path, whose token table
gives the symbol, its code length and its amplitude size; that path
reads the amplitude bits from the hold and works out their value in
line. Each tile's values go into a list in zig-zag order. Only
after the last tile are the lists packed, with one struct call each,
into one buffer that becomes the read-only int64 array
DecodedBlocks.zigzag, shape (tiles, 64), so a stream rejected part of
the way through packs nothing.
DecodedBlocks.coeffs, the tiles in natural order, is worked out from
that array when first read. The decoder counts the symbols it reads, for
the error of a stream that runs out, and lists none:
DecodedBlocks.symbols works them out from the zig-zag values by the
encoder's rules when read, as a stream is the only encoding of its
coefficients. So the ZRL check reads the tile: an EOB at index k follows
a ZRL exactly when k > 1 and index k - 1 holds zero, since a value
leaves a nonzero there and the DC leaves k at 1. The 146 codes longer
than 12 bits, all of rare symbols, start in the last 10 windows, where
_TOKENS holds None: as the code is canonical and complete, they are its
last codes. There the symbol path indexes a second table built by the
same rule, _LONG_TOKENS, with the next 18 bits less the first of those
windows shifted left by 6; none of its 640 entries is None. zlib's
inflate reads the codes longer than its root table from such
second-level tables (inftrees.c). DC and AC symbols share this read, as
in libjpeg's decode_mcu (ITU-T T.81, Annex F.2.2), and the position in
the tile says which kind belongs there. The checks run in a fixed order:
truncation of a code, then the kind of the symbol and its run, then
truncation of an amplitude, then the padding.

How BLOCK_TABLE was derived: 1000 blocks were built by
pipeline._pack_block, as seal builds them, and their symbols counted;
every symbol of the alphabet was counted once more so that each gets a
code, and build_table turned the counts into code lengths, none longer
than 18 bits. The blocks come from random.Random(2110): message i has
1-120 characters drawn from letters, digits and " .,!?'\"-:;()", and
takes SHA-256 for even i and SHA-512 for odd i. It is sealed under a
Caesar key drawn from 0-25 when i mod 4 is 0 or 1, and else under a Hill
key of 9 entries drawn from 0-25 again until it is invertible mod 26,
after a random letter is appended to a message without one. No fixed
example message is among them. tests/test_entropy.py repeats the
derivation and checks that it gives this table.

Each refit of the table moves the magic, so that a stream coded under an
older table fails at its first byte instead of decoding under this one.
The table of magic 0x4A had been fitted on blocks with a decimal key row
and a hex digest row, that of 0x4B on blocks written without payload's
byte map and with a Caesar key row of 8 letters, and that of 0x4C on
blocks whose digest row wrote the hex letters a-f as the six characters
after 9. 0x4D is the table of today's blocks.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StreamError

BLOCK_MAGIC = 0x4D

# Standard JPEG zig-zag traversal of an 8x8 block, as flat row-major indices.
_ZIGZAG_FLAT = np.array((
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
))
_UNZIGZAG = np.argsort(_ZIGZAG_FLAT)


def zigzag_scan(block) -> np.ndarray:
    """Read an 8x8 integer matrix in zig-zag order; returns 64 values."""
    arr = np.asarray(block)
    if arr.shape != (8, 8):
        raise StreamError(f"zigzag scan needs an 8x8 block, got {arr.shape}")
    return np.take(arr, _ZIGZAG_FLAT)


def zigzag_unscan(seq) -> np.ndarray:
    """Place 64 values back into an 8x8 matrix, inverting zigzag_scan."""
    arr = np.asarray(seq)
    if arr.shape != (64,):
        raise StreamError(f"zigzag unscan needs 64 values, got shape {arr.shape}")
    return arr[_UNZIGZAG].reshape(8, 8)


@dataclass(frozen=True)
class HuffmanTable:
    """Prefix-free map from integer symbols to bit-string codewords."""

    codes: dict

    @classmethod
    def from_lengths(cls, lengths: dict) -> "HuffmanTable":
        """Assign canonical codewords given code lengths per symbol."""
        codes = {}
        code = 0
        prev_len = 0
        for sym, length in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
            code <<= length - prev_len
            codes[sym] = format(code, f"0{length}b")
            code += 1
            prev_len = length
        return cls(codes)


def build_table(frequencies: dict) -> HuffmanTable:
    """Build the optimal prefix code for the given symbol counts.

    Deterministic: merges prefer lower weight, then lower minimal contained
    symbol, then earlier creation order; the resulting lengths are handed
    to the canonical code assignment. A single-symbol alphabet gets "0".
    """
    if not frequencies:
        raise ValueError("no symbols to code")
    for sym, count in frequencies.items():
        if count <= 0:
            raise ValueError(f"symbol {sym} has non-positive count {count}")
    if len(frequencies) == 1:
        return HuffmanTable({next(iter(frequencies)): "0"})

    # heap items: (weight, min contained symbol, creation order, leaf symbols)
    heap = []
    for order, sym in enumerate(sorted(frequencies)):
        heap.append((frequencies[sym], sym, order, (sym,)))
    heapq.heapify(heap)
    order = len(heap)
    depths = {sym: 0 for sym in frequencies}
    while len(heap) > 1:
        w1, m1, _, syms1 = heapq.heappop(heap)
        w2, m2, _, syms2 = heapq.heappop(heap)
        merged = syms1 + syms2
        for sym in merged:
            depths[sym] += 1
        heapq.heappush(heap, (w1 + w2, min(m1, m2), order, merged))
        order += 1
    return HuffmanTable.from_lengths(depths)


# --- block stream ------------------------------------------------------------

BLOCK_HEADER_BYTES = 3
DC_SYMBOL = 0x100
EOB = 0x00
ZRL = 0xF0

# Code lengths of BLOCK_TABLE (see the module docstring): length -> symbols.
_BLOCK_CODE_LENGTHS = {
    2: (0x02, 0x03,),
    3: (0x01, 0x04,),
    4: (0x05,),
    5: (0x06, 0x13,),
    6: (0x00, 0x11, 0x12,),
    7: (0x14, 0x107, 0x108, 0x109,),
    8: (0x07, 0x15, 0x100, 0x106,),
    9: (0x16, 0x21, 0x23, 0x54, 0x55, 0x94, 0x95, 0xD1,),
    10: (0x22, 0x51, 0xD3, 0xD4, 0xD5, 0x102, 0x103, 0x104, 0x105,),
    11: (0x08, 0x24, 0x53, 0x56, 0x91, 0x93, 0x96, 0xD6, 0x101,),
    13: (0x31, 0x32, 0x33, 0x65,),
    14: (0x17, 0x25, 0x26, 0x34, 0x41, 0x64, 0x66, 0xA3, 0xA4, 0xA5, 0xA6, 0xE4, 0xE5,),
    15: (0x61, 0x63, 0x71, 0xA1,),
    16: (0x18, 0x42, 0x43, 0x52, 0x75, 0x81, 0x83, 0xB4, 0xB5, 0xD7, 0xE3, 0xE6,),
    17: (0x0B, 0x19, 0x1A, 0x1B, 0x27, 0x28, 0x29, 0x2A, 0x2B, 0x35, 0x36, 0x37, 0x38,
         0x39, 0x3A, 0x3B, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x4B, 0x57, 0x58,
         0x59, 0x5A, 0x5B, 0x62, 0x67, 0x68, 0x69, 0x6A, 0x6B, 0x72, 0x73, 0x74, 0x76,
         0x77, 0x78, 0x79, 0x7A, 0x7B, 0x82, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
         0x8B, 0x92, 0x97, 0x98, 0x99, 0x9A, 0x9B, 0xA2, 0xA7, 0xA8, 0xA9, 0xAA, 0xAB,
         0xB1, 0xB2, 0xB3, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xBB, 0xC1, 0xC2, 0xC3, 0xC4,
         0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xCB, 0xD2, 0xD8, 0xD9, 0xDA, 0xDB, 0xE1,
         0xE2, 0xE7, 0xE8, 0xE9, 0xEA, 0xEB, 0xF0, 0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6,
         0xF7, 0xF8, 0xF9, 0xFA, 0xFB, 0x10A, 0x10B,),
    18: (0x09, 0x0A,),
}

BLOCK_TABLE = HuffmanTable.from_lengths(
    {sym: length for length, syms in _BLOCK_CODE_LENGTHS.items() for sym in syms})
_LONGEST = max(_BLOCK_CODE_LENGTHS)
_WINDOW = 12
_WORD, _REFILL = 32, _LONGEST + 11     # the decoder's refill: see the module docstring


def _size(symbol: int) -> int:
    """Amplitude bits that follow a block symbol."""
    return symbol - DC_SYMBOL if symbol >= DC_SYMBOL else symbol & 15


def _amplitude_bits() -> dict:
    """The amplitude bits of each v with |v| < 2048, keyed by v. The s-bit
    strings are the (s-1)-bit ones after a 0, then after a 1; category s
    gives the second half to its positives and the first to its negatives,
    so the negatives, then the positives, run in increasing order."""
    negatives, positives, strings = [], [""], [""]
    for _ in range(11):
        zeros, ones = ["0" + b for b in strings], ["1" + b for b in strings]
        negatives, positives, strings = zeros + negatives, positives + ones, zeros + ones
    return dict(zip(range(-2047, 2048), negatives + positives))


# Encoder: amplitude, DC difference and run-0 AC bits, keyed by the codable
# values; a value past them raises KeyError.
_AMPLITUDE = _amplitude_bits()
_DC_BITS = {v: BLOCK_TABLE.codes[DC_SYMBOL + len(a)] + a for v, a in _AMPLITUDE.items()}
_AC_BITS = {v: BLOCK_TABLE.codes[len(a)] + a for v, a in _AMPLITUDE.items()}


def _tokens(window: int, base: int = 0) -> list:
    """A decoder symbol table, indexed by the next `window` bits less
    `base`. Its entry is (symbol, code length, amplitude size) of the code
    those bits start with, or None where that code is longer than the
    window. _TOKENS reads 12 bits from 0; _LONG_TOKENS reads 18 from
    _LONG_BASE, where the codes longer than 12 bits start."""
    table = [None] * ((1 << window) - base)
    for sym, code in BLOCK_TABLE.codes.items():
        room = window - len(code)
        if room >= 0 and (start := (int(code, 2) << room) - base) >= 0:
            table[start:start + (1 << room)] = [(sym, len(code), _size(sym))] * (1 << room)
    return table


_TOKENS = _tokens(_WINDOW)
# The code is canonical and complete, so the codes longer than the window
# are the last ones: they fill the windows from the first None on.
_LONG_BASE = _TOKENS.index(None) << (_LONGEST - _WINDOW)
_LONG_TOKENS = _tokens(_LONGEST, _LONG_BASE)


def _pairs() -> list:
    """The decoder's AC value table, indexed like _TOKENS. An entry is (bits,
    symbols, last, step, run1, value1, value2): the window starts with
    `symbols` (1 or 2) whole value tokens, which write value1 at k + run1
    and value2 at k + step - 1 and leave the tile at k + step, so they fit
    the tile from every start k <= last = 64 - step. One token has step
    run1 + 1 and value2 = value1; two have step run1 + run2 + 2. The
    tokens are the codes of BLOCK_TABLE with the amplitudes of _AMPLITUDE.
    Equal entries share one tuple."""
    amplitudes = {}     # amplitude size -> [(amplitude bits, value)]
    for value, amplitude in _AMPLITUDE.items():
        amplitudes.setdefault(len(amplitude), []).append((amplitude, value))
    # (bits, code and amplitude as an integer, run, value) of each AC value
    # token that fits the window, shortest first
    tokens = sorted((len(code) + len(amplitude), int(code + amplitude, 2), symbol >> 4, value)
                    for symbol, code in BLOCK_TABLE.codes.items()
                    if symbol < DC_SYMBOL and 0 < symbol & 15 <= _WINDOW - len(code)
                    for amplitude, value in amplitudes[symbol & 15])
    table = [None] * (1 << _WINDOW)
    for used, bits, run, value in tokens:
        room = _WINDOW - used
        start, end = bits << room, (bits + 1) << room
        table[start:end] = [(used, 1, 63 - run, run + 1, run, value, value)] * (end - start)
        for used2, bits2, run2, value2 in tokens:     # the second token, in the room left
            if used2 > room:
                break
            span = 1 << (room - used2)
            first = start | bits2 << (room - used2)
            step = run + run2 + 2
            table[first:first + span] = [(used + used2, 2, 64 - step, step, run, value,
                                          value2)] * span
    return table


_PAIRS = _pairs()


def block_stream_bound(tiles: int) -> int:
    """Most bytes a block stream of `tiles` tiles can take.

    A tile holds at most 64 coefficient symbols, 3 ZRLs and an EOB, none
    longer than the longest code plus 11 amplitude bits.
    """
    return BLOCK_HEADER_BYTES + (tiles * 68 * (_LONGEST + 11) + 7) // 8


# One tile's 64 zig-zag values as native int64, the layout of an int64 array row.
_PACK_TILE = struct.Struct("=64q").pack


@dataclass(frozen=True, eq=False)
class DecodedBlocks:
    """What decode_blocks read from the start of a buffer. The decoder
    hands over its values as one packed array, zigzag; coeffs and symbols
    are worked out from it on first access. It holds an array, so == and
    hash go by identity."""

    zigzag: np.ndarray     # int64, shape (tiles, 64), zig-zag order, read-only
    payload_bits: int      # bits after the header, padding excluded
    consumed: int          # bytes of the whole stream
    tile_bits: list        # the payload bits of each tile, in stream order

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The tiles in natural order: int64, shape (tiles, 8, 8)."""
        return self.zigzag[:, _UNZIGZAG].reshape(-1, 8, 8)

    @cached_property
    def symbols(self) -> list:
        """The Huffman symbols, in stream order, worked out from zigzag on
        first access by encode_blocks' rules: a stream that decodes is the
        only encoding of its coefficients."""
        symbols, previous = [], 0
        for row in self.zigzag.tolist():
            symbols.append(DC_SYMBOL + abs(row[0] - previous).bit_length())
            previous, run = row[0], 0
            for value in row[1:]:
                if value:
                    symbols += [ZRL] * (run >> 4)
                    symbols.append((run & 15) << 4 | abs(value).bit_length())
                    run = 0
                else:
                    run += 1
            if run:
                symbols.append(EOB)
        return symbols


def encode_blocks(coeffs) -> bytes:
    """Serialize integer coefficient tiles, shape (n, 8, 8), as a block stream."""
    arr = np.asarray(coeffs)
    if arr.ndim != 3 or arr.shape[1:] != (8, 8) or not 1 <= arr.shape[0] <= 0xFFFF:
        raise StreamError(f"expected 1-65535 tiles of shape (n, 8, 8), got {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise TypeError(f"coefficients must be integers, got {arr.dtype}")
    return _encode_rows(arr.reshape(-1, 64)[:, _ZIGZAG_FLAT].tolist())


def _encode_rows(rows: list) -> bytes:
    """encode_blocks on its tiles' zig-zag values: one list of 64 ints per
    tile, 1-65535 tiles. Seal gathers them straight from the transform."""
    amplitude, dc_bits, ac_bits, codes = _AMPLITUDE, _DC_BITS, _AC_BITS, BLOCK_TABLE.codes
    bits = [format(BLOCK_MAGIC << 16 | len(rows), "024b")]
    append = bits.append
    previous = 0
    try:
        for row in rows:
            run, value = None, row[0] - previous      # run None: a DC symbol
            append(dc_bits[value])
            previous = row[0]
            ac = row[1:]
            if not any(ac):
                append(codes[EOB])
                continue
            run = 0
            for value in ac:
                if not value:
                    run += 1
                elif not run:
                    append(ac_bits[value])
                else:
                    while run > 15:
                        append(codes[ZRL])
                        run -= 16
                    amp = amplitude[value]
                    append(codes[run << 4 | len(amp)])
                    append(amp)
                    run = 0
            if run:
                append(codes[EOB])
    except KeyError:
        size = abs(value).bit_length()
        symbol = DC_SYMBOL + size if run is None else run << 4 | size
        raise StreamError(f"coefficient symbol {symbol:#x} has no code" if run is None or size < 16
                          else f"coefficient category {size} has no code") from None
    stream = "".join(bits)
    spare = -len(stream) % 8
    return (int(stream, 2) << spare).to_bytes((len(stream) + spare) // 8, "big")


def decode_blocks(data: bytes, tiles: int | None = None) -> DecodedBlocks:
    """Decode a block stream at the start of `data`, ignoring what follows.

    When `tiles` is given, a header that declares another tile count is
    rejected before any symbol is read. Raises StreamError on anything
    encode_blocks would not have written.
    """
    if len(data) < BLOCK_HEADER_BYTES or data[0] != BLOCK_MAGIC:
        raise StreamError("missing block stream header")
    count = int.from_bytes(data[1:3], "big")
    if count == 0:
        raise StreamError("block stream with zero tiles")
    if tiles is not None and count != tiles:
        raise StreamError(f"stream declares {count} tiles, expected {tiles}")
    body = b"".join((memoryview(data)[BLOCK_HEADER_BYTES:block_stream_bound(count)],
                     bytes(_WORD - 1)))    # zeros: the checks below stop the decoder there
    nbits = 8 * (len(body) - _WORD + 1)
    # acc holds the next `have` bits in its low bits; i bytes of body are
    # read, and a read that leaves `have` below `slack` ran past nbits
    acc = have = i = dc = read = 0     # read: the symbols decoded so far
    slack = -nbits
    tokens, longs, long_base = _TOKENS, _LONG_TOKENS, _LONG_BASE
    pairs, window, refill = _PAIRS, _WINDOW, _REFILL
    word, span = _WORD, 8 * _WORD    # bytes and bits of one refill
    rows, ends = [], []   # each decoded tile's zig-zag values, and the bit after it
    for _ in range(count):
        zz = [0] * 64
        rows.append(zz)
        k = 0
        while k < 64:
            if have < refill:
                acc = (acc & ((1 << have) - 1)) << span | int.from_bytes(body[i:i + word], "big")
                i += word
                have += span
                slack += span
            index = (acc >> (have - window)) & 0xFFF
            if k and (entry := pairs[index]):        # one or two whole AC values
                bits, symbols, last, step, run1, value1, value2 = entry
                if k <= last and have - bits >= slack:
                    zz[k + run1] = value1
                    k += step
                    zz[k - 1] = value2
                    have -= bits
                    read += symbols
                    continue
            symbol, length, size = (tokens[index] or
                                    longs[(acc >> (have - _LONGEST) & 0x3FFFF) - long_base])
            have -= length
            if have < slack:
                raise StreamError(f"bits ran out after {read} symbols")
            read += 1
            if symbol < DC_SYMBOL and k:
                if size:
                    k += symbol >> 4
                    if k >= 64:
                        raise StreamError("zero run past the end of a block")
                    have -= size
                    if have < slack:
                        raise StreamError("bits ran out inside an amplitude")
                    value = (acc >> have) & ((1 << size) - 1)
                    zz[k] = value if value >> (size - 1) else value + 1 - (1 << size)
                    k += 1
                elif symbol == EOB:
                    if k > 1 and not zz[k - 1]:         # a ZRL came last
                        raise StreamError("ZRL before the end of a block")
                    break
                else:                                   # ZRL
                    k += 16
                    if k >= 64:
                        raise StreamError("zero run past the end of a block")
            elif k:
                raise StreamError("DC category where an AC symbol belongs")
            elif symbol < DC_SYMBOL:
                raise StreamError("AC symbol where a DC category belongs")
            else:
                if size:
                    have -= size
                    if have < slack:
                        raise StreamError("bits ran out inside an amplitude")
                    value = (acc >> have) & ((1 << size) - 1)
                    dc += value if value >> (size - 1) else value + 1 - (1 << size)
                zz[0] = dc
                k = 1
        ends.append(slack + nbits - have)
    pos = ends[-1]
    if pos & 7 and body[pos >> 3] & ((0x100 >> (pos & 7)) - 1):
        raise StreamError("padding bits after the last block are not zero")
    zigzag = np.frombuffer(b"".join([_PACK_TILE(*zz) for zz in rows]), np.int64)
    return DecodedBlocks(zigzag.reshape(count, 64), pos,
                         BLOCK_HEADER_BYTES + (pos + 7) // 8,
                         [end - start for start, end in zip([0] + ends, ends)])


def decode_prefix(data: bytes):
    """Decode the block stream at the start of `data`, ignoring what follows.

    Returns (symbols, BLOCK_TABLE, consumed), where consumed is the byte
    length of the stream; raises as decode_blocks does.
    """
    decoded = decode_blocks(data)
    return decoded.symbols, BLOCK_TABLE, decoded.consumed
