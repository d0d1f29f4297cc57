"""End-to-end sealing and verification of a message inside a cover image.

Sealing runs encrypt -> hash -> pack -> tile -> int_dct2 -> zig-zag ->
(run, size) Huffman coding with the fixed table -> embed. The tiles are
consecutive 64-byte runs of the block, and the transform is the exactly
invertible integer DCT, so no quantization step is needed. Seal and
verify run the transform's cores, which int_dct2 and int_idct2 wrap, on
their own data gathered straight into and out of the cores' layout (see
the gather tables below), so no tile array is built. Verification runs
the exact reverse and yields one of three verdicts:

    VERIFIED     the stream decoded, the recomputed digest equals the
                 embedded one, the block is byte for byte the one
                 _pack_block writes for the recovered message, and the
                 expected key (if given) matches
    TAMPERED     the stream decoded but one of those checks failed
    UNDECODABLE  the stream would not decode at all; no message is claimed,
                 and the reason is "<stage class>: <detail>", where the
                 class (StreamError, BlockError or CipherError) names the
                 step that rejected the image

Every step between the block and the stream is one-to-one: the decoder
rejects each bit string that encode_blocks would not have written, and
the inverse transform is the exact inverse of int_dct2 on integers. A
stream that decodes is therefore the only encoding of its block, and a
changed stream that still decodes yields a changed block.
The digest alone does not catch every changed block: the integer
transform can turn one flipped bit into a change of a few bytes by 1,
and Hill decryption drops non-letters. So verify rebuilds the block from
the recovered message with _pack_block, as seal builds it, and requires
it to match, so a message _pack_block refuses has no sealed form. Seal
checks that both inverse transform passes give back their input, so the
block, before it embeds anything.

The key travels inside the payload (row 1), so verification needs no
out-of-band secret; anyone holding the image can decode and re-seal it.
This mirrors the scheme's design and is an integrity mechanism only, not
confidentiality. When a key is supplied for verification, it is compared
by value with the key read from row 1, as an extra tamper signal. Row 1
holds one letter per key entry, each 8 * (16 // entries) times over: a
Caesar key fills the row with its letter and a Hill key writes 9 runs of
8 (see payload). Verify checks it by writing it again: _read_key_row
takes the entry count from the row's length, turns the first letter of
each run into the run _key_text writes for it and raises CipherError, so
UNDECODABLE, unless that gives the row back. Its letters, like the
decimal entries of a --key in parse_key_text, then go through _key, the
one function that turns key entries into a key in SealConfig's form.

Row 2 holds the digest as the lowercase hex that hash_message returns,
and the report and the CLI print that row as it is.

Verify reads the embed mode from the image, as it reads the digest
algorithm: stream_mode names lsb1 when pixel 1 is odd and overwrite
otherwise. Only that mode can hold a stream: overwrite writes the tile
count's high byte, 0x00, to pixel 1, and lsb1 writes bit 6 of
BLOCK_MAGIC, a 1, to its lowest bit.

With the Hill cipher the protected message is its normalized form
(uppercase letters only); 'X' padding added for the 3-letter blocks is
stripped on verification by trying each possible pad count against the
embedded digest.
"""

from __future__ import annotations

import contextlib
import operator
from dataclasses import dataclass, field

import numpy as np

from . import digest as _digest
from .cipher import (HILL_PAD, _check_shift, _inverse_rows, _key_rows,
                     caesar_decrypt, caesar_encrypt, hill_decrypt, hill_encrypt,
                     normalize_letters)
from .entropy import (DecodedBlocks, _encode_rows, block_stream_bound,
                      decode_blocks, zigzag_unscan)
from .errors import BlockError, CipherError, EmbedError, StegosealError
from .payload import BLOCK_BYTES, ROW_LENGTH, TILES, pack, unpack
from .pgm import GrayImage
from .stego import LSB1, MODES, OVERWRITE, capacity, embed, extract
from .transform import _forward, _inverse, _with_ones

CAESAR = "caesar"
HILL = "hill"
CIPHERS = (CAESAR, HILL)

# Most bytes a sealed stream can take. Seal writes the stream from the first
# pixel in raster order, and read_stream reads no byte past this bound, so
# both touch only the first STREAM_BOUND pixels in overwrite mode and 8 times
# as many in lsb1 mode.
STREAM_BOUND = block_stream_bound(TILES)

# Flat indices between the pipeline's data and the layout of the transform's
# cores: seal and verify each gather their data into a core with one take and
# out of it with one more, and build no tile array.
# Seal reads transform._forward's input, laid out (x, tile, y) over a row of
# ones, from the block's bytes and a 1 after them: byte 8x + y of tile k is
# block byte 64k + 8x + y, and every entry of row 8 reads the 1.
_TILE_ORDER = np.full((9, 8 * TILES), BLOCK_BYTES)
_TILE_ORDER[:8] = np.arange(BLOCK_BYTES).reshape(TILES, 8, 8).transpose(1, 0, 2).reshape(8, -1)
# _recover_block reads the block's bytes from transform._inverse's output,
# laid out the same way: the inverse gather.
_BLOCK_ORDER = np.argsort(_TILE_ORDER, axis=None)[:BLOCK_BYTES]
# _recover_block reads each coefficient from the TILES zig-zag rows of a
# decoded stream, laid out (v, tile, u) as transform._inverse takes them
# once _with_ones adds the row of ones: 64 * tile plus the zig-zag index of
# coeffs[tile, u, v].
_INVERSE_ORDER = (zigzag_unscan(np.arange(64)).T[:, None, :]
                  + 64 * np.arange(TILES)[:, None]).reshape(8, -1)
# Seal reads each tile's zig-zag values, for entropy._encode_rows, the core of
# encode_blocks, from _forward's output, laid out (v, tile, u): the inverse
# gather.
_ZIGZAG_ORDER = np.argsort(_INVERSE_ORDER, axis=None).reshape(TILES, 64)

VERIFIED = "VERIFIED"
TAMPERED = "TAMPERED"
UNDECODABLE = "UNDECODABLE"


@dataclass(frozen=True)
class SealConfig:
    """Everything the pipeline needs besides the message and the cover. It is
    checked once, when built, and frozen, so no field can be set after that.
    Keys are stored as plain values, a caesar_key as an int and a hill_key
    as a tuple of its three rows of ints reduced mod 26, so == and hash
    compare them."""

    cipher: str = CAESAR
    caesar_key: int | None = None
    hill_key: tuple | None = None
    digest_algorithm: str = _digest.DEFAULT_ALGORITHM
    embed_mode: str = OVERWRITE  # seal only: verify reads it with stream_mode

    @property
    def key(self):
        """The key of the chosen cipher: caesar_key or hill_key."""
        return self.caesar_key if self.cipher == CAESAR else self.hill_key

    def __post_init__(self) -> None:
        if self.cipher not in CIPHERS:
            raise ValueError(f"unknown cipher {self.cipher!r}")
        if self.digest_algorithm not in _digest.ALGORITHMS:
            raise ValueError(f"unknown digest algorithm {self.digest_algorithm!r}")
        if self.embed_mode not in MODES:
            raise ValueError(f"unknown embed mode {self.embed_mode!r}")
        other = HILL if self.cipher == CAESAR else CAESAR
        if getattr(self, f"{other}_key") is not None:
            raise ValueError(f"{other} key given but cipher is {self.cipher}")
        if self.key is None:
            return
        if self.cipher == CAESAR:
            key = _check_shift(self.key)
        else:
            key = _key_rows(self.key)
            _inverse_rows(key)  # raises CipherError early
        object.__setattr__(self, f"{self.cipher}_key", key)


@dataclass
class VerificationReport:
    """The verdict on an image. An UNDECODABLE reason reads
    "<stage class>: <detail>", as in "StreamError: missing block stream header".
    `stream` is the one decoded in `mode`, whatever the verdict, or None if none did;
    == leaves it out and compares what the reports say."""

    verdict: str
    recovered_message: str = ""
    embedded_digest: str = ""
    recomputed_digest: str = ""
    reason: str = ""
    mode: str = OVERWRITE
    stream: DecodedBlocks | None = field(default=None, compare=False)


def _key(entries: list):
    """(kind, key) of 1 (Caesar) or 9 (Hill, row-major) key entries in
    [0, 25], the key in SealConfig's form; ValueError for any other list."""
    if len(entries) == 1 and 0 <= entries[0] <= 25:
        return CAESAR, entries[0]
    if len(entries) == 9 and 0 <= min(entries) and max(entries) <= 25:
        a, b, c, d, e, f, g, h, i = entries
        return HILL, ((a, b, c), (d, e, f), (g, h, i))
    raise ValueError(entries)


def parse_key_text(text: str):
    """Parse a --key, 1 or 9 comma-separated entries of ASCII digits, into
    ("caesar", shift) or ("hill", rows), as _key returns them. int() alone
    would also take a sign, spaces, underscores and other scripts' digits."""
    parts = text.split(",")
    if all(part.isascii() and part.isdigit() for part in parts):
        with contextlib.suppress(ValueError):  # from _key, or int() past the digit limit
            return _key([int(part) for part in parts])
    raise CipherError(f"key {text!r} is not 1 or 9 comma-separated integers in [0, 25]")


def _key_repeat(entries: int) -> int:
    """How often payload row 1 writes each of `entries` key letters
    (A = 0 ... Z = 25): 8 for Hill, one 8-byte row of a tile each, and
    128 for Caesar, both tiles of the row."""
    return 8 * (16 // entries)


# Payload row 1's run of each key letter (A = 0), by the key's entry count;
# _ROW_RUNS indexes them by code point for str.translate, which deletes code
# points below "A" and keeps one past "Z" as one character, not a run.
_KEY_RUNS = {n: tuple(chr(ord("A") + v) * _key_repeat(n) for v in range(26)) for n in (1, 9)}
_ROW_RUNS = {n: (None,) * ord("A") + runs for n, runs in _KEY_RUNS.items()}


def _key_text(kind: str, key) -> str:
    """Payload row 1 as seal writes it for a key in SealConfig's form, the
    one form verify accepts."""
    values = (key,) if kind == CAESAR else (*key[0], *key[1], *key[2])
    runs = _KEY_RUNS[len(values)]
    return "".join([runs[v] for v in values])


def _read_key_row(row: str):
    """Payload row 1 back as _key gives it: a full row is one Caesar letter
    and any other row 9 Hill letters, read at their repeat, when their runs
    give this very row, the one _key_text writes for that key."""
    entries = 1 if len(row) == ROW_LENGTH else 9
    repeat = _key_repeat(entries)
    letters = row[::repeat]
    if len(row) == entries * repeat and letters.translate(_ROW_RUNS[entries]) == row:
        return _key([byte - ord("A") for byte in letters.encode()])
    raise CipherError(f"key row {row!r} is not 1 group of {_key_repeat(1)} or 9 groups "
                      f"of {_key_repeat(9)} equal letters A-Z")


def _pack_block(protected: str, kind: str, key, digest_hex: str) -> bytes:
    """The block seal writes for the protected message under `key`, with
    the lowercase hex digest_hex as row 2; seal and verify refuse "" here."""
    if not protected:
        raise CipherError("refusing to seal an empty message")
    encrypt = caesar_encrypt if kind == CAESAR else hill_encrypt
    return pack(encrypt(protected, key), _key_text(kind, key), digest_hex)


def _is_sealed_form(block: bytes, message: str, kind: str, key,
                    digest_hex: str) -> bool:
    """Whether `block` is byte for byte what _pack_block writes for `message`,
    False for a message it refuses: VERIFIED needs a block _pack_block writes.

    This catches the changes that decryption ignores, such as a nonzero
    byte in the zero padding of a Hill ciphertext or a lowercase letter in
    it, which normalize_letters would drop or fold. The key row needs no
    such check: _read_key_row accepts only the form _key_text writes."""
    try:
        return _pack_block(message, kind, key, digest_hex) == block
    except StegosealError:
        return False


def _recover_block(zigzag: np.ndarray) -> bytes:
    """Inverse transform: the TILES zig-zag rows of a decoded stream back to
    the byte block, the bytes of int_idct2(coeffs). One gather and a row of
    ones put the rows in the layout of the transform's core, _inverse,
    without int_idct2's 2**35 guard: the decoder caps every DC difference
    and AC value at 2047, so a DC is at most 6 * 2047 = 12 282 in
    magnitude. One more gather puts the result in block order."""
    block = _inverse(_with_ones(zigzag.take(_INVERSE_ORDER))).take(_BLOCK_ORDER)
    if block.min() < 0 or block.max() > 255:
        raise BlockError("reconstructed bytes fall outside [0, 255]")
    return block.astype(np.uint8).tobytes()


def seal(message: str, config: SealConfig, cover: GrayImage) -> GrayImage:
    """Seal `message` into `cover`; the result verifies under the same config."""
    if config.key is None:
        raise ValueError(f"sealing with the {config.cipher} cipher needs {config.cipher}_key")
    protected = message if config.cipher == CAESAR else normalize_letters(message)
    digest_hex = _digest.hash_message(protected, config.digest_algorithm)
    block = _pack_block(protected, config.cipher, config.key, digest_hex)

    # int_dct2(to_tiles(block)), checked and zig-zag scanned, with no tile array:
    tiles = np.frombuffer(block + b"\x01", np.uint8).take(_TILE_ORDER).astype(float)
    rows = _forward(tiles, True).take(_ZIGZAG_ORDER).astype(np.int64).tolist()
    return embed(cover, _encode_rows(rows), config.embed_mode)


def stream_mode(stego: GrayImage) -> str:
    """The embed mode that can hold a stream in `stego`: LSB1 when pixel 1
    is odd, OVERWRITE otherwise (see the module docstring)."""
    pixel_1 = stego.tobytes()[1:2]  # empty in a 1-pixel image
    return LSB1 if pixel_1 and pixel_1[0] & 1 else OVERWRITE


def read_stream(stego: GrayImage, mode: str) -> DecodedBlocks:
    """Decode the block stream embedded in `mode`, reading at most
    STREAM_BOUND bytes, and reject a header that declares another tile
    count than the block's."""
    return decode_blocks(extract(stego, min(capacity(stego, mode), STREAM_BOUND), mode), TILES)


def verify(stego: GrayImage, config: SealConfig | None = None) -> VerificationReport:
    """Extract, decode and check a sealed image. Never raises on bad data.
    Of a config, only a key is read: the embedded key must equal it."""
    mode, decoded = stream_mode(stego), None
    try:
        decoded = read_stream(stego, mode)
        block = _recover_block(decoded.zigzag)
        ciphertext, key_row, embedded_digest = unpack(block)
        kind, key = _read_key_row(key_row)
        message, recomputed = _decrypt_and_hash(ciphertext, kind, key, embedded_digest)
    except StegosealError as exc:
        return VerificationReport(UNDECODABLE, reason=f"{type(exc).__name__}: {exc}",
                                  mode=mode, stream=decoded)

    problems = []
    if not recomputed or recomputed != embedded_digest:  # "": a length of no algorithm
        problems.append("digest mismatch")
    elif not _is_sealed_form(block, message, kind, key, recomputed):
        problems.append("block differs from the one seal writes for its message")
    if config and config.key is not None and config.key != key:
        problems.append("embedded key differs from the expected key")
    verdict = VERIFIED if not problems else TAMPERED
    return VerificationReport(verdict, message, embedded_digest, recomputed,
                              "; ".join(problems), mode, decoded)


def tamper(image: GrayImage, pixel_index: int, bit: int) -> GrayImage:
    """Flip one bit of one pixel; bit 0 is the least significant.

    Both are read through operator.index, and neither may be a bool: numpy
    would take a numpy bool as a mask and flip every pixel or none, and True
    would name pixel 1, so either, like a float, is a ValueError.
    """
    return GrayImage(image.width, image.height,
                     b"".join(_tampered_raster(image, pixel_index, bit)))


def _tampered_raster(image: GrayImage, pixel_index: int, bit: int) -> tuple:
    """tamper's raster in three pieces, after tamper's checks: the pixels
    before the flipped one, its flipped byte, and the pixels after it. The
    CLI writes them to --out as they are, with no joined copy."""
    try:
        if isinstance(pixel_index, bool) or isinstance(bit, bool):
            raise TypeError
        pixel_index, bit = operator.index(pixel_index), operator.index(bit)
    except TypeError:
        raise ValueError(f"pixel and bit must be integers, got {pixel_index!r} "
                         f"and {bit!r}") from None
    if not 0 <= pixel_index < image.width * image.height:
        raise EmbedError(f"pixel {pixel_index} outside {image.width}x{image.height}")
    if not 0 <= bit <= 7:
        raise EmbedError(f"bit {bit} outside [0, 7]")
    raster = memoryview(image.tobytes())
    return (raster[:pixel_index], bytes([raster[pixel_index] ^ 1 << bit]),
            raster[pixel_index + 1:])


def _decrypt_and_hash(ciphertext: str, kind: str, key, embedded_digest: str):
    """Decrypt and recompute the digest, resolving Hill pad ambiguity.

    The digest algorithm is recovered from the embedded digest's length, so
    verification works whatever algorithm the sealer chose.
    """
    algorithm = _digest.algorithm_for_hex_length(len(embedded_digest))
    decrypt, pads = (caesar_decrypt, ()) if kind == CAESAR else (hill_decrypt, (1, 2))
    full = decrypt(ciphertext, key)
    if algorithm is None:
        return full, ""
    recomputed = _digest.hash_message(full, algorithm)
    if recomputed != embedded_digest:
        for candidate in (full[:-pad] for pad in pads if full.endswith(HILL_PAD * pad)):
            if _digest.hash_message(candidate, algorithm) == embedded_digest:
                return candidate, embedded_digest
    return full, recomputed
