"""End-to-end sealing and verification of a message inside a cover image.

Sealing runs encrypt -> hash -> pack -> tile -> int_dct2 -> zig-zag ->
(run, size) Huffman coding with the fixed table -> embed. The tiles are
consecutive 64-byte runs of the block, and the transform is the exactly
invertible integer DCT, so no quantization step is needed. Verification
runs the exact reverse and yields one of three verdicts:

    VERIFIED     the stream decoded, the recomputed digest equals the
                 embedded one, the block is byte for byte the one seal
                 writes for the recovered message, and the expected key
                 (if given) matches
    TAMPERED     the stream decoded but one of those checks failed
    UNDECODABLE  the stream would not decode at all; no message is claimed,
                 and the reason is "<stage class>: <detail>", where the
                 class (StreamError, BlockError or CipherError) names the
                 step that rejected the image

Every step between the block and the stream is one-to-one: the decoder
rejects each bit string that encode_blocks would not have written, and
int_idct2 is the exact inverse of int_dct2 on integers. A stream that
decodes is therefore the only encoding of its block, and a changed
stream that still decodes yields a changed block. The digest alone does
not catch every changed block: the integer transform can turn one
flipped bit into a change of a few bytes by 1, and Hill decryption drops
non-letters. So verify rebuilds the block from the recovered message
and requires it to match. Seal checks that the inverse transform gives
back the block before it embeds anything.

The key travels inside the payload (row 1), so verification needs no
out-of-band secret; anyone holding the image can decode and re-seal it.
This mirrors the scheme's design and is an integrity mechanism only, not
confidentiality. When a key is supplied for verification it is checked
against the embedded one as an extra tamper signal.

Verify needs no embed mode either: with embed_mode=None it takes the first
of stego.MODES whose stream decodes and names it in report.mode (the first
mode when none does). At most one can: overwrite puts 0x00 in pixel 1,
and lsb1 makes pixel 1 odd. Seal needs a mode.

With the Hill cipher the protected message is its normalized form
(uppercase letters only); 'X' padding added for the 3-letter blocks is
stripped on verification by trying each possible pad count against the
embedded digest.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import digest as _digest
from .cipher import (HILL_PAD, _as_key, _check_shift, caesar_decrypt,
                     caesar_encrypt, hill_decrypt, hill_encrypt,
                     hill_key_inverse, normalize_letters)
from .entropy import (DecodedBlocks, block_stream_bound, decode_blocks,
                      encode_blocks)
from .errors import BlockError, CipherError, EmbedError, StegosealError
from .payload import TILES, from_tiles, pack, to_tiles, unpack
from .pgm import GrayImage
from .stego import MODES, OVERWRITE, capacity, embed, extract
from .transform import int_dct2, int_idct2

CAESAR = "caesar"
HILL = "hill"
CIPHERS = (CAESAR, HILL)

# Most bytes a sealed stream can take. Seal writes the stream from the first
# pixel in raster order, and read_stream reads no byte past this bound, so
# both touch only the first STREAM_BOUND pixels in overwrite mode and 8 times
# as many in lsb1 mode.
STREAM_BOUND = block_stream_bound(TILES)

VERIFIED = "VERIFIED"
TAMPERED = "TAMPERED"
UNDECODABLE = "UNDECODABLE"


@dataclass
class SealConfig:
    """Everything the pipeline needs besides the message and the cover."""

    cipher: str = CAESAR
    caesar_key: int | None = None
    hill_key: object = None
    digest_algorithm: str = _digest.DEFAULT_ALGORITHM
    embed_mode: str | None = OVERWRITE  # None: verify detects the mode

    @property
    def key(self):
        """The key of the chosen cipher: caesar_key or hill_key."""
        return self.caesar_key if self.cipher == CAESAR else self.hill_key

    def validate(self, sealing: bool = False) -> None:
        if self.cipher not in CIPHERS:
            raise ValueError(f"unknown cipher {self.cipher!r}")
        if self.digest_algorithm not in _digest.ALGORITHMS:
            raise ValueError(f"unknown digest algorithm {self.digest_algorithm!r}")
        if self.embed_mode not in MODES and (sealing or self.embed_mode is not None):
            raise ValueError(f"unknown embed mode {self.embed_mode!r}")
        other = HILL if self.cipher == CAESAR else CAESAR
        if getattr(self, f"{other}_key") is not None:
            raise ValueError(f"{other} key given but cipher is {self.cipher}")
        if self.key is None:
            if sealing:
                raise ValueError(f"sealing with the {self.cipher} cipher needs {self.cipher}_key")
        elif self.cipher == CAESAR:
            _check_shift(self.key)
        else:
            hill_key_inverse(self.key)  # raises CipherError early


@dataclass
class VerificationReport:
    """The verdict on an image. An UNDECODABLE reason reads
    "<stage class>: <detail>", as in "StreamError: missing block stream header"."""

    verdict: str
    recovered_message: str = ""
    embedded_digest: str = ""
    recomputed_digest: str = ""
    reason: str = ""
    mode: str = OVERWRITE


def parse_key_text(text: str):
    """Parse payload row 1 or a --key into ("caesar", shift) or ("hill", matrix)."""
    if "," in text:
        parts = text.split(",")
        if len(parts) != 9:
            raise CipherError(f"hill key row has {len(parts)} entries, needs 9")
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise CipherError("hill key row is not all integers") from None
        if any(not 0 <= v <= 25 for v in vals):
            raise CipherError("hill key entries must be in [0, 25]")
        return HILL, np.array(vals, dtype=np.int64).reshape(3, 3)
    try:
        shift = int(text)
    except ValueError:
        raise CipherError(f"key row {text!r} is not an integer") from None
    if not 0 <= shift <= 25:
        raise CipherError(f"caesar key {shift} out of range")
    return CAESAR, shift


def _key_text(kind: str, key) -> str:
    """Payload row 1 as seal writes it for `key`, the one form verify accepts."""
    if kind == CAESAR:
        return str(_check_shift(key))
    return ",".join(str(v) for v in _as_key(key).ravel())


def _pack_block(protected: str, kind: str, key, digest_hex: str) -> bytes:
    """The block seal writes for the protected message under `key`."""
    encrypt = caesar_encrypt if kind == CAESAR else hill_encrypt
    return pack(encrypt(protected, key), _key_text(kind, key), digest_hex)


def _is_sealed_form(block: bytes, message: str, kind: str, key,
                    digest_hex: str) -> bool:
    """Whether `block` is byte for byte what seal writes for `message`.

    This catches the changes that decryption ignores, such as a nonzero
    byte in the zero padding of a Hill ciphertext, or a key row such as
    "16\\t" (a tab after the digits) that still parses as 16.
    """
    try:
        return _pack_block(message, kind, key, digest_hex) == block
    except StegosealError:
        return False


def _recover_block(coeffs) -> bytes:
    """Inverse transform: coefficient tiles back to the byte block."""
    tiles = int_idct2(coeffs)
    if (tiles < 0).any() or (tiles > 255).any():
        raise BlockError("reconstructed bytes fall outside [0, 255]")
    return from_tiles(tiles.astype(np.uint8))


def seal(message: str, config: SealConfig, cover: GrayImage) -> GrayImage:
    """Seal `message` into `cover`; the result verifies under the same config."""
    if not message:
        raise CipherError("refusing to seal an empty message")
    config.validate(sealing=True)
    protected = message if config.cipher == CAESAR else normalize_letters(message)
    digest_hex = _digest.hash_message(protected, config.digest_algorithm)
    block = _pack_block(protected, config.cipher, config.key, digest_hex)

    tiles = to_tiles(block)
    coeffs = int_dct2(tiles)
    if not np.array_equal(int_idct2(coeffs), tiles):
        raise ValueError("the inverse transform does not reconstruct the payload")
    return embed(cover, encode_blocks(coeffs), config.embed_mode)


def read_stream(stego: GrayImage, embed_mode: str | None) -> tuple[str, DecodedBlocks]:
    """Decode the block stream as (mode, stream), from `embed_mode` or, when
    that is None, from the first of MODES that holds one.

    Reads at most STREAM_BOUND bytes a mode and rejects a header that
    declares another tile count than the block's. Raises the first mode's
    StegosealError when no such stream decodes.
    """
    first_error = None
    for mode in MODES if embed_mode is None else (embed_mode,):
        length = min(capacity(stego, mode), STREAM_BOUND)
        try:
            return mode, decode_blocks(extract(stego, length, mode), TILES)
        except StegosealError as exc:
            first_error = first_error or exc
    try:
        raise first_error
    finally:
        del first_error  # its traceback holds this frame, which holds the image


def verify(stego: GrayImage, config: SealConfig | None = None) -> VerificationReport:
    """Extract, decode and check a sealed image. Never raises on bad data."""
    config = config if config is not None else SealConfig()
    config.validate()
    mode = config.embed_mode or MODES[0]
    try:
        mode, decoded = read_stream(stego, config.embed_mode)
        block = _recover_block(decoded.coeffs)
        ciphertext, key_text, embedded_digest = unpack(block)
        kind, key = parse_key_text(key_text)
        message, recomputed = _decrypt_and_hash(ciphertext, kind, key, embedded_digest)
    except StegosealError as exc:
        return VerificationReport(UNDECODABLE, reason=f"{type(exc).__name__}: {exc}",
                                  mode=mode)

    problems = []
    if recomputed != embedded_digest:
        problems.append("digest mismatch")
    elif not _is_sealed_form(block, message, kind, key, recomputed):
        problems.append("block differs from the one seal writes for its message")
    if not _expected_key_matches(config, kind, key):
        problems.append("embedded key differs from the expected key")
    verdict = VERIFIED if not problems else TAMPERED
    return VerificationReport(verdict, message, embedded_digest, recomputed,
                              "; ".join(problems), mode)


def tamper(image: GrayImage, pixel_index: int, bit: int) -> GrayImage:
    """Flip one bit of one pixel; bit 0 is the least significant.

    Both are read through operator.index: numpy would take a numpy bool as
    a mask and flip every pixel or none, so it, like a float, is a ValueError.
    """
    try:
        pixel_index, bit = operator.index(pixel_index), operator.index(bit)
    except TypeError:
        raise ValueError(f"pixel and bit must be integers, got {pixel_index!r} "
                         f"and {bit!r}") from None
    if not 0 <= pixel_index < image.width * image.height:
        raise EmbedError(f"pixel {pixel_index} outside {image.width}x{image.height}")
    if not 0 <= bit <= 7:
        raise EmbedError(f"bit {bit} outside [0, 7]")
    raster = memoryview(image.tobytes())
    flipped = bytes([raster[pixel_index] ^ 1 << bit])
    return GrayImage(image.width, image.height,
                     b"".join((raster[:pixel_index], flipped, raster[pixel_index + 1:])))


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


def _expected_key_matches(config: SealConfig, kind: str, key) -> bool:
    return config.key is None or (
        (config.cipher, _key_text(config.cipher, config.key)) == (kind, _key_text(kind, key)))
