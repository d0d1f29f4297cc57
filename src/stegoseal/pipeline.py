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
    UNDECODABLE  the stream would not decode at all; no message is claimed

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

With the Hill cipher the protected message is its normalized form
(uppercase letters only); 'X' padding added for the 3-letter blocks is
stripped on verification by trying each possible pad count against the
embedded digest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import digest as _digest
from .cipher import (caesar_decrypt, caesar_encrypt, hill_decrypt,
                     hill_encrypt, hill_key_inverse, normalize_letters)
from .entropy import (DecodedBlocks, block_stream_bound, decode_blocks,
                      encode_blocks)
from .errors import EmptyMessage, MalformedBlock, OutOfRange, StegosealError
from .payload import (DEFAULT_ROW_LENGTH, ROWS, PayloadBlock, from_tiles,
                      pack, to_tiles, unpack)
from .pgm import GrayImage
from .stego import MODES, OVERWRITE, capacity, embed, extract
from .transform import int_dct2, int_idct2

CAESAR = "caesar"
HILL = "hill"
CIPHERS = (CAESAR, HILL)

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
    row_length: int = DEFAULT_ROW_LENGTH
    embed_mode: str = OVERWRITE

    def validate(self, require_key: bool = False) -> None:
        if self.cipher not in CIPHERS:
            raise ValueError(f"unknown cipher {self.cipher!r}")
        if self.digest_algorithm not in _digest.ALGORITHMS:
            raise ValueError(f"unknown digest algorithm {self.digest_algorithm!r}")
        if self.embed_mode not in MODES:
            raise ValueError(f"unknown embed mode {self.embed_mode!r}")
        if self.row_length < 1 or (ROWS * self.row_length) % 64 != 0:
            raise ValueError(
                f"row length {self.row_length} does not tile into 8x8 blocks")
        if self.caesar_key is not None and self.hill_key is not None:
            raise ValueError("provide a key for one cipher only")
        if self.cipher == CAESAR:
            if self.hill_key is not None:
                raise ValueError("hill key given but cipher is caesar")
            if self.caesar_key is not None and not 0 <= self.caesar_key <= 25:
                raise ValueError(f"caesar key must be in [0, 25], got {self.caesar_key}")
            if require_key and self.caesar_key is None:
                raise ValueError("sealing with the caesar cipher needs caesar_key")
        else:
            if self.caesar_key is not None:
                raise ValueError("caesar key given but cipher is hill")
            if require_key and self.hill_key is None:
                raise ValueError("sealing with the hill cipher needs hill_key")
            if self.hill_key is not None:
                hill_key_inverse(self.hill_key)  # raises NotInvertible early


@dataclass
class VerificationReport:
    verdict: str
    recovered_message: str = ""
    embedded_digest: str = ""
    recomputed_digest: str = ""
    reason: str = ""


def parse_key_text(text: str):
    """Parse payload row 1 back into ("caesar", shift) or ("hill", matrix)."""
    if "," in text:
        parts = text.split(",")
        if len(parts) != 9:
            raise MalformedBlock(f"hill key row has {len(parts)} entries, needs 9")
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise MalformedBlock("hill key row is not all integers") from None
        if any(not 0 <= v <= 25 for v in vals):
            raise MalformedBlock("hill key entries must be in [0, 25]")
        return HILL, np.array(vals, dtype=np.int64).reshape(3, 3)
    try:
        shift = int(text)
    except ValueError:
        raise MalformedBlock(f"key row {text!r} is not an integer") from None
    if not 0 <= shift <= 25:
        raise MalformedBlock(f"caesar key {shift} out of range")
    return CAESAR, shift


def _pack_block(protected: str, kind: str, key, digest_hex: str,
                row_length: int) -> PayloadBlock:
    """The block seal writes for the protected message under `key`."""
    if kind == CAESAR:
        ciphertext, key_text = caesar_encrypt(protected, key), str(key)
    else:
        ciphertext = hill_encrypt(protected, key)
        key_text = ",".join(str(v) for v in (np.asarray(key, dtype=np.int64) % 26).ravel())
    return pack(ciphertext, key_text, digest_hex, row_length)


def _is_sealed_form(block: PayloadBlock, message: str, kind: str, key,
                    digest_hex: str) -> bool:
    """Whether `block` is byte for byte what seal writes for `message`.

    This catches the changes that decryption ignores, such as a nonzero
    byte in the zero padding of a Hill ciphertext, or a key row such as
    "16\\t" (a tab after the digits) that still parses as 16.
    """
    try:
        return _pack_block(message, kind, key, digest_hex, block.row_length) == block
    except StegosealError:
        return False


def _recover_block(coeffs, row_length: int) -> PayloadBlock:
    """Inverse transform: coefficient tiles back to the 3-row byte block."""
    tiles = int_idct2(coeffs)
    if (tiles < 0).any() or (tiles > 255).any():
        raise MalformedBlock("reconstructed bytes fall outside [0, 255]")
    return from_tiles(tiles.astype(np.uint8), row_length)


def seal(message: str, config: SealConfig, cover: GrayImage) -> GrayImage:
    """Seal `message` into `cover`; the result verifies under the same config."""
    if not message:
        raise EmptyMessage("refusing to seal an empty message")
    config.validate(require_key=True)
    if config.cipher == CAESAR:
        protected, key = message, config.caesar_key
    else:
        protected, key = normalize_letters(message), config.hill_key
    digest_hex = _digest.hash_message(protected, config.digest_algorithm).hex
    block = _pack_block(protected, config.cipher, key, digest_hex, config.row_length)

    tiles = to_tiles(block)
    coeffs = int_dct2(tiles)
    if not np.array_equal(int_idct2(coeffs), tiles):
        raise ValueError("the inverse transform does not reconstruct the payload")
    return embed(cover, encode_blocks(coeffs), config.embed_mode)


def stream_bound(config: SealConfig) -> int:
    """Most bytes the stream sealed under `config` can take.

    Seal writes the stream from the first pixel in raster order, and
    read_stream reads no byte past this bound, so both touch only the
    first stream_bound pixels in overwrite mode and 8 times as many in
    lsb1 mode.
    """
    return block_stream_bound(_tile_count(config))


def _tile_count(config: SealConfig) -> int:
    return ROWS * config.row_length // 64


def read_stream(stego: GrayImage, config: SealConfig) -> DecodedBlocks:
    """Decode the block stream embedded in `config.embed_mode`.

    Reads at most stream_bound(config) bytes and rejects a header that
    declares another tile count than the config's block has. Raises a
    StegosealError when no such stream decodes.
    """
    length = min(capacity(stego, config.embed_mode), stream_bound(config))
    data = extract(stego, length, config.embed_mode)
    return decode_blocks(data, _tile_count(config))


def verify(stego: GrayImage, config: SealConfig | None = None) -> VerificationReport:
    """Extract, decode and check a sealed image. Never raises on bad data."""
    config = config if config is not None else SealConfig()
    config.validate(require_key=False)
    try:
        decoded = read_stream(stego, config)
        block = _recover_block(decoded.coeffs, config.row_length)
        ciphertext, key_text, embedded_digest = unpack(block)
        kind, key = parse_key_text(key_text)
        message, recomputed = _decrypt_and_hash(ciphertext, kind, key, embedded_digest)
    except StegosealError as exc:
        return VerificationReport(UNDECODABLE,
                                  reason=f"{type(exc).__name__}: {exc}")

    problems = []
    if recomputed != embedded_digest:
        problems.append("digest mismatch")
    elif not _is_sealed_form(block, message, kind, key, recomputed):
        problems.append("block differs from the one seal writes for its message")
    if not _expected_key_matches(config, kind, key):
        problems.append("embedded key differs from the expected key")
    verdict = VERIFIED if not problems else TAMPERED
    return VerificationReport(verdict, message, embedded_digest, recomputed,
                              "; ".join(problems))


def tamper(image: GrayImage, pixel_index: int, bit: int) -> GrayImage:
    """Flip one bit of one pixel; bit 0 is the least significant."""
    if not 0 <= pixel_index < image.width * image.height:
        raise OutOfRange(f"pixel {pixel_index} outside {image.width}x{image.height}")
    if not 0 <= bit <= 7:
        raise OutOfRange(f"bit {bit} outside [0, 7]")
    flat = image.pixels.ravel().copy()
    flat[pixel_index] ^= 1 << bit
    return GrayImage(image.width, image.height, flat)


def _decrypt_and_hash(ciphertext: str, kind: str, key, embedded_digest: str):
    """Decrypt and recompute the digest, resolving Hill pad ambiguity.

    The digest algorithm is recovered from the embedded digest's length, so
    verification works whatever algorithm the sealer chose.
    """
    algorithm = _digest.algorithm_for_hex_length(len(embedded_digest))
    if kind == CAESAR:
        message = caesar_decrypt(ciphertext, key)
        if algorithm is None:
            return message, ""
        return message, _digest.hash_message(message, algorithm).hex
    full = hill_decrypt(ciphertext, key)
    if algorithm is None:
        return full, ""
    candidates = [full]
    if full.endswith("X"):
        candidates.append(full[:-1])
    if full.endswith("XX"):
        candidates.append(full[:-2])
    for candidate in candidates:
        recomputed = _digest.hash_message(candidate, algorithm).hex
        if recomputed == embedded_digest:
            return candidate, recomputed
    return full, _digest.hash_message(full, algorithm).hex


def _expected_key_matches(config: SealConfig, kind: str, key) -> bool:
    if config.caesar_key is not None:
        return kind == CAESAR and key == config.caesar_key
    if config.hill_key is not None:
        expected = np.asarray(config.hill_key, dtype=np.int64) % 26
        return kind == HILL and np.array_equal(key, expected)
    return True
