"""The 384-byte payload block and its 8x8 tiling.

A sealed message travels as one fixed block of 3 rows of 128 bytes each,
row after row:

    row 0: ciphertext, NUL-padded
    row 1: serialized key text, NUL-padded
    row 2: digest hex text, NUL-padded

Byte 0 is reserved for padding and therefore forbidden inside the row
content, which makes stripping unambiguous.

For the transform stage the block is cut into consecutive 64-byte runs,
each read row-major as one 8x8 tile: tile k holds bytes 64k..64k+63, and
byte 8r+c of a run sits at tile[r][c]. That is 6 tiles, two per row, so
each row keeps its content in its own tiles and a row's padding fills
whole tiles.
"""

from __future__ import annotations

import numpy as np

from .errors import BadShape, MalformedBlock, NulInPayload, RowOverflow

ROWS = 3
ROW_LENGTH = 128
BLOCK_BYTES = ROWS * ROW_LENGTH
TILES = BLOCK_BYTES // 64


def _row(text: str, row: int) -> bytes:
    data = text.encode("utf-8")
    if b"\x00" in data:
        raise NulInPayload(row)
    if len(data) > ROW_LENGTH:
        raise RowOverflow(row, len(data), ROW_LENGTH)
    return data.ljust(ROW_LENGTH, b"\x00")


def pack(ciphertext: str, key_text: str, digest_hex: str) -> bytes:
    """Build the block from ciphertext, key text and digest hex."""
    return _row(ciphertext, 0) + _row(key_text, 1) + _row(digest_hex, 2)


def unpack(block: bytes) -> tuple[str, str, str]:
    """Strip trailing NUL padding and return (ciphertext, key, digest)."""
    if len(block) != BLOCK_BYTES:
        raise MalformedBlock(f"expected a {BLOCK_BYTES}-byte block, got {len(block)} bytes")
    try:
        return tuple(block[start:start + ROW_LENGTH].rstrip(b"\x00").decode("utf-8")
                     for start in range(0, BLOCK_BYTES, ROW_LENGTH))
    except UnicodeDecodeError as exc:
        raise MalformedBlock(f"row is not valid UTF-8: {exc}") from None


def to_tiles(block: bytes) -> np.ndarray:
    """Cut the block into its 6 tiles, a read-only uint8 array (6, 8, 8).

    Tile k is bytes 64k..64k+63 of the block, so flattening the tiles in
    order gives the block's bytes back.
    """
    return np.frombuffer(block, np.uint8).reshape(TILES, 8, 8)


def from_tiles(tiles) -> bytes:
    """Exact inverse of to_tiles for uint8 tiles."""
    arr = np.asarray(tiles)
    if arr.shape != (TILES, 8, 8):
        raise BadShape(f"expected tiles of shape ({TILES}, 8, 8), got {arr.shape}")
    return arr.astype(np.uint8, copy=False).tobytes()
