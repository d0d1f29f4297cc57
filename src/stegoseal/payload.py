"""The 384-byte payload block and its 8x8 tiling.

A sealed message travels as one fixed block of 3 rows of 128 bytes each,
row after row:

    row 0: ciphertext, NUL-padded
    row 1: key text, NUL-padded
    row 2: digest, as lowercase hex, NUL-padded

Byte 0 is reserved for padding and therefore forbidden inside the row
content, which makes stripping unambiguous.

The key text has one letter per key entry, A = 0 ... Z = 25: Caesar has 1
entry and Hill 9, in row-major order. A Hill letter is written 8 times,
so each entry fills one 8-byte row of a tile, and the Caesar letter 128
times, so it fills both tiles of the row. A tile whose rows are each
constant keeps its energy in the first column of its DCT coefficients,
and a flat tile in its DC coefficient alone.

pack writes the UTF-8 bytes of the rows through one fixed bijection of
the byte values, and unpack inverts it before it decodes them. Byte 0
stays 0. The other values are numbered 1-255 in this order: A-Z, 0-9,
a-z, the rest of printable ASCII (0x20-0x7E) ascending, then every other
nonzero byte ascending. So key letters and Hill ciphertext become 1-26,
Caesar text 1-62 and the few values above, and the 16 hex digits of the
digest row, 0-9 and a-f, become the contiguous 27-42. This pays because
the DCT is orthonormal: the energy of a tile's coefficients is the sum
of its squared bytes, so letters and digits moved from 48-122 down next
to the NUL padding leave smaller coefficients, fewer category bits and
shorter codes, and a contiguous digest alphabet narrows every AC
amplitude of a digest tile. JPEG level-shifts its samples for the same
reason (ITU-T T.81, Annex A.3.1).

For the transform stage the block is cut into consecutive 64-byte runs,
each read row-major as one 8x8 tile: tile k holds bytes 64k..64k+63, and
byte 8r+c of a run sits at tile[r][c]. That is 6 tiles, two per row, so
each row keeps its content in its own tiles and a row's padding fills
whole tiles.
"""

from __future__ import annotations

import string

import numpy as np

from .errors import BlockError

ROWS = 3
ROW_LENGTH = 128
BLOCK_BYTES = ROWS * ROW_LENGTH
TILES = BLOCK_BYTES // 64

# Block byte i stands for source byte _FROM_BLOCK[i] (see the module docstring).
_ALNUM = (string.ascii_uppercase + string.digits + string.ascii_lowercase).encode()
_PRINTABLE = bytes(b for b in range(0x20, 0x7F) if b not in _ALNUM)
_FROM_BLOCK = b"\x00" + _ALNUM + _PRINTABLE + bytes(
    b for b in range(1, 256) if b not in _ALNUM and b not in _PRINTABLE)
_TO_BLOCK = bytes.maketrans(_FROM_BLOCK, bytes(range(256)))


def _row(text: str, row: int) -> bytes:
    data = text.encode("utf-8")
    if b"\x00" in data:
        raise BlockError(f"row {row} contains a NUL byte")
    if len(data) > ROW_LENGTH:
        raise BlockError(f"row {row}: {len(data)} bytes exceeds row length {ROW_LENGTH}")
    return data.ljust(ROW_LENGTH, b"\x00")


def pack(ciphertext: str, key_text: str, digest_hex: str) -> bytes:
    """Build the block from the texts of its rows: the ciphertext, the key
    text and the hex digest."""
    return (_row(ciphertext, 0) + _row(key_text, 1) + _row(digest_hex, 2)).translate(_TO_BLOCK)


def unpack(block: bytes) -> tuple[str, str, str]:
    """Undo pack's byte map, strip trailing NUL padding and return
    (ciphertext, key, digest)."""
    if len(block) != BLOCK_BYTES:
        raise BlockError(f"expected a {BLOCK_BYTES}-byte block, got {len(block)} bytes")
    block = block.translate(_FROM_BLOCK)
    try:
        return tuple(block[start:start + ROW_LENGTH].rstrip(b"\x00").decode("utf-8")
                     for start in range(0, BLOCK_BYTES, ROW_LENGTH))
    except UnicodeDecodeError as exc:
        raise BlockError(f"row is not valid UTF-8: {exc}") from None


def to_tiles(block: bytes) -> np.ndarray:
    """Cut the block into its 6 tiles, a read-only uint8 array (6, 8, 8).

    Tile k is bytes 64k..64k+63 of the block, so flattening the tiles in
    order gives the block's bytes back.
    """
    return np.frombuffer(block, np.uint8).reshape(TILES, 8, 8)
