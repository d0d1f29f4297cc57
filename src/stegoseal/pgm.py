"""Binary PGM (P5, maxval 255) reading and writing.

The writer always emits the exact header "P5\\n<w> <h>\\n255\\n" followed by
raw pixel bytes. The readers are tolerant in what the PGM spec allows
(comments and arbitrary whitespace between header tokens) and strict
about everything else: wrong magic, wrong maxval, missing pixels, or
trailing bytes are all distinct errors.

read_pgm parses a whole file held in memory. read_pgm_head parses the
same header from an open file, checks the pixel byte count against the
file size, and reads only the first pixels the caller asks for, so a
caller that needs a prefix of the raster never holds the whole image.
Both share one header parser.
"""

from __future__ import annotations

import numpy as np

from .errors import (BadMagic, BadMaxval, MalformedHeader, TrailingData,
                     TruncatedPixels)

MAXVAL = 255
_WHITESPACE = b" \t\n\r\x0b\x0c"
_HEADER_CHUNK = 4096  # bytes of a file read for its header at first


class GrayImage:
    """An 8-bit single-channel raster. Pixel data is read-only."""

    def __init__(self, width: int, height: int, pixels):
        width = int(width)
        height = int(height)
        if width < 1 or height < 1:
            raise ValueError(f"image dimensions must be positive, got {width}x{height}")
        if isinstance(pixels, (bytes, bytearray)):
            arr = np.frombuffer(bytes(pixels), dtype=np.uint8)
        else:
            arr = np.asarray(pixels, dtype=np.uint8)
        if arr.size != width * height:
            raise ValueError(
                f"expected {width * height} pixels for {width}x{height}, got {arr.size}")
        arr = arr.reshape(height, width).copy()
        arr.flags.writeable = False
        self.width = width
        self.height = height
        self.pixels = arr

    def tobytes(self) -> bytes:
        """Raw pixel bytes in row-major order."""
        return self.pixels.tobytes()

    def __eq__(self, other) -> bool:
        return (isinstance(other, GrayImage)
                and self.width == other.width
                and self.height == other.height
                and np.array_equal(self.pixels, other.pixels))

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


class _HeaderCut(MalformedHeader):
    """The data ends inside the header; more bytes may complete it."""


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Skip whitespace and comments, then collect one header token.

    A token is complete only when a byte follows it, so data that ends
    inside or right after a token raises _HeaderCut.
    """
    n = len(data)
    while pos < n:
        if data[pos] == 0x23:  # '#' starts a comment running to end of line
            end = data.find(b"\n", pos)
            pos = n if end < 0 else end
        elif data[pos] in _WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != 0x23:
        pos += 1
    if pos == n:
        raise _HeaderCut("header ends before or inside a token")
    return data[start:pos], pos


def _parse_header(data: bytes) -> tuple[int, int, int]:
    """Parse the header at the start of `data`: (width, height, pixel offset)."""
    if data[:2] != b"P5":
        raise BadMagic(f"expected P5 magic, got {data[:2]!r}")
    pos = 2
    values = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        if not token.isdigit():
            raise MalformedHeader(f"{name} is not an unsigned integer: {token!r}")
        values.append(int(token))
    width, height, maxval = values
    if width < 1 or height < 1:
        raise MalformedHeader(f"bad dimensions {width}x{height}")
    if maxval != MAXVAL:
        raise BadMaxval(f"only maxval 255 is supported, got {maxval}")
    if data[pos] not in _WHITESPACE:
        raise MalformedHeader("missing whitespace byte before pixel data")
    return width, height, pos + 1


def _check_pixel_count(expected: int, found: int) -> None:
    if found < expected:
        raise TruncatedPixels(f"need {expected} pixel bytes, found {found}")
    if found > expected:
        raise TrailingData(f"{found - expected} bytes after the pixel data")


def read_pgm(data: bytes) -> GrayImage:
    """Parse binary PGM bytes into a GrayImage."""
    data = bytes(data)
    width, height, pos = _parse_header(data)
    expected = width * height
    _check_pixel_count(expected, len(data) - pos)
    return GrayImage(width, height, data[pos:pos + expected])


def read_pgm_head(f, limit: int) -> tuple[int, int, bytes]:
    """Parse the PGM header of the open binary file `f` and read its first pixels.

    Returns (width, height, pixels), where pixels holds the first
    min(limit, width * height) pixel bytes in raster order, and leaves `f`
    positioned right after them. The header is read in chunks that double
    until it parses, so long comments cost no more than their length. The
    file size is checked against the header before any pixel is read: a
    file with too few or too many pixel bytes raises TruncatedPixels or
    TrailingData as read_pgm does. `f` must be seekable.
    """
    size = f.seek(0, 2)
    f.seek(0)
    data = f.read(_HEADER_CHUNK)
    while True:
        try:
            width, height, offset = _parse_header(data)
            break
        except _HeaderCut:
            more = f.read(len(data))
            if not more:
                raise
            data += more
    _check_pixel_count(width * height, size - offset)
    f.seek(offset)
    return width, height, f.read(min(limit, width * height))


def header(width: int, height: int) -> bytes:
    """The canonical header the writer puts before the pixel bytes."""
    return f"P5\n{width} {height}\n{MAXVAL}\n".encode("ascii")


def write_pgm(image: GrayImage) -> bytes:
    """Serialize a GrayImage as binary PGM."""
    return header(image.width, image.height) + image.tobytes()
