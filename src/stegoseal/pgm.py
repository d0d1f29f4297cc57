"""Binary PGM (P5, maxval 255) reading and writing.

The writer always emits the exact header "P5\\n<w> <h>\\n255\\n" followed by
raw pixel bytes. The reader is tolerant in what the PGM spec allows
(comments and arbitrary whitespace between header tokens) and strict
about everything else: wrong magic, wrong maxval, missing pixels, or
trailing bytes each raise PgmError with a message that names the fault.

There is one reader, read_pgm_head. It parses the header of an open file,
checks the pixel byte count against the file size, and reads only the
first pixels the caller asks for, so a caller that needs a prefix of the
raster never holds the whole image. read_pgm runs it over bytes held in
memory and asks for every pixel.

A GrayImage holds its raster as one `bytes` object: shared with the
caller when given as `bytes`, and read-only by construction.
"""

from __future__ import annotations

import io
import operator
import re

import numpy as np

from .errors import PgmError

MAXVAL = 255
# Whitespace and comments (from '#' through the next CR or LF, as pgm(5)
# has it), then one header token. In a bytes pattern \s is exactly PGM's
# six whitespace bytes.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")
_HEADER_CHUNK = 4096  # bytes of a file read for its header at first


class GrayImage:
    """An 8-bit single-channel raster, held as one `bytes` object.

    `bytes` pixels are stored as given; any other input is checked and
    copied into new bytes. `pixels` is a (height, width) view of them that
    numpy will not make writeable. Only integers are taken: a float
    dimension or pixel would be truncated and a pixel outside [0, 255]
    would wrap, so each is a ValueError.
    """

    def __init__(self, width: int, height: int, pixels):
        try:
            width, height = operator.index(width), operator.index(height)
        except TypeError:
            raise ValueError(f"image dimensions must be integers, got "
                             f"{width!r}x{height!r}") from None
        if width < 1 or height < 1:
            raise ValueError(f"image dimensions must be positive, got {width}x{height}")
        if not isinstance(pixels, bytes):
            arr = np.asarray(pixels)
            if arr.dtype != np.uint8:
                if arr.dtype.kind not in "iu" or (
                        arr.size and not 0 <= arr.min() <= arr.max() <= MAXVAL):
                    raise ValueError(f"pixels must be integers in [0, {MAXVAL}]")
                arr = arr.astype(np.uint8)
            pixels = arr.tobytes()
        if len(pixels) != width * height:
            raise ValueError(
                f"expected {width * height} pixels for {width}x{height}, got {len(pixels)}")
        self.width = width
        self.height = height
        self._data = pixels
        self.pixels = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)

    def tobytes(self) -> bytes:
        """Raw pixel bytes in row-major order: the stored object itself."""
        return self._data

    def __eq__(self, other) -> bool:
        return (isinstance(other, GrayImage)
                and self.width == other.width
                and self.height == other.height
                and self._data == other._data)

    def __repr__(self) -> str:
        return f"GrayImage({self.width}x{self.height})"


class _HeaderCut(PgmError):
    """The data ends inside the header; more bytes may complete it."""


def _parse_header(data: bytes) -> tuple[int, int, int]:
    """Parse the header at the start of `data`: (width, height, pixel offset)."""
    if data[:2] != b"P5":
        raise PgmError(f"expected P5 magic, got {data[:2]!r}")
    pos = 2
    values = []
    for name in ("width", "height", "maxval"):
        match = _TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if pos == len(data):  # a token is whole only when a byte follows it
            raise _HeaderCut("header ends before or inside a token")
        if not token.isdigit():
            raise PgmError(f"{name} is not an unsigned integer: {token!r}")
        try:
            values.append(int(token))
        except ValueError:  # past Python's limit on the digits of an int string
            raise PgmError(f"{name} has too many digits: {len(token)}") from None
    width, height, maxval = values
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}")
    if maxval != MAXVAL:
        raise PgmError(f"only maxval 255 is supported, got {maxval}")
    if not data[pos:pos + 1].isspace():
        raise PgmError("missing whitespace byte before pixel data")
    return width, height, pos + 1


def read_pgm(data: bytes) -> GrayImage:
    """Parse binary PGM bytes into a GrayImage."""
    return GrayImage(*read_pgm_head(io.BytesIO(data), len(data)))


def read_pgm_head(f, limit: int) -> tuple[int, int, bytes]:
    """Parse the PGM header of the open binary file `f` and read its first pixels.

    Returns (width, height, pixels), where pixels holds the first
    min(limit, width * height) pixel bytes in raster order, and leaves `f`
    positioned right after them. The header is read in chunks that double
    until it parses, so long comments cost no more than their length. The
    file size is checked against the header before any pixel is read: a
    file with too few or too many pixel bytes raises PgmError, as does a
    read that returns fewer pixels than asked. `f` must be seekable.
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
    expected, found = width * height, size - offset
    if found < expected:
        raise PgmError(f"need {expected} pixel bytes, found {found}")
    if found > expected:
        raise PgmError(f"{found - expected} bytes after the pixel data")
    f.seek(offset)
    wanted = min(limit, expected)
    pixels = f.read(wanted)
    if len(pixels) < wanted:  # the file shrank after its size was read
        raise PgmError(f"need {expected} pixel bytes, found {len(pixels)}")
    return width, height, pixels


def header(width: int, height: int) -> bytes:
    """The canonical header the writer puts before the pixel bytes."""
    return f"P5\n{width} {height}\n{MAXVAL}\n".encode("ascii")


def write_pgm(image: GrayImage) -> bytes:
    """Serialize a GrayImage as binary PGM."""
    return header(image.width, image.height) + image.tobytes()
