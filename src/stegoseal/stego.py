"""Embedding a byte stream into a grayscale cover image.

Two modes:

    overwrite  payload bytes replace the first pixels in raster order,
               starting at the top-left corner; fast and plainly visible
    lsb1       one payload bit per pixel in the least significant bit,
               MSB-first within each payload byte; imperceptible

Extraction only needs the embedded byte count and the mode; pixels beyond
the embedding region are never touched.
"""

from __future__ import annotations

import numpy as np

from .errors import EmbedError
from .pgm import GrayImage

OVERWRITE = "overwrite"
LSB1 = "lsb1"
MODES = (OVERWRITE, LSB1)


def _check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ValueError(f"unknown embed mode {mode!r}, expected one of {MODES}")
    return mode


def capacity(image: GrayImage, mode: str = OVERWRITE) -> int:
    """Maximum payload size in bytes for this image and mode."""
    n = image.width * image.height
    return n if _check_mode(mode) == OVERWRITE else n // 8


def pixels_for(nbytes: int, mode: str = OVERWRITE) -> int:
    """Pixels that `nbytes` embedded bytes take in this mode; capacity's inverse."""
    return nbytes if _check_mode(mode) == OVERWRITE else 8 * nbytes


def embed(cover: GrayImage, payload: bytes, mode: str = OVERWRITE) -> GrayImage:
    """Return a new image with `payload` embedded; the cover is untouched.

    The new raster is made in one copy: the changed first pixels joined to
    the rest of the cover's bytes.
    """
    limit = capacity(cover, mode)
    if len(payload) > limit:
        raise EmbedError(f"payload needs {len(payload)} bytes, image holds {limit}")
    head = bytes(payload)
    if mode == LSB1:
        bits = np.unpackbits(np.frombuffer(head, dtype=np.uint8))
        head = ((cover.pixels.ravel()[: bits.size] & 0xFE) | bits).tobytes()
    rest = memoryview(cover.tobytes())[len(head):]
    return GrayImage(cover.width, cover.height, head + rest)


def extract(stego: GrayImage, length: int, mode: str = OVERWRITE) -> bytes:
    """Read back `length` embedded bytes."""
    limit = capacity(stego, mode)
    if length > limit:
        raise EmbedError(f"payload needs {length} bytes, image holds {limit}")
    if length < 0:
        raise ValueError("length must be non-negative")
    flat = stego.pixels.ravel()
    if mode == OVERWRITE:
        return flat[:length].tobytes()
    return np.packbits(flat[: pixels_for(length, mode)] & 1).tobytes()
