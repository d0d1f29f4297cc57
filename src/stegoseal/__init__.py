"""stegoseal: seal a message into a grayscale image and verify its integrity.

The message is encrypted with a classical cipher, hashed, packed into a
3-row byte block together with the key and the digest, transform-coded
(exactly invertible integer 8x8 DCT, zig-zag), Huffman-coded as JPEG-style
(run, size) symbols with a fixed table, and embedded into the cover
image. Verification reverses every step and reports VERIFIED, TAMPERED or
UNDECODABLE.
"""

from .digest import hash_message
from .errors import StegosealError
from .pgm import GrayImage, read_pgm, write_pgm
from .pipeline import (CAESAR, HILL, TAMPERED, UNDECODABLE, VERIFIED,
                       SealConfig, VerificationReport, seal, tamper, verify)
from .stego import LSB1, OVERWRITE, capacity, embed, extract

__version__ = "0.1.0"

__all__ = [
    "CAESAR", "HILL", "LSB1", "OVERWRITE", "TAMPERED", "UNDECODABLE",
    "VERIFIED", "GrayImage", "SealConfig", "StegosealError",
    "VerificationReport", "capacity", "embed", "extract", "hash_message",
    "read_pgm", "seal", "tamper", "verify", "write_pgm",
]
