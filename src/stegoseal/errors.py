"""Exception hierarchy shared by all stegoseal modules.

Data that a stage cannot take raises that stage's class, with a message
that says what is wrong. Each class derives directly from StegosealError,
so callers that must never crash on untrusted data (the verifier, the
CLI) catch the base class, and verify's UNDECODABLE reason names the
stage: "<class>: <message>".

A wrong argument is not bad data and raises ValueError or TypeError, as
Python's own functions do: an unknown cipher, embed mode or digest, a
Caesar shift outside 0-25, a Hill key that is not a 3x3 integer matrix,
an image size or pixel that GrayImage cannot hold, float coefficients.
"""


class StegosealError(Exception):
    """Base class for all errors raised by this package on bad data."""


class PgmError(StegosealError):
    """The PGM file: magic, header tokens, maxval, pixel byte count."""


class StreamError(StegosealError):
    """The block stream: header, Huffman symbols, truncation, padding."""


class BlockError(StegosealError):
    """The payload block and its tiles: row content, shape, transform range."""


class CipherError(StegosealError):
    """The message and key: empty message, key row, Hill key or ciphertext."""


class EmbedError(StegosealError):
    """Embedding in the image: capacity, tamper's pixel index or bit."""
