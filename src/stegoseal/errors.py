"""Exception hierarchy shared by all stegoseal modules.

Everything raised on a bad input derives from StegosealError, so callers
that must never crash on untrusted data (the verifier, the CLI) can catch
one base class.
"""


class StegosealError(Exception):
    """Base class for all errors raised by this package."""


# --- ciphers ---------------------------------------------------------------

class NotInvertible(StegosealError):
    """Hill key matrix has no inverse mod 26 (gcd(det, 26) != 1)."""


class EmptyInput(StegosealError):
    """Nothing left to encrypt after normalization."""


class BadLength(StegosealError):
    """Sequence length does not match what the operation requires."""


# --- payload block ---------------------------------------------------------

class RowOverflow(StegosealError):
    """A payload row does not fit in the configured row length."""

    def __init__(self, row, actual, limit):
        super().__init__(f"row {row}: {actual} bytes exceeds row length {limit}")
        self.row = row
        self.actual = actual
        self.limit = limit


class NulInPayload(StegosealError):
    """A payload row contains byte 0, which is reserved for padding."""


class MalformedBlock(StegosealError):
    """Payload block does not have the expected 3-row structure."""


class BadShape(StegosealError):
    """Matrix or tile sequence has the wrong dimensions."""


# --- entropy coding --------------------------------------------------------

class UnknownSymbol(StegosealError):
    """Symbol to encode has no codeword in the table."""


class CorruptHeader(StegosealError):
    """Block stream header is wrong, or a symbol breaks the canonical form."""


class TruncatedStream(StegosealError):
    """Block stream bits end inside a code or an amplitude, before its last tile."""


class DanglingBits(StegosealError):
    """Padding bits after the last tile of a block stream are not zero."""


# --- PGM images ------------------------------------------------------------

class BadMagic(StegosealError):
    """Input is not a binary (P5) PGM file."""


class BadMaxval(StegosealError):
    """PGM maxval is not 255."""


class MalformedHeader(StegosealError):
    """PGM header tokens are missing or not integers."""


class TruncatedPixels(StegosealError):
    """Fewer pixel bytes than the header declares."""


class TrailingData(StegosealError):
    """Bytes remain after the declared pixel count."""


# --- embedding -------------------------------------------------------------

class CapacityExceeded(StegosealError):
    """Payload does not fit in the cover image."""

    def __init__(self, needed, available):
        super().__init__(f"payload needs {needed} bytes, image holds {available}")
        self.needed = needed
        self.available = available


# --- pipeline --------------------------------------------------------------

class OutOfRange(StegosealError):
    """Pixel index or bit position outside the image, or a transform entry
    of magnitude 2**35 or more."""


class EmptyMessage(StegosealError):
    """Refused to seal an empty message."""
