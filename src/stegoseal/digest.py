"""Message digests used as the integrity witness.

Backed by hashlib; correctness is pinned by published FIPS 180 test
vectors in the test suite. hash_message returns the digest as lowercase
hex text, which is what payload row 2 stores, as it is. The sealing
pipeline defaults to SHA-512 so the hex digest fills the whole 128-byte row.
"""

from __future__ import annotations

import hashlib

# The named constructors: a call costs less than hashlib.new's lookup by name
_CONSTRUCTORS = {"sha256": hashlib.sha256, "sha512": hashlib.sha512}
ALGORITHMS = tuple(_CONSTRUCTORS)
DEFAULT_ALGORITHM = "sha512"
_BY_HEX_LENGTH = {2 * new().digest_size: name for name, new in _CONSTRUCTORS.items()}


def hash_message(message: bytes | str, algorithm: str = DEFAULT_ALGORITHM) -> str:
    """Hash `message`, a bytes-like object or a str (its UTF-8 bytes), and
    return lowercase hex; anything else raises TypeError."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unsupported digest algorithm {algorithm!r}")
    data = message.encode("utf-8") if isinstance(message, str) else message
    return _CONSTRUCTORS[algorithm](data).hexdigest()


def algorithm_for_hex_length(n: int) -> str | None:
    """Map a hex digest length back to its algorithm, or None."""
    return _BY_HEX_LENGTH.get(n)
