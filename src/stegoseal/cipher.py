"""Classical ciphers used by the sealing pipeline: Caesar and Hill.

Neither cipher is secure; they are kept byte-faithful so that sealed
messages round-trip exactly and tampering shows up in the digest check.
"""

from __future__ import annotations

import operator
import string
from math import gcd

import numpy as np

from .errors import BadLength, EmptyInput, NotInvertible

ALPHABET_SIZE = 26
HILL_BLOCK = 3
HILL_PAD = "X"


def _check_shift(shift: int) -> int:
    value = operator.index(shift) if hasattr(type(shift), "__index__") else None
    if value is None or not 0 <= value < ALPHABET_SIZE:
        raise ValueError(f"caesar shift must be an integer in [0, 25], got {shift!r}")
    return value


# str.translate tables for each shift; they map the ASCII letters only
_CAESAR_TABLES = tuple(
    str.maketrans(string.ascii_lowercase + string.ascii_uppercase,
                  string.ascii_lowercase[k:] + string.ascii_lowercase[:k]
                  + string.ascii_uppercase[k:] + string.ascii_uppercase[:k])
    for k in range(ALPHABET_SIZE))


def caesar_encrypt(plaintext: str, shift: int) -> str:
    """Shift every Latin letter forward by `shift`, preserving case.

    Digits, spaces, punctuation and anything non-ASCII-letter pass through
    unchanged, so message length and layout are preserved.
    """
    return plaintext.translate(_CAESAR_TABLES[_check_shift(shift)])


def caesar_decrypt(ciphertext: str, shift: int) -> str:
    """Inverse of caesar_encrypt with the same shift."""
    k = _check_shift(shift)
    return caesar_encrypt(ciphertext, (ALPHABET_SIZE - k) % ALPHABET_SIZE)


def normalize_letters(text: str) -> str:
    """Uppercase `text` and drop everything that is not A-Z.

    Mod-26 arithmetic is only defined on letters, so this is the canonical
    form the Hill cipher operates on.
    """
    return "".join(ch for ch in text.upper() if "A" <= ch <= "Z")


def _as_key(key) -> np.ndarray:
    """The key reduced mod 26 as an int64 3x3 array.

    Only integer keys are taken: a float key would be truncated and an
    integer past int64 would overflow, so each is a ValueError.
    """
    k = np.asarray(key)
    if k.shape != (HILL_BLOCK, HILL_BLOCK) or k.dtype.kind not in "iu":
        raise ValueError(f"hill key must be a 3x3 integer matrix, got {k.dtype} "
                         f"of shape {k.shape}")
    return (k % ALPHABET_SIZE).astype(np.int64)


def _adjugate3(k: np.ndarray) -> np.ndarray:
    a, b, c = int(k[0, 0]), int(k[0, 1]), int(k[0, 2])
    d, e, f = int(k[1, 0]), int(k[1, 1]), int(k[1, 2])
    g, h, i = int(k[2, 0]), int(k[2, 1]), int(k[2, 2])
    cof = [
        [e * i - f * h, -(d * i - f * g), d * h - e * g],
        [-(b * i - c * h), a * i - c * g, -(a * h - b * g)],
        [b * f - c * e, -(a * f - c * d), a * e - b * d],
    ]
    return np.array(cof, dtype=np.int64).T


def hill_key_inverse(key) -> np.ndarray:
    """Return the matrix inverse of `key` mod 26.

    Computed as adjugate times the modular inverse of the determinant.
    Raises NotInvertible when gcd(det mod 26, 26) != 1.
    """
    k = _as_key(key)
    adj = _adjugate3(k)
    det = int(k[0] @ adj[:, 0]) % ALPHABET_SIZE   # cofactor expansion along row 0
    if gcd(det, ALPHABET_SIZE) != 1:
        raise NotInvertible(f"det = {det} shares a factor with 26")
    det_inv = pow(det, -1, ALPHABET_SIZE)
    return (det_inv * adj) % ALPHABET_SIZE


def hill_encrypt(plaintext: str, key) -> str:
    """Encrypt with the Hill cipher: C = P K mod 26 on length-3 row vectors.

    The plaintext is normalized to uppercase letters and padded with 'X' to
    a multiple of 3. The caller is responsible for remembering how many pad
    letters were added; see hill_pad_count.
    """
    k = _as_key(key)
    text = normalize_letters(plaintext)
    if not text:
        raise EmptyInput("no letters to encrypt after normalization")
    text += HILL_PAD * hill_pad_count(plaintext)
    vals = np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(np.int64) - 65
    rows = vals.reshape(-1, HILL_BLOCK)
    enc = (rows @ k) % ALPHABET_SIZE
    return "".join(chr(v + 65) for v in enc.ravel())


def hill_decrypt(ciphertext: str, key, pad_count: int = 0) -> str:
    """Invert hill_encrypt: P = C K^-1 mod 26, then strip `pad_count` letters.

    The ciphertext must normalize to a letter count divisible by 3.
    """
    if not 0 <= pad_count < HILL_BLOCK:
        raise ValueError(f"pad_count must be 0, 1 or 2, got {pad_count}")
    text = normalize_letters(ciphertext)
    if len(text) % HILL_BLOCK != 0:
        raise BadLength(f"ciphertext has {len(text)} letters, not a multiple of 3")
    if not text:
        return ""
    k_inv = hill_key_inverse(key)
    vals = np.frombuffer(text.encode("ascii"), dtype=np.uint8).astype(np.int64) - 65
    dec = (vals.reshape(-1, HILL_BLOCK) @ k_inv) % ALPHABET_SIZE
    plain = "".join(chr(v + 65) for v in dec.ravel())
    return plain[: len(plain) - pad_count] if pad_count else plain


def hill_pad_count(plaintext: str) -> int:
    """Number of 'X' letters hill_encrypt appends for this plaintext."""
    return -len(normalize_letters(plaintext)) % HILL_BLOCK
