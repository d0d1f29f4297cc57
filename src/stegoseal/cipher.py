"""Classical ciphers used by the sealing pipeline: Caesar and Hill.

Neither cipher is secure; they are kept byte-faithful so that sealed
messages round-trip exactly and tampering shows up in the digest check.

Hill keys. The Hill functions take a key in any form that np.asarray reads
as a 3x3 integer matrix (an ndarray of any integer dtype, nested lists,
numpy ints) and reduce it mod 26; a bool, float or past-int64 key is a
ValueError. Inside, a key is a tuple of its three rows of Python ints in
[0, 25], the form SealConfig holds and pipeline._key returns. A key in
that form is checked entry by entry and used as it is, so the pipeline's
Hill calls make no numpy call; the inverse is computed on the same rows.

Byte lanes. _hill multiplies the text's letter triples by the key without
a loop over letters. Column j of the text (data[j::3]) is mapped by three
bytes.translate tables, one for each entry a of key row j, to the bytes
a * letter mod 26, and the three results are laid end to end: one byte per
letter of each output column. Read as one big-endian int, each input
column adds these byte lanes to the lanes of the others. A lane sums three
values of at most 25, so it holds at most 75 and never carries into the
next byte. The sum's bytes, mapped mod 26 to letters by one more table,
are the three output columns, which are interleaved back into triples.
"""

from __future__ import annotations

import operator
import string
from math import gcd

import numpy as np

from .errors import CipherError

ALPHABET_SIZE = 26
HILL_BLOCK = 3
HILL_PAD = "X"


def _check_shift(shift: int) -> int:
    value = operator.index(shift) if hasattr(type(shift), "__index__") else None
    if value is None or isinstance(shift, bool) or not 0 <= value < ALPHABET_SIZE:
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
    return ciphertext.translate(_CAESAR_TABLES[-_check_shift(shift)])  # shift (26 - k) % 26


# Every ASCII byte but A-Z, for bytes.translate to delete
_NOT_LETTERS = bytes(b for b in range(128) if not 0x41 <= b <= 0x5A)


def normalize_letters(text: str) -> str:
    """Uppercase `text` and drop everything that is not A-Z.

    Mod-26 arithmetic is only defined on letters, so this is the canonical
    form the Hill cipher operates on.
    """
    return text.upper().encode("ascii", "ignore").translate(None, _NOT_LETTERS).decode()


# bytes.translate tables: _TIMES[m] maps each letter byte A-Z to m * letter
# mod 26 (A = 0), and _LETTERS maps each sum of three such values, at most
# 75, back to its letter mod 26
_TIMES = tuple(bytes.maketrans(bytes(range(0x41, 0x5B)),
                               bytes(m * t % ALPHABET_SIZE for t in range(ALPHABET_SIZE)))
               for m in range(ALPHABET_SIZE))
_LETTERS = bytes(0x41 + s % ALPHABET_SIZE for s in range(256))


def _key_rows(key) -> tuple:
    """The key reduced mod 26 as a tuple of three rows of ints.

    A tuple of three tuple rows of ints in [0, 25] is that form already and
    is returned as it is. Any other key goes through numpy, and only an
    integer key is taken: a float key would be truncated and an integer
    past int64 would overflow, so each is a ValueError.
    """
    if type(key) is tuple and len(key) == HILL_BLOCK:
        r0, r1, r2 = key
        if (type(r0) is type(r1) is type(r2) is tuple
                and len(r0) == len(r1) == len(r2) == HILL_BLOCK
                and all(type(v) is int and 0 <= v < ALPHABET_SIZE for v in r0 + r1 + r2)):
            return key
    k = np.asarray(key)
    if k.shape != (HILL_BLOCK, HILL_BLOCK) or k.dtype.kind not in "iu":
        raise ValueError(f"hill key must be a 3x3 integer matrix, got {k.dtype} "
                         f"of shape {k.shape}")
    return tuple(map(tuple, (k % ALPHABET_SIZE).tolist()))


def _inverse_rows(rows: tuple) -> tuple:
    """The inverse mod 26 of a key in _key_rows' form, in that form.

    Computed as adjugate times the modular inverse of the determinant, on
    Python integers. Raises CipherError when gcd(det mod 26, 26) != 1.
    """
    (a, b, c), (d, e, f), (g, h, i) = rows
    adj = (e * i - f * h, c * h - b * i, b * f - c * e,
           f * g - d * i, a * i - c * g, c * d - a * f,
           d * h - e * g, b * g - a * h, a * e - b * d)
    det = (a * adj[0] + b * adj[3] + c * adj[6]) % ALPHABET_SIZE  # along row 0
    if gcd(det, ALPHABET_SIZE) != 1:
        raise CipherError(f"det = {det} shares a factor with 26")
    det_inv = pow(det, -1, ALPHABET_SIZE)
    inv = [det_inv * v % ALPHABET_SIZE for v in adj]
    return tuple(inv[0:3]), tuple(inv[3:6]), tuple(inv[6:9])


def hill_key_inverse(key) -> np.ndarray:
    """Return the matrix inverse of `key` mod 26 as an int64 3x3 array.
    Raises CipherError when gcd(det mod 26, 26) != 1."""
    return np.array(_inverse_rows(_key_rows(key)), np.int64)


def _hill(text: str, rows: tuple) -> str:
    """`text`, letters A-Z in rows of 3, times the key `rows` mod 26, as
    letters, on byte lanes (see the module docstring)."""
    data = text.encode("ascii")
    n = len(data) // HILL_BLOCK
    lanes = 0
    for column, (m0, m1, m2) in zip((data[0::3], data[1::3], data[2::3]), rows):
        lanes += int.from_bytes(column.translate(_TIMES[m0]) + column.translate(_TIMES[m1])
                                + column.translate(_TIMES[m2]), "big")
    sums = lanes.to_bytes(len(data), "big").translate(_LETTERS)
    out = bytearray(len(data))
    out[0::3], out[1::3], out[2::3] = sums[:n], sums[n:2 * n], sums[2 * n:]
    return out.decode("ascii")


def hill_encrypt(plaintext: str, key) -> str:
    """Encrypt with the Hill cipher: C = P K mod 26 on length-3 row vectors.

    The plaintext is normalized to uppercase letters and padded with 'X' to
    a multiple of 3. The caller is responsible for remembering how many pad
    letters were added; see hill_pad_count.
    """
    rows = _key_rows(key)
    text = normalize_letters(plaintext)
    if not text:
        raise CipherError("no letters to encrypt after normalization")
    return _hill(text + HILL_PAD * (-len(text) % HILL_BLOCK), rows)


def hill_decrypt(ciphertext: str, key, pad_count: int = 0) -> str:
    """Invert hill_encrypt: P = C K^-1 mod 26, then strip `pad_count` letters.

    The ciphertext must normalize to a letter count divisible by 3.
    """
    if not 0 <= pad_count < HILL_BLOCK:
        raise ValueError(f"pad_count must be 0, 1 or 2, got {pad_count}")
    text = normalize_letters(ciphertext)
    if len(text) % HILL_BLOCK != 0:
        raise CipherError(f"ciphertext has {len(text)} letters, not a multiple of 3")
    if not text:
        return ""
    plain = _hill(text, _inverse_rows(_key_rows(key)))
    return plain[: len(plain) - pad_count]


def hill_pad_count(plaintext: str) -> int:
    """Number of 'X' letters hill_encrypt appends for this plaintext."""
    return -len(normalize_letters(plaintext)) % HILL_BLOCK
