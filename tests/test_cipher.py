import random
import string
from math import gcd

import numpy as np
import pytest

from stegoseal.cipher import (caesar_decrypt, caesar_encrypt, hill_decrypt,
                              hill_encrypt, hill_key_inverse, hill_pad_count,
                              normalize_letters)
from stegoseal.errors import CipherError

IDENTITY = np.eye(3, dtype=int)


def random_invertible_key(rng):
    while True:
        k = np.array([[rng.randrange(26) for _ in range(3)] for _ in range(3)])
        det = int(round(np.linalg.det(k))) % 26
        if gcd(det, 26) == 1:
            return k


def matmul_mod26(a, b):
    """Independent mod-26 matrix product, written out longhand."""
    n = len(b)
    out = [[0] * n for _ in range(len(a))]
    for i in range(len(a)):
        for j in range(n):
            s = 0
            for t in range(n):
                s += int(a[i][t]) * int(b[t][j])
            out[i][j] = s % 26
    return np.array(out)


# --- caesar ------------------------------------------------------------


def test_caesar_paper_token():
    assert caesar_encrypt("IEEE", 16) == "YUUU"
    assert caesar_decrypt("YUUU", 16) == "IEEE"


def test_caesar_zero_shift_is_identity():
    assert caesar_encrypt("abc XYZ", 0) == "abc XYZ"
    assert caesar_decrypt("whatever 123!", 0) == "whatever 123!"


def test_caesar_wraparound():
    assert caesar_encrypt("xyz", 3) == "abc"
    assert caesar_encrypt("XYZ", 3) == "ABC"


def test_caesar_passes_non_letters_through():
    msg = "8YSSUc9 - keep: spaces, digits 0123 & punct!?"
    enc = caesar_encrypt(msg, 11)
    assert len(enc) == len(msg)
    for i, ch in enumerate(msg):
        if not ch.isalpha():
            assert enc[i] == ch
        else:
            assert enc[i] != ch  # shift 11 moves every letter


def test_caesar_preserves_case():
    assert caesar_encrypt("AbC", 1) == "BcD"


def test_caesar_round_trip_random():
    rng = random.Random(1234)
    alphabet = string.printable
    for _ in range(1000):
        msg = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        key = rng.randrange(26)
        assert caesar_decrypt(caesar_encrypt(msg, key), key) == msg


def caesar_by_character(text, shift):
    """Shift ASCII letters one character at a time; everything else stays."""
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(chr((ord(ch) - 97 + shift) % 26 + 97))
        elif "A" <= ch <= "Z":
            out.append(chr((ord(ch) - 65 + shift) % 26 + 65))
        else:
            out.append(ch)
    return "".join(out)


def test_caesar_matches_per_character_shift():
    rng = random.Random(4321)
    alphabet = string.printable + "éÄßÿŻİＡ€\u0130\U0001F600"
    for _ in range(1000):
        msg = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        key = rng.randrange(26)
        assert caesar_encrypt(msg, key) == caesar_by_character(msg, key)
        assert caesar_decrypt(msg, key) == caesar_by_character(msg, 26 - key)


def test_caesar_rejects_bad_shift():
    with pytest.raises(ValueError):
        caesar_encrypt("abc", 26)
    with pytest.raises(ValueError):
        caesar_decrypt("abc", -1)
    # int() would truncate these to shifts 3 and 16
    for shift in (3.7, 16.0):
        for fn in (caesar_encrypt, caesar_decrypt):
            with pytest.raises(ValueError, match="must be an integer"):
                fn("abc", shift)
    assert caesar_encrypt("abc", np.int64(16)) == "qrs"
    assert caesar_decrypt("qrs", np.int64(16)) == "abc"


# --- hill key inverse ---------------------------------------------------


def test_inverse_of_identity():
    assert np.array_equal(hill_key_inverse(IDENTITY), IDENTITY)


def test_inverse_of_three_i():
    # det(3I) = 27 = 1 mod 26, and 3 * 9 = 27 = 1 mod 26
    assert np.array_equal(hill_key_inverse(3 * IDENTITY), 9 * IDENTITY)


def test_inverse_against_multiplication_oracle():
    rng = random.Random(99)
    for _ in range(300):
        k = random_invertible_key(rng)
        k_inv = hill_key_inverse(k)
        assert np.array_equal(matmul_mod26(k, k_inv), IDENTITY)
        assert np.array_equal(matmul_mod26(k_inv, k), IDENTITY)


def test_not_invertible_detection():
    rng = random.Random(5)
    seen = 0
    while seen < 100:
        k = np.array([[rng.randrange(26) for _ in range(3)] for _ in range(3)])
        det = int(round(np.linalg.det(k))) % 26
        if gcd(det, 26) == 1:
            continue
        seen += 1
        with pytest.raises(CipherError, match=f"det = {det} shares a factor with 26"):
            hill_key_inverse(k)


def test_singular_examples():
    with pytest.raises(CipherError, match="det = 0 shares a factor with 26"):
        hill_key_inverse(np.zeros((3, 3), int))
    with pytest.raises(CipherError, match="det = 8 shares a factor with 26"):
        hill_key_inverse(2 * IDENTITY)  # det 8, shares factor 2 with 26


@pytest.mark.parametrize("key", [
    1.5,
    1.9 * np.eye(3),
    [[2**70, 0, 0], [0, 1, 0], [0, 0, 1]],
    [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    [[1, 0, 0], [0, 1, 0]],
    ((True, False, False), (False, True, False), (False, False, True)),
    np.eye(3, dtype=bool),
], ids=["scalar", "float", "past-int64", "strings", "2x3", "bool", "numpy-bool"])
def test_hill_key_must_be_a_3x3_integer_matrix(key):
    """1.9 * I would truncate to the identity and 2**70 overflow int64. A
    bool key, even as tuple rows, is not taken as the integers 0 and 1."""
    for use in (hill_key_inverse, lambda k: hill_encrypt("ATTACK", k),
                lambda k: hill_decrypt("ATTACK", k)):
        with pytest.raises(ValueError, match="3x3 integer matrix"):
            use(key)


def test_bool_key_error_names_its_dtype_and_shape():
    rows = ((True, False, False), (False, True, False), (False, False, True))
    with pytest.raises(ValueError, match=r"^hill key must be a 3x3 integer matrix, "
                                         r"got bool of shape \(3, 3\)$"):
        hill_encrypt("ATTACK", rows)


def test_hill_key_of_any_integer_dtype_is_reduced_mod_26():
    key = np.array([[27, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.uint8)
    assert hill_encrypt("BAT", key) == hill_encrypt("BAT", IDENTITY)
    assert hill_encrypt("BAT", -25 * IDENTITY) == "BAT"


# The same key, (3, 3, 0), (2, 5, 0), (0, 0, 1) mod 26, in forms that are not
# SealConfig's tuple rows of ints in [0, 25]: each reduces as its ndarray does.
KEY_FORMS = {
    "tuple rows past 25 and below 0": ((29, -23, 26), (-24, 31, 52), (0, -26, 27)),
    "tuple rows of numpy ints": tuple(tuple(np.int64(v) for v in row)
                                      for row in ((3, 3, 0), (2, 5, 0), (0, 0, 1))),
    "tuple rows of uint8": tuple(tuple(np.uint8(v) for v in row)
                                 for row in ((3, 3, 26), (2, 5, 0), (0, 0, 1))),
    "a bool among ints": ((3, 3, 0), (2, 5, False), (0, 0, True)),
    "list rows": [[3, 3, 0], [2, 5, 0], [0, 0, 1]],
}


@pytest.mark.parametrize("key", KEY_FORMS.values(), ids=KEY_FORMS.keys())
def test_every_key_form_reduces_as_its_ndarray_does(key):
    array = np.asarray(key)
    assert array.dtype.kind in "iu"
    rng = random.Random(35)
    for n in (1, 2, 3, 4, 40):
        text = "".join(rng.choice(string.ascii_uppercase) for _ in range(n))
        assert hill_encrypt(text, key) == hill_encrypt(text, array)
        ciphertext = hill_encrypt(text, array)
        assert hill_decrypt(ciphertext, key) == hill_decrypt(ciphertext, array)
    inverse = hill_key_inverse(key)
    assert inverse.dtype == np.int64 and np.array_equal(inverse, hill_key_inverse(array))


# --- hill encrypt / decrypt ---------------------------------------------


def test_hill_identity_key_is_identity_on_letters():
    assert hill_encrypt("ACT", IDENTITY) == "ACT"
    assert hill_decrypt("ACT", IDENTITY) == "ACT"


def test_hill_diagonal_key_scales_symbols():
    # "ABC" = [0,1,2] times 3I -> [0,3,6] = "ADG"
    assert hill_encrypt("ABC", 3 * IDENTITY) == "ADG"


def test_hill_matches_row_vector_oracle():
    rng = random.Random(7)
    for _ in range(200):
        k = random_invertible_key(rng)
        msg = "PAYMOREMONEY"
        expected = []
        vals = [ord(c) - 65 for c in msg]
        for i in range(0, len(vals), 3):
            p = vals[i:i + 3]
            c = [(p[0] * int(k[0][j]) + p[1] * int(k[1][j]) + p[2] * int(k[2][j])) % 26
                 for j in range(3)]
            expected.extend(chr(v + 65) for v in c)
        assert hill_encrypt(msg, k) == "".join(expected)


def inverse_mod26(k):
    """Independent inverse mod 26: each cofactor from its 2x2 minor,
    transposed, times the determinant's inverse found by search."""
    def minor(i, j):
        rows = [[int(k[r][c]) for c in range(3) if c != j] for r in range(3) if r != i]
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    det = sum((-1) ** j * int(k[0][j]) * minor(0, j) for j in range(3)) % 26
    det_inv = next(x for x in range(26) if det * x % 26 == 1)
    return np.array([[det_inv * (-1) ** (i + j) * minor(j, i) % 26 for j in range(3)]
                     for i in range(3)])


def hill_by_rows(text, k):
    """Longhand row-vector product: each letter triple p gives p K mod 26."""
    vals = [ord(c) - 65 for c in text]
    out = []
    for i in range(0, len(vals), 3):
        p = vals[i:i + 3]
        out.extend(chr(65 + sum(p[t] * int(k[t][j]) for t in range(3)) % 26) for j in range(3))
    return "".join(out)


def test_hill_matches_longhand_oracle_in_both_directions():
    """Every text length from 3 to 120 letters in steps of 3, over 320
    invertible keys (318 random), each given as an ndarray and as tuple
    rows; 18 of the random keys have an entry set to 0 or 25."""
    rng = random.Random(3501)
    keys = [random_invertible_key(rng) for _ in range(300)]
    keys += [25 * IDENTITY, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])]
    while len(keys) < 320:
        k = random_invertible_key(rng)
        k[rng.randrange(3)][rng.randrange(3)] = rng.choice((0, 25))
        if gcd(int(round(np.linalg.det(k))) % 26, 26) == 1:
            keys.append(k)
    assert {0, 25} <= {int(v) for k in keys for v in k.ravel()}
    for index, k in enumerate(keys):
        k_inv = inverse_mod26(k)
        inverse = hill_key_inverse(k)
        assert inverse.dtype == np.int64 and inverse.shape == (3, 3)
        assert np.array_equal(inverse, k_inv)
        assert np.array_equal(matmul_mod26(k, k_inv), IDENTITY)
        n = 3 * (index % 40 + 1)
        text = "".join(rng.choice(string.ascii_uppercase) for _ in range(n))
        rows = tuple(tuple(int(v) for v in row) for row in k)
        expected = hill_by_rows(text, k)
        assert hill_encrypt(text, k) == hill_encrypt(text, rows) == expected
        assert hill_decrypt(text, k) == hill_decrypt(text, rows) == hill_by_rows(text, k_inv)
        assert hill_decrypt(expected, rows) == text


def test_hill_round_trip_with_padding():
    rng = random.Random(21)
    for _ in range(500):
        k = random_invertible_key(rng)
        n = rng.randint(1, 40)
        msg = "".join(rng.choice(string.ascii_uppercase) for _ in range(n))
        ct = hill_encrypt(msg, k)
        assert len(ct) % 3 == 0
        assert hill_decrypt(ct, k, hill_pad_count(msg)) == msg


def test_hill_normalizes_input():
    k = 3 * IDENTITY
    assert hill_encrypt("a b-c!", k) == hill_encrypt("ABC", k)


def test_hill_encrypt_normalizes_once(monkeypatch):
    import stegoseal.cipher as cipher
    calls = []
    normalize = cipher.normalize_letters
    monkeypatch.setattr(cipher, "normalize_letters",
                        lambda text: calls.append(text) or normalize(text))
    assert cipher.hill_encrypt("Attack soon", IDENTITY) == "ATTACKSOONXX"
    assert calls == ["Attack soon"]


def test_hill_empty_input():
    with pytest.raises(CipherError, match="no letters to encrypt after normalization"):
        hill_encrypt("123 !?", IDENTITY)


def test_hill_bad_length():
    with pytest.raises(CipherError, match="ciphertext has 4 letters, not a multiple of 3"):
        hill_decrypt("ABCD", IDENTITY)


def test_hill_decrypt_of_no_letters_is_empty():
    assert hill_decrypt("", IDENTITY) == ""
    assert hill_decrypt("1 2-3", IDENTITY) == ""


def test_hill_decrypt_pad_count_is_0_1_or_2():
    ct = hill_encrypt("ATTACK", IDENTITY)
    with pytest.raises(ValueError, match="pad_count must be 0, 1 or 2"):
        hill_decrypt(ct, IDENTITY, 3)


def test_hill_decrypt_identity_key_passthrough():
    assert hill_decrypt("XYZUVW", IDENTITY) == "XYZUVW"


def test_normalize_letters():
    assert normalize_letters("I'm so proud!") == "IMSOPROUD"
    assert normalize_letters("123") == ""


@pytest.mark.parametrize("text, letters", [
    ("stra\u00dfe", "STRASSE"),   # sharp s uppercases to two letters
    ("\u0131", "I"),              # dotless i
    ("\u017f", "S"),              # long s
    ("\ufb00", "FF"),             # the ff ligature
    ("\u212a", ""),               # the Kelvin sign is its own uppercase, not A-Z
    ("a\ud800b", "AB"),           # a lone surrogate is dropped
], ids=["sharp s", "dotless i", "long s", "ff ligature", "kelvin sign", "lone surrogate"])
def test_normalize_letters_keeps_the_ascii_letters_of_the_uppercase(text, letters):
    """Uppercasing comes first, so a letter whose uppercase is A-Z counts;
    every character whose uppercase is not A-Z is dropped."""
    assert normalize_letters(text) == letters
