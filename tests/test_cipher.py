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
], ids=["scalar", "float", "past-int64", "strings", "2x3"])
def test_hill_key_must_be_a_3x3_integer_matrix(key):
    """1.9 * I would truncate to the identity and 2**70 overflow int64."""
    for use in (hill_key_inverse, lambda k: hill_encrypt("ATTACK", k),
                lambda k: hill_decrypt("ATTACK", k)):
        with pytest.raises(ValueError, match="3x3 integer matrix"):
            use(key)


def test_hill_key_of_any_integer_dtype_is_reduced_mod_26():
    key = np.array([[27, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.uint8)
    assert hill_encrypt("BAT", key) == hill_encrypt("BAT", IDENTITY)
    assert hill_encrypt("BAT", -25 * IDENTITY) == "BAT"


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
