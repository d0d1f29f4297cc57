import collections
import contextlib
import dataclasses
import gc
import hashlib
import itertools
import random
import re
import string
import sys
import time
import weakref

import numpy as np
import pytest

from stegoseal.cipher import (caesar_decrypt, caesar_encrypt, hill_encrypt,
                              normalize_letters)
from stegoseal.digest import algorithm_for_hex_length, hash_message
from stegoseal.entropy import (BLOCK_MAGIC, BLOCK_TABLE, DC_SYMBOL, block_stream_bound,
                               decode_blocks, encode_blocks)
from stegoseal.errors import BlockError, CipherError, EmbedError, StegosealError, StreamError
from stegoseal.payload import _TO_BLOCK, ROW_LENGTH, TILES, pack, to_tiles, unpack
from stegoseal.pgm import GrayImage
from stegoseal.pipeline import (STREAM_BOUND, TAMPERED, UNDECODABLE, VERIFIED,
                                SealConfig, _key_text, _pack_block, _read_key_row,
                                _recover_block, parse_key_text, read_stream, seal,
                                stream_mode, tamper, verify)
from stegoseal.stego import LSB1, OVERWRITE, capacity, embed, extract
from stegoseal.transform import int_dct2, int_idct2

from conftest import dense_forged_tiles, make_cover

PAPER_MESSAGE = "I'm so proud to be Egyptian"


def paper_config(**overrides):
    return SealConfig(caesar_key=16, **overrides)


def stream_length(image, mode=OVERWRITE):
    return decode_blocks(extract(image, capacity(image, mode), mode)).consumed


# --- seal ----------------------------------------------------------------


def test_seal_and_verify_paper_example(cover):
    sealed = seal(PAPER_MESSAGE, paper_config(), cover)
    report = verify(sealed, paper_config())
    assert report.verdict == VERIFIED
    assert report.recovered_message == PAPER_MESSAGE
    assert report.embedded_digest == report.recomputed_digest
    assert report.reason == ""


def test_seal_is_deterministic(cover):
    a = seal(PAPER_MESSAGE, paper_config(), cover)
    b = seal(PAPER_MESSAGE, paper_config(), cover)
    assert a == b


# Streams that seal writes, pinned by length and SHA-256: the paper example
# and three messages drawn from random.Random(2110), both ciphers and both
# digests. A change to the cipher, the packing, the transform or the coder
# that alters a single bit shows here.
PINNED_STREAMS = [
    ("I'm so proud to be Egyptian", SealConfig(caesar_key=16), 140,
     "645aee5467c919c62dbc1bc6d18e99b5861d0d1f09c3e2f1ff857f7cd50cbdfc"),
    ("oD. v2vaoV'Tpx1d. ,Twh-eK6D,Y?bS3M6x.OQt",
     SealConfig(caesar_key=9, digest_algorithm="sha512"), 149,
     "ac5b9200c648bd3301cdd54cea90f69c3f7ff553a4bdfbf881e4c6bffc5fa501"),
    ("f3M?k0FCf14vazy6hK'yp9OSCiM5cOoynm'HjcRaPP??G1L24h?7.Q4'xmo?Up?x0OJhexzXeOe",
     SealConfig(cipher="hill", hill_key=[[6, 24, 1], [13, 16, 10], [20, 17, 15]]), 152,
     "0e69d25e4e2a1e11da972594e26f38837c36693220d5c0855be29fde779e8469"),
    ("H5U0QfVxNhwr'jR62y!zY9JzLuemn,0UevU62p4A2QJ29P84rmenjK9a2xyE4Kzm0'0Cu4,"
     "y-XJWO00MS1bwm-W4Tm8cxLdB-4.f2uTXH,bARN",
     SealConfig(cipher="hill", hill_key=[[3, 10, 20], [20, 9, 17], [9, 4, 17]],
                digest_algorithm="sha512"), 187,
     "5437d6ea55c19d9f383a15972507e9378d6642c7680865aa23df5acb6b9c056f"),
]


@pytest.mark.parametrize("message,config,length,sha256", PINNED_STREAMS,
                         ids=["paper", "caesar-sha512", "hill-sha256", "hill-sha512"])
def test_sealed_stream_bytes_are_pinned(message, config, length, sha256):
    sealed = seal(message, config, GrayImage(64, 64, np.zeros(64 * 64, np.uint8)))
    assert stream_length(sealed) == length
    stream = extract(sealed, length, OVERWRITE)
    assert hashlib.sha256(stream).hexdigest() == sha256
    assert verify(sealed, config).verdict == VERIFIED


MESSAGE_CHARS = string.ascii_letters + string.digits + " .,!?'\"-:;()"


def random_specs(cipher, count=300):
    """(message, config) pairs from random.Random(99): 1-120 characters of
    MESSAGE_CHARS, SHA-256 for even i and SHA-512 for odd i, a Caesar key
    from randrange(26) or an invertible Hill key of 9 randrange(26) draws.
    A Hill message gets a random letter appended when it has none."""
    rng = random.Random(99)
    for i in range(count):
        message = "".join(rng.choice(MESSAGE_CHARS) for _ in range(rng.randint(1, 120)))
        algorithm = ("sha256", "sha512")[i % 2]
        if cipher == "caesar":
            yield message, SealConfig(caesar_key=rng.randrange(26), digest_algorithm=algorithm)
            continue
        if not normalize_letters(message):
            message += rng.choice(string.ascii_letters)
        yield message, SealConfig(cipher="hill", hill_key=random_hill_key(rng),
                                  digest_algorithm=algorithm)


def test_every_random_message_codes_at_ratio_1_5():
    """The paper's measure, block elements per stream byte, reaches 1.5 for
    each of 300 Caesar and 300 Hill messages, not only for the paper example."""
    cover = make_cover(99)
    ratios = {(cipher, i): 384 / read_stream(seal(message, config, cover), OVERWRITE).consumed
              for cipher in ("caesar", "hill")
              for i, (message, config) in enumerate(random_specs(cipher))}
    assert len(ratios) == 600
    assert {case: ratio for case, ratio in ratios.items() if ratio < 1.5} == {}


def test_seal_rejects_empty_message(cover):
    """An empty message, and a Hill message with no letters, which
    normalizes to one."""
    for message, config in (("", paper_config()),
                            ("123", SealConfig(cipher="hill", hill_key=HILL_KEY))):
        with pytest.raises(CipherError, match="^refusing to seal an empty message$"):
            seal(message, config, cover)


def test_seal_message_too_long_for_row(cover):
    with pytest.raises(BlockError, match="row 0: 4000 bytes exceeds row length 128"):
        seal("x" * 4000, paper_config(), cover)


def test_seal_requires_key(cover):
    with pytest.raises(ValueError):
        seal("hi", SealConfig(), cover)


def test_seal_too_small_cover():
    tiny = GrayImage(8, 8, bytes(64))
    with pytest.raises(EmbedError, match="payload needs 140 bytes, image holds 64"):
        seal(PAPER_MESSAGE, paper_config(), tiny)


def test_seal_rejects_lossy_scale(cover, monkeypatch):
    # seal must never embed a stream that does not rebuild the payload
    import stegoseal.transform as transform
    exact = transform._pass

    def lossy(x, steps):
        return exact(x, steps) // 2 * 2 if steps is transform._INVERSE else exact(x, steps)

    monkeypatch.setattr(transform, "_pass", lossy)
    with pytest.raises(ValueError):
        seal(PAPER_MESSAGE, paper_config(), cover)


INEXACT = "the inverse transform does not reconstruct the payload"


def lower_offsets(monkeypatch, name, index, rows=slice(None)):
    """Replace step `index` of transform.`name` by a copy whose offset
    column, in `rows`, is 2**-20 low."""
    import stegoseal.transform as transform
    steps = list(getattr(transform, name))
    steps[index] = steps[index].copy()
    steps[index][rows, 8] -= 2 ** -20
    monkeypatch.setattr(transform, name, tuple(steps))


def test_seal_rejects_an_inexact_inverse_transform(cover, monkeypatch):
    """An inverse transform whose offset column is 2**-20 low, as from an
    inexact float product, fails seal's self-check on the real inverse pass.
    The error is negative because every pre-floor value is a multiple of
    2**-14: a rise of 2**-20 never reaches the next integer and floor
    absorbs it, while a fall takes each integer value down by one."""
    lower_offsets(monkeypatch, "_INVERSE", 0)
    with pytest.raises(ValueError, match=INEXACT):
        seal(PAPER_MESSAGE, paper_config(), cover)


def test_seal_rejects_an_inexact_forward_transform(cover, monkeypatch):
    """The same fault in the forward pass's offset column: the coefficients
    are no longer int_dct2's, and the exact inverse does not take them back."""
    lower_offsets(monkeypatch, "_FORWARD", 0)
    with pytest.raises(ValueError, match=INEXACT):
        seal(PAPER_MESSAGE, paper_config(), cover)


def test_seal_rejects_an_inexact_middle_inverse_step(cover, monkeypatch):
    """The fault in the offsets of one middle inverse step, rows 0-7 only:
    unlike the first step's, it keeps the row of ones that later steps
    take their offsets from."""
    lower_offsets(monkeypatch, "_INVERSE", 6, slice(8))
    with pytest.raises(ValueError, match=INEXACT):
        seal(PAPER_MESSAGE, paper_config(), cover)


def test_seal_rejects_an_inexact_last_forward_step(cover, monkeypatch):
    """The fault in the offsets of the last forward step, rows 0-7 only:
    the step that also puts each X_u in place and negates it, so that a
    pass gives the coefficients over the row of ones."""
    lower_offsets(monkeypatch, "_FORWARD", -1, slice(8))
    with pytest.raises(ValueError, match=INEXACT):
        seal(PAPER_MESSAGE, paper_config(), cover)


def test_config_validation():
    """A config is checked when it is built, and frozen, so no field can be set after that."""
    with pytest.raises(ValueError):
        SealConfig(cipher="rot13")
    with pytest.raises(ValueError):
        SealConfig(caesar_key=26)
    with pytest.raises(ValueError):
        SealConfig(caesar_key=3, hill_key=np.eye(3, dtype=int))
    with pytest.raises(CipherError, match="det = 8 shares a factor with 26"):
        SealConfig(cipher="hill", hill_key=2 * np.eye(3, dtype=int))
    with pytest.raises(ValueError, match="sealing with the hill cipher needs hill_key"):
        seal(PAPER_MESSAGE, SealConfig(cipher="hill"), make_cover(7))
    with pytest.raises(ValueError, match="unknown digest algorithm"):
        SealConfig(digest_algorithm="md5")
    config = paper_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.caesar_key = 26


@pytest.mark.parametrize("fields, message", [
    ({"caesar_key": 3, "hill_key": np.eye(3, dtype=int)}, "hill key given but cipher is caesar"),
    ({"cipher": "hill", "caesar_key": 3, "hill_key": np.eye(3, dtype=int)},
     "caesar key given but cipher is hill"),
], ids=["caesar", "hill"])
def test_config_rejects_the_other_ciphers_key(fields, message):
    with pytest.raises(ValueError, match=message):
        SealConfig(**fields)


@pytest.mark.parametrize("key", [3.7, 16.0, "16", True])
def test_caesar_key_must_be_an_integer(key):
    """A key that is not an integer would be written as the key row "3.7"
    or "16.0", which verify cannot read back; True would seal as shift 1."""
    with pytest.raises(ValueError, match="must be an integer"):
        SealConfig(caesar_key=key)
    with pytest.raises(ValueError, match="must be an integer"):
        caesar_encrypt(PAPER_MESSAGE, key)


def test_numpy_integer_caesar_key_seals_as_an_int(cover):
    sealed = seal(PAPER_MESSAGE, SealConfig(caesar_key=np.int64(16)), cover)
    assert sealed == seal(PAPER_MESSAGE, paper_config(), cover)
    assert verify(sealed, SealConfig(caesar_key=np.int64(16))).verdict == VERIFIED


@pytest.mark.parametrize("key", [1.9 * np.eye(3), [[2**70, 0, 0], [0, 1, 0], [0, 0, 1]],
                                 ((True, False, False), (False, True, False), (False, False, True)),
                                 np.eye(3, dtype=bool)],
                         ids=["float", "past-int64", "bool", "numpy-bool"])
def test_hill_key_must_be_an_integer_matrix(key):
    """A float key would seal as its truncation, and a key past int64 would
    raise OverflowError from verify. A bool key is not read as 0s and 1s."""
    with pytest.raises(ValueError, match="integer matrix"):
        SealConfig(cipher="hill", hill_key=key)


def test_hill_key_is_fixed_when_the_config_is_built(cover):
    """A config keeps a read-only copy of the key it checked: a later change
    to the array or the nested list it was built from (here to keys whose
    determinants 8 and 4 share a factor with 26) does not reach the seal."""
    array, nested = np.array(HILL_KEY), [list(row) for row in HILL_KEY]
    configs = [SealConfig(cipher="hill", hill_key=key) for key in (array, nested)]
    array[:] = 2 * np.eye(3, dtype=int)
    nested[0][0] = 2
    for config in configs:
        sealed = seal("Attack at dawn", config, cover)
        assert verify(sealed, SealConfig(cipher="hill", hill_key=HILL_KEY)).verdict == VERIFIED
    with pytest.raises(TypeError):
        configs[0].hill_key[0][0] = 1


def test_configs_compare_and_hash_a_hill_key_by_value():
    """Configs built apart from equal keys, as an array or as lists, are
    equal and hash the same; another key, or a Caesar config, is unequal.
    The stored key stays read-only."""
    apart = [SealConfig(cipher="hill", hill_key=key)
             for key in (HILL_KEY, np.array(HILL_KEY), [list(row) for row in HILL_KEY])]
    assert apart[0] == apart[1] == apart[2] and len({hash(c) for c in apart}) == 1
    assert len(set(apart)) == 1
    other = SealConfig(cipher="hill", hill_key=[[3, 3, 0], [2, 5, 0], [0, 0, 3]])
    assert apart[0] != other and other == SealConfig(cipher="hill", hill_key=other.hill_key)
    caesar = SealConfig(caesar_key=3)
    assert apart[0] != caesar and caesar == SealConfig(caesar_key=3)
    assert apart[0] != SealConfig(cipher="hill", hill_key=HILL_KEY, digest_algorithm="sha256")
    assert apart[0].hill_key == ((3, 3, 0), (2, 5, 0), (0, 0, 1))


@pytest.mark.parametrize("key", [
    ((29, -23, 26), (-24, 31, 52), (0, -26, 27)),
    tuple(tuple(np.int64(v) for v in row) for row in [[3, 3, 0], [2, 5, 0], [0, 0, 1]]),
    tuple(tuple(np.uint8(v) for v in row) for row in [[29, 3, 26], [2, 5, 0], [0, 0, 1]]),
], ids=["past 25 and below 0", "numpy ints", "numpy uint8"])
def test_hill_key_rows_reduce_as_their_ndarray_does(key):
    """Tuple rows that are not SealConfig's form (ints in [0, 25]) give the
    config that the same key as an ndarray gives, and so the same seal."""
    config = SealConfig(cipher="hill", hill_key=key)
    assert config == SealConfig(cipher="hill", hill_key=np.array(key))
    assert config.hill_key == ((3, 3, 0), (2, 5, 0), (0, 0, 1))
    assert {type(v) for row in config.hill_key for v in row} == {int}
    cover = make_cover(35)
    sealed = seal("Attack at dawn", config, cover)
    assert sealed == seal("Attack at dawn", SealConfig(cipher="hill", hill_key=HILL_KEY), cover)
    assert verify(sealed, config).verdict == VERIFIED


def test_hill_seal_and_verify_make_no_numpy_call_in_the_cipher(monkeypatch):
    """SealConfig's tuple rows run through the cipher as they are: with the
    cipher module's numpy gone, a Hill config, seal and verify still work."""
    import stegoseal.cipher as cipher

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"cipher read np.{name}")

    cover = make_cover(35)
    monkeypatch.setattr(cipher, "np", NoNumpy())
    for key in (((3, 3, 0), (2, 5, 0), (0, 0, 1)), parse_key_text("6,24,1,13,16,10,20,17,15")[1]):
        config = SealConfig(cipher="hill", hill_key=key)
        sealed = seal("Attack at dawn", config, cover)
        for expected in (config, None):
            report = verify(sealed, expected)
            assert (report.verdict, report.recovered_message) == (VERIFIED, "ATTACKATDAWN")
    with pytest.raises(AssertionError, match="cipher read np"):
        SealConfig(cipher="hill", hill_key=np.array(HILL_KEY))


def test_stream_bound_holds_the_sealed_stream():
    """Seal writes a stream of the block's 6 tiles that fits in STREAM_BOUND
    bytes."""
    assert STREAM_BOUND == block_stream_bound(6)
    config = SealConfig(caesar_key=5, digest_algorithm="sha256")
    stream = read_stream(seal("Seal me", config, make_cover(5)), config.embed_mode)
    assert len(stream.coeffs) == 6
    assert stream.consumed <= STREAM_BOUND


# --- verify --------------------------------------------------------------


def test_verify_round_trip_mixed_configs():
    rng = random.Random(1)
    chars = string.ascii_letters + string.digits + " .,!?'-"
    for i in range(200):
        cover = make_cover(1000 + i, 128, 128)
        mode = OVERWRITE if i % 2 else LSB1
        algorithm = "sha256" if i % 3 == 0 else "sha512"
        if i % 4 == 0:
            key = random_hill_key(rng)
            config = SealConfig(cipher="hill", hill_key=key, embed_mode=mode,
                                digest_algorithm=algorithm)
            message = "".join(rng.choice(string.ascii_uppercase)
                              for _ in range(rng.randint(1, 100)))
            expected = message
        else:
            config = SealConfig(caesar_key=rng.randrange(26), embed_mode=mode,
                                digest_algorithm=algorithm)
            message = "".join(rng.choice(chars) for _ in range(rng.randint(1, 120)))
            expected = message
        report = verify(seal(message, config, cover), config)
        assert report.verdict == VERIFIED, report.reason
        assert report.recovered_message == expected


def random_hill_key(rng):
    from math import gcd
    while True:
        k = np.array([[rng.randrange(26) for _ in range(3)] for _ in range(3)])
        if gcd(int(round(np.linalg.det(k))) % 26, 26) == 1:
            return k


def test_verify_untouched_cover(cover):
    report = verify(cover, paper_config())
    assert report.verdict == UNDECODABLE
    assert report.recovered_message == ""


def test_verify_without_key(cover):
    sealed = seal(PAPER_MESSAGE, paper_config(), cover)
    report = verify(sealed, SealConfig())
    assert report.verdict == VERIFIED
    assert report.recovered_message == PAPER_MESSAGE


def test_verify_infers_digest_algorithm(cover):
    sealed = seal("short", paper_config(digest_algorithm="sha256"), cover)
    report = verify(sealed, SealConfig())
    assert report.verdict == VERIFIED


def test_verify_key_cross_check(cover):
    sealed = seal(PAPER_MESSAGE, paper_config(), cover)
    wrong = verify(sealed, SealConfig(caesar_key=15))
    assert wrong.verdict == TAMPERED
    assert "key" in wrong.reason


def test_verify_hill_round_trip(cover):
    key = [[6, 24, 1], [13, 16, 10], [20, 17, 15]]
    config = SealConfig(cipher="hill", hill_key=key)
    for message, expected in [
        ("HELLO", "HELLO"),          # pad 1
        ("FOXES", "FOXES"),          # pad 1 after a legit letter
        ("SIXX", "SIXX"),            # message ends in X, pad 2
        ("Attack at dawn!", "ATTACKATDAWN"),
        ("ARMY", "ARMY"),
    ]:
        report = verify(seal(message, config, cover), config)
        assert report.verdict == VERIFIED, report.reason
        assert report.recovered_message == expected


def test_verify_single_bit_flips_sample(cover):
    sealed = seal(PAPER_MESSAGE, paper_config(), cover)
    n = stream_length(sealed)
    rng = random.Random(2)
    for _ in range(60):
        pixel = rng.randrange(n)
        bit = rng.randrange(8)
        report = verify(tamper(sealed, pixel, bit), paper_config())
        assert report.verdict in (TAMPERED, UNDECODABLE)


def test_verify_locality_outside_flips(cover):
    sealed = seal(PAPER_MESSAGE, paper_config(), cover)
    n = stream_length(sealed)
    total = sealed.width * sealed.height
    rng = random.Random(3)
    for _ in range(1000):
        pixel = rng.randrange(n, total)
        report = verify(tamper(sealed, pixel, rng.randrange(8)), paper_config())
        assert report.verdict == VERIFIED


def test_verify_hill_every_bit_flip(cover):
    # Hill decryption drops non-letters, so a flip that only lights up
    # ciphertext padding must still be caught
    config = SealConfig(cipher="hill", hill_key=[[6, 24, 1], [13, 16, 10], [20, 17, 15]])
    sealed = seal("Attack at dawn", config, cover)
    for pixel in range(stream_length(sealed)):
        for bit in range(8):
            report = verify(tamper(sealed, pixel, bit), SealConfig())
            assert report.verdict != VERIFIED, (pixel, bit)


HILL_KEY = [[3, 3, 0], [2, 5, 0], [0, 0, 1]]
# Payload row 1 as seal writes it: one letter per key entry, A = 0 ... Z = 25,
# each 8 * (16 // entries) times over, NUL-padded by pack.
HILL_KEY_ROW = "".join(8 * letter for letter in "DDACFAAAB")  # HILL_KEY
CAESAR_KEY_ROW = 128 * "Q"                                    # key 16


FLIP_CASES = {
    **{f"{cipher}-{i}": spec for cipher in ("caesar", "hill")
       for i, spec in enumerate(random_specs(cipher, 2))},
    # no letter the key moves: the ciphertext is the plaintext
    "digits-key-16": ("123 456!", SealConfig(caesar_key=16)),
    "date-key-3": ("2021-10-04", SealConfig(caesar_key=3)),
    # every 3-letter block starts with A, so keys that differ only in
    # their first row give the same ciphertext
    "hill-ATTACKATDAWN": ("ATTACKATDAWN", SealConfig(cipher="hill", hill_key=HILL_KEY)),
    "hill-AAA": ("AAA", SealConfig(cipher="hill", hill_key=HILL_KEY)),
}


@pytest.mark.parametrize("case", FLIP_CASES)
def test_keyless_verify_rejects_every_single_bit_flip(cover, case):
    """Every flip of a stream bit, on images beyond the two pinned ones,
    is TAMPERED or UNDECODABLE under keyless verify."""
    message, config = FLIP_CASES[case]
    sealed = seal(message, config, cover)
    assert verify(sealed).verdict == VERIFIED
    verified = [(pixel, bit) for pixel in range(stream_length(sealed)) for bit in range(8)
                if verify(tamper(sealed, pixel, bit)).verdict == VERIFIED]
    assert verified == []


def block_stream_of(block):
    return encode_blocks(int_dct2(to_tiles(block)))


def embed_block(block, cover, mode=OVERWRITE):
    """Seal an arbitrary block, bypassing the checks seal makes."""
    return embed(cover, block_stream_of(block), mode)


def unchecked_block(ciphertext, key_row, digest):
    """The block pack builds from these rows, without pack's checks: a row
    may hold a NUL."""
    return b"".join(row.encode().ljust(ROW_LENGTH, b"\x00")
                    for row in (ciphertext, key_row, digest)).translate(_TO_BLOCK)


def assert_sealed_stream(image, report):
    """When `report` is VERIFIED, the stream in `image` is byte for byte the
    one seal writes for the recovered message under the embedded key and
    digest algorithm."""
    if report.verdict != VERIFIED:
        return
    decoded, mode = report.stream, report.mode
    kind, key = _read_key_row(unpack(int_idct2(decoded.coeffs).astype(np.uint8).tobytes())[1])
    config = SealConfig(cipher=kind, **{f"{kind}_key": key}, embed_mode=mode,
                        digest_algorithm=algorithm_for_hex_length(len(report.embedded_digest)))
    resealed = seal(report.recovered_message, config, image)
    length = read_stream(resealed, mode).consumed
    assert extract(resealed, length, mode) == extract(image, decoded.consumed, mode)


def test_seal_writes_the_stream_of_the_public_transform_and_coder():
    """Seal gathers the block straight into the transform's layout and the
    zig-zag rows straight out of it, with no tile array. For every
    random_specs message of both ciphers, in both embed modes, its stream
    is encode_blocks(int_dct2(to_tiles(block))) of the block it packs."""
    cover = make_cover(99, 128, 128)
    for cipher in ("caesar", "hill"):
        for message, config in random_specs(cipher):
            protected = message if cipher == "caesar" else normalize_letters(message)
            digest = hash_message(protected, config.digest_algorithm)
            expected = block_stream_of(_pack_block(protected, cipher, config.key, digest))
            for mode in (OVERWRITE, LSB1):
                sealed = seal(message, dataclasses.replace(config, embed_mode=mode), cover)
                assert extract(sealed, len(expected), mode) == expected, (cipher, message, mode)


SPLICE_SEALS = [(PAPER_MESSAGE, SealConfig(caesar_key=16)),
                ("Attack at dawn", SealConfig(cipher="hill", hill_key=HILL_KEY)),
                *(next(random_specs(cipher, 1)) for cipher in ("caesar", "hill"))]


def test_no_row_splice_of_two_seals_is_verified():
    """Row splices between two seals: each of the 3 payload rows taken from
    one seal or the other, in every mix but the two seals themselves, for
    every pair of 4 seals. All 36 forgeries are re-encoded with int_dct2
    and encode_blocks and embedded, so they decode; none is VERIFIED, and
    each is TAMPERED by its digest: the digest row never matches the
    message that the other two rows decrypt to."""
    cover = GrayImage(64, 64, np.arange(64 * 64) % 256)
    blocks = [_recover_block(read_stream(seal(message, config, cover), OVERWRITE).zigzag)
              for message, config in SPLICE_SEALS]
    seen = collections.Counter()
    for pair in itertools.combinations(blocks, 2):
        for mix in itertools.product((0, 1), repeat=3):
            if len(set(mix)) == 1:
                continue
            block = b"".join(pair[k][row * ROW_LENGTH:(row + 1) * ROW_LENGTH]
                             for row, k in enumerate(mix))
            image = embed_block(block, cover)
            report = verify(image)
            assert report.stream is not None, mix
            assert_sealed_stream(image, report)
            seen[report.verdict, report.reason] += 1
    assert seen == {(TAMPERED, "digest mismatch"): 36}


@pytest.mark.parametrize("message, config, counts", [
    (PAPER_MESSAGE, SealConfig(caesar_key=16),
     {TAMPERED: 602, "BlockError": 422, "CipherError": 512}),
    ("Attack at dawn", SealConfig(cipher="hill", hill_key=HILL_KEY),
     {TAMPERED: 527, "BlockError": 554, "CipherError": 455}),
], ids=["paper", "hill"])
def test_no_coefficient_edit_that_decodes_is_verified(message, config, counts):
    """Each of the 384 decoded coefficients changed by -2, -1, +1 and +2,
    re-encoded and embedded: all 1536 forgeries decode, none is VERIFIED,
    and their verdicts, UNDECODABLE ones by the stage that rejected the
    block, split as pinned."""
    cover = GrayImage(64, 64, np.arange(64 * 64) % 256)
    coeffs = read_stream(seal(message, config, cover), OVERWRITE).coeffs
    seen = collections.Counter()
    for index in range(coeffs.size):
        for delta in (-2, -1, 1, 2):
            forged = coeffs.copy()
            forged.flat[index] += delta
            image = embed(cover, encode_blocks(forged), OVERWRITE)
            report = verify(image)
            assert report.stream is not None, (index, delta)
            assert_sealed_stream(image, report)
            seen[report.reason.split(":")[0] if report.verdict == UNDECODABLE else report.verdict] += 1
    assert seen == counts


SEALED_FORM = "block differs from the one seal writes for its message"
KEY_ROW_ERROR = "CipherError: key row "
CIPHERTEXT_ERROR = "CipherError: ciphertext has "


@pytest.mark.parametrize("message, kind, key, counts", [
    (PAPER_MESSAGE, "caesar", 16,
     {(TAMPERED, "digest mismatch"): 898, (UNDECODABLE, KEY_ROW_ERROR): 512}),
    ("ATTACKATDAWN", "hill", HILL_KEY,
     {(TAMPERED, "digest mismatch"): 584, (TAMPERED, SEALED_FORM): 128,
      (UNDECODABLE, KEY_ROW_ERROR): 368, (UNDECODABLE, CIPHERTEXT_ERROR): 128}),
], ids=["paper", "hill"])
def test_no_block_byte_edit_is_verified(message, kind, key, counts):
    """Each byte b of the block seal packs, with SHA-512, set to b - 1, b + 1,
    0, b - 36 and b + 36 where that is another byte value (under pack's byte
    map, 36 apart is the other case of a letter), re-encoded and embedded:
    every forgery decodes, none is VERIFIED, and their verdicts and reasons,
    the key row's and the ciphertext's CipherError by their prefix, split
    as pinned."""
    cover = make_cover(5)
    block = _pack_block(message, kind, key, hash_message(message, "sha512"))
    seen = collections.Counter()
    for i, old in enumerate(block):
        for new in dict.fromkeys((old - 1, old + 1, 0, old - 36, old + 36)):
            if new == old or not 0 <= new <= 255:
                continue
            image = embed_block(block[:i] + bytes([new]) + block[i + 1:], cover)
            report = verify(image)
            assert report.stream is not None, (i, new)
            assert_sealed_stream(image, report)
            reason = next((prefix for prefix in (KEY_ROW_ERROR, CIPHERTEXT_ERROR)
                           if report.reason.startswith(prefix)), report.reason)
            seen[report.verdict, reason] += 1
    assert seen == counts


def test_verify_rejects_blocks_seal_would_not_write(cover):
    key = [[6, 24, 1], [13, 16, 10], [20, 17, 15]]
    digest = hash_message("ATTACKATDAWN")
    key_row = "".join(8 * letter for letter in "GYBNQKURP")
    hill_block = pack(hill_encrypt("ATTACKATDAWN", key), key_row, digest)
    assert verify(embed_block(hill_block, cover)).verdict == VERIFIED
    # a control byte in the ciphertext padding, written through pack's byte map
    padded = hill_block[:40] + b"\x01".translate(_TO_BLOCK) + hill_block[41:]
    lowercase = pack(hill_encrypt("ATTACKATDAWN", key).lower(), key_row, digest)
    for block in (padded, lowercase):
        report = verify(embed_block(block, cover))
        assert (report.verdict, report.reason) == (TAMPERED, SEALED_FORM)
        assert report.recovered_message == "ATTACKATDAWN"
    caesar = pack(caesar_encrypt(PAPER_MESSAGE, 16), CAESAR_KEY_ROW[:-1] + "\t",
                  hash_message(PAPER_MESSAGE))
    assert verify(embed_block(caesar, cover)).verdict == UNDECODABLE


def test_digest_row_is_the_hex_digest_in_one_form():
    """Seal writes row 2 as hash_message's lowercase hex, which pack's byte
    map places at the contiguous block bytes 27-42. Each of its characters
    replaced by another hex digit in either case, or by one of :;<=>?
    that once stood for a-f, is TAMPERED with a digest mismatch."""
    row = hash_message(PAPER_MESSAGE)
    small = GrayImage(64, 64, np.zeros(64 * 64, np.uint8))
    decoded = read_stream(seal(PAPER_MESSAGE, paper_config(), small), OVERWRITE)
    block = int_idct2(decoded.coeffs).astype(np.uint8).tobytes()
    assert unpack(block)[2] == row
    assert set(block[256:].rstrip(b"\x00")) <= set(range(27, 43))
    ciphertext = caesar_encrypt(PAPER_MESSAGE, 16)
    for i, old in enumerate(row):
        for new in "0123456789abcdefABCDEF:;<=>?":
            if new != old:
                block = pack(ciphertext, CAESAR_KEY_ROW, row[:i] + new + row[i + 1:])
                report = verify(embed_block(block, small))
                assert (report.verdict, report.reason) == (TAMPERED, "digest mismatch"), (i, new)


@pytest.mark.parametrize("key_row, verdict", [
    # seal's row for key 16, named by the key and its verdict
    pytest.param(CAESAR_KEY_ROW, VERIFIED, id="16-VERIFIED"),
    pytest.param(7 * "Q", UNDECODABLE, id="7 repeats"),
    pytest.param(9 * "Q", UNDECODABLE, id="9 repeats"),
    pytest.param(7 * "Q" + "R", UNDECODABLE, id="odd letter"),
    pytest.param(8 * "q", UNDECODABLE, id="lowercase"),
    pytest.param(16 * "Q", UNDECODABLE, id="2 entries"),
    pytest.param(64 * "Q", UNDECODABLE, id="8 entries"),
    # the 8 repeats seal wrote before, and near misses of the full row
    pytest.param(8 * "Q", UNDECODABLE, id="8 repeats"),
    pytest.param(127 * "Q", UNDECODABLE, id="127 repeats"),
    pytest.param(127 * "Q" + "R", UNDECODABLE, id="127 repeats and R"),
    # the decimal form seal wrote before, and spellings int() reads as 16
    ("16", UNDECODABLE), (" 16", UNDECODABLE), ("16 ", UNDECODABLE), ("+16", UNDECODABLE),
    ("1_6", UNDECODABLE), ("016", UNDECODABLE), ("\u0661\u0666", UNDECODABLE),
])
def test_caesar_key_row_has_one_valid_form(cover, key_row, verdict):
    """Row 1 is exactly 128 equal letters A-Z for Caesar or 9 groups of 8
    for Hill; each near miss of seal's form is rejected before any
    decryption."""
    block = pack(caesar_encrypt(PAPER_MESSAGE, 16), key_row, hash_message(PAPER_MESSAGE))
    report = verify(embed_block(block, cover))
    assert report.verdict == verdict
    assert report.reason.startswith(KEY_ROW_ERROR) if verdict == UNDECODABLE else report.reason == ""


@pytest.mark.parametrize("key_row, verdict", [
    # seal's row for HILL_KEY, named by the key entries and its verdict
    pytest.param(HILL_KEY_ROW, VERIFIED, id="3,3,0,2,5,0,0,0,1-VERIFIED"),
    pytest.param(HILL_KEY_ROW[:-8], UNDECODABLE, id="8 entries"),
    pytest.param(HILL_KEY_ROW[:-1], UNDECODABLE, id="7 repeats"),
    pytest.param(HILL_KEY_ROW + "B", UNDECODABLE, id="9 repeats"),
    pytest.param(HILL_KEY_ROW[:20] + "E" + HILL_KEY_ROW[21:], UNDECODABLE, id="odd letter"),
    pytest.param(HILL_KEY_ROW.lower(), UNDECODABLE, id="lowercase"),
    # the decimal form seal wrote before, and near misses of it
    ("3,3,0,2,5,0,0,0,1", UNDECODABLE), ("03,3,0,2,5,0,0,0,1", UNDECODABLE),
    (" 3,3,0,2,5,0,0,0,1", UNDECODABLE), ("3,3,0,2,5,0,0,0,+1", UNDECODABLE),
    ("3,3,0,2,5,0,0,0,27", UNDECODABLE),
])
def test_hill_key_row_has_one_valid_form(cover, key_row, verdict):
    message = normalize_letters(PAPER_MESSAGE)
    block = pack(hill_encrypt(message, HILL_KEY), key_row, hash_message(message))
    report = verify(embed_block(block, cover))
    assert report.verdict == verdict
    assert report.reason.startswith(KEY_ROW_ERROR) if verdict == UNDECODABLE else report.reason == ""


def sealed_key_row(config):
    """Payload row 1 of "Attack at dawn" as seal writes it under `config`."""
    sealed = seal("Attack at dawn", config, GrayImage(64, 64, np.zeros(64 * 64, np.uint8)))
    decoded = read_stream(sealed, OVERWRITE)
    return unpack(int_idct2(decoded.coeffs).astype(np.uint8).tobytes())[1]


def test_key_text_and_key_row_read_back_the_same_key():
    """parse_key_text of a --key and _read_key_row of the row seal writes
    for that key give the same (kind, key): all 26 Caesar keys and 50
    invertible Hill keys."""
    rng = random.Random(2204)
    hill_keys = [random_hill_key(rng) for _ in range(50)]
    texts = [str(k) for k in range(26)] + [",".join(map(str, k.ravel())) for k in hill_keys]
    for text in texts:
        kind, key = parse_key_text(text)
        config = SealConfig(cipher=kind, **{f"{kind}_key": key})
        read_kind, read_key = _read_key_row(sealed_key_row(config))
        assert read_kind == kind and read_key == key == config.key, text


@pytest.mark.parametrize("config", [SealConfig(caesar_key=16),
                                    SealConfig(cipher="hill", hill_key=HILL_KEY)],
                         ids=["caesar-16", "hill"])
def test_key_row_with_any_one_character_replaced_is_rejected(config):
    """Every row one letter, digit or case away from seal's is a CipherError
    naming the key row; only seal's own row reads back."""
    row = sealed_key_row(config)
    assert _key_text(*_read_key_row(row)) == row
    for i, old in enumerate(row):
        for new in string.ascii_letters + string.digits:
            if new != old:
                with pytest.raises(CipherError, match="^key row "):
                    _read_key_row(row[:i] + new + row[i + 1:])


def key_row_error(row):
    """The one CipherError text of _read_key_row, as a full-match pattern."""
    text = f"key row {row!r} is not 1 group of 128 or 9 groups of 8 equal letters A-Z"
    return f"^{re.escape(text)}$"


def test_key_rows_read_back_exactly_the_rows_key_text_writes():
    """All 26 Caesar rows and the rows of 200 random Hill keys (any 9
    entries in [0, 25]) read back as their key, and each row one edit
    away from one of them raises the one key row error: a letter changed
    at the start of a run and inside one, a lowercase letter, a non-ASCII
    letter and a digit at each of those two places, the row one
    character short or one character long, and the row with its last run
    cut to one lowercase, non-ASCII or past-"Z" character, which reads
    back as that character's own run."""
    rng = random.Random(3601)
    keys = [("caesar", shift) for shift in range(26)] + [
        ("hill", tuple(tuple(rng.randrange(26) for _ in range(3)) for _ in range(3)))
        for _ in range(200)]
    for kind, key in keys:
        row = _key_text(kind, key)
        assert _read_key_row(row) == (kind, key)
        step = ROW_LENGTH if kind == "caesar" else 8
        start = step * rng.randrange(len(row) // step)
        edits = [row[:-1], row + row[-1], row[0] + row,
                 *(row[:-step] + new for new in (row[-1].lower(), rng.choice("ÄÉÑßλЖ"), "["))]
        for i in (start, start + rng.randrange(1, step)):
            old = row[i]
            for new in (rng.choice(string.ascii_uppercase.replace(old, "")), old.lower(),
                        rng.choice("ÄÉÑßλЖ"), rng.choice(string.digits)):
                edits.append(row[:i] + new + row[i + 1:])
        for edited in edits:
            with pytest.raises(CipherError, match=key_row_error(edited)):
                _read_key_row(edited)


@pytest.mark.parametrize("last", ["a", "[", "é"])
def test_key_row_with_a_short_last_run_is_undecodable_under_its_digest(cover, last):
    """HILL_KEY_ROW with its last run cut to one character past "Z" (97 =
    19 mod 26 for "a"), under the ciphertext and digest of the key that
    ends in 19: verify reads no key from it, whatever the digest says."""
    key = [[3, 3, 0], [2, 5, 0], [0, 0, 19]]
    key_row = HILL_KEY_ROW[:-8] + last
    message = normalize_letters(PAPER_MESSAGE)
    block = pack(hill_encrypt(message, key), key_row, hash_message(message))
    report = verify(embed_block(block, cover))
    assert report.verdict == UNDECODABLE
    assert report.reason == (f"CipherError: key row {key_row!r} is not 1 group of 128 "
                             "or 9 groups of 8 equal letters A-Z")


@pytest.mark.parametrize("ciphertext, key_row", [
    (caesar_encrypt(PAPER_MESSAGE, 16), CAESAR_KEY_ROW),
    (hill_encrypt("ATTACKATDAWN", HILL_KEY), HILL_KEY_ROW),
], ids=["caesar", "hill"])
def test_digest_row_of_no_known_length_is_a_mismatch(cover, ciphertext, key_row):
    """A 63-character digest and an emptied digest row name no algorithm, so
    nothing is recomputed, and the "" that gives never matches, not even
    an empty row, in either embed mode."""
    for digest in ("a" * 63, ""):
        for mode in (OVERWRITE, LSB1):
            image = embed_block(pack(ciphertext, key_row, digest), cover, mode)
            report = verify(image)
            assert (report.verdict, report.reason, report.mode) == (
                TAMPERED, "digest mismatch", mode), (digest, mode)
            assert (report.embedded_digest, report.recomputed_digest) == (digest, "")
            assert_sealed_stream(image, report)


def test_digest_mismatch_hashes_the_message_once(cover, monkeypatch):
    import stegoseal.digest as digest
    block = pack(caesar_encrypt(PAPER_MESSAGE, 16), CAESAR_KEY_ROW,
                 hash_message("another message"))
    sealed = embed_block(block, cover)
    calls = []
    monkeypatch.setattr(digest, "hash_message",
                        lambda *args: calls.append(args) or hash_message(*args))
    report = verify(sealed)
    assert (report.verdict, report.reason) == (TAMPERED, "digest mismatch")
    assert report.recomputed_digest == hash_message(PAPER_MESSAGE)
    assert calls == [(PAPER_MESSAGE, "sha512")]


def test_rebuild_that_raises_is_not_the_sealed_form(cover):
    """Blocks whose message seal refuses, in either embed mode: no letters
    for Hill, a NUL for Caesar, and an empty Caesar ciphertext under the
    SHA-256 and the SHA-512 of the empty message it decrypts to."""
    nul = unchecked_block("a\x00b", CAESAR_KEY_ROW, hash_message(caesar_decrypt("a\x00b", 16)))
    blocks = {"hill": pack("123", HILL_KEY_ROW, hash_message("")), "caesar-nul": nul,
              **{f"caesar-empty-{algorithm}": pack("", CAESAR_KEY_ROW, hash_message("", algorithm))
                 for algorithm in ("sha256", "sha512")}}
    for name, block in blocks.items():
        for mode in (OVERWRITE, LSB1):
            image = embed_block(block, cover, mode)
            report = verify(image)
            assert (report.verdict, report.reason, report.mode) == (
                TAMPERED, SEALED_FORM, mode), (name, mode)
            assert_sealed_stream(image, report)


def test_verify_lsb1_locality(cover):
    config = paper_config(embed_mode=LSB1)
    sealed = seal(PAPER_MESSAGE, config, cover)
    n = stream_length(sealed, LSB1)
    rng = random.Random(4)
    # bits above the LSB never matter, nor do pixels past the region
    for _ in range(300):
        pixel = rng.randrange(8 * n)
        report = verify(tamper(sealed, pixel, rng.randrange(1, 8)), config)
        assert report.verdict == VERIFIED
    for _ in range(300):
        pixel = rng.randrange(8 * n, sealed.width * sealed.height)
        report = verify(tamper(sealed, pixel, rng.randrange(8)), config)
        assert report.verdict == VERIFIED


def test_verify_lsb1_flips_inside_region(cover):
    config = paper_config(embed_mode=LSB1)
    sealed = seal(PAPER_MESSAGE, config, cover)
    n = stream_length(sealed, LSB1)
    rng = random.Random(5)
    for _ in range(60):
        report = verify(tamper(sealed, rng.randrange(8 * n), 0), config)
        assert report.verdict in (TAMPERED, UNDECODABLE)


# --- embed mode detection ----------------------------------------------------


@pytest.mark.parametrize("mode", [OVERWRITE, LSB1])
def test_verify_detects_the_embed_mode(cover, mode):
    """Verify reads the mode from the image, whatever mode its config names."""
    other = LSB1 if mode == OVERWRITE else OVERWRITE
    sealed = seal(PAPER_MESSAGE, paper_config(embed_mode=mode), cover)
    assert stream_mode(sealed) == mode
    for config in (SealConfig(), paper_config(embed_mode=mode), paper_config(embed_mode=other)):
        report = verify(sealed, config)
        assert (report.verdict, report.mode) == (VERIFIED, mode)


def test_seal_needs_an_embed_mode():
    with pytest.raises(ValueError, match="embed mode"):
        paper_config(embed_mode=None)


def test_the_two_stream_headers_exclude_each_other(cover):
    """Overwrite puts 0x00 in pixel 1 and lsb1 makes it odd, so no image
    holds a stream in both modes and stream_mode cannot pick the wrong one."""
    stream = encode_blocks(np.zeros((6, 8, 8), np.int64))
    assert stream[1] == 0
    assert np.unpackbits(np.frombuffer(stream[:1], np.uint8))[1] == 1
    for mode, other in ((OVERWRITE, LSB1), (LSB1, OVERWRITE)):
        sealed = seal(PAPER_MESSAGE, paper_config(embed_mode=mode), cover)
        with pytest.raises(StegosealError):
            read_stream(sealed, other)


def decoding_modes(image):
    modes = set()
    for mode in (OVERWRITE, LSB1):
        with contextlib.suppress(StegosealError):
            read_stream(image, mode)
            modes.add(mode)
    return modes


def test_only_the_mode_stream_mode_names_decodes():
    """At most one mode decodes, and it is stream_mode's: on sealed images
    in both modes, every single-bit flip of their first 24 pixels, and
    noise covers."""
    cover = make_cover(25, 64, 64)
    images = [GrayImage(64, 64, np.random.default_rng(seed).integers(0, 256, 64 * 64, np.uint8))
              for seed in range(4)]
    for mode in (OVERWRITE, LSB1):
        sealed = seal(PAPER_MESSAGE, paper_config(embed_mode=mode), cover)
        images += [tamper(sealed, pixel, bit) for pixel in range(24) for bit in range(8)]
        images.append(sealed)
    decoded = set()
    for image in images:
        modes = decoding_modes(image)
        assert modes <= {stream_mode(image)}, modes
        decoded |= modes
    assert decoded == {OVERWRITE, LSB1}


@pytest.mark.parametrize("mode", [OVERWRITE, LSB1])
def test_rejected_image_is_freed_when_verify_returns(mode):
    """No reference cycle keeps a rejected image alive until the next
    cyclic collection, in either mode verify reads."""
    pixels = np.zeros(64 * 64, dtype=np.uint8)
    pixels[1] = mode == LSB1
    image = GrayImage(64, 64, pixels)
    freed = weakref.ref(image)
    gc.disable()
    try:
        report = verify(image)
        assert (report.verdict, report.mode) == (UNDECODABLE, mode)
        del image
        assert freed() is None
    finally:
        gc.enable()


def test_verify_never_raises_on_noise():
    """Noise covers, and images of 1 and 2 pixels, which have no pixel 1
    or no room for a stream."""
    rng = np.random.default_rng(6)
    shapes = [(64, 64)] * 50 + [(1, 1), (2, 1), (1, 2)]
    for width, height in shapes:
        noise = GrayImage(width, height, rng.integers(0, 256, width * height, dtype=np.uint8))
        report = verify(noise, SealConfig())
        assert report.verdict == UNDECODABLE


# The paper example's 139-byte stream as seal wrote it under magic 0x4C,
# when row 2 held a-f as :;<=>? and the table was fitted on those blocks.
STREAM_0X4C = bytes.fromhex(
    "4c0006f689c9fe115a818d5860f0185c6e3d435b62ae48eee6ec258851d3672b"
    "b0ec641d5b58fecb8eb140ea4d39a146b20122b825cfb3b71ed11c7a71efdb44"
    "4a1275530d65bd87cccc0568afd308435ef99b32f6103c4a16a74115364c8c02"
    "d498048ffad8b63ae7e38e484abc218869360c2b4f6799880ae0a037315d17da"
    "baac1151758ac1ea24f580")


def test_stream_under_the_old_magic_is_undecodable(cover):
    """The paper example's stream under the table before this one is
    rejected at its first byte."""
    sealed = seal(PAPER_MESSAGE, paper_config(), cover)
    assert extract(sealed, 1, OVERWRITE) == b"\x4d"
    report = verify(embed(cover, STREAM_0X4C, OVERWRITE))
    assert (report.verdict, report.reason) == (UNDECODABLE,
                                               "StreamError: missing block stream header")


def test_verify_rejects_another_tile_count(cover):
    # a well-formed 3-tile stream, where the block's 6 tiles are expected
    sealed = embed(cover, encode_blocks(np.zeros((3, 8, 8), np.int64)), OVERWRITE)
    report = verify(sealed, SealConfig())
    assert report.verdict == UNDECODABLE
    assert "expected 6" in report.reason


def test_verify_forged_stream_header_is_undecodable(cover):
    # a stream-looking prefix that decodes but carries no valid block
    forged = cover.pixels.ravel().copy()
    forged[0] = 0x48
    forged[1:3] = (0, 1)      # one table entry
    forged[3:5] = (5, 1)      # symbol 5, code length 1
    forged[5:9] = (0, 0, 0, 64)   # 64 symbols
    forged[9:17] = 0          # 64 zero bits decode to 64 copies of symbol 5
    img = GrayImage(cover.width, cover.height, forged)
    assert verify(img, SealConfig()).verdict == UNDECODABLE


@pytest.mark.parametrize("stream, reason", [
    (bytes.fromhex("4D 0005") + bytes(64), "StreamError: stream declares 5 tiles"),
    (block_stream_of(pack(caesar_encrypt(PAPER_MESSAGE, 16), CAESAR_KEY_ROW,
                          hash_message(PAPER_MESSAGE)))[:-8], "StreamError: bits ran out"),
    (block_stream_of(b"\xff" + bytes(383)), "BlockError: row is not valid UTF-8"),
    (block_stream_of(pack("KHOOR", "abc", hash_message("HELLO"))),
     "CipherError: key row 'abc' is not 1 group of 128 or 9 groups of 8 equal letters A-Z"),
    (block_stream_of(pack("ABCD", HILL_KEY_ROW, hash_message("ABCD"))),
     "CipherError: ciphertext has 4 letters, not a multiple of 3"),
], ids=["forged header", "truncated stream", "row not utf-8", "bad key row", "hill length"])
def test_undecodable_reason_names_the_stage(stream, reason):
    """An UNDECODABLE reason starts with the class of the stage that
    rejected the image: the stream, the block or the cipher."""
    report = verify(GrayImage(len(stream), 1, stream))
    assert report.verdict == UNDECODABLE
    assert report.reason.startswith(reason)


def test_verify_time_does_not_follow_the_cover():
    """Forged headers on an all-zero 2048x2048 cover, where a decoder
    that reads until the bits run out would walk the whole capacity, are
    rejected in well under 50 ms each, in both modes."""
    zero = GrayImage(2048, 2048, np.zeros(2048 * 2048, np.uint8))
    headers = {
        "general stream of 2**32 - 1 symbols": bytes.fromhex("48 0001 00 01 FFFFFFFF"),
        "65535 tiles": bytes([BLOCK_MAGIC]) + bytes.fromhex("FFFF"),
        "6 tiles of random bits": (bytes([BLOCK_MAGIC]) + bytes.fromhex("0006")
                                   + np.random.default_rng(62).bytes(2048)),
    }
    for mode in (OVERWRITE, LSB1):
        for name, header in headers.items():
            image = embed(zero, header, mode)
            start = time.perf_counter()
            report = verify(image)
            elapsed = time.perf_counter() - start
            assert report.verdict != VERIFIED, (mode, name)
            assert elapsed < 0.05, (mode, name, elapsed)


def test_dense_forged_stream_decodes_in_full_and_fails_the_block_check(cover):
    """Six tiles with every coefficient nonzero and AC magnitudes 1000-1999
    take 1341 of the STREAM_BOUND bytes. No AC token of theirs fits the
    decoder's 12-bit window, so each one is read through the symbol path;
    the stream decodes in full and the block check rejects it."""
    tiles = dense_forged_tiles()
    stream = encode_blocks(tiles)
    assert (len(stream), STREAM_BOUND) == (1341, 1482)
    image = embed(cover, stream, OVERWRITE)
    decoded = read_stream(image, OVERWRITE)
    assert np.array_equal(decoded.coeffs, tiles)
    assert all(len(BLOCK_TABLE.codes[s]) + (s & 15) > 12 for s in decoded.symbols if s < DC_SYMBOL)
    report = verify(image)
    assert (report.verdict, report.reason) == (
        UNDECODABLE, "BlockError: reconstructed bytes fall outside [0, 255]")
    assert report.stream.consumed == 1341


def test_recover_block_gives_the_block_of_the_public_inverse_transform():
    """verify's recovery, from the decoded zig-zag rows straight into the
    inverse transform's core, gives the bytes of int_idct2(coeffs) or raises
    the same BlockError text, on the paper example's stream, every
    single-bit flip of it that decodes, and the dense forged stream."""
    block = _pack_block(PAPER_MESSAGE, "caesar", 16, hash_message(PAPER_MESSAGE, "sha512"))
    data = bytearray(encode_blocks(int_dct2(to_tiles(block))))
    streams = [bytes(data), encode_blocks(dense_forged_tiles())]
    for bit in range(8 * len(data)):
        data[bit // 8] ^= 0x80 >> (bit % 8)
        streams.append(bytes(data))
        data[bit // 8] ^= 0x80 >> (bit % 8)
    outcomes = collections.Counter()
    for stream in streams:
        try:
            decoded = decode_blocks(stream, TILES)
        except StreamError:
            continue
        tiles = int_idct2(decoded.coeffs)
        if tiles.min() < 0 or tiles.max() > 255:
            with pytest.raises(BlockError, match=r"^reconstructed bytes fall outside \[0, 255\]$"):
                _recover_block(decoded.zigzag)
            outcomes["raised"] += 1
        else:
            assert _recover_block(decoded.zigzag) == tiles.astype(np.uint8).tobytes()
            outcomes["recovered"] += 1
    assert outcomes["raised"] > 1 and outcomes["recovered"] > 1, outcomes


def test_reports_compare_what_they_say_and_streams_by_identity(cover):
    """Two verifies of one image give equal reports, whatever the verdict,
    though each holds its own decoded stream. A decoded stream holds an
    array, so it equals only itself and hashes by identity."""
    sealed = seal(PAPER_MESSAGE, paper_config(), cover)
    wrong_digest = pack(caesar_encrypt(PAPER_MESSAGE, 16), CAESAR_KEY_ROW, hash_message("HELLO"))
    for image, verdict in ((sealed, VERIFIED), (embed_block(wrong_digest, cover), TAMPERED),
                           (embed(cover, encode_blocks(dense_forged_tiles()), OVERWRITE),
                            UNDECODABLE), (cover, UNDECODABLE)):
        first, second = verify(image), verify(image)
        assert first.verdict == verdict and first == second
    assert verify(sealed) != verify(sealed, SealConfig(caesar_key=15))
    data = extract(sealed, STREAM_BOUND, OVERWRITE)
    first, second = decode_blocks(data), decode_blocks(data)
    assert first == first and (first == second) is False
    assert len({first, second, first}) == 2


def test_an_unreduced_expected_hill_key_verifies(cover):
    """An expected key is reduced as a sealing key is: HILL_KEY + 26
    verifies the image sealed under HILL_KEY. (A numpy Caesar shift is
    test_numpy_integer_caesar_key_seals_as_an_int.)"""
    sealed = seal("Attack at dawn", SealConfig(cipher="hill", hill_key=HILL_KEY), cover)
    report = verify(sealed, SealConfig(cipher="hill", hill_key=np.array(HILL_KEY) + 26))
    assert (report.verdict, report.reason) == (VERIFIED, "")


def test_report_carries_the_stream_whatever_the_verdict(cover):
    """verify reports the stream read_stream decodes, on a VERIFIED and a
    TAMPERED image alike, and None where no stream decodes."""
    assert verify(cover).stream is None
    verified = seal(PAPER_MESSAGE, paper_config(), cover)
    wrong_digest = pack(caesar_encrypt(PAPER_MESSAGE, 16), CAESAR_KEY_ROW, hash_message("HELLO"))
    tampered = embed_block(wrong_digest, cover)
    for image, verdict in ((verified, VERIFIED), (tampered, TAMPERED)):
        report = verify(image)
        assert report.verdict == verdict
        expected = read_stream(image, report.mode)
        assert report.stream.consumed == expected.consumed
        assert report.stream.payload_bits == expected.payload_bits
        assert report.stream.tile_bits == expected.tile_bits
        assert np.array_equal(report.stream.coeffs, expected.coeffs)


# --- tamper --------------------------------------------------------------


def test_tamper_is_involution(cover):
    before = bytearray(cover.tobytes())  # a copy, not the same object
    once = tamper(cover, 1000, 3)
    assert once != cover
    assert tamper(once, 1000, 3) == cover
    assert cover.tobytes() == before  # the input image is left as it was


def test_tamper_bit0_changes_by_one(cover):
    out = tamper(cover, 0, 0)
    delta = int(out.pixels.ravel()[0]) - int(cover.pixels.ravel()[0])
    assert abs(delta) == 1
    assert np.count_nonzero(out.pixels != cover.pixels) == 1


def test_tamper_out_of_range(cover):
    with pytest.raises(EmbedError, match="pixel 65536 outside 256x256"):
        tamper(cover, 65536, 0)
    with pytest.raises(EmbedError, match=r"bit 8 outside \[0, 7\]"):
        tamper(cover, 0, 8)
    with pytest.raises(EmbedError, match="pixel -1 outside 256x256"):
        tamper(cover, -1, 0)


@pytest.mark.parametrize("pixel, bit, flipped", [(1, 0, 1), (np.int64(3), np.uint8(2), 3)])
def test_tamper_flips_the_pixel_it_names(pixel, bit, flipped):
    """Indices are read as integers, never as a numpy bool mask."""
    out = tamper(GrayImage(4, 4, bytes(16)), pixel, bit)
    assert out.pixels.ravel().tolist() == [1 << bit if i == flipped else 0 for i in range(16)]


@pytest.mark.parametrize("pixel, bit", [(np.bool_(False), 0), (np.bool_(True), 0),
                                        (1.0, 0), (0, 1.5), ("1", 0), (True, 0),
                                        (0, False)])
def test_tamper_rejects_non_integer_indices(pixel, bit):
    with pytest.raises(ValueError, match="must be integers"):
        tamper(GrayImage(4, 4, bytes(16)), pixel, bit)


# --- key parsing -----------------------------------------------------------


def test_parse_key_text():
    assert parse_key_text("16") == ("caesar", 16)
    assert parse_key_text("016") == ("caesar", 16)
    kind, key = parse_key_text("1,2,3,4,5,6,7,8,9")
    assert kind == "hill"
    assert np.array_equal(key, np.arange(1, 10).reshape(3, 3))


def key_text_error(text):
    """The one CipherError text of parse_key_text, as a full-match pattern."""
    return f"^{re.escape(f'key {text!r} is not 1 or 9 comma-separated integers in [0, 25]')}$"


def test_parse_key_text_errors():
    for bad in ("", "abc", "26", "1,2,3", "1,2,3,4,5,6,7,8,x", "1,2,3,4,5,6,7,8,99", "+16",
                "16\t", "\u0661\u0666", "1" * 5000, "1,2,3,4,5,6,7,8, 9"):
        with pytest.raises(CipherError, match=key_text_error(bad)):
            parse_key_text(bad)


@pytest.mark.parametrize("text", ["16,", ",16", "1,2,3,4,5,6,7,8,9,", ",", "1,,2"])
def test_parse_key_text_rejects_empty_entries(text):
    with pytest.raises(CipherError, match=key_text_error(text)):
        parse_key_text(text)


@contextlib.contextmanager
def no_int_digit_limit():
    """int() reads a decimal text of any length inside, as under
    PYTHONINTMAXSTRDIGITS=0 and on CPython before 3.10.7, which has no limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_key_text_error_does_not_follow_the_int_digit_limit():
    """A long run of digits is out of range whether or not int() reads it."""
    with no_int_digit_limit():
        assert int("1" * 5000) % 10 == 1
        with pytest.raises(CipherError, match=key_text_error("1" * 5000)):
            parse_key_text("1" * 5000)
