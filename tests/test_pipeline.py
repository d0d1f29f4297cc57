import gc
import hashlib
import random
import string
import time
import weakref

import numpy as np
import pytest

from stegoseal.cipher import (caesar_decrypt, caesar_encrypt, hill_encrypt,
                              normalize_letters)
from stegoseal.digest import hash_message
from stegoseal.entropy import block_stream_bound, decode_blocks, encode_blocks
from stegoseal.errors import BlockError, CipherError, EmbedError
from stegoseal.payload import pack, to_tiles
from stegoseal.pgm import GrayImage
from stegoseal.pipeline import (STREAM_BOUND, TAMPERED, UNDECODABLE, VERIFIED,
                                SealConfig, parse_key_text, read_stream, seal,
                                tamper, verify)
from stegoseal.stego import LSB1, OVERWRITE, capacity, embed, extract
from stegoseal.transform import int_dct2

from conftest import make_cover

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
    ("I'm so proud to be Egyptian", SealConfig(caesar_key=16), 229,
     "1e770df8506c516c561edc3d4d987aeddc5e2fdc53e16c6bf51213e20b3803ec"),
    ("oD. v2vaoV'Tpx1d. ,Twh-eK6D,Y?bS3M6x.OQt",
     SealConfig(caesar_key=9, digest_algorithm="sha512"), 226,
     "f293334b69c4424c860d4800875733fde967f9ebcaf3044b9969eb6ba636d494"),
    ("f3M?k0FCf14vazy6hK'yp9OSCiM5cOoynm'HjcRaPP??G1L24h?7.Q4'xmo?Up?x0OJhexzXeOe",
     SealConfig(cipher="hill", hill_key=[[6, 24, 1], [13, 16, 10], [20, 17, 15]]), 221,
     "eb4c572483f451009afe90723325d510f36bd1859a160b56109f4e70db4d0cc1"),
    ("H5U0QfVxNhwr'jR62y!zY9JzLuemn,0UevU62p4A2QJ29P84rmenjK9a2xyE4Kzm0'0Cu4,"
     "y-XJWO00MS1bwm-W4Tm8cxLdB-4.f2uTXH,bARN",
     SealConfig(cipher="hill", hill_key=[[3, 10, 20], [20, 9, 17], [9, 4, 17]],
                digest_algorithm="sha512"), 271,
     "02bf0e457a2fa461236196ce91e56cd9974ac28817b547878d5c172c2203e16f"),
]


@pytest.mark.parametrize("message,config,length,sha256", PINNED_STREAMS)
def test_sealed_stream_bytes_are_pinned(message, config, length, sha256):
    sealed = seal(message, config, GrayImage(64, 64, np.zeros(64 * 64, np.uint8)))
    assert stream_length(sealed) == length
    stream = extract(sealed, length, OVERWRITE)
    assert hashlib.sha256(stream).hexdigest() == sha256
    assert verify(sealed, config).verdict == VERIFIED


def test_seal_rejects_empty_message(cover):
    with pytest.raises(CipherError, match="refusing to seal an empty message"):
        seal("", paper_config(), cover)


def test_seal_message_too_long_for_row(cover):
    with pytest.raises(BlockError, match="row 0: 4000 bytes exceeds row length 128"):
        seal("x" * 4000, paper_config(), cover)


def test_seal_requires_key(cover):
    with pytest.raises(ValueError):
        seal("hi", SealConfig(), cover)


def test_seal_too_small_cover():
    tiny = GrayImage(8, 8, bytes(64))
    with pytest.raises(EmbedError, match="payload needs 229 bytes, image holds 64"):
        seal(PAPER_MESSAGE, paper_config(), tiny)


def test_seal_rejects_lossy_scale(cover, monkeypatch):
    # seal must never embed a stream that does not rebuild the payload
    import stegoseal.pipeline as pipeline
    exact = pipeline.int_idct2
    monkeypatch.setattr(pipeline, "int_idct2", lambda coeffs: exact(coeffs) // 2 * 2)
    with pytest.raises(ValueError):
        seal(PAPER_MESSAGE, paper_config(), cover)


def test_config_validation():
    with pytest.raises(ValueError):
        SealConfig(cipher="rot13").validate()
    with pytest.raises(ValueError):
        SealConfig(caesar_key=26).validate()
    with pytest.raises(ValueError):
        SealConfig(caesar_key=3, hill_key=np.eye(3, dtype=int)).validate()
    with pytest.raises(CipherError, match="det = 8 shares a factor with 26"):
        SealConfig(cipher="hill", hill_key=2 * np.eye(3, dtype=int)).validate()
    with pytest.raises(ValueError, match="sealing with the hill cipher needs hill_key"):
        SealConfig(cipher="hill").validate(sealing=True)
    with pytest.raises(ValueError, match="unknown digest algorithm"):
        SealConfig(digest_algorithm="md5").validate()


@pytest.mark.parametrize("config, message", [
    (SealConfig(caesar_key=3, hill_key=np.eye(3, dtype=int)), "hill key given but cipher is caesar"),
    (SealConfig(cipher="hill", caesar_key=3, hill_key=np.eye(3, dtype=int)),
     "caesar key given but cipher is hill"),
], ids=["caesar", "hill"])
def test_config_rejects_the_other_ciphers_key(config, message):
    with pytest.raises(ValueError, match=message):
        config.validate()
    with pytest.raises(ValueError, match=message):
        seal("HELLO", config, make_cover(7))


@pytest.mark.parametrize("key", [3.7, 16.0, "16"])
def test_caesar_key_must_be_an_integer(cover, key):
    """A key that is not an integer would be written as the key row "3.7"
    or "16.0", which verify cannot read back."""
    with pytest.raises(ValueError, match="must be an integer"):
        SealConfig(caesar_key=key).validate()
    with pytest.raises(ValueError, match="must be an integer"):
        seal(PAPER_MESSAGE, SealConfig(caesar_key=key), cover)


def test_numpy_integer_caesar_key_seals_as_an_int(cover):
    sealed = seal(PAPER_MESSAGE, SealConfig(caesar_key=np.int64(16)), cover)
    assert sealed == seal(PAPER_MESSAGE, paper_config(), cover)
    assert verify(sealed, SealConfig(caesar_key=np.int64(16))).verdict == VERIFIED


@pytest.mark.parametrize("key", [1.9 * np.eye(3), [[2**70, 0, 0], [0, 1, 0], [0, 0, 1]]],
                         ids=["float", "past-int64"])
def test_hill_key_must_be_an_integer_matrix(cover, key):
    """A float key would seal as its truncation, and a key past int64 would
    raise OverflowError from verify."""
    config = SealConfig(cipher="hill", hill_key=key)
    with pytest.raises(ValueError, match="integer matrix"):
        seal(PAPER_MESSAGE, config, cover)
    with pytest.raises(ValueError, match="integer matrix"):
        verify(cover, config)


def test_stream_bound_holds_the_sealed_stream():
    """Seal writes a stream of the block's 6 tiles that fits in STREAM_BOUND
    bytes."""
    assert STREAM_BOUND == block_stream_bound(6)
    config = SealConfig(caesar_key=5, digest_algorithm="sha256")
    _, stream = read_stream(seal("Seal me", config, make_cover(5)), config.embed_mode)
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


def block_stream_of(block):
    return encode_blocks(int_dct2(to_tiles(block)))


def embed_block(block, cover):
    """Seal an arbitrary block, bypassing the checks seal makes."""
    return embed(cover, block_stream_of(block), OVERWRITE)


def test_verify_rejects_blocks_seal_would_not_write(cover):
    key = [[6, 24, 1], [13, 16, 10], [20, 17, 15]]
    digest = hash_message("ATTACKATDAWN")
    hill_block = pack(hill_encrypt("ATTACKATDAWN", key), "6,24,1,13,16,10,20,17,15", digest)
    assert verify(embed_block(hill_block, cover)).verdict == VERIFIED
    padded = hill_block[:40] + b"\x01" + hill_block[41:]   # a byte in the ciphertext padding
    report = verify(embed_block(padded, cover))
    assert report.verdict == TAMPERED
    assert report.recovered_message == "ATTACKATDAWN"
    caesar = pack(caesar_encrypt(PAPER_MESSAGE, 16), "16\t", hash_message(PAPER_MESSAGE))
    assert verify(embed_block(caesar, cover)).verdict == TAMPERED


SEALED_FORM = "block differs from the one seal writes for its message"


@pytest.mark.parametrize("key_row, verdict", [
    ("16", VERIFIED),
    (" 16", TAMPERED), ("16 ", TAMPERED), ("+16", TAMPERED),
    ("1_6", TAMPERED), ("016", TAMPERED), ("\u0661\u0666", TAMPERED),
])
def test_caesar_key_row_has_one_valid_form(cover, key_row, verdict):
    """Every spelling int() accepts for key 16, but only seal's verifies."""
    block = pack(caesar_encrypt(PAPER_MESSAGE, 16), key_row, hash_message(PAPER_MESSAGE))
    report = verify(embed_block(block, cover))
    assert report.verdict == verdict
    assert report.reason == ("" if verdict == VERIFIED else SEALED_FORM)


@pytest.mark.parametrize("key_row, verdict", [
    ("3,3,0,2,5,0,0,0,1", VERIFIED),
    ("03,3,0,2,5,0,0,0,1", TAMPERED), (" 3,3,0,2,5,0,0,0,1", TAMPERED),
    ("3,3,0,2,5,0,0,0,+1", TAMPERED), ("3,3,0,2,5,0,0,0,27", UNDECODABLE),
])
def test_hill_key_row_has_one_valid_form(cover, key_row, verdict):
    message = normalize_letters(PAPER_MESSAGE)
    key = [[3, 3, 0], [2, 5, 0], [0, 0, 1]]
    block = pack(hill_encrypt(message, key), key_row, hash_message(message))
    assert verify(embed_block(block, cover)).verdict == verdict


HILL_KEY_ROW = "3,3,0,2,5,0,0,0,1"


@pytest.mark.parametrize("ciphertext, key_row", [
    (caesar_encrypt(PAPER_MESSAGE, 16), "16"),
    (hill_encrypt("ATTACKATDAWN", [[3, 3, 0], [2, 5, 0], [0, 0, 1]]), HILL_KEY_ROW),
], ids=["caesar", "hill"])
def test_digest_row_of_no_known_length_is_a_mismatch(cover, ciphertext, key_row):
    """A 63-character digest names no algorithm, so nothing is recomputed."""
    block = pack(ciphertext, key_row, "a" * 63)
    report = verify(embed_block(block, cover))
    assert report.verdict == TAMPERED
    assert report.reason == "digest mismatch"
    assert report.recomputed_digest == ""


def test_digest_mismatch_hashes_the_message_once(cover, monkeypatch):
    import stegoseal.digest as digest
    block = pack(caesar_encrypt(PAPER_MESSAGE, 16), "16", hash_message("another message"))
    sealed = embed_block(block, cover)
    calls = []
    monkeypatch.setattr(digest, "hash_message",
                        lambda *args: calls.append(args) or hash_message(*args))
    report = verify(sealed)
    assert (report.verdict, report.reason) == (TAMPERED, "digest mismatch")
    assert report.recomputed_digest == hash_message(PAPER_MESSAGE)
    assert calls == [(PAPER_MESSAGE, "sha512")]


def test_rebuild_that_raises_is_not_the_sealed_form(cover):
    """Blocks whose message seal refuses: no letters for Hill, a NUL for Caesar."""
    hill = pack("123", HILL_KEY_ROW, hash_message(""))
    report = verify(embed_block(hill, cover))
    assert (report.verdict, report.reason) == (TAMPERED, SEALED_FORM)

    ciphertext = "a\x00b"
    digest = hash_message(caesar_decrypt(ciphertext, 16))
    caesar = b"".join(row.encode().ljust(128, b"\x00") for row in (ciphertext, "16", digest))
    report = verify(embed_block(caesar, cover))
    assert (report.verdict, report.reason) == (TAMPERED, SEALED_FORM)


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
    sealed = seal(PAPER_MESSAGE, paper_config(embed_mode=mode), cover)
    report = verify(sealed, SealConfig(embed_mode=None))
    assert (report.verdict, report.mode) == (VERIFIED, mode)
    assert read_stream(sealed, None)[0] == mode
    assert verify(sealed, paper_config(embed_mode=mode)).mode == mode


def test_seal_needs_an_embed_mode(cover):
    with pytest.raises(ValueError, match="embed mode"):
        seal(PAPER_MESSAGE, paper_config(embed_mode=None), cover)
    with pytest.raises(ValueError, match="embed mode"):
        paper_config(embed_mode=None).validate(sealing=True)
    paper_config(embed_mode=None).validate()


def test_undetected_mode_reports_the_first_modes_error(cover):
    """With no stream in any mode, verify reports what the first mode's read
    raised, even when a later mode got further."""
    # a 3-tile lsb1 stream: overwrite finds no header, lsb1 the wrong tile count
    sealed = embed(cover, encode_blocks(np.zeros((3, 8, 8), np.int64)), LSB1)
    reasons = {mode: verify(sealed, SealConfig(embed_mode=mode)).reason for mode in (OVERWRITE, LSB1)}
    assert "expected 6" in reasons[LSB1] and "expected 6" not in reasons[OVERWRITE]
    report = verify(sealed, SealConfig(embed_mode=None))
    assert (report.verdict, report.mode, report.reason) == (UNDECODABLE, OVERWRITE,
                                                            reasons[OVERWRITE])


def test_the_two_stream_headers_exclude_each_other(cover):
    """Overwrite puts 0x00 in pixel 1 and lsb1 makes it odd, so no image
    holds a stream in both modes and detection cannot pick the wrong one."""
    stream = encode_blocks(np.zeros((6, 8, 8), np.int64))
    assert stream[1] == 0
    assert np.unpackbits(np.frombuffer(stream[:1], np.uint8))[1] == 1
    for mode, other in ((OVERWRITE, LSB1), (LSB1, OVERWRITE)):
        sealed = seal(PAPER_MESSAGE, paper_config(embed_mode=mode), cover)
        assert verify(sealed, paper_config(embed_mode=other)).verdict == UNDECODABLE


@pytest.mark.parametrize("mode", [OVERWRITE, None])
def test_rejected_image_is_freed_when_verify_returns(mode):
    """No reference cycle keeps the image alive until the next cyclic
    collection: an error kept across modes holds the reading frame."""
    image = GrayImage(64, 64, np.zeros(64 * 64, dtype=np.uint8))
    freed = weakref.ref(image)
    gc.disable()
    try:
        assert verify(image, SealConfig(embed_mode=mode)).verdict == UNDECODABLE
        del image
        assert freed() is None
    finally:
        gc.enable()


def test_verify_never_raises_on_noise():
    rng = np.random.default_rng(6)
    for i in range(50):
        noise = GrayImage(64, 64, rng.integers(0, 256, 64 * 64, dtype=np.uint8))
        report = verify(noise, SealConfig())
        assert report.verdict == UNDECODABLE


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
    (bytes.fromhex("4A 0005") + bytes(64), "StreamError: stream declares 5 tiles"),
    (block_stream_of(pack(caesar_encrypt(PAPER_MESSAGE, 16), "16",
                          hash_message(PAPER_MESSAGE)))[:-8], "StreamError: bits ran out"),
    (block_stream_of(b"\xff" + bytes(383)), "BlockError: row is not valid UTF-8"),
    (block_stream_of(pack("KHOOR", "abc", hash_message("HELLO"))),
     "CipherError: key row 'abc' is not an integer"),
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
        "65535 tiles": bytes.fromhex("4A FFFF"),
        "6 tiles of random bits": bytes.fromhex("4A 0006") + np.random.default_rng(62).bytes(2048),
    }
    for mode in (OVERWRITE, LSB1):
        for name, header in headers.items():
            image = embed(zero, header, mode)
            start = time.perf_counter()
            report = verify(image, SealConfig(embed_mode=mode))
            elapsed = time.perf_counter() - start
            assert report.verdict != VERIFIED, (mode, name)
            assert elapsed < 0.05, (mode, name, elapsed)


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


@pytest.mark.parametrize("pixel, bit, flipped", [(True, 0, 1), (np.int64(3), np.uint8(2), 3)])
def test_tamper_flips_the_pixel_it_names(pixel, bit, flipped):
    """Indices are read as integers, never as a numpy bool mask."""
    out = tamper(GrayImage(4, 4, bytes(16)), pixel, bit)
    assert out.pixels.ravel().tolist() == [1 << bit if i == flipped else 0 for i in range(16)]


@pytest.mark.parametrize("pixel, bit", [(np.bool_(False), 0), (np.bool_(True), 0),
                                        (1.0, 0), (0, 1.5), ("1", 0)])
def test_tamper_rejects_non_integer_indices(pixel, bit):
    with pytest.raises(ValueError, match="must be integers"):
        tamper(GrayImage(4, 4, bytes(16)), pixel, bit)


# --- key row parsing -------------------------------------------------------


def test_parse_key_text():
    assert parse_key_text("16") == ("caesar", 16)
    kind, key = parse_key_text("1,2,3,4,5,6,7,8,9")
    assert kind == "hill"
    assert np.array_equal(key, np.arange(1, 10).reshape(3, 3))


def test_parse_key_text_errors():
    for bad, message in (("", "key row '' is not an integer"),
                         ("abc", "key row 'abc' is not an integer"),
                         ("26", "caesar key 26 out of range"),
                         ("1,2,3", "hill key row has 3 entries, needs 9"),
                         ("1,2,3,4,5,6,7,8,x", "hill key row is not all integers"),
                         ("1,2,3,4,5,6,7,8,99", r"hill key entries must be in \[0, 25\]")):
        with pytest.raises(CipherError, match=message):
            parse_key_text(bad)
