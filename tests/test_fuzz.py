"""Property tests over streams and covers that seal never writes.

The runs are derandomized with a fixed number of examples, so each run of
the suite draws the same inputs.
"""

import string

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stegoseal.cipher import caesar_decrypt, caesar_encrypt, hill_decrypt
from stegoseal.digest import hash_message
from stegoseal.entropy import BLOCK_MAGIC, decode_blocks, encode_blocks
from stegoseal.errors import CipherError, StegosealError
from stegoseal.payload import ROW_LENGTH
from stegoseal.pgm import GrayImage
from stegoseal.pipeline import (TAMPERED, UNDECODABLE, VERIFIED, SealConfig,
                                _key_text, seal, verify)
from stegoseal.stego import LSB1, OVERWRITE
from stegoseal.transform import int_dct2

from conftest import FUZZ, make_cover
from test_entropy import random_coefficient_tiles
from test_pipeline import (assert_sealed_stream, embed_block, random_hill_key,
                           unchecked_block)


def _real_streams():
    rng = np.random.default_rng(60)
    streams = [encode_blocks(random_coefficient_tiles(rng, n)) for n in (1, 2, 3, 6)]
    tiles = rng.integers(0, 256, (6, 8, 8)) * (rng.random((6, 8, 8)) < 0.3)
    streams.append(encode_blocks(int_dct2(tiles)))
    cover = GrayImage(64, 64, np.zeros(64 * 64, np.uint8))
    for message, config in (("I'm so proud to be Egyptian", SealConfig(caesar_key=16)),
                            ("ATTACK AT DAWN", SealConfig(cipher="hill", hill_key=[
                                [6, 24, 1], [13, 16, 10], [20, 17, 15]]))):
        pixels = np.asarray(seal(message, config, cover).pixels).tobytes()
        streams.append(pixels[:decode_blocks(pixels).consumed])
    return streams


STREAMS = _real_streams()


def check_decode(data):
    try:
        decoded = decode_blocks(data)
    except StegosealError:
        return
    assert encode_blocks(decoded.coeffs) == data[:decoded.consumed]


@FUZZ
@given(st.data())
def test_decode_blocks_on_mutated_streams(data):
    stream = bytearray(data.draw(st.sampled_from(STREAMS)))
    for bit in data.draw(st.lists(st.integers(0, 8 * len(stream) - 1), max_size=4)):
        stream[bit // 8] ^= 0x80 >> (bit % 8)
    cut = data.draw(st.integers(0, len(stream)))
    check_decode(bytes(stream[:cut]) + data.draw(st.binary(max_size=8)))


@FUZZ
@given(st.integers(1, 8), st.binary(max_size=400))
def test_decode_blocks_on_random_bodies(tiles, body):
    check_decode(bytes([BLOCK_MAGIC]) + tiles.to_bytes(2, "big") + body)


FILL = np.random.default_rng(61).integers(0, 256, 64 * 64, dtype=np.uint8).tobytes()


@settings(FUZZ, max_examples=150)
@given(st.binary(max_size=1600), st.sampled_from([OVERWRITE, LSB1]), st.booleans(),
       st.booleans())
def test_verify_never_raises_on_random_covers(head, mode, header, keyed):
    pixels = bytearray(head + FILL[len(head):])
    if header:      # a header with the expected tile count, so the decoder runs
        if mode == OVERWRITE:
            pixels[:3] = bytes([BLOCK_MAGIC, 0, 6])
        else:
            bits = np.unpackbits(np.frombuffer(bytes([BLOCK_MAGIC, 0, 6]), np.uint8))
            pixels[:24] = bytes((p & 0xFE) | b for p, b in zip(pixels[:24], bits))
    config = SealConfig(caesar_key=16) if keyed else SealConfig()
    report = verify(GrayImage(64, 64, np.frombuffer(bytes(pixels), np.uint8)), config)
    assert report.verdict in (VERIFIED, TAMPERED, UNDECODABLE)
    if report.verdict == UNDECODABLE:
        assert report.reason.startswith(("StreamError: ", "BlockError: ", "CipherError: "))


SEALED = {mode: seal("I'm so proud to be Egyptian", SealConfig(caesar_key=16, embed_mode=mode),
                     GrayImage(64, 64, np.arange(64 * 64, dtype=np.uint8)))
          for mode in (OVERWRITE, LSB1)}


@settings(FUZZ, max_examples=150)
@given(st.sampled_from([OVERWRITE, LSB1]), st.lists(st.integers(0, 8 * 2400 - 1), max_size=8))
def test_verify_never_raises_on_flipped_seals(mode, bits):
    pixels = bytearray(np.asarray(SEALED[mode].pixels).tobytes())
    for bit in bits:
        pixels[bit // 8] ^= 1 << (bit % 8)
    image = GrayImage(64, 64, np.frombuffer(bytes(pixels), np.uint8))
    report = verify(image, SealConfig(caesar_key=16))
    assert report.verdict in (VERIFIED, TAMPERED, UNDECODABLE)
    assert_sealed_stream(image, report)
    if report.verdict == VERIFIED:
        assert report.recovered_message == "I'm so proud to be Egyptian"


@st.composite
def payload_rows(draw):
    """The three rows of a block that seal may or may not write: a
    ciphertext that is empty, letters (a multiple of 3 for Hill), lowercase
    letters or letters with an inner NUL; the key row of a random Caesar or
    invertible Hill key, or that row one edit away; and the digest of the
    ciphertext decrypted under that key (or of the ciphertext itself when
    it will not decrypt), an empty digest row, or a digest of a length that
    no algorithm has."""
    kind = draw(st.sampled_from(["caesar", "hill"]))
    if kind == "caesar":
        key = draw(st.integers(0, 25))
    else:
        key = tuple(map(tuple, random_hill_key(draw(st.randoms(use_true_random=False))).tolist()))
    letters = draw(st.text(string.ascii_uppercase, min_size=3, max_size=30))
    if kind == "hill":
        letters = letters[:len(letters) - len(letters) % 3]
    ciphertext = draw(st.sampled_from(["", letters, letters.lower(),
                                       letters[:1] + "\x00" + letters[1:]]))
    key_row = _key_text(kind, key)
    if draw(st.booleans()):
        edit = draw(st.sampled_from(["replace", "delete", "insert"]))
        i = draw(st.integers(0, len(key_row) - 1))
        char = draw(st.sampled_from(string.ascii_letters + string.digits))
        key_row = {"replace": key_row[:i] + char + key_row[i + 1:],
                   "delete": key_row[:i] + key_row[i + 1:],
                   "insert": (key_row[:i] + char + key_row[i:])[:ROW_LENGTH]}[edit]
    try:
        plain = (caesar_decrypt if kind == "caesar" else hill_decrypt)(ciphertext, key)
    except CipherError:
        plain = ciphertext
    digest = hash_message(plain, draw(st.sampled_from(["sha256", "sha512"])))
    shape = draw(st.sampled_from(["digest", "empty", "other length"]))
    if shape == "empty":
        digest = ""
    elif shape == "other length":
        digest = (2 * digest)[:draw(st.integers(1, ROW_LENGTH - 1).filter(lambda n: n != 64))]
    return ciphertext, key_row, digest


ROWS_COVER = make_cover(62, 128, 128)


@FUZZ
@given(payload_rows(), st.sampled_from([OVERWRITE, LSB1]))
# an emptied digest row, and an empty ciphertext under the digests of ""
@example((caesar_encrypt("pay mallory 9999", 16), 128 * "Q", ""), OVERWRITE)
@example(("", 128 * "Q", hash_message("", "sha256")), LSB1)
@example(("", 128 * "Q", hash_message("", "sha512")), OVERWRITE)
def test_verified_payload_rows_are_the_rows_seal_writes(rows, mode):
    """Blocks built from payload_rows, embedded as embed_block does: a
    VERIFIED one is the stream seal writes for its message."""
    image = embed_block(unchecked_block(*rows), ROWS_COVER, mode)
    report = verify(image)
    assert report.verdict in (VERIFIED, TAMPERED, UNDECODABLE)
    assert_sealed_stream(image, report)
