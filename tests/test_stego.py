import numpy as np
import pytest

from stegoseal.errors import EmbedError
from stegoseal.pgm import GrayImage
from stegoseal.stego import LSB1, OVERWRITE, capacity, embed, extract

from conftest import make_cover


def test_capacity_overwrite():
    assert capacity(make_cover(0), OVERWRITE) == 65536


def test_capacity_lsb1():
    assert capacity(make_cover(0), LSB1) == 8192


def test_capacity_floors():
    img = GrayImage(1, 7, bytes(7))
    assert capacity(img, LSB1) == 0
    assert capacity(img, OVERWRITE) == 7


def test_unknown_mode():
    with pytest.raises(ValueError):
        capacity(make_cover(0), "lsb2")


def test_embed_zero_bytes_is_identity():
    cover = make_cover(1)
    for mode in (OVERWRITE, LSB1):
        assert embed(cover, b"", mode) == cover


def test_overwrite_replaces_prefix_pixels():
    cover = make_cover(2)
    payload = bytes(range(100))
    out = embed(cover, payload, OVERWRITE)
    flat = out.pixels.ravel()
    assert flat[:100].tobytes() == payload
    assert np.array_equal(flat[100:], cover.pixels.ravel()[100:])


def test_lsb1_touches_only_lsbs():
    cover = make_cover(3)
    payload = b"\xa5"  # 10100101
    out = embed(cover, payload, LSB1)
    diff = out.pixels.ravel().astype(int) - cover.pixels.ravel().astype(int)
    changed = np.nonzero(diff)[0]
    assert (np.abs(diff) <= 1).all()
    assert changed.size <= 8
    assert (changed < 8).all()
    # MSB-first: pixel i carries bit 7-i of the byte
    bits = out.pixels.ravel()[:8] & 1
    assert np.array_equal(bits, [1, 0, 1, 0, 0, 1, 0, 1])


def test_embed_capacity_exceeded():
    cover = make_cover(4)
    with pytest.raises(EmbedError, match="payload needs 65537 bytes, image holds 65536"):
        embed(cover, bytes(65537), OVERWRITE)
    with pytest.raises(EmbedError, match="payload needs 8193 bytes, image holds 8192"):
        embed(cover, bytes(8193), LSB1)


def test_extract_round_trip_random():
    rng = np.random.default_rng(5)
    for i in range(1000):
        mode = OVERWRITE if i % 2 else LSB1
        w = int(rng.integers(8, 64))
        h = int(rng.integers(8, 64))
        cover = GrayImage(w, h, rng.integers(0, 256, w * h, dtype=np.uint8))
        n = int(rng.integers(0, capacity(cover, mode) + 1))
        payload = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert extract(embed(cover, payload, mode), n, mode) == payload


def test_extract_zero_length():
    assert extract(make_cover(6), 0, OVERWRITE) == b""
    assert extract(make_cover(6), 0, LSB1) == b""


def test_extract_untouched_prefix():
    cover = make_cover(7)
    n = 50
    assert extract(cover, n, OVERWRITE) == cover.pixels.ravel()[:n].tobytes()


def test_extract_capacity_check():
    with pytest.raises(EmbedError, match="payload needs 65537 bytes, image holds 65536"):
        extract(make_cover(8), 65537, OVERWRITE)


def test_extract_rejects_a_negative_length():
    with pytest.raises(ValueError, match="length must be non-negative"):
        extract(make_cover(8), -1, OVERWRITE)


def test_embed_does_not_touch_suffix():
    cover = make_cover(9)
    payload = bytes(200)
    for mode, region in ((OVERWRITE, 200), (LSB1, 1600)):
        out = embed(cover, payload, mode)
        assert np.array_equal(out.pixels.ravel()[region:],
                              cover.pixels.ravel()[region:])


def test_lsb1_mean_absolute_deviation():
    cover = make_cover(10)
    rng = np.random.default_rng(11)
    payload = rng.integers(0, 256, 200, dtype=np.uint8).tobytes()
    out = embed(cover, payload, LSB1)
    mad = np.abs(out.pixels.astype(int) - cover.pixels.astype(int)).mean()
    assert mad <= 0.013


def test_cover_is_not_mutated():
    cover = make_cover(12)
    before = cover.pixels.copy()
    embed(cover, bytes(range(256)), OVERWRITE)
    embed(cover, bytes(range(256)), LSB1)
    assert np.array_equal(cover.pixels, before)
