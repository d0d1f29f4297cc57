import io

import numpy as np
import pytest

from stegoseal.errors import (BadMagic, BadMaxval, MalformedHeader,
                              StegosealError, TrailingData, TruncatedPixels)
from stegoseal.pgm import GrayImage, read_pgm, read_pgm_head, write_pgm


def random_image(seed, w, h):
    rng = np.random.default_rng(seed)
    return GrayImage(w, h, rng.integers(0, 256, w * h, dtype=np.uint8))


def test_minimal_image():
    img = read_pgm(b"P5\n1 1\n255\n\x00")
    assert (img.width, img.height) == (1, 1)
    assert img.pixels[0, 0] == 0


def test_write_exact_bytes():
    img = GrayImage(1, 1, bytes([255]))
    assert write_pgm(img) == b"P5\n1 1\n255\n\xff"


def test_write_256x256_size():
    img = random_image(1, 256, 256)
    data = write_pgm(img)
    assert data.startswith(b"P5\n256 256\n255\n")
    assert len(data) == len(b"P5\n256 256\n255\n") + 65536


def test_round_trip_random_images():
    for seed, (w, h) in enumerate([(1, 1), (3, 7), (256, 256), (64, 1), (1, 64)]):
        img = random_image(seed, w, h)
        assert read_pgm(write_pgm(img)) == img


def test_write_is_idempotent_through_read():
    img = random_image(9, 40, 30)
    data = write_pgm(img)
    assert write_pgm(read_pgm(data)) == data


def test_comments_and_whitespace_in_header():
    data = b"P5 # binary pgm\n# a comment line\n  2\t3 # dims\n255\n" + bytes(6)
    img = read_pgm(data)
    assert (img.width, img.height) == (2, 3)


def test_ascii_pgm_rejected():
    with pytest.raises(BadMagic):
        read_pgm(b"P2\n1 1\n255\n0")


def test_other_magic_rejected():
    with pytest.raises(BadMagic):
        read_pgm(b"P6\n1 1\n255\n\x00\x00\x00")


def test_bad_maxval():
    with pytest.raises(BadMaxval):
        read_pgm(b"P5\n1 1\n65535\n\x00\x00")


def test_truncated_pixels():
    with pytest.raises(TruncatedPixels):
        read_pgm(b"P5\n2 2\n255\n\x00\x00\x00")


def test_trailing_bytes_rejected():
    with pytest.raises(TrailingData):
        read_pgm(b"P5\n1 1\n255\n\x00\x00")


def test_malformed_header():
    with pytest.raises(MalformedHeader):
        read_pgm(b"P5\nab 1\n255\n\x00")
    with pytest.raises(MalformedHeader):
        read_pgm(b"P5\n1\n255\n")
    with pytest.raises(MalformedHeader):
        read_pgm(b"P5\n0 4\n255\n")


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(2, 2, bytes(3))
    with pytest.raises(ValueError):
        GrayImage(0, 1, b"")


def test_gray_image_pixels_read_only():
    img = random_image(2, 4, 4)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1


def test_gray_image_tobytes_row_major():
    img = GrayImage(2, 2, bytes([1, 2, 3, 4]))
    assert img.tobytes() == bytes([1, 2, 3, 4])
    assert img.pixels[0, 1] == 2
    assert img.pixels[1, 0] == 3


class CountingFile(io.BytesIO):
    """An in-memory file that counts the bytes read from it."""

    bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data)
        return data


PIXELS = bytes(range(6))
HEADERS = [
    b"P5\n2 3\n255\n",
    b"P5 # binary pgm\n# a comment line\n  2\t3 # dims\n255\n",
    b"P5\x0b2\r3\x0c255 ",
    b"P5\n#" + b"c" * 10_000 + b"\n2 3\n255\n",
    # maxval ends where the reader's first 4096-byte chunk does
    b"P5\n#" + b"c" * 4084 + b"\n2 3\n255\n",
    # the width token straddles the end of the first chunk
    b"P5\n#" + b"c" * 4088 + b"\n0002 3\n255\n",
    b"P5\n2 3\n#" + b"x" * 4094 + b"\n255\n",
]


@pytest.mark.parametrize("header", HEADERS)
@pytest.mark.parametrize("limit", [1, 4, 6, 100])
def test_read_pgm_head_matches_read_pgm(header, limit):
    f = io.BytesIO(header + PIXELS)
    width, height, pixels = read_pgm_head(f, limit)
    img = read_pgm(header + PIXELS)
    assert (width, height) == (img.width, img.height) == (2, 3)
    assert pixels == img.tobytes()[:limit]
    assert f.read() == PIXELS[limit:]  # left right after the returned pixels


MALFORMED = [
    b"", b"P", b"P2\n1 1\n255\n0", b"P6\n1 1\n255\n\x00\x00\x00",
    b"P5\n1 1\n65535\n\x00\x00", b"P5\n2 2\n255\n\x00\x00\x00",
    b"P5\n1 1\n255\n\x00\x00", b"P5\nab 1\n255\n\x00", b"P5\n1\n255\n",
    b"P5\n0 4\n255\n\x00", b"P5\n1 1\n255", b"P5\n1 1\n255#\n\x00",
    b"P5\n1 1 # no end", b"P5\n#" + b"c" * 10_000,
]


@pytest.mark.parametrize("data", MALFORMED)
def test_read_pgm_head_rejects_what_read_pgm_rejects(data):
    with pytest.raises(StegosealError) as whole:
        read_pgm(data)
    with pytest.raises(type(whole.value)):
        read_pgm_head(io.BytesIO(data), 10)


@pytest.mark.parametrize("extra, error", [(-1, TruncatedPixels), (1, TrailingData)])
def test_read_pgm_head_checks_size_without_reading_pixels(extra, error):
    header = b"P5\n2048 2048\n255\n"
    f = CountingFile(header + bytes(2048 * 2048 + extra))
    with pytest.raises(error):
        read_pgm_head(f, 10)
    assert f.bytes_read <= 4096


def test_read_pgm_head_reads_only_the_head():
    header = b"P5\n2048 2048\n255\n"
    f = CountingFile(header + bytes(range(256)) * (2048 * 2048 // 256))
    width, height, pixels = read_pgm_head(f, 300)
    assert (width, height) == (2048, 2048)
    assert pixels == (bytes(range(256)) * 2)[:300]
    assert f.bytes_read <= 4096 + 300
