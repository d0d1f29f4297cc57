import io
import re

import numpy as np
import pytest

from stegoseal.errors import PgmError
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
    with pytest.raises(PgmError, match="expected P5 magic, got b'P2'"):
        read_pgm(b"P2\n1 1\n255\n0")


def test_other_magic_rejected():
    with pytest.raises(PgmError, match="expected P5 magic, got b'P6'"):
        read_pgm(b"P6\n1 1\n255\n\x00\x00\x00")


def test_bad_maxval():
    with pytest.raises(PgmError, match="only maxval 255 is supported, got 65535"):
        read_pgm(b"P5\n1 1\n65535\n\x00\x00")


def test_truncated_pixels():
    with pytest.raises(PgmError, match="need 4 pixel bytes, found 3"):
        read_pgm(b"P5\n2 2\n255\n\x00\x00\x00")


def test_trailing_bytes_rejected():
    with pytest.raises(PgmError, match="1 bytes after the pixel data"):
        read_pgm(b"P5\n1 1\n255\n\x00\x00")


def test_malformed_header():
    with pytest.raises(PgmError, match="width is not an unsigned integer: b'ab'"):
        read_pgm(b"P5\nab 1\n255\n\x00")
    with pytest.raises(PgmError, match="header ends before or inside a token"):
        read_pgm(b"P5\n1\n255\n")
    with pytest.raises(PgmError, match="bad dimensions 0x4"):
        read_pgm(b"P5\n0 4\n255\n")


@pytest.mark.parametrize("data", [
    b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00",
    b"P5\n1 1\n" + b"2" * 5000 + b"\n\x00",
], ids=["width", "maxval"])
def test_over_long_header_number_is_malformed(data):
    """A number past Python's 4300-digit int-string limit is a malformed header."""
    with pytest.raises(PgmError, match="has too many digits: 5000"):
        read_pgm(data)


def test_gray_image_validation():
    with pytest.raises(ValueError):
        GrayImage(2, 2, bytes(3))
    with pytest.raises(ValueError):
        GrayImage(0, 1, b"")


@pytest.mark.parametrize("width, height, pixels", [
    (2.5, 2, bytes(4)),                    # was a 2x2 image
    (2, 1.0, bytes(2)),
    ("2", 1, bytes(2)),
    (2, 1, [0.5, 255.9]),                  # was stored as [0, 255]
    (2, 1, np.array([-1, 2])),             # was stored as [255, 2]
    (2, 1, [0, 256]),                      # was stored as [0, 0]
    (2, 1, np.array([0.0, 1.0])),
    (2, 1, np.array([True, False])),
], ids=["float-width", "float-height", "str-width", "float-list", "negative", "256",
        "float-array", "bool-array"])
def test_gray_image_takes_integers_only(width, height, pixels):
    with pytest.raises(ValueError):
        GrayImage(width, height, pixels)


@pytest.mark.parametrize("pixels", [[0, 255], np.array([0, 255]), np.array([0, 255], np.uint16),
                                    memoryview(bytes([0, 255])), bytearray([0, 255])])
def test_gray_image_takes_integer_pixels_in_range(pixels):
    img = GrayImage(np.int64(2), np.int32(1), pixels)
    assert img.tobytes() == bytes([0, 255])


def test_gray_image_pixels_read_only():
    img = random_image(2, 4, 4)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1


@pytest.mark.parametrize("make", [bytes, bytearray, memoryview, list,
                                  lambda b: np.frombuffer(b, np.uint8).copy()],
                         ids=["bytes", "bytearray", "memoryview", "list", "uint8-array"])
def test_gray_image_pixels_cannot_be_made_writeable(make):
    data = bytes(range(16))
    img = GrayImage(4, 4, make(data))
    with pytest.raises(ValueError):
        img.pixels.flags.writeable = True
    assert img.tobytes() == data
    assert img.pixels.ravel().tolist() == list(data)


def test_gray_image_keeps_bytes_without_copying():
    data = bytes(range(6))
    assert GrayImage(3, 2, data).tobytes() is data


def test_gray_image_copies_what_the_caller_can_change():
    data = bytearray(range(6))
    img = GrayImage(3, 2, data)
    data[0] = 99
    assert img.tobytes() == bytes(range(6))


def test_gray_image_tobytes_row_major():
    img = GrayImage(2, 2, bytes([1, 2, 3, 4]))
    assert img.tobytes() == bytes([1, 2, 3, 4])
    assert img.pixels[0, 1] == 2
    assert img.pixels[1, 0] == 3


def test_gray_image_repr_gives_its_size():
    assert repr(GrayImage(3, 2, bytes(6))) == "GrayImage(3x2)"


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
    # pgm(5): a comment runs through the next carriage return or newline
    b"P5\n# c\r2 3\n255\n",
    b"P5# c\r2\r3 # d\r255\r",
    b"P5\n2 3 # e\r\n255\n",
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
    with pytest.raises(PgmError) as whole:
        read_pgm(data)
    with pytest.raises(PgmError, match=f"^{re.escape(str(whole.value))}$"):
        read_pgm_head(io.BytesIO(data), 10)


@pytest.mark.parametrize("extra, message", [
    (-1, "need 4194304 pixel bytes, found 4194303"),
    (1, "1 bytes after the pixel data"),
], ids=["truncated", "trailing"])
def test_read_pgm_head_checks_size_without_reading_pixels(extra, message):
    header = b"P5\n2048 2048\n255\n"
    f = CountingFile(header + bytes(2048 * 2048 + extra))
    with pytest.raises(PgmError, match=message):
        read_pgm_head(f, 10)
    assert f.bytes_read <= 4096


def test_read_pgm_head_reads_only_the_head():
    header = b"P5\n2048 2048\n255\n"
    f = CountingFile(header + bytes(range(256)) * (2048 * 2048 // 256))
    width, height, pixels = read_pgm_head(f, 300)
    assert (width, height) == (2048, 2048)
    assert pixels == (bytes(range(256)) * 2)[:300]
    assert f.bytes_read <= 4096 + 300


class ShrinkingFile(io.BytesIO):
    """An in-memory file that another writer cuts to `keep` bytes right
    after the reader takes its size with seek(0, 2)."""

    def __init__(self, data, keep):
        super().__init__(data)
        self.keep = keep

    def seek(self, pos, whence=0):
        end = super().seek(pos, whence)
        if whence == 2:
            self.truncate(self.keep)
        return end


def test_read_pgm_head_rejects_a_file_that_shrinks_while_read():
    header = b"P5\n4 4\n255\n"
    data = header + bytes(range(16))
    with pytest.raises(PgmError, match="^need 16 pixel bytes, found 11$"):
        read_pgm_head(ShrinkingFile(data, len(header) + 11), 16)
    # the pixels asked for are all still there
    assert read_pgm_head(ShrinkingFile(data, len(header) + 11), 11) == (4, 4, bytes(range(11)))
