import random
import string

import numpy as np
import pytest

from stegoseal.errors import (BadShape, MalformedBlock, NulInPayload,
                              RowOverflow)
from stegoseal.payload import from_tiles, pack, to_tiles, unpack


def test_pack_has_384_elements_at_defaults():
    block = pack("x" * 28, "16", "f" * 128)
    assert isinstance(block, bytes)
    assert len(block) == 384


def test_pack_layout():
    block = pack("AB", "16", "ff")
    assert block[:2] == b"AB"
    assert block[2:128] == bytes(126)
    assert block[128:130] == b"16"
    assert block[256:258] == b"ff"


def test_pack_empty_ciphertext():
    block = pack("", "0", "a" * 64)
    assert block[:128] == bytes(128)
    assert unpack(block) == ("", "0", "a" * 64)


def test_pack_overflow():
    with pytest.raises(RowOverflow) as err:
        pack("x" * 129, "16", "f" * 128)
    assert err.value.row == 0
    assert err.value.actual == 129
    assert err.value.limit == 128


def test_pack_rejects_nul():
    with pytest.raises(NulInPayload):
        pack("a\x00b", "16", "ff")
    with pytest.raises(RowOverflow):  # NulInPayload is a RowOverflow variant
        pack("a\x00b", "16", "ff")


def test_unpack_round_trip():
    cases = [
        ("YUUU Ydjuh", "16", "ab" * 32),
        ("ends with zero char 0", "25", "0" * 10),
        ("a0b00", "0", "00ff00"),
    ]
    for c, k, d in cases:
        assert unpack(pack(c, k, d)) == (c, k, d)


def test_unpack_random_round_trip():
    rng = random.Random(77)
    chars = string.ascii_letters + string.digits + " '!?.,0"
    for _ in range(300):
        c = "".join(rng.choice(chars) for _ in range(rng.randint(0, 128)))
        k = str(rng.randrange(26))
        d = "".join(rng.choice("0123456789abcdef") for _ in range(64))
        assert unpack(pack(c, k, d)) == (c, k, d)


def test_unpack_all_zero():
    assert unpack(bytes(384)) == ("", "", "")


@pytest.mark.parametrize("length", [256, 383, 385])
def test_unpack_rejects_a_block_of_another_length(length):
    with pytest.raises(MalformedBlock, match="384-byte"):
        unpack(bytes(length))


def test_unpack_rejects_a_row_that_is_not_utf8():
    block = pack("caf\u00e9", "16", "ff")
    with pytest.raises(MalformedBlock, match="UTF-8"):
        unpack(block[:4] + block[5:] + b"\x00")  # the lead byte of "\u00e9" alone


def test_to_tiles_count():
    block = pack("hello", "16", "f" * 128)
    tiles = to_tiles(block)
    assert tiles.shape == (6, 8, 8)


def test_to_tiles_takes_only_a_whole_block():
    with pytest.raises(ValueError):
        to_tiles(bytes(360))


def test_tiling_layout_is_row_major_bands():
    # fill with 0..383 so every byte's position is identifiable; tile j is
    # bytes 64j..64j+63 of the flattened block, read row-major
    data = np.arange(384, dtype=np.uint8).tobytes()
    tiles = to_tiles(data)
    assert tiles.shape == (6, 8, 8)
    for j in range(6):
        for r in range(8):
            for c in range(8):
                assert tiles[j, r, c] == data[64 * j + 8 * r + c]


def test_from_tiles_inverts_to_tiles():
    rng = np.random.default_rng(3)
    for _ in range(100):
        block = rng.integers(0, 256, 384, dtype=np.uint8).tobytes()
        assert from_tiles(to_tiles(block)) == block


def test_from_tiles_all_zero():
    block = from_tiles(np.zeros((6, 8, 8), np.uint8))
    assert block == bytes(384)
    assert unpack(block) == ("", "", "")


def test_from_tiles_wrong_count():
    with pytest.raises(BadShape):
        from_tiles(np.zeros((5, 8, 8), np.uint8))


def test_from_tiles_wrong_tile_shape():
    with pytest.raises(BadShape):
        from_tiles(np.zeros((6, 4, 8), np.uint8))


def test_element_count_conserved():
    block = pack("abc", "1", "d" * 64)
    assert to_tiles(block).size == len(block) == 384
