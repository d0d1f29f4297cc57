import random
import string

import numpy as np
import pytest

from stegoseal.errors import BlockError
from stegoseal.payload import _FROM_BLOCK, _TO_BLOCK, pack, to_tiles, unpack


def test_pack_has_384_elements_at_defaults():
    block = pack("x" * 28, "16", "f" * 128)
    assert isinstance(block, bytes)
    assert len(block) == 384


def test_pack_layout():
    """Each row's bytes go through the byte map: A-Z are 1-26, the digits
    27-36 and a-z 37-62."""
    block = pack("AB", "16", "ff")
    assert block[:2] == bytes([1, 2])
    assert block[2:128] == bytes(126)
    assert block[128:130] == bytes([28, 33])
    assert block[256:258] == bytes([42, 42])


def test_byte_map_is_a_bijection_that_fixes_nul():
    every = bytes(range(256))
    mapped = every.translate(_TO_BLOCK)
    assert mapped[0] == 0
    assert sorted(mapped[1:]) == list(range(1, 256))
    assert mapped.translate(_FROM_BLOCK) == every
    assert mapped[ord("A"):ord("Z") + 1] == bytes(range(1, 27))
    assert mapped[ord("0"):ord("9") + 1] == bytes(range(27, 37))
    assert mapped[ord("a"):ord("z") + 1] == bytes(range(37, 63))
    assert b"0123456789abcdef".translate(_TO_BLOCK) == bytes(range(27, 43))  # hex digits


def test_pack_empty_ciphertext():
    block = pack("", "0", "a" * 64)
    assert block[:128] == bytes(128)
    assert unpack(block) == ("", "0", "a" * 64)


def test_pack_overflow():
    with pytest.raises(BlockError, match="row 0: 129 bytes exceeds row length 128"):
        pack("x" * 129, "16", "f" * 128)


def test_pack_rejects_nul():
    with pytest.raises(BlockError, match="row 0 contains a NUL byte"):
        pack("a\x00b", "16", "ff")


def test_unpack_round_trip():
    cases = [
        ("YUUU Ydjuh", "16", "ab" * 32),
        ("ends with zero char 0", "25", "0" * 10),
        ("a0b00", "0", "00ff00"),
        # bytes past ASCII go through the byte map as well
        ("caf\u00e9 \u00df \u0131 \u017f", "\u2028\ufb00\u212a", "\u65e5\u672c\u8a9e"),
        ("\U0001F600" * 32, "\u00e9" * 64, "\x7f\x01~ \x1b"),
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
    with pytest.raises(BlockError, match=f"expected a 384-byte block, got {length} bytes"):
        unpack(bytes(length))


def test_unpack_rejects_a_row_that_is_not_utf8():
    block = pack("caf\u00e9", "16", "ff")
    with pytest.raises(BlockError, match="row is not valid UTF-8: .* invalid continuation byte"):
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


def test_to_tiles_flattens_back_to_the_block():
    rng = np.random.default_rng(3)
    for _ in range(100):
        block = rng.integers(0, 256, 384, dtype=np.uint8).tobytes()
        assert to_tiles(block).tobytes() == block


def test_element_count_conserved():
    block = pack("abc", "1", "d" * 64)
    assert to_tiles(block).size == len(block) == 384
