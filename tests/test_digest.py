import random

import pytest

from stegoseal.digest import algorithm_for_hex_length, hash_message

# Published FIPS 180 example digests (empty string, one block, two block,
# and the million-a message).
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    (b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     b"ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"),
    (b"a" * 1000000,
     "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
]

SHA512_VECTORS = [
    (b"", "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
          "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"),
    (b"abc", "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
             "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "204a8fc6dda82f0a0ced7beb8e08a41657c16ef468b228a8279be331a703c335"
     "96fd15c13b1b07f9aa1d3bea57789ca031ad85c7a71dd70354ec631238ca3445"),
    (b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
     b"ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
     "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
     "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909"),
    (b"a" * 1000000,
     "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
     "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b"),
]


@pytest.mark.parametrize("message,expected", SHA256_VECTORS)
def test_sha256_vectors(message, expected):
    assert hash_message(message, "sha256") == expected


@pytest.mark.parametrize("message,expected", SHA512_VECTORS)
def test_sha512_vectors(message, expected):
    assert hash_message(message, "sha512") == expected


def test_hex_lengths():
    assert len(hash_message(b"x", "sha256")) == 64
    assert len(hash_message(b"x", "sha512")) == 128


def test_str_input_is_utf8():
    assert hash_message("abc", "sha256") == hash_message(b"abc", "sha256")
    assert hash_message("café") == hash_message("café".encode("utf-8"))


def test_default_algorithm_is_sha512():
    assert hash_message(b"x") == hash_message(b"x", "sha512")


def test_determinism():
    for _ in range(3):
        assert hash_message(b"same input") == hash_message(b"same input")


def test_unknown_algorithm():
    with pytest.raises(ValueError):
        hash_message(b"x", "md5")


def test_algorithm_for_hex_length():
    assert algorithm_for_hex_length(64) == "sha256"
    assert algorithm_for_hex_length(128) == "sha512"
    assert algorithm_for_hex_length(63) is None


def test_avalanche_mean_bit_change():
    """Flipping one input bit flips a large fraction of digest bits."""
    rng = random.Random(42)
    for algorithm, bits in (("sha256", 256), ("sha512", 512)):
        total = 0.0
        n = 1000
        for _ in range(n):
            data = bytearray(rng.randbytes(rng.randint(1, 64)))
            a = int(hash_message(bytes(data), algorithm), 16)
            pos = rng.randrange(len(data) * 8)
            data[pos // 8] ^= 1 << (pos % 8)
            b = int(hash_message(bytes(data), algorithm), 16)
            total += bin(a ^ b).count("1") / bits
        assert total / n >= 0.30


def test_only_bytes_like_and_text_are_hashed():
    """An int or a list is not a message: bytes(5) would be five NULs."""
    for message in (5, 0, [97, 98, 99], None):
        with pytest.raises(TypeError):
            hash_message(message)
    for message in (bytearray(b"abc"), memoryview(b"abc")):
        assert hash_message(message) == hash_message(b"abc")
