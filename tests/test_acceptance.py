"""Acceptance suite. One test per criterion; each prints a pass/fail line
with the measured quantities (run with -s to see them on passing runs).
"""

import itertools
import math
import random
import string
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from stegoseal import entropy, stego
from stegoseal.cipher import (caesar_decrypt, caesar_encrypt, hill_decrypt,
                              hill_encrypt, hill_key_inverse, hill_pad_count)
from stegoseal.cli import main
from stegoseal.digest import hash_message
from stegoseal.errors import CipherError
from stegoseal.payload import to_tiles
from stegoseal.pgm import GrayImage, write_pgm
from stegoseal.pipeline import (VERIFIED, SealConfig, _pack_block, seal, tamper,
                                verify)
from stegoseal.transform import dct2, idct2, int_dct2, int_idct2

from conftest import kraft_sum, make_cover

EXAMPLE_MESSAGE = "I'm so proud to be Egyptian"
EXAMPLE_KEY = 16


def report(criterion, ok, detail):
    print(f"\nacceptance {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def sealed_example(cover, **overrides):
    config = SealConfig(caesar_key=EXAMPLE_KEY, **overrides)
    return seal(EXAMPLE_MESSAGE, config, cover), config


def embedded_stream(image, mode=stego.OVERWRITE):
    data = stego.extract(image, stego.capacity(image, mode), mode)
    return data[:entropy.decode_blocks(data).consumed]


def test_01_end_to_end_soundness():
    """1000 random seal/verify round trips across modes and digests."""
    rng = random.Random(0xACCE01)
    chars = string.ascii_letters + string.digits + " .,!?'\"-:;()"
    started = time.perf_counter()
    failures = 0
    for i in range(1000):
        cover = make_cover(i)
        config = SealConfig(
            caesar_key=rng.randrange(26),
            embed_mode=stego.MODES[i % 2],
            digest_algorithm=("sha256", "sha512")[(i // 2) % 2],
        )
        message = "".join(rng.choice(chars) for _ in range(rng.randint(1, 120)))
        result = verify(seal(message, config, cover), config)
        if result.verdict != VERIFIED or result.recovered_message != message:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30
    assert report(1, ok, f"{1000 - failures}/1000 verified, {elapsed:.1f}s (< 30s)")


def test_02_tamper_detection_exhaustive():
    """Every single-bit flip inside the embedded stream must defeat verify."""
    cover = make_cover(0xACCE02)
    sealed, config = sealed_example(cover)
    region = len(embedded_stream(sealed))
    started = time.perf_counter()
    verified_flips = 0
    for pixel in range(region):
        for bit in range(8):
            result = verify(tamper(sealed, pixel, bit), config)
            if result.verdict == VERIFIED:
                verified_flips += 1
    elapsed = time.perf_counter() - started
    ok = verified_flips == 0 and elapsed < 60
    assert report(2, ok, f"{8 * region} flips over {region} bytes, "
                         f"{verified_flips} verified, {elapsed:.1f}s (< 60s)")


def test_03_example_ciphertext_token():
    ok = caesar_decrypt("YUUU", EXAMPLE_KEY) == "IEEE"
    assert report(3, ok, 'decrypt("YUUU", 16) == "IEEE"')


def test_04_payload_arithmetic():
    block = _pack_block(EXAMPLE_MESSAGE, "caesar", EXAMPLE_KEY, hash_message(EXAMPLE_MESSAGE))
    tiles = to_tiles(block)
    ok = len(block) == 384 and tiles.shape == (6, 8, 8)
    assert report(4, ok, f"{len(block)} elements in {tiles.shape[0]} 8x8 tiles")


def test_05_compression_ratio_target(tmp_path, capsys):
    """Measured ratio of raw block elements to coded stream bytes.

    The exact integer DCT needs no scale, whole-row tiles turn the zero
    padding into all-zero tiles that code as two symbols each, and the
    fixed (run, size) table never travels, so the 384-byte block of the
    paper example codes into well under 384 / 1.5 = 256 bytes.
    """
    cover = make_cover(0xACCE05)
    sealed, _ = sealed_example(cover)
    path = tmp_path / "sealed.pgm"
    path.write_bytes(write_pgm(sealed))
    code = main(["inspect", "--in", str(path)])
    lines = dict(line.split("=", 1)
                 for line in capsys.readouterr().out.strip().splitlines())
    with capsys.disabled():
        ratio = float(lines["ratio"])
        ok = code == 0 and ratio >= 1.5
        assert report(5, ok, f"inspect ratio {lines['elements']}/"
                             f"{lines['compressed_elements']} = {ratio:.4f} "
                             "(threshold 1.5)")


def test_06_dct_against_summation_oracle():
    """dct2 vs the direct per-coefficient double sum, plus inverse/energy."""

    def dct2_by_summation(tile):
        out = np.zeros((8, 8))
        for u in range(8):
            for v in range(8):
                alpha_u = math.sqrt(1 / 8) if u == 0 else math.sqrt(2 / 8)
                alpha_v = math.sqrt(1 / 8) if v == 0 else math.sqrt(2 / 8)
                cos_u = np.cos((2 * np.arange(8) + 1) * u * np.pi / 16)
                cos_v = np.cos((2 * np.arange(8) + 1) * v * np.pi / 16)
                out[u, v] = alpha_u * alpha_v * float(
                    (tile * np.outer(cos_u, cos_v)).sum())
        return out

    rng = np.random.default_rng(0xACCE06)
    started = time.perf_counter()
    worst_oracle = worst_inverse = worst_energy = 0.0
    for _ in range(1000):
        tile = rng.integers(0, 256, (8, 8)).astype(float)
        coeffs = dct2(tile)
        worst_oracle = max(worst_oracle,
                           np.abs(coeffs - dct2_by_summation(tile)).max())
        worst_inverse = max(worst_inverse, np.abs(idct2(coeffs) - tile).max())
        energy = (tile ** 2).sum()
        worst_energy = max(worst_energy,
                           abs((coeffs ** 2).sum() - energy) / energy)
    elapsed = time.perf_counter() - started
    ok = (worst_oracle < 1e-9 and worst_inverse < 1e-9
          and worst_energy < 1e-9 and elapsed < 5)
    assert report(6, ok, f"oracle {worst_oracle:.2e}, inverse {worst_inverse:.2e}, "
                         f"energy {worst_energy:.2e}, {elapsed:.1f}s (< 5s)")


def test_07_lossless_transform_path():
    """10000 random byte tiles survive int_dct2 then int_idct2."""
    rng = np.random.default_rng(0xACCE07)
    tiles = rng.integers(0, 256, (10000, 8, 8))
    started = time.perf_counter()
    exact = 0
    for tile in tiles:
        rec = int_idct2(int_dct2(tile))
        exact += int(np.array_equal(rec, tile))
    elapsed = time.perf_counter() - started
    ok = exact == 10000 and elapsed < 10
    assert report(7, ok, f"{exact}/10000 tiles exact through the integer DCT, "
                         f"{elapsed:.1f}s (< 10s)")


def test_08_entropy_coding():
    rng = random.Random(0xACCE08)

    round_trips = 0
    kraft_ok = True
    for _ in range(1000):
        seq = [rng.randrange(256) for _ in range(rng.randint(1, 4096))]
        table = entropy.build_table(Counter(seq))
        kraft_ok &= kraft_sum(table) == Fraction(1) or len(table.codes) == 1
        # zero-padded to whole tiles; values 0-255 fit the block table's categories
        tiles = np.zeros(-(-len(seq) // 64) * 64, np.int64)
        tiles[:len(seq)] = seq
        tiles = tiles.reshape(-1, 8, 8)
        decoded = entropy.decode_blocks(entropy.encode_blocks(tiles))
        round_trips += int(np.array_equal(decoded.coeffs, tiles))

    optimal = True
    for _ in range(300):
        n = rng.randint(1, 4)
        freqs = [rng.randint(1, 60) for _ in range(n)]
        table = entropy.build_table(dict(enumerate(freqs)))
        cost = sum(freqs[s] * len(c) for s, c in table.codes.items())
        best = min(sum(f * l for f, l in zip(freqs, lengths))
                   for lengths in itertools.product(range(1, 5), repeat=n)
                   if sum(Fraction(1, 2 ** l) for l in lengths) <= 1)
        optimal &= cost == best

    rng_np = np.random.default_rng(0xACCE08)
    bijective = all(
        np.array_equal(entropy.zigzag_unscan(entropy.zigzag_scan(m)), m)
        for m in rng_np.integers(-999, 999, (1000, 8, 8)))

    ok = round_trips == 1000 and kraft_ok and optimal and bijective
    assert report(8, ok, f"{round_trips}/1000 round trips, kraft={kraft_ok}, "
                         f"optimal={optimal}, zigzag bijection={bijective}")


def test_09_cipher_algebra():
    rng = random.Random(0xACCE09)
    identity = np.eye(3, dtype=int)

    hill_ok = 0
    for _ in range(10000):
        key = np.array([[rng.randrange(26) for _ in range(3)] for _ in range(3)])
        try:
            inverse = hill_key_inverse(key)
        except CipherError:
            continue
        if not np.array_equal((key @ inverse) % 26, identity):
            continue
        msg = "".join(rng.choice(string.ascii_uppercase)
                      for _ in range(rng.randint(1, 30)))
        if hill_decrypt(hill_encrypt(msg, key), key, hill_pad_count(msg)) == msg:
            hill_ok += 1
    # roughly a third of random matrices are invertible mod 26
    hill_enough = hill_ok >= 2000

    caesar_ok = all(
        caesar_decrypt(caesar_encrypt(m, k), k) == m
        for m, k in (
            ("".join(rng.choice(string.printable) for _ in range(rng.randint(0, 80))),
             rng.randrange(26))
            for _ in range(1000)))

    sha_ok = (
        hash_message(b"abc", "sha256") ==
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        and hash_message(b"abc", "sha512") ==
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
        "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f")

    ok = hill_enough and caesar_ok and sha_ok
    assert report(9, ok, f"{hill_ok} invertible hill keys round-tripped, "
                         f"caesar={caesar_ok}, sha vectors={sha_ok} "
                         "(full vector set in test_digest)")


def test_10_imperceptibility_vs_visibility():
    cover = make_cover(0xACCE10)

    quiet, _ = sealed_example(cover, embed_mode=stego.LSB1)
    max_delta = int(np.abs(quiet.pixels.astype(int) - cover.pixels.astype(int)).max())

    visible, _ = sealed_example(cover)
    stream = embedded_stream(visible)
    region = visible.pixels.ravel()[:len(stream)]
    overwrite_ok = region.tobytes() == stream

    # the embedded pixel count must be reproducible run to run
    again, _ = sealed_example(cover)
    deterministic = (again == visible
                     and len(embedded_stream(again)) == len(stream))

    ok = max_delta <= 1 and overwrite_ok and deterministic
    assert report(10, ok, f"lsb1 max pixel delta {max_delta} (<= 1), overwrite "
                          f"region equals the {len(stream)}-byte stream: "
                          f"{overwrite_ok}, deterministic: {deterministic}")
