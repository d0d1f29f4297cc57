import math

import numpy as np
import pytest

from stegoseal.errors import BadShape
from stegoseal.transform import dct2, idct2, int_dct2, int_idct2


def dct2_by_summation(tile):
    """Direct evaluation of the defining double sum, one coefficient at a time.

    Deliberately naive: no separability, no matrix products. This is the
    oracle the fast path is checked against.
    """
    tile = np.asarray(tile, dtype=float)
    out = np.zeros((8, 8))
    for u in range(8):
        for v in range(8):
            alpha_u = math.sqrt(1 / 8) if u == 0 else math.sqrt(2 / 8)
            alpha_v = math.sqrt(1 / 8) if v == 0 else math.sqrt(2 / 8)
            total = 0.0
            for x in range(8):
                for y in range(8):
                    total += (tile[x, y]
                              * math.cos((2 * x + 1) * u * math.pi / 16)
                              * math.cos((2 * y + 1) * v * math.pi / 16))
            out[u, v] = alpha_u * alpha_v * total
    return out


def test_constant_tile_has_only_dc():
    coeffs = dct2(np.full((8, 8), 128))
    assert coeffs[0, 0] == pytest.approx(1024.0, abs=1e-9)
    ac = coeffs.copy()
    ac[0, 0] = 0.0
    assert np.abs(ac).max() < 1e-9


def test_zero_tile():
    assert np.abs(dct2(np.zeros((8, 8)))).max() == 0.0


def test_dct2_matches_summation_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        tile = rng.integers(0, 256, (8, 8))
        assert np.abs(dct2(tile) - dct2_by_summation(tile)).max() < 1e-9


def test_dc_only_block_reconstructs_constant():
    coeffs = np.zeros((8, 8))
    coeffs[0, 0] = 1024.0
    tile = idct2(coeffs)
    assert np.abs(tile - 128.0).max() < 1e-9


def test_idct2_zero():
    assert np.abs(idct2(np.zeros((8, 8)))).max() == 0.0


def test_round_trip_random_tiles():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        tile = rng.integers(0, 256, (8, 8)).astype(float)
        worst = max(worst, np.abs(idct2(dct2(tile)) - tile).max())
    assert worst < 1e-9


def test_energy_preservation():
    rng = np.random.default_rng(13)
    for _ in range(200):
        tile = rng.integers(0, 256, (8, 8)).astype(float)
        e_in = (tile ** 2).sum()
        e_out = (dct2(tile) ** 2).sum()
        assert abs(e_in - e_out) <= 1e-9 * e_in


def test_linearity():
    rng = np.random.default_rng(14)
    for _ in range(100):
        t1 = rng.integers(0, 256, (8, 8)).astype(float)
        t2 = rng.integers(0, 256, (8, 8)).astype(float)
        a, b = rng.uniform(-3, 3, 2)
        lhs = dct2(a * t1 + b * t2)
        rhs = a * dct2(t1) + b * dct2(t2)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_bad_shapes():
    with pytest.raises(BadShape):
        dct2(np.zeros((4, 8)))
    with pytest.raises(BadShape):
        idct2(np.zeros((8, 9)))


def adversarial_tiles():
    tiles = [np.zeros((8, 8), int), np.full((8, 8), 255)]
    checker = np.indices((8, 8)).sum(0) % 2
    tiles += [checker * 255, (1 - checker) * 255]
    for k in range(1, 8):
        edge = np.zeros((8, 8), int)
        edge[:, :k] = 255
        tiles += [edge, edge.T.copy()]
    for i in range(8):
        for j in range(8):
            spike = np.zeros((8, 8), int)
            spike[i, j] = 255
            tiles.append(spike)
    return tiles


# --- integer lifting DCT -----------------------------------------------------


def extreme_tiles():
    """For each coefficient, the 8-bit tiles that drive it highest and lowest."""
    basis = np.array([[(math.sqrt(1 / 8) if u == 0 else math.sqrt(2 / 8))
                       * math.cos((2 * x + 1) * u * math.pi / 16)
                       for x in range(8)] for u in range(8)])
    tiles = []
    for u in range(8):
        for v in range(8):
            weights = np.outer(basis[u], basis[v])
            tiles += [np.where(weights > 0, 255, 0), np.where(weights < 0, 255, 0)]
    return tiles


def byte_tiles(seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.integers(0, 256, (2000, 8, 8)),
                           rng.choice([0, 255], (2000, 8, 8)),
                           adversarial_tiles(), extreme_tiles()])


def test_int_dct2_inverts_exactly():
    tiles = byte_tiles(18)
    assert np.array_equal(int_idct2(int_dct2(tiles)), tiles)
    rng = np.random.default_rng(19)
    wide = rng.integers(-2 ** 43, 2 ** 43, (500, 8, 8))
    assert np.array_equal(int_idct2(int_dct2(wide)), wide)
    # a bijection on integer tiles: every coefficient tile has one preimage
    coeffs = rng.integers(-5000, 5000, (500, 8, 8))
    assert np.array_equal(int_dct2(int_idct2(coeffs)), coeffs)


def int_dct2_by_matrices(tiles):
    """int_dct2 with each layer's shears as 8x9 integer matrices acting on
    [x; 1], the ninth column adding the rounding half."""
    rotations = (((0, 7, -4), (1, 6, -4), (2, 5, -4), (3, 4, -4)),
                 ((0, 3, -4), (1, 2, -4), (7, 4, -5), (6, 5, -7)),
                 ((0, 1, -4), (3, 2, -2), (7, 5, 4), (6, 4, 4)),
                 ((7, 6, -4),))
    shears = []
    for layer in rotations:
        first = np.zeros((8, 9), np.int64)
        second = np.zeros((8, 9), np.int64)
        for i, j, k in layer:
            t = k * math.pi / 16
            first[i, j] = round((math.cos(t) - 1) / math.sin(t) * (1 << 14))
            second[j, i] = round(math.sin(t) * (1 << 14))
            first[i, 8] = second[j, 8] = 1 << 13
        shears += [first, second, first]
    source = [0, 7, 3, 4, 1, 5, 2, 6]
    sign = np.array((1, -1, -1, 1, -1, -1, 1, -1))[:, None]

    def lift(x):
        x = np.vstack([x, np.ones((1, x.shape[1]), np.int64)])
        for shear in shears:
            x[:8] += (shear @ x) >> 14
        return x[source] * sign

    n = len(tiles)
    c = lift(tiles.transpose(1, 0, 2).reshape(8, -1).astype(np.int64)).reshape(8, n, 8)
    c = lift(c.transpose(2, 1, 0).reshape(8, -1)).reshape(8, n, 8)
    return c.transpose(1, 2, 0)


def test_int_dct2_matches_the_matrix_form():
    rng = np.random.default_rng(22)
    for tiles in (byte_tiles(23), rng.integers(-2 ** 43, 2 ** 43, (300, 8, 8))):
        assert np.array_equal(int_dct2(tiles), int_dct2_by_matrices(tiles))


def test_int_dct2_stays_within_rounding_of_dct2():
    worst = max(np.abs(int_dct2(t) - dct2(t)).max() for t in byte_tiles(20))
    assert worst < 7


def test_int_dct2_zero_tile():
    assert not int_dct2(np.zeros((8, 8), np.int64)).any()


def test_int_dct2_stack_matches_single_tiles():
    rng = np.random.default_rng(21)
    tiles = rng.integers(0, 256, (6, 8, 8), dtype=np.uint8)
    before = tiles.copy()
    stacked = int_dct2(tiles)
    assert stacked.shape == (6, 8, 8) and stacked.dtype == np.int64
    for tile, coeffs in zip(tiles, stacked):
        assert np.array_equal(int_dct2(tile), coeffs)
        assert np.array_equal(int_idct2(coeffs), tile)
    assert np.array_equal(tiles, before)


def test_int_dct2_rejects_bad_input():
    with pytest.raises(BadShape):
        int_dct2(np.zeros((4, 8), int))
    with pytest.raises(BadShape):
        int_idct2(np.zeros((6, 8, 9), int))
    with pytest.raises(TypeError):
        int_dct2(np.zeros((8, 8)))


def test_int_dct2_constant_tiles_are_dc_only():
    """Rounding leaves no AC energy in a flat 8-bit tile. The DC stays
    within 7 of dct2's 8 * value and reaches 7 on the tile of ones."""
    for value in range(256):
        coeffs = int_dct2(np.full((8, 8), value))
        assert not coeffs.ravel()[1:].any()
        assert abs(coeffs[0, 0] - 8 * value) <= 7
    assert int_dct2(np.ones((8, 8), np.int64))[0, 0] == 1


def test_int_idct2_rejects_float_coefficients():
    with pytest.raises(TypeError):
        int_idct2(np.zeros((8, 8)))
    with pytest.raises(BadShape):
        int_idct2(np.zeros((8, 4), int))
