import math
import os

import numpy as np
import pytest

from stegoseal.entropy import encode_blocks
from stegoseal.errors import BlockError
from stegoseal.transform import _forward, _with_ones, dct2, idct2, int_dct2, int_idct2


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
    with pytest.raises(BlockError, match=r"tile must be 8x8, got shape \(4, 8\)"):
        dct2(np.zeros((4, 8)))
    with pytest.raises(BlockError, match=r"coeffs must be 8x8, got shape \(8, 9\)"):
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
    wide = rng.integers(-2 ** 31, 2 ** 31, (500, 8, 8))
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
    for tiles in (byte_tiles(23), rng.integers(1 - 2 ** 35, 2 ** 35, (300, 8, 8))):
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


def test_seals_checked_forward_core_returns_int_dct2_bit_for_bit():
    """The forward core with the check, as seal runs it, passes its own
    check and, gathered back the way int_dct2 gathers it, gives int_dct2's
    array, same dtype and shape, on a stack, the extreme tiles, one tile
    and no tiles."""
    rng = np.random.default_rng(24)
    for tiles in (byte_tiles(25), np.array(extreme_tiles()),
                  rng.integers(0, 256, (8, 8), dtype=np.uint8), np.zeros((0, 8, 8), np.uint8)):
        n = tiles.size // 64
        x = tiles.reshape(n, 8, 8).transpose(1, 0, 2).reshape(8, -1)
        c = _forward(_with_ones(x), True)[:8].reshape(8, n, 8)
        checked = c.transpose(1, 2, 0).astype(np.int64, order="C").reshape(tiles.shape)
        expected = int_dct2(tiles)
        assert checked.shape == expected.shape == tiles.shape
        assert checked.dtype == expected.dtype == np.int64
        assert np.array_equal(checked, expected)


def test_int_dct2_rejects_bad_input():
    with pytest.raises(BlockError, match=r"tiles must be 8x8 or a stack of 8x8, "
                                         r"got shape \(4, 8\)"):
        int_dct2(np.zeros((4, 8), int))
    with pytest.raises(BlockError, match=r"coeffs must be 8x8 or a stack of 8x8, "
                                         r"got shape \(6, 8, 9\)"):
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
    with pytest.raises(BlockError, match=r"coeffs must be 8x8 or a stack of 8x8, "
                                         r"got shape \(8, 4\)"):
        int_idct2(np.zeros((8, 4), int))


@pytest.mark.parametrize("function", [int_dct2, int_idct2, encode_blocks])
def test_timedelta_tiles_are_not_integers(function):
    """numpy counts timedelta64 as an integer type; the coefficient entry
    points take signed and unsigned integers only."""
    with pytest.raises(TypeError, match=r"integers, got timedelta64\[s\]"):
        function(np.zeros((1, 8, 8), "m8[s]"))


# --- reference forms and the 2**35 domain -------------------------------------


ROTATIONS = (((0, 7, -4), (1, 6, -4), (2, 5, -4), (3, 4, -4)),
             ((0, 3, -4), (1, 2, -4), (7, 4, -5), (6, 5, -7)),
             ((0, 1, -4), (3, 2, -2), (7, 5, 4), (6, 4, 4)),
             ((7, 6, -4),))


def reference_shears():
    """The 12 shear steps of int_dct2_by_matrices as 8x9 increment matrices."""
    shears = []
    for layer in ROTATIONS:
        first = np.zeros((8, 9), np.int64)
        second = np.zeros((8, 9), np.int64)
        for i, j, k in layer:
            t = k * math.pi / 16
            first[i, j] = round((math.cos(t) - 1) / math.sin(t) * (1 << 14))
            second[j, i] = round(math.sin(t) * (1 << 14))
            first[i, 8] = second[j, 8] = 1 << 13
        shears += [first, second, first]
    return shears


def int_idct2_by_matrices(coeffs):
    """The inverse of int_dct2_by_matrices: undo the output order and signs,
    then subtract the same increments in reverse order."""
    shears = reference_shears()
    source = [0, 7, 3, 4, 1, 5, 2, 6]
    sign = np.array((1, -1, -1, 1, -1, -1, 1, -1))[:, None]

    def unlift(y):
        x = np.ones((9, y.shape[1]), np.int64)
        x[source] = y * sign
        for shear in reversed(shears):
            x[:8] -= (shear @ x) >> 14
        return x[:8]

    n = len(coeffs)
    x = unlift(coeffs.transpose(2, 0, 1).reshape(8, -1).astype(np.int64)).reshape(8, n, 8)
    x = unlift(x.transpose(2, 1, 0).reshape(8, -1)).reshape(8, n, 8)
    return x.transpose(1, 0, 2)


# Each reference test runs once per direction: (transform, its reference
# form, its inverse).
DIRECTIONS = pytest.mark.parametrize(
    "direction", [(int_dct2, int_dct2_by_matrices, int_idct2),
                  (int_idct2, int_idct2_by_matrices, int_dct2)],
    ids=["int_dct2", "int_idct2"])


def assert_matches_references(tiles, direction):
    """The transform equals its reference form on tiles, and its inverse
    maps the result back."""
    transform, reference, inverse = direction
    tiles = np.asarray(tiles)
    out = transform(tiles)
    assert out.dtype == np.int64 and out.shape == tiles.shape
    assert np.array_equal(out, reference(tiles))
    assert np.array_equal(inverse(out), tiles)


def test_reference_inverse_inverts_the_reference():
    tiles = byte_tiles(24)
    assert np.array_equal(int_idct2_by_matrices(int_dct2_by_matrices(tiles)), tiles)


@DIRECTIONS
def test_matches_references_on_byte_tiles(direction):
    assert_matches_references(byte_tiles(25), direction)


@DIRECTIONS
def test_matches_references_on_coefficient_tiles(direction):
    rng = np.random.default_rng(26)
    tiles = rng.integers(-2 ** 15, 2 ** 15 + 1, (20000, 8, 8))
    assert_matches_references(tiles, direction)


@DIRECTIONS
def test_matches_references_below_2_31(direction):
    """Entries of magnitude 2**31 - 1: their coefficients and inverses stay
    below 2**34, so both round trips stay in the domain."""
    rng = np.random.default_rng(27)
    big = 2 ** 31 - 1
    tiles = np.concatenate([rng.choice([-big, big], (500, 8, 8)),
                            rng.integers(-big, big + 1, (500, 8, 8)),
                            np.full((2, 8, 8), big) * np.array([1, -1])[:, None, None],
                            np.array(extreme_tiles()) // 255 * big])
    assert_matches_references(tiles, direction)


@DIRECTIONS
def test_matches_references_at_2_31(direction):
    """A single entry of magnitude 2**31 among small ones."""
    rng = np.random.default_rng(28)
    for value in (2 ** 31, -2 ** 31):
        tiles = rng.integers(-2 ** 20, 2 ** 20, (200, 8, 8))
        tiles[rng.integers(200), rng.integers(8), rng.integers(8)] = value
        assert_matches_references(tiles, direction)


@DIRECTIONS
def test_matches_references_on_impulses(direction):
    """One nonzero entry at each of the 64 positions, over values whose
    products with the multipliers land exactly on a rounding half."""
    values = np.concatenate([np.arange(-32, 33),
                             np.outer([1, -1, 3, -3, 5, -5], 2 ** np.arange(8, 16)).ravel()])
    tiles = np.zeros((len(values), 64, 64), np.int64)
    tiles[:, range(64), range(64)] = values[:, None]
    assert_matches_references(tiles.reshape(-1, 8, 8), direction)


@DIRECTIONS
def test_empty_stack(direction):
    transform = direction[0]
    for dtype in (np.uint8, np.int64):
        out = transform(np.zeros((0, 8, 8), dtype))
        assert out.shape == (0, 8, 8) and out.dtype == np.int64


@DIRECTIONS
def test_takes_entries_below_2_35_only(direction):
    """Entries of magnitude 2**35 - 1, on the tiles that maximise each
    intermediate and on random tiles, still match the reference; from 2**35
    on, where float64 would no longer be exact, the transform raises."""
    transform, reference, _ = direction
    extreme = np.array(extreme_tiles()) // 255 * (2 ** 35 - 1)
    rng = np.random.default_rng(30)
    for tiles in (np.concatenate([extreme, -extreme]),
                  rng.integers(1 - 2 ** 35, 2 ** 35, (300, 8, 8))):
        assert np.array_equal(transform(tiles), reference(tiles))
    for value in (2 ** 35, -2 ** 35):
        tiles = rng.integers(-2 ** 20, 2 ** 20, (200, 8, 8))
        tiles[rng.integers(200), rng.integers(8), rng.integers(8)] = value
        with pytest.raises(BlockError, match=r"entries must be below 2\*\*35 in magnitude"):
            transform(tiles)


def test_range_check_follows_magnitude_only():
    """Both transforms take any integer dtype whose entries are below 2**35
    in magnitude, and reject an entry of 2**35 whatever its dtype. At
    2**31 - 1 a flat tile's DC stays within the 14-bit multipliers'
    precision of dct2's."""
    for dtype in (np.uint8, np.int8, np.uint16, np.int16, np.int32, np.int64, np.uint64):
        for fn in (int_dct2, int_idct2):
            assert not fn(np.zeros((8, 8), dtype)).any()
    for flat in (np.full((8, 8), 2 ** 31 - 1), np.full((8, 8), 1 - 2 ** 31)):
        assert int_dct2(flat)[0, 0] == pytest.approx(dct2(flat)[0, 0], rel=1e-4)
    low = np.full((1, 8, 8), -2 ** 31, np.int32)
    assert np.array_equal(int_dct2(low), int_dct2_by_matrices(low))
    assert np.array_equal(int_idct2(low), int_idct2_by_matrices(low))
    for fn in (int_dct2, int_idct2):
        with pytest.raises(BlockError, match=r"entries must be below 2\*\*35 in magnitude"):
            fn(np.full((8, 8), 2 ** 35, np.uint64))


def test_decoded_coefficients_fit_the_domain():
    """The largest coefficients decode_blocks can return, a DC of
    2047 * 65535 (DC differences of 2047 over 65535 tiles) and ACs of 2047,
    pass through int_idct2, and int_dct2 maps them back exactly. Each tile
    carries the signs of one pixel's basis function, so it drives that
    pixel to its extreme."""
    basis = np.array([[(math.sqrt(1 / 8) if u == 0 else math.sqrt(2 / 8))
                       * math.cos((2 * x + 1) * u * math.pi / 16)
                       for x in range(8)] for u in range(8)])
    signs = np.sign(np.einsum("ux,vy->xyuv", basis, basis)).reshape(64, 8, 8).astype(np.int64)
    coeffs = np.concatenate([signs, -signs]) * 2047
    coeffs[:, 0, 0] *= 65535
    tiles = int_idct2(coeffs)
    assert np.abs(tiles).max() < 2 ** 31
    assert np.array_equal(int_dct2(tiles), coeffs)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_round_trips_start_no_threads():
    """numpy's BLAS starts its threads on import; the transform adds none."""
    before = len(os.listdir("/proc/self/task"))
    tiles = np.random.default_rng(29).integers(0, 256, (6, 8, 8), dtype=np.uint8)
    for _ in range(1000):
        assert np.array_equal(int_idct2(int_dct2(tiles)), tiles)
    assert len(os.listdir("/proc/self/task")) == before
