"""8x8 DCT-II: the integer lifting transform that the sealing pipeline
uses, and the orthonormal float transform it is checked against.

dct2 and idct2 are the orthonormal 2D DCT-II and its inverse in float.
The pipeline does not call them; they are the float reference that the
tests hold int_dct2 to.

int_dct2 and int_idct2 map integer tiles to integer coefficients and
back exactly, with no scale. The 1D 8-point DCT-II matrix is factored
into 13 Givens rotations in four layers, a Loeffler-style flow whose
rotations act on disjoint pairs within a layer:

    1  (0,7) (1,6) (2,5) (3,4)    by -pi/4: the even/odd butterflies
    2  (0,3) (1,2)                by -pi/4: the even half's butterflies
       (7,4) (6,5)                by -5pi/16, -7pi/16: the odd half
    3  (0,1) (3,2)                by -pi/4, -pi/8
       (7,5) (6,4)                by pi/4
    4  (7,6)                      by -pi/4

after which position (0, 7, 3, 4, 1, 5, 2, 6)[u] holds X_u, negated for
u = 1, 2, 4, 5 and 7. Rotating (i, j) by t maps (x_i, x_j) to
(x_i cos t - x_j sin t, x_i sin t + x_j cos t), as three lifting shears
(Daubechies & Sweldens 1998; the binDCT of Liang & Tran 2001):
x_i += r(p x_j), x_j += r(s x_i), x_i += r(p x_j) with
p = (cos t - 1)/sin t and s = sin t, where r rounds the product of an
integer and a multiplier held to 14 fractional bits. Each shear adds to
one entry a function of another, so the inverse subtracts the same
amounts in reverse order, and int_idct2(int_dct2(t)) == t for every
integer tile whose intermediate products fit in int64 (entries below
2**44 in magnitude). The rotations are orthonormal, so there is no gain:
the coefficients differ from dct2's by rounding only. On 8-bit tiles
that is under 5 for 200 000 random ones and up to 7 for some flat ones
(the tile of ones has DC 1 against dct2's 8); tests/test_transform.py
holds its random and adversarial tiles under 7 and all 256 flat tiles
at 7 or less.

Both 2D transforms run the 1D transform down the columns, then along the
rows, as dct2 = C @ tile @ C.T does, on all the columns of a tile stack
at once, shape (8, 8 * tiles). Each layer first gathers the 8 rows into
its own order, in which the first entries of its rotations are rows 0-3
and the second entries rows 4-7, pair by pair (layer 4 uses rows 2 and 3
of layer 3's order). A shear is then a multiply by the per-pair
multipliers, an add of half of 2**14, a shift right by 14 and an add
into the other slice; the inverse subtracts the same increments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadShape

BLOCK = 8


def _basis() -> np.ndarray:
    c = np.empty((BLOCK, BLOCK))
    for u in range(BLOCK):
        alpha = math.sqrt(1.0 / BLOCK) if u == 0 else math.sqrt(2.0 / BLOCK)
        for x in range(BLOCK):
            c[u, x] = alpha * math.cos((2 * x + 1) * u * math.pi / (2 * BLOCK))
    return c


_C = _basis()
_C.flags.writeable = False


def _as_block(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.shape != (BLOCK, BLOCK):
        raise BadShape(f"{name} must be 8x8, got shape {arr.shape}")
    return arr


def dct2(tile) -> np.ndarray:
    """Forward 2D DCT-II of an 8x8 tile (orthonormal, energy preserving)."""
    return _C @ _as_block(tile, "tile") @ _C.T


def idct2(coeffs) -> np.ndarray:
    """Inverse 2D DCT; idct2(dct2(t)) == t up to float rounding."""
    return _C.T @ _as_block(coeffs, "coeffs") @ _C


# (first, second, angle in multiples of pi/16) for each rotation of a layer
_ROTATIONS = (
    ((0, 7, -4), (1, 6, -4), (2, 5, -4), (3, 4, -4)),
    ((0, 3, -4), (1, 2, -4), (7, 4, -5), (6, 5, -7)),
    ((0, 1, -4), (3, 2, -2), (7, 5, 4), (6, 4, 4)),
    ((7, 6, -4),),
)
_BITS = 14

# Per layer (layers 3 and 4 share one), the order it holds the 8 entries
# in, and the (first, second) row slices of its rotations in that order.
_LAYOUTS = (
    ((0, 1, 2, 3, 7, 6, 5, 4), ((slice(0, 4), slice(4, 8)),)),
    ((0, 1, 7, 6, 3, 2, 4, 5), ((slice(0, 4), slice(4, 8)),)),
    ((0, 3, 7, 6, 1, 2, 5, 4), ((slice(0, 4), slice(4, 8)), (slice(2, 3), slice(3, 4)))),
)
_SOURCE = (0, 7, 3, 4, 1, 5, 2, 6)
_SIGN = np.array((1, -1, -1, 1, -1, -1, 1, -1))[:, None]
_HALF = np.int64(1 << (_BITS - 1))


def _layers() -> tuple:
    """Per layout: the gather from the previous order, its inverse, and
    per group (first rows, second rows, p, s) with p and s the shear
    multipliers of its rotations as (k, 1) columns."""
    angle = {(i, j): k for layer in _ROTATIONS for i, j, k in layer}
    out = []
    held = np.arange(BLOCK)
    for order, slices in _LAYOUTS:
        order = np.array(order)
        gather = np.argsort(held)[order]
        groups = []
        for first, second in slices:
            t = [angle[i, j] * math.pi / 16 for i, j in zip(order[first], order[second])]
            p = [round((math.cos(a) - 1) / math.sin(a) * (1 << _BITS)) for a in t]
            s = [round(math.sin(a) * (1 << _BITS)) for a in t]
            groups.append((first, second, np.array(p)[:, None], np.array(s)[:, None]))
        out.append((gather, np.argsort(gather), tuple(groups)))
        held = order
    return tuple(out), np.argsort(held)[list(_SOURCE)]


_LAYERS, _OUT = _layers()
_UNOUT = np.argsort(_OUT)


def _lift(x: np.ndarray) -> np.ndarray:
    """Forward 1D transform of each column of x, shape (8, n)."""
    for gather, _, groups in _LAYERS:
        x = x[gather]
        for first, second, p, s in groups:
            a, b = x[first], x[second]
            a += (b * p + _HALF) >> _BITS
            b += (a * s + _HALF) >> _BITS
            a += (b * p + _HALF) >> _BITS
    return x[_OUT] * _SIGN


def _unlift(y: np.ndarray) -> np.ndarray:
    """Exact inverse of _lift on each column of y, shape (8, n): the same
    increments subtracted in reverse order."""
    x = (y * _SIGN)[_UNOUT]
    for _, ungather, groups in reversed(_LAYERS):
        for first, second, p, s in reversed(groups):
            a, b = x[first], x[second]
            a -= (b * p + _HALF) >> _BITS
            b -= (a * s + _HALF) >> _BITS
            a -= (b * p + _HALF) >> _BITS
        x = x[ungather]
    return x


def _as_tiles(m, name: str) -> np.ndarray:
    arr = np.asarray(m)
    if arr.shape[-2:] != (BLOCK, BLOCK):
        raise BadShape(f"{name} must be 8x8 or a stack of 8x8, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"{name} must hold integers, got {arr.dtype}")
    return arr


def int_dct2(tiles) -> np.ndarray:
    """Integer 2D DCT of an 8x8 tile or a stack of them, shape (..., 8, 8).

    Returns int64 coefficients of the same shape, within rounding of dct2.
    """
    t = _as_tiles(tiles, "tiles")
    n = t.size // (BLOCK * BLOCK)
    x = t.reshape(n, BLOCK, BLOCK).transpose(1, 0, 2).reshape(BLOCK, -1)         # (x, tile, y)
    c = _lift(x.astype(np.int64, copy=False)).reshape(BLOCK, n, BLOCK)           # (u, tile, y)
    c = _lift(c.transpose(2, 1, 0).reshape(BLOCK, -1)).reshape(BLOCK, n, BLOCK)  # (v, tile, u)
    return c.transpose(1, 2, 0).reshape(t.shape)


def int_idct2(coeffs) -> np.ndarray:
    """Exact inverse of int_dct2: int_idct2(int_dct2(t)) == t."""
    c = _as_tiles(coeffs, "coeffs")
    n = c.size // (BLOCK * BLOCK)
    y = c.reshape(n, BLOCK, BLOCK).transpose(2, 0, 1).reshape(BLOCK, -1)           # (v, tile, u)
    x = _unlift(y.astype(np.int64, copy=False)).reshape(BLOCK, n, BLOCK)           # (y, tile, u)
    x = _unlift(x.transpose(2, 1, 0).reshape(BLOCK, -1)).reshape(BLOCK, n, BLOCK)  # (x, tile, y)
    return x.transpose(1, 0, 2).reshape(c.shape)

