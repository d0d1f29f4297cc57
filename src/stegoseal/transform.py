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
integer tile whose entries and coefficients are below 2**35 in magnitude,
as for every tile with entries below 2**31 (see below). The rotations
are orthonormal, so there is no gain. On 8-bit tiles the coefficients differ
from dct2's by rounding: under 5 for 200 000 random tiles and up to 7
for some flat ones (the tile of ones has DC 1 against dct2's 8);
tests/test_transform.py holds its random and adversarial tiles under 7
and all 256 flat tiles at 7 or less. Beyond 8-bit tiles the gap grows
with the entries, because the multipliers are held to 14 bits: the flat
tile of 2**31 - 1 has DC 17 178 993 790 against dct2's 17 179 869 176, a
relative gap of -5.1e-5.

Both 2D transforms run the 1D transform down the columns, then along the
rows, as dct2 = C @ tile @ C.T does, on all the columns of a tile stack
at once, in one layout: a float (9, 8 * tiles) array [x; 1], whose last
row is ones. Each shear step is one 9x9 integer matrix M on [x; 1] that
shears all the disjoint pairs of its layer at once, and the step is
[x; 1] <- floor(M @ [x; 1] / 2**14); M's last row keeps the ones. M
holds 2**14 times the identity, the multiplier p or s in each sheared
row, and the rounding offset in that row's ninth column: 2**13 forward,
and 2**13 - 1 in the inverse, which negates the multipliers and runs the
steps in reverse order. Since -floor((a + 2**13) / 2**14) ==
floor((-a + 2**13 - 1) / 2**14) for every integer a, floor serves both
directions. A 1D pass, _pass, is 12 such products, and its output has
its input's form, so the other pass reads it through one gather, _swap,
that carries the row of ones along. The last forward step also puts X_u
in place: its row u is the last shear's row _SOURCE[u], negated where
_SIGN is -1, and by the same identity a negated sheared row takes the
offset 2**13 - 1 (a negated row the step does not shear keeps offset 0,
as -floor(x) == floor(-x) for an integer x). So a forward pass gives
[X; 1]. The first inverse step reads [X; 1]: its columns are moved and
negated the same way.

The forward core, _forward, checks its result in one batched inverse
pass when asked, as seal asks. The column pass takes the tiles X to A
and the row pass takes A, laid out by rows as R, to C. One inverse pass
on the columns of C and A side by side must give R and X, or it raises
ValueError. int_idct2 runs that pass on C, then on A, column by column,
so when both halves match it returns the tiles: 36 shear steps, against
48 for both.

The two cores work on that layout only. _forward takes the tiles laid
out (x, tile, y) and returns the coefficients laid out (v, tile, u);
_inverse takes the coefficients laid out (v, tile, u) and returns the
tiles laid out (x, tile, y). int_dct2 and int_idct2 check their input,
gather it into that layout with a row of ones, and gather the result
back into int64 tiles. Seal and verify gather their own data straight
into and out of it (see pipeline's gather tables).

The products run in float64 through BLAS, on the matrices divided by
2**14, as the ndarray's dot method, which skips np.dot's
__array_function__ dispatch and calls the same BLAS routine; dot and
floor take their output array positionally, which they parse faster than
a keyword. Their entries are multiples of 2**-14, so every product,
partial sum and pre-floor value is one too. The largest pre-floor
magnitude is 7.9999 times the largest entry in int_dct2 and 7.07 times
in int_idct2, measured on the tiles that maximise each intermediate; for
entries below 2**35 that is below 2**38, so a partial sum of a shear
row, at most two such values and the rounding offset, stays below 2**39,
and a multiple of 2**-14 below 2**39 fits in float64's 53 bits. So every
operation is exact, in any summation order and with or without fused
multiply-add, and floor gives the integer result. Both transforms raise
BlockError on an entry of magnitude 2**35 or more. A tile with entries
below 2**31 has coefficients below 8 * 2**31 = 2**34, so int_idct2 takes
int_dct2's output back on all of them. The pipeline stays far inside
that: seal passes byte tiles, and pipeline._recover_block bounds what
verify passes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import BlockError

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
        raise BlockError(f"{name} must be 8x8, got shape {arr.shape}")
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
_SOURCE = (0, 7, 3, 4, 1, 5, 2, 6)
_SIGN = (1, -1, -1, 1, -1, -1, 1, -1)
# Entries must be below this in magnitude (see above).
_LIMIT = 1 << 35


def _shears(sign: int, half: int) -> list:
    """The 12 shear steps, three per layer, as 9x9 integer matrices on
    [x; 1]: 2**14 times the identity, plus sign times the multiplier and
    half in the ninth column in each row a step shears."""
    steps = []
    for layer in _ROTATIONS:
        first = np.diag(np.full(BLOCK + 1, 1 << _BITS, np.int64))
        second = first.copy()
        for i, j, k in layer:
            t = k * math.pi / 16
            first[i, j] = sign * round((math.cos(t) - 1) / math.sin(t) * (1 << _BITS))
            second[j, i] = sign * round(math.sin(t) * (1 << _BITS))
            first[i, BLOCK] = second[j, BLOCK] = half
        steps += [first, second, first]
    return steps


def _steps() -> tuple:
    """(forward, inverse): each 12 shear steps divided by 2**14. The last
    forward step writes [X; 1] and the first inverse step reads it: after
    the last shear X_u is held at _SOURCE[u], negated where _SIGN is -1."""
    half = 1 << (_BITS - 1)
    forward, inverse = _shears(1, half), _shears(-1, half - 1)[::-1]
    order, sign = list(_SOURCE) + [BLOCK], np.array(_SIGN + (1,))
    last = forward[-1][order] * sign[:, None]
    last[last[:, BLOCK] < 0, BLOCK] = half - 1    # see the module docstring
    forward[-1], inverse[0] = last, inverse[0][:, order] * sign
    return tuple(tuple(m / (1 << _BITS) for m in steps) for steps in (forward, inverse))


_FORWARD, _INVERSE = _steps()


def _pass(x: np.ndarray, steps) -> np.ndarray:
    """The shear steps on each column of x, a (9, n) array whose last row is
    ones: each a matrix product rounded down, in two new buffers. The
    result has the same form."""
    y, z = np.empty(x.shape), np.empty(x.shape)
    for m in steps:
        x = np.floor(m.dot(x, y), z)
    return x


@functools.lru_cache(maxsize=8)
def _swap(n: int) -> np.ndarray:
    """Where one pass's input reads each entry of the other pass's output,
    both (9, n): rows 0-7 laid out (a, tile, b) become (b, tile, a), and
    row 8 reads a 1 from row 8."""
    swap = np.full((BLOCK + 1, n), BLOCK * n)
    rows = np.arange(BLOCK * n).reshape(BLOCK, -1, BLOCK)
    swap[:BLOCK] = rows.transpose(2, 1, 0).reshape(BLOCK, n)
    swap.flags.writeable = False
    return swap


def _with_ones(rows) -> np.ndarray:
    """An (8, n) array as the float (9, n) array [rows; 1] that _pass takes."""
    return np.concatenate((rows, np.ones((1, rows.shape[1]))))


def _as_tiles(m, name: str) -> np.ndarray:
    arr = np.asarray(m)
    if arr.shape[-2:] != (BLOCK, BLOCK):
        raise BlockError(f"{name} must be 8x8 or a stack of 8x8, got shape {arr.shape}")
    if arr.dtype.kind not in "iu":
        raise TypeError(f"{name} must hold integers, got {arr.dtype}")
    if not (arr.itemsize <= 4 or not arr.size or -_LIMIT < arr.min() and arr.max() < _LIMIT):
        raise BlockError(f"{name} entries must be below 2**35 in magnitude")
    return arr


def _forward(x: np.ndarray, check: bool) -> np.ndarray:
    """Both forward passes on tiles held as a float (9, 8 * tiles) array
    laid out (x, tile, y) over a row of ones: the coefficients in the same
    form, laid out (v, tile, u). With check, ValueError unless the batched
    inverse pass takes them back (see the module docstring)."""
    a = _pass(x, _FORWARD)                 # (u, tile, y)
    r = a.take(_swap(x.shape[1]))          # (y, tile, u)
    c = _pass(r, _FORWARD)                 # (v, tile, u)
    if check and not (_pass(np.concatenate((c, a), axis=1), _INVERSE)
                      == np.concatenate((r, x), axis=1)).all():
        raise ValueError("the inverse transform does not reconstruct the payload")
    return c


def int_dct2(tiles) -> np.ndarray:
    """Integer 2D DCT of an 8x8 tile or a stack of them, shape (..., 8, 8):
    int64 coefficients of the same shape, within rounding of dct2."""
    t = _as_tiles(tiles, "tiles")
    n = t.size // (BLOCK * BLOCK)
    x = t.reshape(n, BLOCK, BLOCK).transpose(1, 0, 2).reshape(BLOCK, -1)    # (x, tile, y)
    c = _forward(_with_ones(x), False)[:BLOCK].reshape(BLOCK, n, BLOCK)      # (v, tile, u)
    return c.transpose(1, 2, 0).astype(np.int64, order="C").reshape(t.shape)


def _inverse(y: np.ndarray) -> np.ndarray:
    """Both inverse passes on coefficient tiles held as a float (9, 8 * tiles)
    array laid out (v, tile, u) over a row of ones: the tiles in the same
    form, laid out (x, tile, y). Entries must be integers below 2**35 in
    magnitude."""
    return _pass(_pass(y, _INVERSE).take(_swap(y.shape[1])), _INVERSE)


def int_idct2(coeffs) -> np.ndarray:
    """Exact inverse of int_dct2: int_idct2(int_dct2(t)) == t whenever
    int_dct2(t) is below 2**35 in magnitude, as for any t below 2**31."""
    c = _as_tiles(coeffs, "coeffs")
    n = c.size // (BLOCK * BLOCK)
    y = c.reshape(n, BLOCK, BLOCK).transpose(2, 0, 1).reshape(BLOCK, -1)    # (v, tile, u)
    x = _inverse(_with_ones(y))[:BLOCK].reshape(BLOCK, n, BLOCK)             # (x, tile, y)
    return x.transpose(1, 0, 2).astype(np.int64, order="C").reshape(c.shape)
