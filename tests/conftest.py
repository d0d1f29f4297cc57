from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from stegoseal import GrayImage


@pytest.fixture
def cover():
    """A deterministic random 256x256 cover image."""
    rng = np.random.default_rng(0xC0FFEE)
    return GrayImage(256, 256, rng.integers(0, 256, 256 * 256, dtype=np.uint8))


# Property tests draw the same inputs on every run of the suite.
FUZZ = settings(max_examples=400, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def make_cover(seed, width=256, height=256):
    rng = np.random.default_rng(seed)
    return GrayImage(width, height, rng.integers(0, 256, width * height, dtype=np.uint8))


def dense_forged_tiles():
    """Six tiles with every coefficient nonzero, DC positive and AC
    magnitudes 1000-1999: their stream decodes in full, and the inverse
    transform gives bytes outside [0, 255]."""
    rng = np.random.default_rng(0)
    tiles = rng.integers(1000, 2000, (6, 8, 8)) * rng.choice([-1, 1], (6, 8, 8))
    tiles[:, 0, 0] = np.abs(tiles[:, 0, 0])
    return tiles


def kraft_sum(table):
    """Sum of 2**-length over the codewords of a HuffmanTable, exactly."""
    return sum((Fraction(1, 2 ** len(c)) for c in table.codes.values()), Fraction(0))
