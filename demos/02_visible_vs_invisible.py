"""Compare the two embedding modes on the same message and cover.

overwrite stamps the stream bytes straight into the top-left corner, so
the region is plainly visible; lsb1 spreads single bits across pixel LSBs
and is imperceptible. Both verify identically.
"""

from pathlib import Path

import numpy as np

from stegoseal import GrayImage, SealConfig, seal, verify, write_pgm
from stegoseal import stego
from stegoseal.entropy import BLOCK_MAGIC

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

rng = np.random.default_rng(99)
flat = np.clip(rng.normal(120, 30, 256 * 256), 0, 255).astype(np.uint8)
cover = GrayImage(256, 256, flat)

message = "The upper left corner gives the visible mode away."

for mode in ("overwrite", "lsb1"):
    config = SealConfig(caesar_key=7, embed_mode=mode)
    sealed = seal(message, config, cover)
    (OUT / f"sealed_{mode}.pgm").write_bytes(write_pgm(sealed))

    delta = sealed.pixels.astype(int) - cover.pixels.astype(int)
    report = verify(sealed, config)
    consumed = report.stream.consumed
    pixels_used = stego.pixels_for(consumed, mode)

    print(f"mode {mode}:")
    print(f"  stream size          {consumed} bytes -> {pixels_used} pixels")
    print(f"  pixels changed       {int(np.count_nonzero(delta))}")
    print(f"  max pixel deviation  {int(np.abs(delta).max())}")
    print(f"  mean abs deviation   {np.abs(delta).mean():.4f}")
    print(f"  verdict              {report.verdict}")
    print()

sealed = seal(message, SealConfig(caesar_key=7), cover)
print("first 12 pixels of the overwrite image (the stream's magic + header):")
print(" ", sealed.pixels.ravel()[:12].tolist())
print(f"the first byte is {BLOCK_MAGIC:#04x}, the stream magic; "
      "a viewer shows the corner as noise")
