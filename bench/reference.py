"""Fixed reference kernels that measure how fast the host runs right now.

The benchmark shares its cores with other tenants. When they are busy the
same op runs up to 2x slower, in stretches of seconds to minutes, and the
process's CPU time grows as much as its wall time, so neither clock
removes the slowdown. The kernels below do the kinds of work stegoseal
does but call none of it, so a change to the program cannot change their
time: python_kernel builds a Huffman code and packs bits in pure Python
over a fixed symbol list and multiplies 8x8 matrices; file_kernel writes,
reads back and rewrites 4 MB, the size of a 2048x2048 cover. run.py runs
Reference.slowdown before every op and divides the op's times by it,
raised to the workload's sensitivity (see workloads.py), so that they
read as the op's time on a host running as fast as when idle.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# The kernels' times on an idle core of the host the bounds were set on
# (Intel Xeon, 2 vCPUs, Python 3.11). Any constants give the same ratios
# between two commits; these make the scaled times read as idle-host ms.
PYTHON_IDLE_S = 0.00073
FILE_IDLE_S = 0.0042

_rng = random.Random(0)
_SYMBOLS = [int(_rng.expovariate(0.3)) for _ in range(3000)]
_MATRIX = np.random.default_rng(0).random((8, 8))


def python_kernel() -> int:
    freq = Counter(_SYMBOLS)
    heap = [(n, i, (s,)) for i, (s, n) in enumerate(freq.items())]
    heapq.heapify(heap)
    codes = dict.fromkeys(freq, "")
    serial = len(heap)
    while len(heap) > 1:
        a, b = heapq.heappop(heap), heapq.heappop(heap)
        for s in a[2]:
            codes[s] = "0" + codes[s]
        for s in b[2]:
            codes[s] = "1" + codes[s]
        heapq.heappush(heap, (a[0] + b[0], serial, a[2] + b[2]))
        serial += 1
    bits = "".join(codes[s] for s in _SYMBOLS)
    packed = bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits) - 7, 8))
    for _ in range(20):
        _MATRIX @ _MATRIX.T
    return len(packed)


def file_kernel(path: Path, block: np.ndarray) -> int:
    block.tofile(path)
    data = np.fromfile(path, dtype=np.uint8)
    data ^= 1
    return int(data[::4096].sum())


class Reference:
    """The host's slowdown from the Python kernel, and from the file kernel
    too when `workdir` is given, for ops that move whole 4 MB images."""

    def __init__(self, workdir: Path | None = None):
        self.path = workdir / "reference.bin" if workdir is not None else None
        if self.path is not None:
            self.block = np.random.default_rng(0).integers(0, 256, 4 << 20, dtype=np.uint8)

    def slowdown(self) -> float:
        """How many times slower than idle the host runs now."""
        start = perf_counter()
        python_kernel()
        idle = PYTHON_IDLE_S
        if self.path is not None:
            file_kernel(self.path, self.block)
            idle += FILE_IDLE_S
        return (perf_counter() - start) / idle
