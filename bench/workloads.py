"""The benchmark's workloads: the inputs they generate and one operation each.

Every input is drawn from the seed, so the same seed gives the same
inputs, and op i gets the same input in every phase of a run. The program
sees only these inputs. Calls go through module attributes
(pipeline.seal, cli.main) so that the wrappers of layers.py see them.

Why these three (shares of traced self time, seed 5, 10-second runs):

    roundtrip_small  library seal then verify on 256x256 covers. entropy
                     is 77% (build_table 36%, decode_prefix 25%, to_bytes
                     9%), transform 7%, stego 1%, pgm 0%.
    cli_large        the CLI's seal and verify commands on 2048x2048 PGM
                     files. pgm is 37%, cli.main's own time (argparse, file
                     I/O, pixel diff, mode probe) 31%, entropy 18%, stego
                     7%; the cover is larger than L2, where a 256x256 cover
                     fits in it.
    hostile_verify   verify(image) with the default config and no key, as a
                     receiver of an untrusted image runs it: single-bit
                     flips of sealed images, and on 1 op in 3 a forged
                     header that is the decoder's worst case.
                     entropy.decode_prefix is 96%.

Each workload class sets how run.py measures the host's slowdown for it
(see reference.py), and two op counts:

    moves_files  its ops read and write whole image files, so the file
                 kernel joins the Python kernel in the measure
    sensitivity  the exponent the measured slowdown is raised to before
                 an op's times are divided by it: the slope of log op time
                 on log kernel time, fitted over 20-second windows of two
                 4-minute runs on the host the bounds were set on; below 1
                 where other tenants slow the op less than the kernels

    count_ops  the first ops, over which counts (stream bytes, per-layer
               counts) are taken so that they repeat exactly for a seed
    block      ops run as one unit, each block with the same mix of ciphers,
               digests, modes and forged headers: the loop checks its
               deadline between blocks, and a traced run runs each
               untraced, then traced
"""

from __future__ import annotations

import contextlib
import io
import random
import string
from dataclasses import dataclass, replace
from math import gcd
from pathlib import Path
from time import perf_counter

import numpy as np

from stegoseal import cli, entropy, pipeline, stego
from stegoseal.pgm import GrayImage

CHARS = string.ascii_letters + string.digits + " .,!?'\"-:;()"
BLOCK_ELEMENTS = 3 * 128  # the paper's 3 x 128 byte block
SMALL = 256
LARGE = 2048
HEAD = 1 << 16  # pixels read back to measure a stream on cli_large
PAPER_MESSAGE = "I'm so proud to be Egyptian"
PAPER_KEY = 16
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass
class Sample:
    """One op: its times inside the program and what its check found."""

    op_s: float               # the time that counts for ops_per_s
    verify_s: float | None
    seal_s: float | None = None
    stream_bytes: int | None = None
    problem: str | None = None
    slowdown: float = 1.0     # the host's slowdown its times were divided by

    def scaled(self, slowdown: float) -> "Sample":
        """This sample with its times divided by the host's `slowdown`."""
        times = (self.op_s, self.verify_s, self.seal_s)
        op_s, verify_s, seal_s = (None if t is None else t / slowdown for t in times)
        return replace(self, op_s=op_s, verify_s=verify_s, seal_s=seal_s, slowdown=slowdown)


@dataclass(frozen=True)
class Spec:
    """One message to seal, the key and settings, and what verify must return."""

    message: str
    expected: str
    cipher: str
    key: object
    digest: str
    mode: str

    def config(self):
        key = {"caesar_key": self.key} if self.cipher == "caesar" else {"hill_key": self.key}
        return pipeline.SealConfig(cipher=self.cipher, digest_algorithm=self.digest,
                                   embed_mode=self.mode, **key)

    def key_text(self) -> str:
        if self.cipher == "caesar":
            return str(self.key)
        return ",".join(str(v) for v in self.key.ravel())


def op_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def make_spec(rng: random.Random, index: int, mode: str | None = None) -> Spec:
    """Caesar on 3 ops in 4 and Hill on 1 in 4; with the digest changing every
    4 ops and the mode every 8, each cipher meets every digest and mode."""
    message = "".join(rng.choice(CHARS) for _ in range(rng.randint(1, 120)))
    digest = ("sha256", "sha512")[(index // 4) % 2]
    mode = mode or ("overwrite", "lsb1")[(index // 8) % 2]
    if index % 4 != 3:
        return Spec(message, message, "caesar", rng.randrange(26), digest, mode)
    if not any(c in string.ascii_letters for c in message):
        # hill_encrypt raises EmptyInput on a message without letters
        message = message[:-1] + rng.choice(string.ascii_letters)
    expected = "".join(c for c in message.upper() if "A" <= c <= "Z")
    return Spec(message, expected, "hill", hill_key(rng), digest, mode)


def hill_key(rng: random.Random) -> np.ndarray:
    while True:
        key = np.array([rng.randrange(26) for _ in range(9)]).reshape(3, 3)
        if gcd(round(np.linalg.det(key)) % 26, 26) == 1:  # invertible mod 26
            return key


def random_covers(seed: int, count: int, side: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, (count, side, side), dtype=np.uint8)


def stream_length(image, mode: str) -> int:
    """Bytes of the embedded stream, read back with the public functions."""
    data = stego.extract(image, stego.capacity(image, mode), mode)
    return entropy.decode_prefix(data)[2]


def small_cover(seed: int) -> GrayImage:
    return GrayImage(SMALL, SMALL, random_covers(seed, 1, SMALL)[0])


def paper_seal(cover: GrayImage):
    """Seal and verify the paper's example; returns (sealed image, problem or None)."""
    config = pipeline.SealConfig(cipher="caesar", caesar_key=PAPER_KEY,
                                 digest_algorithm="sha512", embed_mode="overwrite")
    sealed = pipeline.seal(PAPER_MESSAGE, config, cover)
    report = pipeline.verify(sealed, config)
    return sealed, verdict_problem(report.verdict, report.recovered_message, PAPER_MESSAGE)


def verdict_problem(verdict, recovered, expected):
    if verdict != "VERIFIED":
        return f"verdict {verdict}, expected VERIFIED"
    if recovered != expected:
        return f"recovered {recovered!r}, expected {expected!r}"
    return None


class RoundtripSmall:
    name = "roundtrip_small"
    count_ops = 192
    block = 32
    moves_files = False
    sensitivity = 1.0
    covers = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.images = [GrayImage(SMALL, SMALL, c) for c in random_covers(seed, self.covers, SMALL)]

    def op(self, index: int) -> Sample:
        spec = make_spec(op_rng(self.seed, index), index)
        config = spec.config()
        start = perf_counter()
        sealed = pipeline.seal(spec.message, config, self.images[index % self.covers])
        sealed_at = perf_counter()
        report = pipeline.verify(sealed, config)
        end = perf_counter()
        return Sample(
            op_s=end - start, verify_s=end - sealed_at, seal_s=sealed_at - start,
            stream_bytes=stream_length(sealed, spec.mode) if index < self.count_ops else None,
            problem=verdict_problem(report.verdict, report.recovered_message, spec.expected))


def pixel_head(path: Path) -> GrayImage:
    """The first HEAD pixels of a 2048x2048 PGM file as a one-row image.

    The stream sits at the start of the pixels and is far shorter than the
    HEAD // 8 bytes the lsb1 mode stores there, so reading only these
    pixels finds it without the harness holding a whole 4 MB image.
    """
    with open(path, "rb") as f:
        f.seek(-LARGE * LARGE, 2)
        return GrayImage(HEAD, 1, f.read(HEAD))


def run_cli(argv):
    """cli.main in-process with stdout and stderr captured; (code, s, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


class CliLarge:
    name = "cli_large"
    count_ops = 48
    block = 16
    moves_files = True
    sensitivity = 0.7
    covers = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.paths = []
        # One 4 MB cover at a time, written without copies, so that the
        # harness stays below the program's own peak memory.
        for i in range(self.covers):
            path = workdir / f"cover{i}.pgm"
            with open(path, "wb") as f:
                f.write(f"P5\n{LARGE} {LARGE}\n255\n".encode())
                random_covers(seed + i, 1, LARGE).tofile(f)
            self.paths.append(str(path))
        self.out = workdir / "sealed.pgm"

    def op(self, index: int) -> Sample:
        spec = make_spec(op_rng(self.seed, index), index)
        # --message=<text>: a message that starts with '-' would read as a flag
        seal = ["seal", "--in", self.paths[index % self.covers], "--out", str(self.out),
                f"--message={spec.message}", "--key", spec.key_text(),
                "--cipher", spec.cipher, "--mode", spec.mode, "--digest", spec.digest]
        seal_code, seal_s, _, seal_err = run_cli(seal)
        code, verify_s, out, err = run_cli(["verify", "--in", str(self.out)])
        sample = Sample(op_s=seal_s + verify_s, verify_s=verify_s, seal_s=seal_s)
        if seal_code != 0 or code != 0:
            sample.problem = f"exit codes {seal_code}/{code}: {(seal_err or err or out).strip()}"
            return sample
        if index < self.count_ops:
            sample.stream_bytes = stream_length(pixel_head(self.out), spec.mode)
        report = dict(line.split("=", 1) for line in out.splitlines())
        if report.get("mode") != spec.mode:
            sample.problem = f"verify detected mode {report.get('mode')}, sealed with {spec.mode}"
        else:
            sample.problem = verdict_problem(report.get("verdict"), report.get("message"),
                                             spec.expected)
        return sample


def forged_image() -> GrayImage:
    """A 9-byte header declaring a 1-entry table {0: "0"} and 2**32 - 1 symbols.

    The cover must stay all zero: then every payload bit decodes as symbol
    0 and the decoder walks the whole 256x256 capacity (524 216 symbols)
    before the bits run out. On a random cover the same header is rejected
    within a few bits, so a random cover would remove the worst case.
    """
    zero = GrayImage(SMALL, SMALL, np.zeros(SMALL * SMALL, dtype=np.uint8))
    return stego.embed(zero, bytes.fromhex("48 0001 00 01 FFFFFFFF"), "overwrite")


class HostileVerify:
    """The last 16 ops of every block of 48 verify the forged header. The
    others seal a message in overwrite mode and flip one bit of the result,
    uniform over stream byte x bit as in test_02 of tests/test_acceptance.py.
    Only verify counts as the op; the seal metrics of this workload time
    the seals that make its inputs. The forged ops are grouped because a forged verify leaves
    the caches cold and slows the next seal by ~30%; grouped, that hits 1
    seal in 32 instead of 1 in 2, well clear of the seals' p90.

    Flip positions follow a Weyl sequence rather than independent draws,
    so every run flips the header and the payload in the same proportion.
    About 59% of flips hit the table header and fail in under 0.5 ms; the
    rest decode for 1-5 ms. At 1 forged op in 5 the median verify would sit
    on the edge between those two groups and jump between runs; at 1 in 3
    it sits inside the slower group, and p90 inside the forged group.
    """

    name = "hostile_verify"
    count_ops = 96
    block = 48
    moves_files = False
    sensitivity = 1.0
    forged_ops = 16  # per block
    covers = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.images = [GrayImage(SMALL, SMALL, c) for c in random_covers(seed, self.covers, SMALL)]
        self.forged = forged_image()
        self.offset = random.Random(seed).random()

    def op(self, index: int) -> Sample:
        if index % self.block >= self.block - self.forged_ops:
            start = perf_counter()
            report = pipeline.verify(self.forged)
            elapsed = perf_counter() - start
            problem = None if report.verdict == "UNDECODABLE" else f"forged header {report.verdict}"
            return Sample(op_s=elapsed, verify_s=elapsed, problem=problem)
        spec = make_spec(op_rng(self.seed, index), index, mode="overwrite")
        start = perf_counter()
        sealed = pipeline.seal(spec.message, spec.config(), self.images[index % self.covers])
        seal_s = perf_counter() - start
        length = stream_length(sealed, "overwrite")
        pos = int((self.offset + index * GOLDEN) % 1.0 * 8 * length)
        flat = sealed.pixels.ravel().copy()
        flat[pos // 8] ^= 1 << (pos % 8)
        image = GrayImage(SMALL, SMALL, flat)
        start = perf_counter()
        report = pipeline.verify(image)
        elapsed = perf_counter() - start
        problem = f"bit flip {pos} VERIFIED" if report.verdict == "VERIFIED" else None
        return Sample(op_s=elapsed, verify_s=elapsed, seal_s=seal_s, stream_bytes=length,
                      problem=problem)


WORKLOADS = {w.name: w for w in (RoundtripSmall, CliLarge, HostileVerify)}
