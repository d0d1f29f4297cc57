"""Command-line front end: seal, verify, tamper and inspect PGM images.

All stdout output is line-oriented key=value text. Exit codes form a
stable contract:

    0   success (for verify: verdict VERIFIED)
    1   verify: verdict TAMPERED
    2   verify/inspect: verdict UNDECODABLE / no embedded stream found
    64  usage error (unknown or missing flags, or a --key that
        pipeline.parse_key_text rejects or --cipher does not match)
    65  malformed input data (bad PGM, message too long, singular Hill key, ...)
    66  file cannot be read or written, or standard output was closed
        before the report was written (seal's --out is whole then)

What each command reads: a stream starts at the first pixel in raster
order and takes at most pipeline.STREAM_BOUND bytes, which lsb1 mode
spreads over 8 pixels each (11 856 pixels in all). verify and inspect
read the PGM header and only the first min(width * height, 11 856)
pixels, the head; the pixel byte count is checked against the file size,
so a truncated or over-long file is rejected without reading its pixels.
seal seals the same head, reads the remaining pixels as one buffer, and
writes the canonical header, the sealed head and that buffer. tamper reads
and writes whole files.

How seal and tamper write --out: both read all of --in first, so --in may
name the same file as --out. The output goes to a new file in the
directory --out resolves to, so a symlinked --out stays a link and its
target is replaced. Once that file is whole, the old --out is renamed
aside, the new file is renamed into place and the old one is unlinked; a
failed write or rename removes the new file and leaves --out as it was.
--out is never truncated and rewritten, so it never holds a mix of old and
new pixels. The replaced --out keeps its permission bits; a new one gets
0o666 less the umask. An --out the user may not write is left alone, as
before; writing also needs write permission on the directory, and the new
file belongs to the user who runs the command. Between the two renames
--out does not exist: a crash there leaves the whole new output and the
whole old one in two hidden files next to it (.stegoseal-*.tmp and
.stegoseal-*.old). Hard links to the old --out keep the old content.
Nothing is synced to disk, as before. An --out that exists and is not a
regular file (a FIFO, a device) holds no old pixels to tear and is
written in place, and a directory exits 66.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import stat
import sys
from pathlib import Path

import numpy as np

from . import pipeline, stego
from .entropy import BLOCK_HEADER_BYTES, BLOCK_TABLE
from .errors import MalformedBlock, StegosealError
from .pgm import GrayImage, header, read_pgm, read_pgm_head, write_pgm

EX_OK = 0
EX_TAMPERED = 1
EX_UNDECODABLE = 2
EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66

_VERDICT_CODES = {
    pipeline.VERIFIED: EX_OK,
    pipeline.TAMPERED: EX_TAMPERED,
    pipeline.UNDECODABLE: EX_UNDECODABLE,
}

# Seal and verify touch no pixel past the stream's bound, and lsb1 spends
# 8 pixels a byte, the most of either mode. embed and extract work in
# raster order from pixel 0, so these first pixels, taken as a one-row
# image, seal and verify exactly as the whole image does.
_HEAD_PIXELS = 8 * pipeline.STREAM_BOUND


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stegoseal",
                     description="Seal, verify and inspect messages in PGM images.")
    sub = parser.add_subparsers(dest="command", required=True)

    seal = sub.add_parser("seal", help="embed a sealed message into a cover image")
    seal.add_argument("--in", dest="input", required=True, metavar="COVER.pgm")
    seal.add_argument("--out", dest="output", required=True, metavar="STEGO.pgm")
    seal.add_argument("--message", required=True)
    seal.add_argument("--key", required=True,
                      help="caesar: shift 0-25; hill: 9 comma-separated entries")
    seal.add_argument("--cipher", choices=pipeline.CIPHERS, default=pipeline.CAESAR)
    seal.add_argument("--mode", choices=stego.MODES, default=stego.OVERWRITE)
    seal.add_argument("--digest", choices=("sha256", "sha512"), default="sha512")

    verify = sub.add_parser("verify", help="check a sealed image and print the report")
    verify.add_argument("--in", dest="input", required=True, metavar="STEGO.pgm")
    verify.add_argument("--key", default=None,
                        help="optional expected key, cross-checked against the image")

    tamper = sub.add_parser("tamper", help="flip a single pixel bit")
    tamper.add_argument("--in", dest="input", required=True, metavar="IN.pgm")
    tamper.add_argument("--out", dest="output", required=True, metavar="OUT.pgm")
    tamper.add_argument("--pixel", type=int, required=True)
    tamper.add_argument("--bit", type=int, required=True)

    inspect = sub.add_parser("inspect", help="report embedded stream statistics")
    inspect.add_argument("--in", dest="input", required=True, metavar="STEGO.pgm")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building one costs far more than parsing with
    it, mostly in the help formatter's terminal-size queries."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        if args.command == "seal":
            return _cmd_seal(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "tamper":
            return _cmd_tamper(args)
        return _cmd_inspect(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except _FileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except (StegosealError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_DATAERR


class _FileError(Exception):
    pass


@contextlib.contextmanager
def _file_errors(action: str, path: str):
    try:
        yield
    except OSError as exc:
        raise _FileError(f"cannot {action} {path}: {exc.strerror or exc}") from None


def _read_image(path: str) -> GrayImage:
    with _file_errors("read", path):
        data = Path(path).read_bytes()
    return read_pgm(data)


def _read_head(path: str) -> GrayImage:
    """The first pixels of a PGM file as a one-row image (see _HEAD_PIXELS)."""
    with _file_errors("read", path), open(path, "rb") as f:
        _, _, pixels = read_pgm_head(f, _HEAD_PIXELS)
    return GrayImage(len(pixels), 1, pixels)


def _replace_file(path: str, chunks) -> None:
    """Write the chunks as the whole new content of path (see the module
    docstring): into a new file, renamed into place once it is whole.

    A rename over an existing file makes ext4 flush the new file first,
    and so does closing a file opened with truncation: each cost 6-7 ms on
    a 4 MB output on a 2-core ext4 VM, against about 2.5 ms with the old
    file renamed aside first.
    """
    with _file_errors("write", path):
        real = os.path.realpath(path)
        try:
            old = os.stat(real)
        except FileNotFoundError:
            old = None
        if old is not None and not stat.S_ISREG(old.st_mode):
            with open(path, "wb") as f:  # a directory raises IsADirectoryError
                for chunk in chunks:
                    f.write(chunk)
            return
        if old is not None and not os.access(real, os.W_OK):  # as truncating it would fail
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        base = os.path.join(os.path.dirname(real), f".stegoseal-{os.urandom(8).hex()}")
        tmp, aside = base + ".tmp", base + ".old"
        try:
            with open(tmp, "xb") as f:
                for chunk in chunks:
                    f.write(chunk)
                if old is not None:
                    os.fchmod(f.fileno(), old.st_mode & 0o777)
            if old is None:
                os.rename(tmp, real)
                return
            os.rename(real, aside)
            try:
                os.rename(tmp, real)
            except OSError:
                os.rename(aside, real)
                raise
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        os.unlink(aside)


def _config(key_text: str | None, **fields) -> pipeline.SealConfig:
    """A SealConfig with the cipher and key of --key, if given; a key that
    pipeline.parse_key_text rejects is a usage error."""
    config = pipeline.SealConfig(**fields)
    if key_text is not None:
        try:
            config.cipher, key = pipeline.parse_key_text(key_text)
        except MalformedBlock:
            raise _UsageError(f"--key {key_text!r} is neither a caesar shift 0-25 "
                              "nor 9 comma-separated hill entries 0-25") from None
        if config.cipher == pipeline.CAESAR:
            config.caesar_key = key
        else:
            config.hill_key = key
    return config


def _cmd_seal(args) -> int:
    with _file_errors("read", args.input), open(args.input, "rb") as f:
        width, height, pixels = read_pgm_head(f, _HEAD_PIXELS)
        rest = f.read(width * height - len(pixels))  # before --out, which may be --in
    cover = GrayImage(len(pixels), 1, pixels)
    config = _config(args.key, digest_algorithm=args.digest, embed_mode=args.mode)
    if config.cipher != args.cipher:
        raise _UsageError(f"--key is a {config.cipher} key but --cipher is {args.cipher}")
    sealed = pipeline.seal(args.message, config, cover)
    _replace_file(args.output, (header(width, height), sealed.tobytes(), rest))
    changed = int(np.count_nonzero(sealed.pixels != cover.pixels))
    print(f"wrote={args.output}")
    print(f"mode={args.mode}")
    print(f"pixels_changed={changed}")
    return EX_OK


def _cmd_verify(args) -> int:
    image = _read_head(args.input)
    report = pipeline.verify(image, _config(args.key, embed_mode=None))
    print(f"verdict={report.verdict}")
    print(f"mode={report.mode}")
    print(f"message={report.recovered_message}")
    print(f"embedded_digest={report.embedded_digest}")
    print(f"recomputed_digest={report.recomputed_digest}")
    print(f"reason={report.reason}")
    return _VERDICT_CODES[report.verdict]


def _cmd_tamper(args) -> int:
    image = _read_image(args.input)
    flipped = pipeline.tamper(image, args.pixel, args.bit)
    _replace_file(args.output, (write_pgm(flipped),))
    print(f"wrote={args.output}")
    print(f"pixel={args.pixel}")
    print(f"bit={args.bit}")
    return EX_OK


def _cmd_inspect(args) -> int:
    image = _read_head(args.input)
    try:
        mode, decoded = pipeline.read_stream(image, None)
    except StegosealError:
        print("error=no embedded stream found")
        return EX_UNDECODABLE
    elements = decoded.coeffs.size
    consumed = decoded.consumed
    print(f"mode={mode}")
    print(f"elements={elements}")
    print(f"compressed_elements={consumed}")
    print(f"ratio={elements / consumed:.4f}")
    print(f"table_entries={len(BLOCK_TABLE.codes)}")
    print(f"header_bytes={BLOCK_HEADER_BYTES}")
    print(f"payload_bits={decoded.payload_bits}")
    print(f"stream_bytes={consumed}")
    pixels = consumed if mode == stego.OVERWRITE else 8 * consumed
    print(f"embedded_pixels={pixels}")
    return EX_OK


def entry() -> None:
    """The console script. Its report is flushed here, so that a reader
    that closed standard output early (`stegoseal verify ... | head -c0`)
    turns into exit code 66 and one line on stderr, not a traceback and
    exit code 1, which would read as TAMPERED."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with contextlib.suppress(OSError):
            print("error: cannot write standard output", file=sys.stderr)
        code = EX_NOINPUT
    sys.exit(code)


if __name__ == "__main__":
    entry()
