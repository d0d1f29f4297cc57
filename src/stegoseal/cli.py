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
pixels, the head. seal and tamper read all the pixels, in one read. Every
command reads through one helper, which checks the pixel byte count
against the file size first, so a truncated or over-long file is rejected
without reading its pixels. seal seals the head and writes the canonical
header, the sealed head and the remaining pixels as they were read.
tamper writes the whole image with its one flipped bit.

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

import numpy as np

from . import pipeline, stego
from .digest import ALGORITHMS, DEFAULT_ALGORITHM
from .entropy import BLOCK_HEADER_BYTES, BLOCK_TABLE
from .errors import CipherError, StegosealError
from .pgm import GrayImage, header, read_pgm_head

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

# Seal and verify touch no pixel past the stream's bound in the mode that
# spends the most pixels on it. embed and extract work in raster order from
# pixel 0, so these first pixels, taken as a one-row image, seal and verify
# exactly as the whole image does.
_HEAD_PIXELS = max(stego.pixels_for(pipeline.STREAM_BOUND, m) for m in stego.MODES)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser per process: building one costs far more than parsing with
    it, mostly in the help formatter's terminal-size queries."""
    parser = _Parser(prog="stegoseal",
                     description="Seal, verify and inspect messages in PGM images.")
    sub = parser.add_subparsers(dest="command", required=True)

    seal = sub.add_parser("seal", help="embed a sealed message into a cover image")
    seal.set_defaults(run=_cmd_seal)
    seal.add_argument("--in", dest="input", required=True, metavar="COVER.pgm")
    seal.add_argument("--out", dest="output", required=True, metavar="STEGO.pgm")
    seal.add_argument("--message", required=True)
    seal.add_argument("--key", required=True,
                      help="caesar: shift 0-25; hill: 9 comma-separated entries")
    seal.add_argument("--cipher", choices=pipeline.CIPHERS, default=pipeline.CAESAR)
    seal.add_argument("--mode", choices=stego.MODES, default=stego.OVERWRITE)
    seal.add_argument("--digest", choices=ALGORITHMS, default=DEFAULT_ALGORITHM)

    verify = sub.add_parser("verify", help="check a sealed image and print the report")
    verify.set_defaults(run=_cmd_verify)
    verify.add_argument("--in", dest="input", required=True, metavar="STEGO.pgm")
    verify.add_argument("--key", default=None,
                        help="optional expected key, cross-checked against the image")

    tamper = sub.add_parser("tamper", help="flip a single pixel bit")
    tamper.set_defaults(run=_cmd_tamper)
    tamper.add_argument("--in", dest="input", required=True, metavar="IN.pgm")
    tamper.add_argument("--out", dest="output", required=True, metavar="OUT.pgm")
    tamper.add_argument("--pixel", type=int, required=True)
    tamper.add_argument("--bit", type=int, required=True)

    inspect = sub.add_parser("inspect", help="report embedded stream statistics")
    inspect.set_defaults(run=_cmd_inspect)
    inspect.add_argument("--in", dest="input", required=True, metavar="STEGO.pgm")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        return args.run(args)
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


def _read(path: str, limit: int) -> tuple[int, int, bytes]:
    """(width, height, the first `limit` pixels) of a PGM file; see read_pgm_head."""
    with _file_errors("read", path), open(path, "rb") as f:
        return read_pgm_head(f, limit)


def _head(pixels) -> GrayImage:
    """The first pixels as a one-row image (see _HEAD_PIXELS)."""
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
    if key_text is not None:
        try:
            cipher, key = pipeline.parse_key_text(key_text)
        except CipherError:
            raise _UsageError(f"--key {key_text!r} is neither a caesar shift 0-25 "
                              "nor 9 comma-separated hill entries 0-25") from None
        fields.update({"cipher": cipher, f"{cipher}_key": key})
    return pipeline.SealConfig(**fields)


def _emit(**fields) -> None:
    """Print the report as one key=value line per field, in the order given."""
    for key, value in fields.items():
        print(f"{key}={value}")


def _cmd_seal(args) -> int:
    width, height, pixels = _read(args.input, sys.maxsize)  # before --out, which may be --in
    pixels = memoryview(pixels)
    cover, rest = _head(pixels[:_HEAD_PIXELS]), pixels[_HEAD_PIXELS:]
    config = _config(args.key, digest_algorithm=args.digest, embed_mode=args.mode)
    if config.cipher != args.cipher:
        raise _UsageError(f"--key is a {config.cipher} key but --cipher is {args.cipher}")
    sealed = pipeline.seal(args.message, config, cover)
    _replace_file(args.output, (header(width, height), sealed.tobytes(), rest))
    _emit(wrote=args.output, mode=args.mode,
          pixels_changed=int(np.count_nonzero(sealed.pixels != cover.pixels)))
    return EX_OK


def _cmd_verify(args) -> int:
    _, _, pixels = _read(args.input, _HEAD_PIXELS)
    report = pipeline.verify(_head(pixels), _config(args.key, embed_mode=None))
    _emit(verdict=report.verdict, mode=report.mode, message=report.recovered_message,
          embedded_digest=report.embedded_digest,
          recomputed_digest=report.recomputed_digest, reason=report.reason)
    return _VERDICT_CODES[report.verdict]


def _cmd_tamper(args) -> int:
    image = GrayImage(*_read(args.input, sys.maxsize))
    flipped = pipeline.tamper(image, args.pixel, args.bit)
    _replace_file(args.output, (header(image.width, image.height), flipped.tobytes()))
    _emit(wrote=args.output, pixel=args.pixel, bit=args.bit)
    return EX_OK


def _cmd_inspect(args) -> int:
    _, _, pixels = _read(args.input, _HEAD_PIXELS)
    try:
        mode, decoded = pipeline.read_stream(_head(pixels), None)
    except StegosealError:
        _emit(error="no embedded stream found")
        return EX_UNDECODABLE
    elements, consumed = decoded.coeffs.size, decoded.consumed
    _emit(mode=mode, elements=elements, compressed_elements=consumed,
          ratio=f"{elements / consumed:.4f}", table_entries=len(BLOCK_TABLE.codes),
          header_bytes=BLOCK_HEADER_BYTES, payload_bits=decoded.payload_bits,
          stream_bytes=consumed, embedded_pixels=stego.pixels_for(consumed, mode))
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
