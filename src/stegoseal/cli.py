"""Command-line front end: seal, verify, tamper and inspect PGM images.

All stdout output is key=value text, one line per field: a backslash and
each character str.splitlines splits on print as Python escapes (\\\\, \\n,
\\x0b, \\x85, \\u2028, ...). Exit codes form a stable contract:

    0   success (for verify: verdict VERIFIED)
    1   verify: verdict TAMPERED
    2   verify/inspect: verdict UNDECODABLE / no embedded stream found
    64  usage error (unknown or missing flags, a --key that
        pipeline.parse_key_text rejects, or a --cipher that does not name
        the kind of --key or comes without one)
    65  malformed input data (bad PGM, message too long, singular Hill key, ...)
    66  file cannot be read or written, or standard output was closed
        before the report was written (seal's --out is whole then)

What each command reads: a stream starts at the first pixel in raster
order and takes at most pipeline.STREAM_BOUND bytes, which lsb1 mode
spreads over 8 pixels each (11 856 pixels in all). verify, inspect and
seal read the PGM header and only the first min(width * height, 11 856)
pixels, the head; inspect is verify's read with the sizes of the stream
printed, whatever the verdict. tamper reads the header and the one pixel
it flips. Every command reads through one helper, which checks the pixel
byte count against the file size first, so a truncated or over-long file
is rejected without reading its pixels. seal seals the head and writes
the canonical header, the sealed head and the remaining pixels of --in.
tamper writes the canonical header, the pixels before the one it flips,
the flipped pixel and the pixels after it. The pixels that seal and
tamper leave as they were never pass through Python: the kernel copies
them from --in to the new file with splice(2), through a pipe enlarged to
1 MB, so no command holds a raster in memory. Where os.splice is missing
(outside Linux), the pipe cannot be enlarged, or --in or --out cannot
splice (its first splice fails with EINVAL), they go through one buffer
of at most 1 MB instead. An --in that shrinks while it is copied exits
65 as a short file does.

How seal and tamper write --out: both keep --in open until the new file
is whole and copy from that open file, so --in may name the same file as
--out. The output goes to a new file in the directory --out resolves to,
so a symlinked --out stays a link and its target is replaced. Once that
file is whole, the old --out is renamed aside, the new file is renamed
into place and the old one is unlinked; a failed write or rename, or any
other exception on the way (a short --in, an interrupt), removes the new
file and leaves --out as it was.
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
import fcntl
import functools
import os
import stat
import sys
from typing import BinaryIO, NamedTuple

import numpy as np

from . import pipeline, stego
from .digest import ALGORITHMS, DEFAULT_ALGORITHM
from .entropy import BLOCK_HEADER_BYTES, BLOCK_TABLE
from .errors import CipherError, StegosealError
from .payload import ROWS
from .pgm import GrayImage, header, missing_pixels, read_pgm_head

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

# The size seal and tamper enlarge their splice pipe to, and the most bytes
# one copy step moves: a 4 MB tail moved through the default 64 KB pipe
# took 1.25 times as long as read() and write() did, and through 1 MB 0.80.
_COPY_BYTES = 1 << 20

# What _emit escapes: a backslash and every character str.splitlines splits on.
_ESCAPES = str.maketrans({c: repr(c)[1:-1] for c in "\\\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class _Refusal(Exception):
    """A command refused: its args are (exit code, the text of its error line)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Refusal(EX_USAGE, message)


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
    verify.add_argument("--cipher", choices=pipeline.CIPHERS, default=None,
                        help="optional; must name the kind of --key, as on seal")

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
    except _Refusal as exc:     # only a parse error prints the usage
        print(f"error: {exc.args[1]}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EX_USAGE
    try:
        return args.run(args)
    except _Refusal as exc:
        code, text = exc.args
    except (StegosealError, ValueError) as exc:
        code, text = EX_DATAERR, exc
    print(f"error: {text}", file=sys.stderr)
    return code


def _file_error(action: str, path: str, exc: OSError) -> _Refusal:
    return _Refusal(EX_NOINPUT, f"cannot {action} {path}: {exc.strerror or exc}")


@contextlib.contextmanager
def _file_errors(action: str, path: str):
    try:
        yield
    except OSError as exc:
        raise _file_error(action, path, exc) from None


class _Span(NamedTuple):
    """A chunk for _replace_file: bytes start to stop of the open binary file `file`."""

    file: BinaryIO
    start: int
    stop: int


class _Short(Exception):
    """A _Span's file ended at byte args[0], before the span's stop."""


@contextlib.contextmanager
def _open_pgm(path: str, limit: int):
    """The PGM file at path, open for the block, as (file, width, height,
    the first `limit` pixels), with the file right after those pixels (see
    read_pgm_head). A _Span of it that finds the file shorter than its
    header said raises the PgmError read_pgm_head raises for a short file."""
    with _file_errors("read", path), open(path, "rb") as f:
        width, height, pixels = read_pgm_head(f, limit)
        start = f.tell() - len(pixels)
        try:
            yield f, width, height, pixels
        except _Short as short:
            raise missing_pixels(width * height, short.args[0] - start) from None


def _read(path: str, limit: int) -> tuple[int, int, bytes]:
    """(width, height, the first `limit` pixels) of a PGM file; see read_pgm_head."""
    with _open_pgm(path, limit) as (_, width, height, pixels):
        return width, height, pixels


def _head(pixels) -> GrayImage:
    """The first pixels as a one-row image (see _HEAD_PIXELS)."""
    return GrayImage(len(pixels), 1, pixels)


class _Copier:
    """Copies _Span chunks into one output file, in the kernel where it
    can: splice(2) moves each span from its file into a pipe enlarged to
    _COPY_BYTES, and from the pipe into the output. Where os.splice is
    missing, the pipe cannot be enlarged, or a span's first splice fails
    with EINVAL (a file that cannot splice), the span goes through one
    reused buffer of at most _COPY_BYTES instead. An OSError on the side
    of a span's file is a "cannot read" refusal, and one on the output's
    side propagates."""

    def __init__(self):
        self.pipe = None
        self.buffer = memoryview(bytearray())
        if getattr(os, "splice", None) is not None:
            self.pipe = os.pipe()
            try:
                fcntl.fcntl(self.pipe[1], fcntl.F_SETPIPE_SZ, _COPY_BYTES)
            except OSError:
                self.close()

    def close(self) -> None:
        """Close the pipe, dropping what it holds; later spans are buffered."""
        if self.pipe is not None:
            for fd in self.pipe:
                os.close(fd)
            self.pipe = None

    def copy(self, span: _Span, out) -> None:
        out.flush()
        pos = span.start
        if self.pipe is not None:
            pos = self._splice(span, out.fileno())
        want = min(span.stop - pos, _COPY_BYTES)
        if len(self.buffer) < want:
            self.buffer = memoryview(bytearray(want))
        while pos < span.stop:
            with _file_errors("read", span.file.name):
                span.file.seek(pos)
                got = span.file.readinto(self.buffer[:span.stop - pos])
            if not got:
                raise _Short(pos)
            out.write(self.buffer[:got])
            pos += got

    def _splice(self, span: _Span, out_fd: int) -> int:
        """Splice span into out_fd and return span.stop; or, where the
        span's first splice fails with EINVAL, close the pipe and return
        span.start."""
        src, (pipe_out, pipe_in) = span.file.fileno(), self.pipe
        pos = span.start
        while pos < span.stop:
            reading = True
            try:
                moved = os.splice(src, pipe_in, min(span.stop - pos, _COPY_BYTES),
                                  offset_src=pos)
                if not moved:
                    raise _Short(pos)
                reading = False
                while moved:
                    sent = os.splice(pipe_out, out_fd, moved)
                    moved -= sent
                    pos += sent
            except OSError as exc:
                if exc.errno == errno.EINVAL and pos == span.start:
                    self.close()
                    return pos
                if reading:
                    raise _file_error("read", span.file.name, exc) from None
                raise
        return pos


def _write_chunks(out, chunks) -> None:
    """Write the chunks to the open binary file out, in order: bytes-like
    ones as they are, _Span ones through one _Copier."""
    copier = _Copier()
    try:
        for chunk in chunks:
            if isinstance(chunk, _Span):
                copier.copy(chunk, out)
            else:
                out.write(chunk)
    finally:
        copier.close()


def _replace_file(path: str, chunks) -> None:
    """Write the chunks as the whole new content of path (see the module
    docstring): into a new file, renamed into place once it is whole.
    A chunk is bytes-like or a _Span, a range of an open file that is
    copied in the kernel (see _Copier). Any exception, an OSError, a
    _Short from a span or a KeyboardInterrupt, removes the new file and
    leaves path as it was before it propagates.

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
                _write_chunks(f, chunks)
            return
        if old is not None and not os.access(real, os.W_OK):  # as truncating it would fail
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        base = os.path.join(os.path.dirname(real), f".stegoseal-{os.urandom(8).hex()}")
        tmp, aside = base + ".tmp", base + ".old"
        try:
            with open(tmp, "xb") as f:
                _write_chunks(f, chunks)
                if old is not None:
                    os.fchmod(f.fileno(), old.st_mode & 0o777)
            if old is None:
                os.rename(tmp, real)
                return
            os.rename(real, aside)
            try:
                os.rename(tmp, real)
            except BaseException:
                os.rename(aside, real)
                raise
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        os.unlink(aside)


def _config(key_text: str | None, cipher: str | None, **fields) -> pipeline.SealConfig:
    """A SealConfig with the cipher and key of --key, if given. A key that
    pipeline.parse_key_text rejects is a usage error with its text, and so
    is a --cipher (None when not given) that does not name the kind of the
    key."""
    if key_text is None:
        if cipher is not None:
            raise _Refusal(EX_USAGE, f"--cipher {cipher} needs a --key")
        return pipeline.SealConfig(**fields)
    try:
        kind, key = pipeline.parse_key_text(key_text)
    except CipherError as exc:
        raise _Refusal(EX_USAGE, str(exc)) from None
    if cipher not in (None, kind):
        raise _Refusal(EX_USAGE, f"--key is a {kind} key but --cipher is {cipher}")
    return pipeline.SealConfig(cipher=kind, **{f"{kind}_key": key}, **fields)


def _emit(**fields) -> None:
    """Print the report as one key=value line per field, in the order given."""
    for key, value in fields.items():
        print(f"{key}={str(value).translate(_ESCAPES)}")


def _cmd_seal(args) -> int:
    config = _config(args.key, args.cipher, digest_algorithm=args.digest, embed_mode=args.mode)
    with _open_pgm(args.input, _HEAD_PIXELS) as (f, width, height, pixels):
        cover = _head(pixels)
        sealed = pipeline.seal(args.message, config, cover)
        rest = _Span(f, f.tell(), f.tell() + width * height - len(pixels))
        _replace_file(args.output, (header(width, height), sealed.tobytes(), rest))
    _emit(wrote=args.output, mode=args.mode,
          pixels_changed=int(np.count_nonzero(sealed.pixels != cover.pixels)))
    return EX_OK


def _cmd_verify(args) -> int:
    config = _config(args.key, args.cipher)
    _, _, pixels = _read(args.input, _HEAD_PIXELS)
    report = pipeline.verify(_head(pixels), config)
    _emit(verdict=report.verdict, mode=report.mode, message=report.recovered_message,
          embedded_digest=report.embedded_digest,
          recomputed_digest=report.recomputed_digest, reason=report.reason)
    return _VERDICT_CODES[report.verdict]


def _cmd_tamper(args) -> int:
    with _open_pgm(args.input, 0) as (f, width, height, _):
        pixel, mask = pipeline._tamper_target(width, height, args.pixel, args.bit)
        start = f.tell()
        at = f.seek(start + pixel)
        byte = f.read(1)
        if not byte:  # the file shrank: it ends at or before the pixel
            raise _Short(f.seek(0, 2))
        _replace_file(args.output, (header(width, height), _Span(f, start, at),
                                    bytes([byte[0] ^ mask]),
                                    _Span(f, at + 1, start + width * height)))
    _emit(wrote=args.output, pixel=args.pixel, bit=args.bit)
    return EX_OK


def _cmd_inspect(args) -> int:
    _, _, pixels = _read(args.input, _HEAD_PIXELS)
    report = pipeline.verify(_head(pixels))
    decoded, mode = report.stream, report.mode
    if decoded is None:
        _emit(error="no embedded stream found")
        return EX_UNDECODABLE
    elements, consumed, tile_bits = decoded.zigzag.size, decoded.consumed, decoded.tile_bits
    per_row = len(tile_bits) // ROWS
    ciphertext_bits, key_bits, digest_bits = (
        sum(tile_bits[start:start + per_row]) for start in range(0, len(tile_bits), per_row))
    _emit(mode=mode, elements=elements, compressed_elements=consumed,
          ratio=f"{elements / consumed:.4f}", table_entries=len(BLOCK_TABLE.codes),
          header_bytes=BLOCK_HEADER_BYTES, payload_bits=decoded.payload_bits,
          stream_bytes=consumed, embedded_pixels=stego.pixels_for(consumed, mode),
          ciphertext_bits=ciphertext_bits, key_bits=key_bits, digest_bits=digest_bits)
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
