"""Command-line front end: seal, verify, tamper and inspect PGM images.

All stdout output is line-oriented key=value text. Exit codes form a
stable contract:

    0   success (for verify: verdict VERIFIED)
    1   verify: verdict TAMPERED
    2   verify/inspect: verdict UNDECODABLE / no embedded stream found
    64  usage error (unknown or missing flags)
    65  malformed input data (bad PGM, message too long, bad key, ...)
    66  file cannot be read or written

What each command reads: a stream starts at the first pixel in raster
order and takes at most pipeline.stream_bound bytes, which lsb1 mode
spreads over 8 pixels each (11 856 pixels in all). verify and inspect
read the PGM header and only the first min(width * height, 11 856)
pixels, the head; the pixel byte count is checked against the file size,
so a truncated or over-long file is rejected without reading its pixels.
seal seals the same head, reads the remaining pixels as one buffer, and
writes the canonical header, the sealed head and that buffer; it reads
all of --in before it opens --out, so both may name the same file.
tamper reads and writes whole files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path

import numpy as np

from . import pipeline, stego
from .entropy import BLOCK_HEADER_BYTES, BLOCK_TABLE
from .errors import StegosealError
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
_HEAD_PIXELS = 8 * pipeline.stream_bound(pipeline.SealConfig())


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


def _write_image(path: str, image) -> None:
    with _file_errors("write", path):
        Path(path).write_bytes(write_pgm(image))


def _parse_key(text: str, cipher: str):
    """Turn the --key flag into config fields for the given cipher."""
    if cipher == pipeline.HILL:
        parts = text.split(",")
        if len(parts) != 9:
            raise _UsageError("hill key needs 9 comma-separated integers")
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise _UsageError(f"hill key entries must be integers: {text!r}") from None
        return np.array(vals).reshape(3, 3)
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"caesar key must be an integer: {text!r}") from None


def _cmd_seal(args) -> int:
    with _file_errors("read", args.input), open(args.input, "rb") as f:
        width, height, pixels = read_pgm_head(f, _HEAD_PIXELS)
        rest = f.read(width * height - len(pixels))  # before --out, which may be --in
    cover = GrayImage(len(pixels), 1, pixels)
    config = pipeline.SealConfig(cipher=args.cipher, digest_algorithm=args.digest,
                                 embed_mode=args.mode)
    key = _parse_key(args.key, args.cipher)
    if args.cipher == pipeline.CAESAR:
        config.caesar_key = key
    else:
        config.hill_key = key
    sealed = pipeline.seal(args.message, config, cover)
    with _file_errors("write", args.output), open(args.output, "wb") as f:
        f.write(header(width, height))
        f.write(sealed.tobytes())
        f.write(rest)
    changed = int(np.count_nonzero(sealed.pixels != cover.pixels))
    print(f"wrote={args.output}")
    print(f"mode={args.mode}")
    print(f"pixels_changed={changed}")
    return EX_OK


def _cmd_verify(args) -> int:
    image = _read_head(args.input)
    expected_key = None
    if args.key is not None:
        cipher = pipeline.HILL if "," in args.key else pipeline.CAESAR
        expected_key = (cipher, _parse_key(args.key, cipher))

    # the embed mode is not stored out of band, so try both
    report = None
    mode_used = stego.OVERWRITE
    for mode in stego.MODES:
        config = pipeline.SealConfig(embed_mode=mode)
        if expected_key is not None:
            config.cipher = expected_key[0]
            if expected_key[0] == pipeline.CAESAR:
                config.caesar_key = expected_key[1]
            else:
                config.hill_key = expected_key[1]
        candidate = pipeline.verify(image, config)
        if report is None or candidate.verdict != pipeline.UNDECODABLE:
            report = candidate
            mode_used = mode
        if candidate.verdict != pipeline.UNDECODABLE:
            break

    print(f"verdict={report.verdict}")
    print(f"mode={mode_used}")
    print(f"message={report.recovered_message}")
    print(f"embedded_digest={report.embedded_digest}")
    print(f"recomputed_digest={report.recomputed_digest}")
    print(f"reason={report.reason}")
    return _VERDICT_CODES[report.verdict]


def _cmd_tamper(args) -> int:
    image = _read_image(args.input)
    flipped = pipeline.tamper(image, args.pixel, args.bit)
    _write_image(args.output, flipped)
    print(f"wrote={args.output}")
    print(f"pixel={args.pixel}")
    print(f"bit={args.bit}")
    return EX_OK


def _cmd_inspect(args) -> int:
    image = _read_head(args.input)
    for mode in stego.MODES:
        try:
            decoded = pipeline.read_stream(image, pipeline.SealConfig(embed_mode=mode))
        except StegosealError:
            continue
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
    print("error=no embedded stream found")
    return EX_UNDECODABLE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
