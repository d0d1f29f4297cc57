import contextlib
import errno
import hashlib
import io
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import stegoseal
from stegoseal import cli, pipeline
from stegoseal.cli import main
from stegoseal.cipher import caesar_encrypt
from stegoseal.entropy import BLOCK_TABLE, encode_blocks
from stegoseal.payload import pack, to_tiles
from stegoseal.pgm import GrayImage, read_pgm, write_pgm
from stegoseal.stego import embed
from stegoseal.transform import int_dct2

from conftest import dense_forged_tiles, make_cover

PAPER_MESSAGE = "I'm so proud to be Egyptian"


@pytest.fixture
def cover_file(tmp_path):
    path = tmp_path / "cover.pgm"
    path.write_bytes(write_pgm(make_cover(0x515)))
    return path


def parse_kv(output):
    return dict(line.split("=", 1) for line in output.strip().splitlines())


def test_seal_then_verify(cover_file, tmp_path, capsys):
    stego = tmp_path / "stego.pgm"
    code = main(["seal", "--in", str(cover_file), "--out", str(stego),
                 "--message", PAPER_MESSAGE, "--key", "16"])
    out = parse_kv(capsys.readouterr().out)
    assert code == 0
    assert out["wrote"] == str(stego)

    code = main(["verify", "--in", str(stego)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict=VERIFIED" in out
    assert f"message={PAPER_MESSAGE}" in out


def test_verify_plain_cover_is_undecodable(cover_file, capsys):
    code = main(["verify", "--in", str(cover_file)])
    out = capsys.readouterr().out
    assert code == 2
    assert "verdict=UNDECODABLE" in out


def test_verify_detects_tampering(cover_file, tmp_path, capsys):
    stego = tmp_path / "stego.pgm"
    broken = tmp_path / "broken.pgm"
    main(["seal", "--in", str(cover_file), "--out", str(stego),
          "--message", "hands off", "--key", "5"])
    main(["tamper", "--in", str(stego), "--out", str(broken),
          "--pixel", "40", "--bit", "0"])
    capsys.readouterr()
    code = main(["verify", "--in", str(broken)])
    out = capsys.readouterr().out
    assert code in (1, 2)
    assert "verdict=VERIFIED" not in out


def test_verify_with_wrong_key_is_tampered(cover_file, tmp_path, capsys):
    stego = tmp_path / "stego.pgm"
    main(["seal", "--in", str(cover_file), "--out", str(stego),
          "--message", "hello", "--key", "7"])
    capsys.readouterr()
    code = main(["verify", "--in", str(stego), "--key", "9"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict=TAMPERED" in out


def unescape(value):
    """Undo the escapes the CLI writes into a report value."""
    return value.encode("latin-1", "backslashreplace").decode("unicode_escape")


def test_a_message_cannot_forge_report_lines(cover_file, tmp_path, capsys):
    """Each field prints as one line, whatever line breaks the message holds,
    and undoing the escapes gives the message back."""
    message = ("pay 10\nverdict=TAMPERED\nmessage=pay 9999 \\n\r\v\f\x1c\x1d\x1e\x85"
               "\u2028\u2029 \u00e9\u20ac end")
    stego = tmp_path / "stego.pgm"
    assert main(["seal", "--in", str(cover_file), "--out", str(stego),
                 f"--message={message}", "--key", "7"]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(stego)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("=", 1)[0] for line in lines] == [
        "verdict", "mode", "message", "embedded_digest", "recomputed_digest", "reason"]
    out = parse_kv("\n".join(lines))
    assert out["verdict"] == "VERIFIED"
    assert unescape(out["message"]) == message


def test_verify_lsb1_auto_detect(cover_file, tmp_path, capsys):
    stego = tmp_path / "stego.pgm"
    main(["seal", "--in", str(cover_file), "--out", str(stego),
          "--message", "quiet", "--key", "3", "--mode", "lsb1"])
    capsys.readouterr()
    code = main(["verify", "--in", str(stego)])
    out = parse_kv(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "VERIFIED"
    assert out["mode"] == "lsb1"


def test_hill_cipher_through_cli(cover_file, tmp_path, capsys):
    stego = tmp_path / "stego.pgm"
    code = main(["seal", "--in", str(cover_file), "--out", str(stego),
                 "--message", "RENDEZVOUS", "--key", "6,24,1,13,16,10,20,17,15",
                 "--cipher", "hill"])
    assert code == 0
    capsys.readouterr()
    code = main(["verify", "--in", str(stego),
                 "--key", "6,24,1,13,16,10,20,17,15"])
    out = parse_kv(capsys.readouterr().out)
    assert code == 0
    assert out["message"] == "RENDEZVOUS"


def test_inspect_reports_ratio(cover_file, tmp_path, capsys):
    stego = tmp_path / "stego.pgm"
    main(["seal", "--in", str(cover_file), "--out", str(stego),
          "--message", PAPER_MESSAGE, "--key", "16"])
    capsys.readouterr()
    code = main(["inspect", "--in", str(stego)])
    out = parse_kv(capsys.readouterr().out)
    assert code == 0
    assert out["elements"] == "384"
    assert int(out["compressed_elements"]) > 0
    assert float(out["ratio"]) == pytest.approx(
        384 / int(out["compressed_elements"]), abs=1e-4)
    assert out["embedded_pixels"] == out["stream_bytes"]


def test_inspect_reports_block_stream_sizes(cover_file, tmp_path, capsys):
    stego = tmp_path / "stego.pgm"
    main(["seal", "--in", str(cover_file), "--out", str(stego),
          "--message", PAPER_MESSAGE, "--key", "16", "--mode", "lsb1"])
    capsys.readouterr()
    assert main(["inspect", "--in", str(stego)]) == 0
    out = parse_kv(capsys.readouterr().out)
    assert out["mode"] == "lsb1"
    assert out["elements"] == "384"
    assert out["header_bytes"] == "3"
    assert out["table_entries"] == str(len(BLOCK_TABLE.codes))
    assert int(out["stream_bytes"]) == 3 + (int(out["payload_bits"]) + 7) // 8
    assert int(out["embedded_pixels"]) == 8 * int(out["stream_bytes"])
    rows = [int(out[f"{row}_bits"]) for row in ("ciphertext", "key", "digest")]
    assert min(rows) > 0 and sum(rows) == int(out["payload_bits"])


def test_inspect_plain_cover(cover_file, capsys):
    code = main(["inspect", "--in", str(cover_file)])
    out = capsys.readouterr().out
    assert code == 2
    assert "error=no embedded stream found" in out


def test_missing_flag_is_usage_error(cover_file, capsys):
    code = main(["seal", "--in", str(cover_file), "--out", "x.pgm", "--key", "1"])
    assert code == 64
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["verify", "--in", "x.pgm", "--frobnicate"]) == 64


def test_unknown_command_is_usage_error(capsys):
    assert main(["explode"]) == 64


def test_bad_key_value_is_usage_error(cover_file, capsys):
    code = main(["seal", "--in", str(cover_file), "--out", "x.pgm",
                 "--message", "m", "--key", "ten"])
    assert code == 64


def test_unreadable_input_file(tmp_path, capsys):
    code = main(["verify", "--in", str(tmp_path / "missing.pgm")])
    assert code == 66


def test_malformed_pgm(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n1 1\n255\n0")
    assert main(["verify", "--in", str(bad)]) == 65


def test_message_too_long_is_data_error(cover_file, tmp_path, capsys):
    code = main(["seal", "--in", str(cover_file), "--out", str(tmp_path / "s.pgm"),
                 "--message", "x" * 4000, "--key", "1"])
    assert code == 65


def test_stdout_is_key_value_lines(cover_file, tmp_path, capsys):
    stego = tmp_path / "stego.pgm"
    main(["seal", "--in", str(cover_file), "--out", str(stego),
          "--message", "abc", "--key", "2"])
    main(["verify", "--in", str(stego)])
    main(["inspect", "--in", str(stego)])
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert "=" in line, f"free prose on stdout: {line!r}"


HILL_KEY = "6,24,1,13,16,10,20,17,15"
SEAL_OVERWRITE = ["seal", "--in", "{dir}/cover.pgm", "--out", "{dir}/stego.pgm",
                  "--message", PAPER_MESSAGE, "--key", "16"]
SEAL_LSB1 = ["seal", "--in", "{dir}/cover.pgm", "--out", "{dir}/lsb1.pgm",
             "--message", "RENDEZVOUS", "--key", HILL_KEY, "--cipher", "hill",
             "--mode", "lsb1", "--digest", "sha256"]
SHA512_PAPER = ("343c69e5308bacdd1f532961118fde684f8efc72795901a1e40b45fa3e730df8"
                "9ef70d72bc632a501f2435fccc457439e0b7056d2bcd7e3eaa717ca5af2a56db")
SHA256_RENDEZVOUS = "53a0357017c0f5342d219b2d72c7ec1730be7f69f606a954354c692b5b5035cd"

# Images too small for a stream, each starting with the stream magic; 1x1
# has no pixel 1 to read the embed mode from, and pixel 1 of 2x1 is odd.
TINY = {"1x1": (1, 1, b"\x4d"), "2x1": (2, 1, b"\x4d\x01"), "1x2": (1, 2, b"\x4d\x00")}

SHA256_EMPTY = hashlib.sha256(b"").hexdigest()
# Blocks seal never writes, under the Caesar key row of key 16, and verify's
# stdout for them: the digest row emptied under a message, and an empty
# ciphertext under the digest of the empty message.
FORGED_BLOCKS = {
    "emptied-digest": (
        pack(caesar_encrypt("pay mallory 9999", 16), 128 * "Q", ""),
        "verdict=TAMPERED\nmode={mode}\nmessage=pay mallory 9999\nembedded_digest=\n"
        "recomputed_digest=\nreason=digest mismatch\n"),
    "empty-message": (
        pack("", 128 * "Q", SHA256_EMPTY),
        "verdict=TAMPERED\nmode={mode}\nmessage=\n"
        f"embedded_digest={SHA256_EMPTY}\nrecomputed_digest={SHA256_EMPTY}\n"
        "reason=block differs from the one seal writes for its message\n"),
}

# Each command's whole stdout, line order included, with {dir} for the
# directory of the files.
EXACT_STDOUT = {
    "seal-overwrite": (SEAL_OVERWRITE, 0,
                       "wrote={dir}/stego.pgm\nmode=overwrite\npixels_changed=140\n"),
    "seal-lsb1": (SEAL_LSB1, 0, "wrote={dir}/lsb1.pgm\nmode=lsb1\npixels_changed=403\n"),
    "verify-verified": (
        ["verify", "--in", "{dir}/stego.pgm"], 0,
        f"verdict=VERIFIED\nmode=overwrite\nmessage={PAPER_MESSAGE}\n"
        f"embedded_digest={SHA512_PAPER}\nrecomputed_digest={SHA512_PAPER}\nreason=\n"),
    "verify-tampered": (
        ["verify", "--in", "{dir}/lsb1.pgm", "--key", "9"], 1,
        f"verdict=TAMPERED\nmode=lsb1\nmessage=RENDEZVOUS\n"
        f"embedded_digest={SHA256_RENDEZVOUS}\nrecomputed_digest={SHA256_RENDEZVOUS}\n"
        "reason=embedded key differs from the expected key\n"),
    "verify-undecodable": (
        ["verify", "--in", "{dir}/cover.pgm"], 2,
        "verdict=UNDECODABLE\nmode=overwrite\nmessage=\nembedded_digest=\n"
        "recomputed_digest=\nreason=StreamError: missing block stream header\n"),
    "tamper": (
        ["tamper", "--in", "{dir}/stego.pgm", "--out", "{dir}/broken.pgm",
         "--pixel", "40", "--bit", "0"], 0,
        "wrote={dir}/broken.pgm\npixel=40\nbit=0\n"),
    "inspect-overwrite": (
        ["inspect", "--in", "{dir}/stego.pgm"], 0,
        "mode=overwrite\nelements=384\ncompressed_elements=140\nratio=2.7429\n"
        "table_entries=190\nheader_bytes=3\npayload_bits=1094\nstream_bytes=140\n"
        "embedded_pixels=140\nciphertext_bits=449\nkey_bits=35\ndigest_bits=610\n"),
    "inspect-lsb1": (
        ["inspect", "--in", "{dir}/lsb1.pgm"], 0,
        "mode=lsb1\nelements=384\ncompressed_elements=109\nratio=3.5229\n"
        "table_entries=190\nheader_bytes=3\npayload_bits=848\nstream_bytes=109\n"
        "embedded_pixels=872\nciphertext_bits=328\nkey_bits=193\ndigest_bits=327\n"),
    "inspect-cover": (["inspect", "--in", "{dir}/cover.pgm"], 2,
                      "error=no embedded stream found\n"),
    # a stream that decodes in full and that verify rejects at the block check
    "inspect-dense": (
        ["inspect", "--in", "{dir}/dense.pgm"], 0,
        "mode=overwrite\nelements=384\ncompressed_elements=1341\nratio=0.2864\n"
        "table_entries=190\nheader_bytes=3\npayload_bits=10700\nstream_bytes=1341\n"
        "embedded_pixels=1341\nciphertext_bits=3571\nkey_bits=3570\ndigest_bits=3559\n"),
    **{f"inspect-{shape}": (["inspect", "--in", f"{{dir}}/{shape}.pgm"], 2,
                            "error=no embedded stream found\n") for shape in TINY},
    "verify-1x1": (
        ["verify", "--in", "{dir}/1x1.pgm"], 2,
        "verdict=UNDECODABLE\nmode=overwrite\nmessage=\nembedded_digest=\n"
        "recomputed_digest=\nreason=StreamError: missing block stream header\n"),
    **{f"verify-{name}-{mode}": (["verify", "--in", f"{{dir}}/{name}-{mode}.pgm", "--key", "16"],
                                 1, stdout.replace("{mode}", mode))
       for name, (_, stdout) in FORGED_BLOCKS.items() for mode in ("overwrite", "lsb1")},
}


@pytest.fixture(scope="module")
def pinned_dir(tmp_path_factory):
    """A cover, its two sealed images, as SEAL_OVERWRITE and SEAL_LSB1 write
    them, the cover with the dense forged stream, the FORGED_BLOCKS coded
    and embedded in both modes with the public reference API, and the
    TINY images."""
    path = tmp_path_factory.mktemp("pinned")
    cover = make_cover(0x515)
    (path / "cover.pgm").write_bytes(write_pgm(cover))
    dense = embed(cover, encode_blocks(dense_forged_tiles()))
    (path / "dense.pgm").write_bytes(write_pgm(dense))
    for name, (block, _) in FORGED_BLOCKS.items():
        for mode in ("overwrite", "lsb1"):
            forged = embed(cover, encode_blocks(int_dct2(to_tiles(block))), mode)
            (path / f"{name}-{mode}.pgm").write_bytes(write_pgm(forged))
    for shape, (width, height, pixels) in TINY.items():
        (path / f"{shape}.pgm").write_bytes(write_pgm(GrayImage(width, height, pixels)))
    for argv in (SEAL_OVERWRITE, SEAL_LSB1):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([arg.format(dir=path) for arg in argv]) == 0
    return path


@pytest.mark.parametrize("case", EXACT_STDOUT)
def test_exact_stdout(pinned_dir, capsys, case):
    argv, code, stdout = EXACT_STDOUT[case]
    assert main([arg.format(dir=pinned_dir) for arg in argv]) == code
    assert capsys.readouterr().out == stdout.format(dir=pinned_dir)


def test_module_entry_point(cover_file, tmp_path):
    stego = tmp_path / "stego.pgm"
    # the child imports the same package as this process, however it got here
    src = str(Path(stegoseal.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-m", "stegoseal", "seal", "--in", str(cover_file),
         "--out", str(stego), "--message", "subprocess check", "--key", "12"],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    run = subprocess.run(
        [sys.executable, "-m", "stegoseal", "verify", "--in", str(stego)],
        capture_output=True, text=True, env=env)
    assert run.returncode == 0
    assert "verdict=VERIFIED" in run.stdout


# A header with comments, a 10 KB one among them, and unusual whitespace.
ODD_HEADER = b"P5 # cover\n#" + b"c" * 10_000 + b"\n\t{w}\x0b {h}\r\n# maxval next\n255\n"


def odd_cover(path, width, height):
    pixels = make_cover(0x0DD, width, height).tobytes()
    path.write_bytes(ODD_HEADER.replace(b"{w}", b"%d" % width)
                     .replace(b"{h}", b"%d" % height) + pixels)
    return path


def test_head_is_the_documented_size():
    """The module docstring gives the head as 11 856 pixels."""
    assert cli._HEAD_PIXELS == 8 * pipeline.STREAM_BOUND == 11856


@pytest.mark.parametrize("mode", ["overwrite", "lsb1"])
@pytest.mark.parametrize("size", [(256, 256), (100, 100),
                                  (11855, 1), (104, 114), (11857, 1)])  # around _HEAD_PIXELS
def test_seal_output_equals_library_seal(tmp_path, capsys, mode, size):
    cover = odd_cover(tmp_path / "cover.pgm", *size)
    stego = tmp_path / "stego.pgm"
    assert main(["seal", "--in", str(cover), "--out", str(stego),
                 "--message", PAPER_MESSAGE, "--key", "16", "--mode", mode]) == 0
    out = parse_kv(capsys.readouterr().out)
    config = pipeline.SealConfig(cipher="caesar", caesar_key=16,
                                 digest_algorithm="sha512", embed_mode=mode)
    original = read_pgm(cover.read_bytes())
    sealed = pipeline.seal(PAPER_MESSAGE, config, original)
    assert stego.read_bytes() == write_pgm(sealed)
    assert int(out["pixels_changed"]) == np.count_nonzero(sealed.pixels != original.pixels)

    # --out may name the input file
    assert main(["seal", "--in", str(cover), "--out", str(cover),
                 "--message", PAPER_MESSAGE, "--key", "16", "--mode", mode]) == 0
    assert cover.read_bytes() == write_pgm(sealed)


@pytest.mark.parametrize("size", [(256, 256), (100, 100),
                                  (11855, 1), (104, 114), (11857, 1)])  # around _HEAD_PIXELS
def test_tamper_output_equals_library_tamper(tmp_path, capsys, size):
    cover = odd_cover(tmp_path / "cover.pgm", *size)
    flipped = tmp_path / "flipped.pgm"
    original = read_pgm(cover.read_bytes())
    count = size[0] * size[1]
    for pixel in sorted({p for p in (0, cli._HEAD_PIXELS - 1, cli._HEAD_PIXELS, count - 1)
                         if p < count}):
        assert main(["tamper", "--in", str(cover), "--out", str(flipped),
                     "--pixel", str(pixel), "--bit", "7"]) == 0
        out = parse_kv(capsys.readouterr().out)
        assert (out["pixel"], out["bit"]) == (str(pixel), "7")
        assert flipped.read_bytes() == write_pgm(pipeline.tamper(original, pixel, 7))

    assert main(["tamper", "--in", str(cover), "--out", str(flipped),
                 "--pixel", str(count), "--bit", "0"]) == 65
    assert f"outside {size[0]}x{size[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["seal", "verify", "tamper", "inspect"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_wrong_pixel_count_is_data_error(cover_file, tmp_path, capsys, command, extra):
    data = cover_file.read_bytes()
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(data[:-1] if extra < 0 else data + b"\x00")
    argv = [command, "--in", str(bad)]
    if command == "seal":
        argv += ["--out", str(tmp_path / "out.pgm"), "--message", "m", "--key", "1"]
    if command == "tamper":
        argv += ["--out", str(tmp_path / "out.pgm"), "--pixel", "0", "--bit", "0"]
    assert main(argv) == 65
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("mode", ["overwrite", "lsb1"])
def test_cover_too_small_is_data_error(tmp_path, capsys, mode):
    small = tmp_path / "small.pgm"
    small.write_bytes(write_pgm(make_cover(3, 11, 11)))
    code = main(["seal", "--in", str(small), "--out", str(tmp_path / "out.pgm"),
                 "--message", PAPER_MESSAGE, "--key", "16", "--mode", mode])
    assert code == 65
    assert "image holds" in capsys.readouterr().err


def test_inspect_rejects_forged_tile_count(tmp_path, capsys):
    """A header declaring 65535 tiles, which seal never writes, decodes nothing."""
    stream = encode_blocks(np.zeros((65535, 8, 8), dtype=np.int64))
    zero = GrayImage(512, 512, np.zeros(512 * 512, dtype=np.uint8))
    forged = tmp_path / "forged.pgm"
    forged.write_bytes(write_pgm(embed(zero, stream)))
    start = perf_counter()
    code = main(["inspect", "--in", str(forged)])
    elapsed = perf_counter() - start
    assert code == 2
    assert "error=no embedded stream found" in capsys.readouterr().out
    assert elapsed < 0.5


@pytest.mark.parametrize("mode", ["overwrite", "lsb1"])
def test_verify_memory_is_bounded_by_the_stream(tmp_path, capsys, mode):
    """verify holds the stream's pixels, not the 4 MB raster."""
    cover = tmp_path / "cover.pgm"
    cover.write_bytes(write_pgm(make_cover(0xB16, 2048, 2048)))
    stego = tmp_path / "stego.pgm"
    assert main(["seal", "--in", str(cover), "--out", str(stego),
                 "--message", PAPER_MESSAGE, "--key", "16", "--mode", mode]) == 0
    tracemalloc.start()
    try:
        code = main(["verify", "--in", str(stego)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert parse_kv(capsys.readouterr().out)["mode"] == mode
    assert peak < 1_000_000


def test_tamper_memory_is_two_rasters(tmp_path, capsys):
    """tamper holds the raster it read and the one it writes, no other copy."""
    raster = 2048 * 2048
    cover = tmp_path / "cover.pgm"
    cover.write_bytes(write_pgm(make_cover(0xB16, 2048, 2048)))
    tracemalloc.start()
    try:
        code = main(["tamper", "--in", str(cover), "--out", str(tmp_path / "out.pgm"),
                     "--pixel", "40", "--bit", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2 * raster + 2**20


# --- how seal and tamper write --out ---------------------------------------


def write_argv(command, cover_file, out):
    if command == "seal":
        return ["seal", "--in", str(cover_file), "--out", str(out),
                "--message", PAPER_MESSAGE, "--key", "16"]
    return ["tamper", "--in", str(cover_file), "--out", str(out),
            "--pixel", "3", "--bit", "0"]


def sealed_bytes(cover_file):
    config = pipeline.SealConfig(caesar_key=16)
    return write_pgm(pipeline.seal(PAPER_MESSAGE, config, read_pgm(cover_file.read_bytes())))


class FailingWrite:
    """A file whose write number `fail_at` raises ENOSPC."""

    def __init__(self, f, fail_at):
        self.f, self.fail_at, self.writes = f, fail_at, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.f.write(data)

    def __getattr__(self, name):
        return getattr(self.f, name)


class OsWith:
    """The os module with some functions replaced."""

    def __init__(self, **replaced):
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(os, name)


def old_output(tmp_path, existing):
    out = tmp_path / "out" / "stego.pgm"
    out.parent.mkdir()
    if existing:
        out.write_bytes(b"P5\n2 1\n255\nAB")
    return out


def assert_untouched(out, existing):
    if existing:
        assert out.read_bytes() == b"P5\n2 1\n255\nAB"
    assert sorted(p.name for p in out.parent.iterdir()) == ([out.name] if existing else [])


@pytest.mark.parametrize("existing", [True, False])
@pytest.mark.parametrize("command, fail_at", [("seal", 2), ("tamper", 1), ("tamper", 2)])
def test_failed_write_leaves_out_as_it_was(cover_file, tmp_path, capsys, monkeypatch,
                                           existing, command, fail_at):
    out = old_output(tmp_path, existing)

    def failing_open(file, mode="r", *args, **kwargs):
        f = open(file, mode, *args, **kwargs)
        return f if "r" in mode else FailingWrite(f, fail_at)

    monkeypatch.setattr(cli, "open", failing_open, raising=False)
    assert main(write_argv(command, cover_file, out)) == 66
    assert "No space left on device" in capsys.readouterr().err
    assert_untouched(out, existing)


@pytest.mark.parametrize("existing, fail_at", [(True, 1), (True, 2), (False, 1)])
@pytest.mark.parametrize("command", ["seal", "tamper"])
def test_failed_rename_leaves_out_as_it_was(cover_file, tmp_path, capsys, monkeypatch,
                                            existing, fail_at, command):
    out = old_output(tmp_path, existing)
    renames = []

    def failing_rename(src, dst):
        renames.append((src, dst))
        if len(renames) == fail_at:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        os.rename(src, dst)

    monkeypatch.setattr(cli, "os", OsWith(rename=failing_rename))
    assert main(write_argv(command, cover_file, out)) == 66
    assert_untouched(out, existing)


def test_read_only_out_is_not_replaced(cover_file, tmp_path, capsys, monkeypatch):
    out = old_output(tmp_path, existing=True)
    out.chmod(0o444)
    if os.geteuid() == 0:  # root may write any file: answer access() as for other users
        monkeypatch.setattr(cli, "os", OsWith(access=lambda path, mode: False))
    assert main(write_argv("seal", cover_file, out)) == 66
    assert "Permission denied" in capsys.readouterr().err
    assert_untouched(out, existing=True)


def test_replaced_out_keeps_its_permission_bits(cover_file, tmp_path, capsys):
    out = tmp_path / "stego.pgm"
    out.write_bytes(b"old")
    out.chmod(0o640)
    assert main(write_argv("seal", cover_file, out)) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o640
    assert out.read_bytes() == sealed_bytes(cover_file)


def test_new_out_follows_the_umask(cover_file, tmp_path, capsys):
    out = tmp_path / "stego.pgm"
    previous = os.umask(0o027)
    try:
        assert main(write_argv("seal", cover_file, out)) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027


def test_symlinked_out_stays_a_link(cover_file, tmp_path, capsys):
    target = tmp_path / "store" / "stego.pgm"
    target.parent.mkdir()
    target.write_bytes(b"old")
    link = tmp_path / "link.pgm"
    link.symlink_to(target)
    assert main(write_argv("seal", cover_file, link)) == 0
    assert link.is_symlink()
    assert target.read_bytes() == sealed_bytes(cover_file)
    assert sorted(p.name for p in target.parent.iterdir()) == ["stego.pgm"]


def test_directory_out_is_a_file_error(cover_file, tmp_path, capsys):
    out = tmp_path / "a_directory"
    out.mkdir()
    (out / "kept").write_bytes(b"x")
    assert main(write_argv("seal", cover_file, out)) == 66
    assert out.is_dir()
    assert [p.name for p in out.iterdir()] == ["kept"]


def test_fifo_out_is_written_in_place(cover_file, tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        code = main(write_argv("seal", cover_file, fifo))
        reader.join(timeout=10)
    finally:
        if reader.is_alive():  # seal never opened the FIFO: unblock the reader
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
    assert code == 0
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received == [sealed_bytes(cover_file)]


def test_resealing_out_writes_a_new_file(cover_file, tmp_path, capsys):
    out = tmp_path / "stego.pgm"
    assert main(write_argv("seal", cover_file, out)) == 0
    first = out.stat().st_ino
    assert main(write_argv("seal", cover_file, out)) == 0
    assert out.stat().st_ino != first
    assert out.read_bytes() == sealed_bytes(cover_file)
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


@pytest.mark.parametrize("command", ["seal", "verify"])
def test_closed_stdout_exits_66(cover_file, tmp_path, command):
    """A reader that has gone (`... | head -c0`) is a write error, not a
    traceback and exit code 1, which would read as TAMPERED."""
    stego = tmp_path / "stego.pgm"
    src = str(Path(stegoseal.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    seal = [sys.executable, "-m", "stegoseal", "seal", "--in", str(cover_file),
            "--out", str(stego), "--message", "closed stdout", "--key", "5"]
    if command == "verify":
        assert subprocess.run(seal, capture_output=True, env=env).returncode == 0
    argv = seal if command == "seal" else [sys.executable, "-m", "stegoseal", "verify",
                                           "--in", str(stego)]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, text=True,
                             env=env, timeout=60)
    finally:
        os.close(write_end)
    assert run.returncode == 66, run.stderr
    assert run.stderr == "error: cannot write standard output\n"
    report = subprocess.run([sys.executable, "-m", "stegoseal", "verify", "--in", str(stego)],
                            capture_output=True, text=True, env=env)
    assert report.returncode == 0
    assert "verdict=VERIFIED" in report.stdout


def test_verify_and_inspect_report_the_same_mode(tmp_path, capsys):
    """An lsb1 stream that decodes to no valid block: both commands name
    lsb1, and verify gives the error of the block, not of an overwrite read."""
    stream = encode_blocks(np.zeros((6, 8, 8), dtype=np.int64))
    image = tmp_path / "zeros.pgm"
    image.write_bytes(write_pgm(embed(make_cover(0x2E0), stream, "lsb1")))
    assert main(["verify", "--in", str(image)]) == 2
    verified = parse_kv(capsys.readouterr().out)
    assert main(["inspect", "--in", str(image)]) == 0
    inspected = parse_kv(capsys.readouterr().out)
    assert verified["mode"] == inspected["mode"] == "lsb1"
    assert verified["verdict"] == "UNDECODABLE"
    assert verified["reason"].startswith("CipherError: ")


HILL_KEY = "6,24,1,13,16,10,20,17,15"


@pytest.mark.parametrize("command, flags, code", [
    ("seal", ["--key", "ten"], 64),
    ("seal", ["--key", "1,2,3", "--cipher", "hill"], 64),
    ("seal", ["--key", "16", "--cipher", "hill"], 64),
    ("seal", ["--key", HILL_KEY], 64),
    ("seal", ["--key", "30"], 64),
    ("seal", ["--key", "-1"], 64),
    ("seal", ["--key", "27,3,0,2,5,0,0,0,1", "--cipher", "hill"], 64),
    ("seal", ["--key", "2,0,0,0,2,0,0,0,2", "--cipher", "hill"], 65),
    ("seal", ["--key", "16"], 0),
    ("seal", ["--key", HILL_KEY, "--cipher", "hill"], 0),
    ("verify", ["--key", "ten"], 64),
    ("verify", ["--key", "30"], 64),
    ("verify", ["--key", "27,3,0,2,5,0,0,0,1"], 64),
    ("verify", ["--key", "2,0,0,0,2,0,0,0,2"], 65),
    ("verify", ["--key", "16"], 2),
    # spellings int() takes for 16 and 15: a key is ASCII decimal digits only
    ("seal", ["--key", " 16"], 64),
    ("seal", ["--key", "+16"], 64),
    ("seal", ["--key", "1_6"], 64),
    ("seal", ["--key", "16\t"], 64),
    ("seal", ["--key", "\u0661\u0666"], 64),
    ("seal", ["--key", "6,24,1,13,16,10,20,17,+15", "--cipher", "hill"], 64),
    ("verify", ["--key", "+16"], 64),
    # verify takes seal's --cipher, which must name the kind of --key
    ("verify", ["--key", "16", "--cipher", "caesar"], 2),
    ("verify", ["--key", HILL_KEY, "--cipher", "hill"], 2),
    ("verify", ["--key", "16", "--cipher", "hill"], 64),
    ("verify", ["--key", HILL_KEY, "--cipher", "caesar"], 64),
    ("verify", ["--cipher", "caesar"], 64),
    ("verify", ["--cipher", "hill"], 64),
    ("verify", ["--key", "+16", "--cipher", "caesar"], 64),
])
def test_key_exit_codes(cover_file, tmp_path, capsys, command, flags, code):
    """Every --key goes through pipeline.parse_key_text: a key it rejects,
    or one of another cipher than --cipher, is a usage error, and a Hill
    key with no inverse is a data error."""
    argv = [command, "--in", str(cover_file)] + flags
    if command == "seal":
        argv += ["--out", str(tmp_path / "out.pgm"), "--message", "m"]
    assert main(argv) == code
    assert (tmp_path / "out.pgm").exists() == (command == "seal" and code == 0)


@pytest.mark.parametrize("command", ["seal", "verify"])
def test_a_bad_key_is_a_usage_error_whatever_the_input(tmp_path, capsys, command):
    """--key is read before --in: a bad key exits 64 even when --in is
    missing, and a good key with a missing --in exits 66."""
    for key, code in (("99", 64), ("16", 66)):
        argv = [command, "--in", str(tmp_path / "missing.pgm"), "--key", key]
        if command == "seal":
            argv += ["--out", str(tmp_path / "out.pgm"), "--message", "hi"]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(
            "error: --key '99'" if code == 64 else "error: cannot read ")
    assert not (tmp_path / "out.pgm").exists()


def test_verify_takes_the_key_flags_of_seal(cover_file, tmp_path, capsys):
    """The --key and --cipher that sealed a Hill image verify it; a --cipher
    that does not name the kind of --key, or one without a --key, is a
    usage error that names the flags."""
    hill = tmp_path / "hill.pgm"
    flags = ["--key", HILL_KEY, "--cipher", "hill"]
    assert main(["seal", "--in", str(cover_file), "--out", str(hill),
                 "--message", "Attack at dawn"] + flags) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(hill)] + flags) == 0
    out = parse_kv(capsys.readouterr().out)
    assert (out["verdict"], out["message"]) == ("VERIFIED", "ATTACKATDAWN")
    for flags, error in (
            (["--key", "16", "--cipher", "hill"], "--key is a caesar key but --cipher is hill"),
            (["--cipher", "hill"], "--cipher hill needs a --key")):
        assert main(["verify", "--in", str(hill)] + flags) == 64
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {error}\n")


def test_hill_message_with_no_letters_is_refused_as_empty(cover_file, tmp_path, capsys):
    """A Hill message normalizes to its letters, and seal refuses one with
    none as it refuses an empty message: a data error that writes no --out."""
    out = tmp_path / "out.pgm"
    assert main(["seal", "--in", str(cover_file), "--out", str(out), "--message", "123",
                 "--key", "3,3,0,2,5,0,0,0,1", "--cipher", "hill"]) == 65
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: refusing to seal an empty message\n")
    assert not out.exists()
