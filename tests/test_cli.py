import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import stegoseal
from stegoseal import pipeline
from stegoseal.cli import main
from stegoseal.entropy import BLOCK_TABLE, encode_blocks
from stegoseal.pgm import GrayImage, read_pgm, write_pgm
from stegoseal.stego import embed

from conftest import make_cover

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


@pytest.mark.parametrize("mode", ["overwrite", "lsb1"])
@pytest.mark.parametrize("size", [(256, 256), (100, 100)])
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


@pytest.mark.parametrize("command", ["seal", "verify", "inspect"])
@pytest.mark.parametrize("extra", [-1, 1])
def test_wrong_pixel_count_is_data_error(cover_file, tmp_path, capsys, command, extra):
    data = cover_file.read_bytes()
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(data[:-1] if extra < 0 else data + b"\x00")
    argv = [command, "--in", str(bad)]
    if command == "seal":
        argv += ["--out", str(tmp_path / "out.pgm"), "--message", "m", "--key", "1"]
    assert main(argv) == 65
    assert not (tmp_path / "out.pgm").exists()


@pytest.mark.parametrize("mode", ["overwrite", "lsb1"])
def test_cover_too_small_is_data_error(tmp_path, capsys, mode):
    small = tmp_path / "small.pgm"
    small.write_bytes(write_pgm(make_cover(3, 12, 12)))
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
