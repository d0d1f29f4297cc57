"""Set-up time of a fresh process: import stegoseal, then one warm-up seal+verify.

    python3 bench/setup_probe.py library
    python3 bench/setup_probe.py cli COVER.pgm OUT.pgm

The library form imports stegoseal, then seals and verifies the paper's
example on a 256x256 cover; the cli form imports stegoseal.cli, then runs
the seal and verify commands on COVER.pgm. Prints the seconds spent
importing plus the seconds of the warm-up; making the inputs is not
counted. The time is divided by the host's slowdown, measured after the
warm-up with bench/reference.py (the median of a few measures, with the
file kernel for the cli form), as run.py divides op times. Exits non-zero if the warm-up does not verify.
"""

import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter

SLOWDOWN_PROBES = 5


def main(argv) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = perf_counter()
    importlib.import_module("stegoseal.cli" if argv[0] == "cli" else "stegoseal")
    imported = perf_counter() - start

    import workloads
    if argv[0] == "library":
        cover = workloads.small_cover(0)
        start = perf_counter()
        _, problem = workloads.paper_seal(cover)
        warm_up = perf_counter() - start
    else:
        cover, out = argv[1], argv[2]
        message = f"--message={workloads.PAPER_MESSAGE}"
        seal_code, seal_s, _, seal_err = workloads.run_cli(
            ["seal", "--in", cover, "--out", out, message, "--key", str(workloads.PAPER_KEY)])
        code, verify_s, out, err = workloads.run_cli(["verify", "--in", out])
        warm_up = seal_s + verify_s
        problem = (f"exit codes {seal_code}/{code}: {(seal_err or err or out).strip()}"
                   if seal_code or code else None)
    import reference
    host = reference.Reference(Path(argv[2]).parent if argv[0] == "cli" else None)
    slowdown = statistics.median(host.slowdown() for _ in range(SLOWDOWN_PROBES))
    print((imported + warm_up) / slowdown)
    if problem:
        print(f"warm-up failed: {problem}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
