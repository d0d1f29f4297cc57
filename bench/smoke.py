"""Smoke check of the benchmark itself. Run from the repository root:

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json for the minimum op count, twice untraced and twice traced, and checks that:

- every run exits 0 and ends with a result line that has no failed op;
- every end-to-end and per-layer metric is emitted with its unit;
- the counts (stream bytes, ratios and per-layer counts) repeat exactly
  for the same seed;
- without src/ next to it the benchmark exits non-zero and prints no result.

Exits non-zero on the first problem.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
TIMED_UNITS = ("ms", "s", "ops/s", "MB")


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(workload: str, trace: int) -> dict:
    done = run(["--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                "--trace", str(trace)])
    if done.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(workload: str, trace: int, declared: list) -> dict:
    out = result(workload, trace)
    if not out["correct"] or out["failed"] or out["attempted"] < 1:
        sys.exit(f"{workload} trace={trace}: {out['failed']} of {out['attempted']} ops "
                 "failed (error_frac must be 0)")
    metrics = out["metrics"]
    expected = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(expected):
        sys.exit(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                 f"{sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            sys.exit(f"{workload} trace={trace}: {name} has unit "
                     f"{metrics[name]['unit']}, declared {unit}")
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] not in TIMED_UNITS and name != "trace_overhead_frac"}


def check_without_program(spec: dict) -> None:
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=tmp)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        sys.exit("without src/ the benchmark must exit non-zero and print no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first = check(workload, trace, declared)
            again = check(workload, trace, declared)
            changed = sorted(k for k in first if first[k] != again[k])
            if changed:
                sys.exit(f"{workload} trace={trace}: counts differ between runs of "
                         f"seed {SEED}: {changed}")
        print(f"ok {workload}: {len(spec['end_to_end'])} end-to-end and "
              f"{len(spec['per_layer'])} per-layer metrics, 0 failed ops, counts repeat")
    check_without_program(spec)
    print("ok without src/: exits non-zero with no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
