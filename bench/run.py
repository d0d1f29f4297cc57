"""Benchmark of stegoseal's seal and verify paths.

Run from the repository root:

    python3 bench/run.py --workload roundtrip_small --seed 1 --seconds 30 --trace 0

--seconds may be a fraction; a run always completes workload.count_ops ops.

Workloads are defined in bench/workloads.py. Load is one process with one
client and no extra threads, in a closed loop: each op starts when the
previous one has returned. Every op's output is checked.

--trace 0 prints the end-to-end metrics. Latencies and ops_per_s are
taken over every op of the run. Each op's times are divided by the host's
slowdown, measured just before it with the reference kernels of
bench/reference.py, which removes most of the effect of other tenants
of the shared cores. Counts (stream bytes, ratio) are taken over the
first workload.count_ops ops, so they repeat exactly for a seed.

--trace 1 runs each block of ops untraced and then traced through
bench/layers.py, and prints the per-layer metrics. trace_overhead_frac
compares the scaled ops_per_s of the two phases; per-layer self times are
wall times, not scaled.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the
environment and each metric as `name=value unit`. The program is imported
from src/ next to this directory; without it the run exits non-zero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import reference

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5

END_TO_END = {
    "seal_ms_p50": "ms",
    "seal_ms_p90": "ms",
    "verify_ms_p50": "ms",
    "verify_ms_p90": "ms",
    "ops_per_s": "ops/s",
    "stream_bytes_p50": "bytes",
    "ratio_p50": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def load_program():
    """Import stegoseal from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import stegoseal
    except ImportError as exc:
        sys.exit(f"cannot import stegoseal from {src}: {exc}")
    if src not in Path(stegoseal.__file__).resolve().parents:
        sys.exit(f"stegoseal was imported from {stegoseal.__file__}, not from {src}")


def blocks(workload, seconds: float):
    """Op index ranges for a closed loop of `seconds`, and at least
    workload.count_ops ops, in whole blocks of workload.block ops."""
    deadline = perf_counter() + seconds
    start = 0
    while start < workload.count_ops or perf_counter() < deadline:
        yield range(start, start + workload.block)
        start += workload.block


def run_ops(workloads, workload, host, indices, samples: list) -> None:
    for index in indices:
        slowdown = host.slowdown() ** workload.sensitivity
        try:
            sample = workload.op(index)
        except Exception as exc:  # an unexpected exception fails the op
            sample = workloads.Sample(0.0, None, problem=f"{type(exc).__name__}: {exc}")
        samples.append(sample.scaled(slowdown))


def failures(samples) -> list:
    return [(i, s.problem) for i, s in enumerate(samples) if s.problem]


def ops_per_s(samples) -> float:
    return len(samples) / sum(s.op_s for s in samples)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def setup_seconds(kind: str, workdir: Path):
    """Median over fresh processes of import plus one warm-up seal+verify,
    and the problems the warm-ups found."""
    args = [sys.executable, str(ROOT / "bench" / "setup_probe.py"), kind]
    if kind == "cli":
        args += [str(workdir / "cover0.pgm"), str(workdir / "probe.pgm")]
    times, problems = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(args, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            problems.append(("set-up", done.stderr.strip() or f"exit {done.returncode}"))
        if done.stdout.strip():
            times.append(float(done.stdout.split()[0]))
    if not times:
        raise RuntimeError(f"no set-up probe finished: {problems[0][1]}")
    return statistics.median(times), problems


def end_to_end(workloads, workload, seed: int, seconds: float, workdir: Path):
    instance = workload(seed, workdir)
    setup, setup_failed = setup_seconds(
        "cli" if workload is workloads.CliLarge else "library", workdir)
    host = reference.Reference(workdir if workload.moves_files else None)
    samples = []
    for indices in blocks(instance, seconds):
        run_ops(workloads, instance, host, indices, samples)

    seal = [s.seal_s for s in samples if s.seal_s is not None]
    verify = [s.verify_s for s in samples if s.verify_s is not None]
    stream = [s.stream_bytes for s in samples[:workload.count_ops] if s.stream_bytes]
    metrics = {
        "seal_ms_p50": 1000 * statistics.median(seal),
        "seal_ms_p90": 1000 * p90(seal),
        "verify_ms_p50": 1000 * statistics.median(verify),
        "verify_ms_p90": 1000 * p90(verify),
        "ops_per_s": ops_per_s(samples),
        "stream_bytes_p50": statistics.median(stream),
        "ratio_p50": statistics.median(workloads.BLOCK_ELEMENTS / n for n in stream),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    failed = failures(samples)
    info = {"error_frac": len(failed) / len(samples), "ops": len(samples),
            "seal_samples": len(seal), "verify_samples": len(verify),
            "slowdown_divisor_p50": statistics.median(s.slowdown for s in samples)}
    metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    return len(samples) + SETUP_PROBES, failed + setup_failed, metrics, info


def traced(workloads, layers, workload, seed: int, seconds: float, workdir: Path):
    sealed, anchor_problem = workloads.paper_seal(workloads.small_cover(0))
    paper_bytes = workloads.stream_length(sealed, "overwrite")
    instance = workload(seed, workdir)
    host = reference.Reference(workdir if workload.moves_files else None)
    # Each block of ops runs untraced and then traced, so both phases see
    # the same inputs and the same state of the machine.
    plain, wrapped = [], []
    tracer = layers.Tracer()
    for indices in blocks(instance, seconds):
        run_ops(workloads, instance, host, indices, plain)
        tracer.install()
        try:
            run_ops(workloads, instance, host, indices, wrapped)
        finally:
            tracer.uninstall()
        if indices.stop == workload.count_ops:
            tracer.freeze()

    plain_failed, wrapped_failed = failures(plain), failures(wrapped)
    metrics = tracer.metrics(len(wrapped), workload.count_ops)
    metrics.update({
        "entropy.paper_stream_bytes": paper_bytes,
        "entropy.paper_ratio": round(workloads.BLOCK_ELEMENTS / paper_bytes, 4),
        "error_frac": len(wrapped_failed) / len(wrapped),
        "trace_overhead_frac": 1 - ops_per_s(wrapped) / ops_per_s(plain),
    })
    failed = plain_failed + wrapped_failed
    if anchor_problem:
        failed.append(("paper example", anchor_problem))
    # Same inputs in both phases: op i must fail in both or in neither.
    if [i for i, _ in plain_failed] != [i for i, _ in wrapped_failed]:
        failed.append(("trace", "traced and untraced runs failed different ops"))
    info = {"error_frac_untraced": len(plain_failed) / len(plain),
            "error_frac_traced": len(wrapped_failed) / len(wrapped),
            "ops": len(wrapped), "missing": tracer.missing}
    metrics = {k: (v, layers.METRICS[k]) for k, v in metrics.items()}
    return len(plain) + len(wrapped) + 1, failed, metrics, info


def environment(args) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's .git, if it has one; 'unknown' otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    print("env=" + json.dumps(environment(args)))
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        if args.trace:
            attempted, failed, metrics, info = traced(
                workloads, layers, workload, args.seed, args.seconds, Path(tmp))
        else:
            attempted, failed, metrics, info = end_to_end(
                workloads, workload, args.seed, args.seconds, Path(tmp))

    for index, problem in failed[:10]:
        print(f"failed op {index}: {problem}", file=sys.stderr)
    for key, value in info.items():
        print(f"{key}={value}")
    for name, (value, unit) in metrics.items():
        print(f"{name}={value} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
