"""Run one workload of the repository benchmark.

    python3 kbench/run.py --workload suite-warm --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout. With ``--trace 0`` it times the
workload's calls and prints the end-to-end metrics; with ``--trace 1`` it
makes the separate traced run and prints the per-layer metrics, the
derived-figures table and the tracing overhead. Every call is checked
against the tree-engine references. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: the settings every run pins, whatever the caller's environment holds
PINNED_ENV = {
    "KREMLIN_CODEGEN_CACHE": "1",
    "KREMLIN_VECTOR_THRESHOLD": "8",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("suite-warm", "fresh-cold", "replan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate(workdir: str) -> None:
    """Pin the knobs the program reads from the environment. The codegen
    cache root lives in the run's private work dir, so ``~/.cache/kremlin``
    is never read or written."""
    os.environ.update(PINNED_ENV)
    os.environ["KREMLIN_CACHE_DIR"] = os.path.join(workdir, "cache")


def environment_record() -> dict:
    from repro.interp import diskcache

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "KREMLIN_CODEGEN_CACHE": os.environ["KREMLIN_CODEGEN_CACHE"],
        "KREMLIN_CACHE_DIR": os.path.relpath(os.environ["KREMLIN_CACHE_DIR"]),
        "KREMLIN_VECTOR_THRESHOLD": os.environ["KREMLIN_VECTOR_THRESHOLD"],
        "codegen_cache_dir": os.path.relpath(diskcache.cache_dir()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"kbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    parent = os.path.join(os.getcwd(), ".kbench-work")
    workdir = os.path.join(parent, f"{os.getpid()}-{time.time_ns()}")
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(parent)
        except OSError:  # another run still uses it
            pass


def run(args, workdir: str) -> int:
    isolate(workdir)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from kbench.ticks import in_ticks, reference_loop

    before = reference_loop()
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: set-up starts at the import)

    import_s = time.perf_counter() - start
    import_ticks = in_ticks(import_s, [before, reference_loop()])

    from kbench.workloads import Bench, end_to_end

    bench = Bench(args.workload, args.seed, workdir)
    if args.workload == "replan":
        bench.save_profiles()
    print("env: " + json.dumps(environment_record(), sort_keys=True))

    if args.trace:
        from kbench.traced import traced_run

        bench.setup_once()
        metrics, table = traced_run(bench)
        print(table)
    else:
        setups = bench.setup()
        off, on, elapsed = bench.measure(args.seconds)
        metrics = end_to_end(import_ticks, setups, off, on)
        summary = [
            f"workload {args.workload}: {len(off.seconds)} calls metrics-off, "
            f"{len(on.seconds)} metrics-on in {elapsed:.1f} s",
            f"error_frac {bench.tally.error_frac:.4f} ({bench.tally.failed}/{bench.tally.attempted})",
            f"in seconds (not gated): p50 {statistics.median(off.seconds):.6f} s, "
            f"metrics-on p50 {statistics.median(on.seconds):.6f} s, "
            f"calls_per_s {len(off.seconds) / sum(off.seconds):.4f}, "
            f"setup {import_s + statistics.median(s for s, _ in setups):.4f} s",
        ]
        if len(off.seconds) >= 100:
            summary.append(
                f"p90 (not gated): {p90(off.ticks):.4f} ticks, "
                f"{p90(off.seconds):.6f} s over {len(off.seconds)} calls"
            )
        print("\n".join(summary))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6f} {unit}")
    tally = bench.tally
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
