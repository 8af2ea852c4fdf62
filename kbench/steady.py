"""Steadiness check: run each workload on several seeds and print each
end-to-end metric's spread next to its bound.

    python3 kbench/steady.py                    # 10 seeds, every workload
    python3 kbench/steady.py --runs 5 --workloads fresh-cold

The spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) as a share of their
median. A metric is steady when its spread is below a third of its bound;
``setup_s`` is reported but only its median is compared across sets. Each
run is a separate ``kbench/run.py`` process, started after the previous
one has exited. Exits 1 when a run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=os.getcwd(),
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    bad = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} calls failed")
                bad = True
            runs.append(result["metrics"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {metric['value']:.6g}" for name, metric in result["metrics"].items()
            ), file=sys.stderr)
        print(f"\n{workload}: {len(runs)} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':<22} {'median':>12} {'unit':<6} {'spread':>7} {'bound':>6} {'bound/3':>7}  verdict")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [run[name]["value"] for run in runs]
            share = spread(values)
            bound = metric["bound"]
            if name == "setup_s":
                verdict = "median only"
            elif share < bound / 3:
                verdict = "steady"
            elif share <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                bad = True
            print(
                f"  {name:<22} {statistics.median(values):>12.6g} {metric['unit']:<6} "
                f"{share:>7.3f} {bound:>6.2f} {bound / 3:>7.3f}  {verdict}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
