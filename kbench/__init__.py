"""The repository benchmark: end-to-end and per-layer timing of Kremlin.

Entry point: ``python3 kbench/run.py --workload W --seed N --seconds S
--trace 0|1``. See ``kbench/WORKLOADS.md`` for why each workload exists.
"""
