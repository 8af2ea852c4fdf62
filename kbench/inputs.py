"""Which programs each workload runs, and in what order.

The seed only reorders a fixed program set. A per-call median over
seed-dependent random programs moved 20-35% between seeds in trial runs
(generated programs range from 13 to 250 lines), far wider than any bound
the benchmark could hold; a fixed set keeps the median a property of the
code under test. Every ``fresh-cold`` call still sees its source for the
first time: each pass starts from an empty codegen cache directory and
each call uses a fresh session.
"""

from __future__ import annotations

import random

WORKLOADS = ("suite-warm", "fresh-cold", "replan")

#: deep region nests (bt/sp/mg), reductions (ep/is), a DOACROSS wavefront
#: (lu), indirect sparse access (cg) and SPEC (ammp); about 4.5 s a pass
SUITE_WARM = ("ep", "is", "lu", "mg", "bt", "sp", "ammp", "cg")

#: every registered program; the five slow ones only appear in replan
SUITE_ALL = SUITE_WARM + ("ft", "art", "equake", "tracking", "mandel")

#: generator seeds of the fresh-cold programs (default generator config)
FRESH_COLD_SEEDS = tuple(range(24))

#: fixed warm-up programs, used during set-up only
WARMUP_SUITE = "lu"
WARMUP_FUZZ_SEEDS = (1000, 1001)


def program_names(workload: str, seed: int) -> list[str]:
    """The workload's programs in the order the seed gives them."""
    if workload == "suite-warm":
        names = list(SUITE_WARM)
    elif workload == "replan":
        names = list(SUITE_ALL)
    elif workload == "fresh-cold":
        names = [fuzz_name(s) for s in FRESH_COLD_SEEDS]
    else:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        )
    random.Random(f"{workload}:{seed}").shuffle(names)
    return names


def fuzz_name(generator_seed: int) -> str:
    return f"fuzz{generator_seed}"


def filename_of(name: str) -> str:
    return f"{name}.c"


def source_of(name: str) -> str:
    """MiniC source of a suite program or a generated ``fuzzN`` program."""
    if name.startswith("fuzz"):
        from repro.fuzz.generator import generate_program

        return generate_program(int(name[len("fuzz"):]))
    from repro.bench_suite.registry import get_benchmark

    return get_benchmark(name).source


def workload_inputs(workload: str, seed: int) -> list[tuple[str, str]]:
    """(filename, source) pairs exactly as the program receives them."""
    return [
        (filename_of(name), source_of(name))
        for name in program_names(workload, seed)
    ]
