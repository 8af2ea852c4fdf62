#!/usr/bin/env python3
"""CI static-analysis smoke check.

Compiles every ``examples/*.c`` program plus three bench_suite benchmarks,
profiles them, and asserts the static loop-dependence analyzer holds up its
end of the planner contract:

1. every region the OpenMP planner recommends carries a *non-UNKNOWN* static
   verdict (the analyzer resolved every planner-visible loop);
2. across the bench plans at least one dynamically-DOALL recommendation is
   statically refuted (demoted) and at least one carries a
   ``reduction(...)`` verdict — the two showcase behaviours the analyzer
   exists to produce;
3. ``kremlin check`` runs clean (exit 0 or 2, never a crash) on each
   example source;
4. the interprocedural mod/ref summaries resolve the call in
   ``examples/call_in_loop.c``: the loop that calls ``blur`` is
   ``SAFE_DOALL`` with no impure-call witness, and the
   ``--summaries --cost --json`` output round-trips as JSON.

Exit code 0 = all checks pass. Run from the repo root:

    PYTHONPATH=src python scripts/check_analysis.py
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.verdict import (  # noqa: E402
    UNKNOWN_TAG,
    tag_reduction_vars,
)
from repro.bench_suite.registry import run_benchmark  # noqa: E402
from repro.cli import main as kremlin_main  # noqa: E402
from repro.hcpa.aggregate import aggregate_profile  # noqa: E402
from repro.instrument.compile import kremlin_cc  # noqa: E402
from repro.kremlib.profiler import profile_program  # noqa: E402
from repro.planner.openmp import OpenMPPlanner  # noqa: E402

BENCH_NAMES = ("bt", "cg", "ep")


def _plan_items(profile):
    aggregated = aggregate_profile(profile)
    plan = OpenMPPlanner().plan(aggregated, profile=profile)
    return plan.items


def check_examples() -> tuple[list[str], list]:
    problems: list[str] = []
    items = []
    for path in sorted((REPO_ROOT / "examples").glob("*.c")):
        source = path.read_text()
        try:
            program = kremlin_cc(source, str(path))
        except Exception as error:  # noqa: BLE001 - report, don't crash
            problems.append(f"{path.name}: does not compile: {error}")
            continue
        if program.analysis is None:
            problems.append(f"{path.name}: kremlin_cc produced no analysis")
            continue
        profile, _ = profile_program(program)
        items += [(path.name, item) for item in _plan_items(profile)]
        code = kremlin_main(["check", str(path)])
        if code not in (0, 2):
            problems.append(f"kremlin check {path.name} exited {code}")
    return problems, items


def check_benchmarks() -> tuple[list[str], list]:
    problems: list[str] = []
    items = []
    for name in BENCH_NAMES:
        try:
            result = run_benchmark(name)
        except Exception as error:  # noqa: BLE001
            problems.append(f"benchmark {name}: failed to profile: {error}")
            continue
        items += [(name, item) for item in _plan_items(result.profile)]
    return problems, items


def check_verdict_coverage(items) -> list[str]:
    problems = []
    if not items:
        return ["no planner recommendations produced at all"]
    for origin, item in items:
        if item.static_verdict == UNKNOWN_TAG:
            problems.append(
                f"{origin}: recommended region {item.region.id} "
                f"({item.region.name}) has UNKNOWN static verdict"
            )
    refuted = [item for _, item in items if item.refuted]
    reductions = [
        item
        for _, item in items
        if tag_reduction_vars(item.static_verdict)
    ]
    if not refuted:
        problems.append("no recommendation was statically refuted/demoted")
    if not reductions:
        problems.append("no recommendation carries a reduction(...) verdict")
    return problems


def check_summaries() -> list[str]:
    """The summarized call-bearing loop + the machine-readable surface."""
    import io
    import json
    from contextlib import redirect_stdout

    from repro.analysis.verdict import Verdict
    from repro.ir.instructions import Call

    problems: list[str] = []
    path = REPO_ROOT / "examples" / "call_in_loop.c"
    try:
        program = kremlin_cc(path.read_text(), str(path))
    except Exception as error:  # noqa: BLE001
        return [f"{path.name}: does not compile: {error}"]

    # The loop calling blur(i) writes dst[i] through the call: summaries
    # must make it SAFE_DOALL, not an impure-call witness.
    blur_loops = [
        info
        for info in program.analysis.functions["main"].loops
        if any(
            isinstance(instr, Call) and instr.callee == "blur"
            for block in info.loop.blocks
            for instr in block.instructions
        )
    ]
    if len(blur_loops) != 1:
        problems.append(
            f"{path.name}: expected one loop calling 'blur', "
            f"found {len(blur_loops)}"
        )
    for info in blur_loops:
        verdict = info.verdict
        if verdict.verdict is not Verdict.SAFE_DOALL or any(
            w.kind == "impure-call" for w in verdict.witnesses
        ):
            problems.append(
                f"{path.name}: the loop calling 'blur' is "
                f"{verdict.tag}, not SAFE_DOALL without an impure-call "
                f"witness ({[str(w) for w in verdict.witnesses]})"
            )

    # --summaries --cost --json must emit valid JSON with both sections.
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = kremlin_main(
            ["check", str(path), "--summaries", "--cost", "--json",
             "--no-verdicts"]
        )
    if code not in (0, 2):
        problems.append(f"kremlin check --summaries {path.name} exited {code}")
    try:
        document = json.loads(buffer.getvalue())
    except json.JSONDecodeError as error:
        return problems + [f"--summaries --json is not valid JSON: {error}"]
    if not document.get("summaries"):
        problems.append("--summaries JSON has no summaries section")
    if not document.get("costs"):
        problems.append("--cost JSON has no costs section")
    names = {record["name"] for record in document.get("summaries", [])}
    if "blur" not in names:
        problems.append(f"summary JSON misses 'blur' (got {sorted(names)})")
    return problems


def main() -> int:
    example_problems, example_items = check_examples()
    bench_problems, bench_items = check_benchmarks()
    problems = (
        example_problems
        + bench_problems
        + check_verdict_coverage(example_items + bench_items)
        + check_summaries()
    )
    if problems:
        for problem in problems:
            print(f"check_analysis: FAIL: {problem}", file=sys.stderr)
        return 1
    print(
        f"check_analysis: {len(example_items + bench_items)} planner "
        "recommendations all carry static verdicts; refuted + reduction "
        "showcases present; the blur call loop is SAFE_DOALL under "
        "summaries and --summaries/--cost JSON verified"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
