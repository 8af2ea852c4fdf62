"""Reference outputs from the tree engine, and the checks against them.

The tree engine is the semantic reference of the repository: the compiled
engine under test must reproduce its return value, its serialized profile
byte for byte, and the plans every planner personality draws from that
profile. References for the suite programs are checked in
(``kbench/refs/suite.json``); regenerate them with::

    python3 kbench/refs.py

References for generated programs are computed at run time, before any
timing starts.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs", "suite.json")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def profile_digest(profile) -> str:
    from repro import save_profile

    buffer = io.StringIO()
    save_profile(profile, buffer)
    return sha256_text(buffer.getvalue())


#: the planner personalities every replan runs, in this order
PERSONALITIES = ("cilk", "gprof", "openmp", "sp-filter", "static")


def replan(profile, filename: str) -> dict:
    """The ``--from-profile`` work after loading: aggregate, compression
    statistics, one plan per personality, then the three renderings."""
    from repro import (
        aggregate_profile,
        compression_stats,
        create_planner,
        format_flat_profile,
        format_plan,
        format_region_table,
    )

    aggregated = aggregate_profile(profile)
    stats = compression_stats(profile)
    plans = {}
    for personality in PERSONALITIES:
        plan = create_planner(personality).plan(aggregated)
        plan.program_name = filename
        plans[personality] = plan
    return {
        "stats": stats,
        "plans": {name: format_plan(plan) for name, plan in plans.items()},
        "regions": format_region_table(aggregated),
        "flat": format_flat_profile(aggregated),
    }


def report_digest(outputs: dict) -> str:
    return sha256_text(outputs["regions"] + "\n" + outputs["flat"])


def reference(source: str, filename: str) -> dict:
    """Tree-engine reference for one program."""
    from repro import CompileOptions, KremlinSession, ProfileOptions

    session = KremlinSession(
        compile_options=CompileOptions(filename=filename),
        profile_options=ProfileOptions(engine="tree"),
    )
    report = session.analyze(source)
    outputs = replan(report.profile, filename)
    return {
        "value": report.run.value,
        "profile_sha256": profile_digest(report.profile),
        "plans": outputs["plans"],
        "report_sha256": report_digest(outputs),
    }


def check_analyze(report, ref: dict) -> list[str]:
    """Mismatches between one ``analyze`` report and its reference."""
    problems = []
    if report.run.value != ref["value"]:
        problems.append(f"returned {report.run.value!r}, expected {ref['value']!r}")
    if profile_digest(report.profile) != ref["profile_sha256"]:
        problems.append("serialized profile differs from the reference")
    if report.render_plan() != ref["plans"][report.plan.personality]:
        problems.append(f"{report.plan.personality} plan differs from the reference")
    return problems


def check_profile_text(text: str, ref: dict) -> list[str]:
    if sha256_text(text) != ref["profile_sha256"]:
        return ["saved profile differs from the reference"]
    return []


def check_replan(outputs: dict, ref: dict) -> list[str]:
    problems = [
        f"{name} plan differs from the reference"
        for name, text in outputs["plans"].items()
        if ref["plans"].get(name) != text
    ]
    if set(outputs["plans"]) != set(ref["plans"]):
        problems.append("personality set differs from the reference")
    if report_digest(outputs) != ref["report_sha256"]:
        problems.append("region table or flat profile differs from the reference")
    return problems


def load_suite_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["programs"]


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, root)
    from kbench.inputs import SUITE_ALL, filename_of, source_of

    programs = {}
    for name in SUITE_ALL:
        print(f"reference {name}", file=sys.stderr)
        programs[name] = reference(source_of(name), filename_of(name))
    os.makedirs(os.path.dirname(REFS_PATH), exist_ok=True)
    with open(REFS_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "generated_by": "python3 kbench/refs.py",
                "engine": "tree",
                "programs": programs,
            },
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
