"""The benchmark's own tests: ``python3 -m pytest kbench/tests``."""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

import pytest

from kbench import refs as refmod
from kbench.inputs import WORKLOADS, workload_inputs
from kbench.spans import Span, SpanRecorder, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_subtracts_children():
    rec = SpanRecorder("w", clock=FakeClock([0, 1, 4, 5, 5.5, 6, 7, 10]))
    with rec.span("outer"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            with rec.span("c"):
                pass
    assert [s.name for s in rec.spans] == ["outer", "a", "b", "c"]
    assert [s.parent for s in rec.spans] == [None, 0, 0, 2]
    assert self_times(rec.spans) == pytest.approx([5.0, 3.0, 1.5, 0.5])
    assert rec.total("b") == pytest.approx(1.5)
    assert rec.total("c") == pytest.approx(0.5)


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        Span("p", 0.0, 10.0, None, "w", "x"),
        Span("c1", 2.0, 6.0, 0, "w", "x"),
        Span("c2", 4.0, 8.0, 0, "w", "x"),
        Span("c3", 9.0, 12.0, 0, "w", "x"),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_determines_inputs(workload):
    first = workload_inputs(workload, 7)
    assert workload_inputs(workload, 7) == first
    assert workload_inputs(workload, 8) != first
    assert sorted(workload_inputs(workload, 8)) == sorted(first)


def _bench(tmp_path, suite_refs):
    from kbench.workloads import Bench

    return Bench("suite-warm", 1, str(tmp_path), suite_refs=suite_refs)


def test_checked_call_passes_against_true_reference(tmp_path):
    bench = _bench(tmp_path, refmod.load_suite_refs())
    lu = next(p for p in bench.programs if p.name == "lu")
    assert bench.call(lu, metrics=False) is not None
    assert (bench.tally.attempted, bench.tally.failed) == (1, 0)


def test_corrupted_reference_digest_raises_error_frac(tmp_path):
    suite_refs = copy.deepcopy(refmod.load_suite_refs())
    digest = suite_refs["lu"]["profile_sha256"]
    suite_refs["lu"]["profile_sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    bench = _bench(tmp_path, suite_refs)
    lu = next(p for p in bench.programs if p.name == "lu")
    assert bench.call(lu, metrics=False) is None
    assert bench.tally.error_frac > 0
    assert "serialized profile differs" in bench.tally.problems[0]


def test_corrupted_report_digest_fails_replan_check():
    ref = refmod.load_suite_refs()["lu"]
    outputs = {"plans": dict(ref["plans"]), "regions": "", "flat": ""}
    assert refmod.check_replan(outputs, ref) == [
        "region table or flat profile differs from the reference"
    ]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "kbench"),
        tmp_path / "kbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "kbench/run.py", "--workload", "replan", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
