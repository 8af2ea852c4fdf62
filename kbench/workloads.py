"""Set-up and timed calls of the three workloads.

Everything runs in this one process, with no threads or pools. Each
``analyze`` goes through a fresh :class:`repro.KremlinSession`, so the
session's in-memory compile cache never serves a timed call; only the
on-disk codegen cache (in a directory private to the run) carries work
from one call to the next.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import (
    CompileOptions,
    Interpreter,
    KremlinProfiler,
    KremlinSession,
    load_profile,
    save_profile,
)
from repro.interp import diskcache
from repro.obs import MetricsRegistry, collecting_metrics

from kbench import refs as refmod
from kbench.ticks import NOMINAL_TICK_S, in_ticks, reference_loop
from kbench.inputs import (
    WARMUP_FUZZ_SEEDS,
    WARMUP_SUITE,
    filename_of,
    fuzz_name,
    program_names,
    source_of,
)

#: set-up repetitions per run; setup_s is their median
SETUP_REPEATS = 3


@dataclass
class Tally:
    """Checked calls and the ones that raised or disagreed with the
    reference."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")
            print(f"kbench: FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    @property
    def error_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Program:
    name: str
    filename: str
    source: str
    ref: dict
    #: saved profile (replan inputs only)
    profile_path: str | None = None


class Bench:
    """One workload run: its inputs, references, cache directories and
    the tally of checked calls."""

    def __init__(self, workload: str, seed: int, workdir: str, suite_refs: dict | None = None):
        self.workload = workload
        self.workdir = workdir
        self.tally = Tally()
        self._dirs = 0
        self.cache_dir = ""
        suite_refs = refmod.load_suite_refs() if suite_refs is None else suite_refs
        names = program_names(workload, seed)
        if workload == "fresh-cold":
            warmup = [fuzz_name(s) for s in WARMUP_FUZZ_SEEDS]
        else:
            warmup = [WARMUP_SUITE]
        # Input generation and reference checks: outside every timing.
        self.programs = [self._program(n, suite_refs) for n in names]
        self.warmup = [self._program(n, suite_refs) for n in warmup]
        self.fresh_cache_dir()

    def _program(self, name: str, suite_refs: dict) -> Program:
        source = source_of(name)
        filename = filename_of(name)
        if name in suite_refs:
            ref = suite_refs[name]
        else:
            ref = refmod.reference(source, filename)
        return Program(name, filename, source, ref)

    # ------------------------------------------------------------------
    # Cache directories (always inside the run's private work dir)
    # ------------------------------------------------------------------

    def fresh_cache_dir(self) -> str:
        """Point the codegen disk cache at a new, empty directory."""
        self._dirs += 1
        path = os.path.join(self.workdir, "cache", str(self._dirs))
        os.makedirs(path)
        diskcache.configure(directory=path, enabled=True)
        self.cache_dir = path
        return path

    # ------------------------------------------------------------------
    # The calls a user waits for
    # ------------------------------------------------------------------

    def analyze(self, program: Program, metrics: bool):
        """One fresh-session ``analyze``; returns (seconds, report)."""
        session = KremlinSession(
            compile_options=CompileOptions(filename=program.filename),
            metrics=MetricsRegistry() if metrics else None,
        )
        start = time.perf_counter()
        report = session.analyze(program.source)
        return time.perf_counter() - start, report

    def replan(self, program: Program, metrics: bool):
        """One ``kremlin --from-profile`` call; returns (seconds, outputs)."""
        scope = collecting_metrics(MetricsRegistry()) if metrics else nullcontext()
        start = time.perf_counter()
        with scope:
            outputs = refmod.replan(load_profile(program.profile_path), program.filename)
        return time.perf_counter() - start, outputs

    def call(self, program: Program, metrics: bool) -> float | None:
        """The workload's call, checked after the clock stops. Returns its
        wall time, or None when it raised or disagreed with the reference."""
        what = f"{self.workload} {program.name}{' metrics' if metrics else ''}"
        # Garbage left by earlier calls is collected here, not inside
        # whichever call happens to cross the collector's threshold.
        gc.collect()
        try:
            if self.workload == "replan":
                seconds, outputs = self.replan(program, metrics)
                problems = refmod.check_replan(outputs, program.ref)
            else:
                seconds, report = self.analyze(program, metrics)
                problems = refmod.check_analyze(report, program.ref)
        except Exception as exc:  # a failed call is counted, not fatal
            self.tally.record(what, [f"raised {type(exc).__name__}: {exc}"])
            return None
        self.tally.record(what, problems)
        return None if problems else seconds

    # ------------------------------------------------------------------
    # Input generation for replan: profile once, plan many
    # ------------------------------------------------------------------

    def save_profiles(self) -> None:
        """Profile every program once with the compiled engine, check it,
        and save it where the replan calls load it from. Programs are
        profiled in name order, whatever the seed, so the memory high-water
        mark they leave does not depend on the seed."""
        directory = os.path.join(self.workdir, "profiles")
        os.makedirs(directory)
        before = diskcache.stats()
        by_name = {}
        for program in self.programs + self.warmup:
            by_name.setdefault(program.name, []).append(program)
        for name, programs in sorted(by_name.items()):
            gc.collect()
            _, report = self.analyze(programs[0], metrics=False)
            path = os.path.join(directory, name + ".json")
            save_profile(report.profile, path)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            problems = refmod.check_analyze(report, programs[0].ref)
            problems += refmod.check_profile_text(text, programs[0].ref)
            self.tally.record(f"save-profile {name}", problems)
            for program in programs:
                program.profile_path = path
        after = diskcache.stats()
        #: (hits, misses) of the disk cache while the profiles were made
        self.profile_cache_traffic = (
            after["hits"] - before["hits"],
            after["misses"] - before["misses"],
        )

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def setup_once(self) -> float:
        """One set-up: cache state plus warm-up calls. Returns seconds."""
        start = time.perf_counter()
        if self.workload == "suite-warm":
            self.fresh_cache_dir()
            for program in self.programs:
                compiled = KremlinSession(
                    compile_options=CompileOptions(filename=program.filename)
                ).compile(program.source)
                Interpreter(compiled, observer=KremlinProfiler(compiled)).prepare()
                with collecting_metrics(MetricsRegistry()):
                    Interpreter(compiled, observer=KremlinProfiler(compiled)).prepare()
        elif self.workload == "fresh-cold":
            self.fresh_cache_dir()
        for program in self.warmup:
            self.call(program, metrics=False)
            self.call(program, metrics=True)
        return time.perf_counter() - start

    def setup(self, repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
        """Repeated set-ups; (seconds, ticks) of each."""
        out = []
        before = reference_loop()
        for _ in range(repeats):
            seconds = self.setup_once()
            after = reference_loop()
            out.append((seconds, in_ticks(seconds, [before, after])))
            before = after
        return out

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def measure(self, seconds: float) -> tuple["Samples", "Samples", float]:
        """Whole passes over the programs until ``seconds`` have gone by.

        Passes alternate between metrics off and metrics on, and stop after
        an equal number of each, so every program is called equally often
        on both sides. The reference loop runs between calls; a call's time in ticks
        is its wall time over the mean of the reference runs nearest to it,
        three on each side. Returns the metrics-off and metrics-on samples
        and the elapsed seconds.
        """
        calls: list[tuple[str, bool, float, int]] = []
        references = [reference_loop()]
        start = time.perf_counter()
        passes = 0
        while True:
            metrics = passes % 2 == 1
            if self.workload == "fresh-cold":
                old = self.cache_dir
                self.fresh_cache_dir()
                shutil.rmtree(old)
            for program in self.programs:
                seconds_taken = self.call(program, metrics)
                references.append(reference_loop())
                if seconds_taken is not None:
                    calls.append((program.name, metrics, seconds_taken, len(references) - 1))
            passes += 1
            if metrics and time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
        off, on = Samples(), Samples()
        for name, metrics, seconds_taken, after in calls:
            nearest = references[max(0, after - 3) : after + 3]
            (on if metrics else off).add(name, seconds_taken, in_ticks(seconds_taken, nearest))
        return off, on, elapsed


@dataclass
class Samples:
    """Wall times of checked calls, in seconds and in ticks, per program."""

    seconds: list = field(default_factory=list)
    ticks: list = field(default_factory=list)
    ticks_by_program: dict = field(default_factory=dict)

    def add(self, program: str, seconds: float, ticks: float) -> None:
        self.seconds.append(seconds)
        self.ticks.append(ticks)
        self.ticks_by_program.setdefault(program, []).append(ticks)

    def program_medians(self) -> list[float]:
        return [statistics.median(v) for v in self.ticks_by_program.values()]


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(import_ticks: float, setups: list[tuple[float, float]], off: Samples, on: Samples) -> dict:
    """The gated metrics of one untraced run.

    Set-up time is measured in ticks and reported in seconds of a machine
    on which a tick lasts ``NOMINAL_TICK_S``. Call times are summarized per
    program first (median), then across programs: a geometric mean, so
    that every program weighs the same, and a throughput, calls per
    thousand ticks at those medians. Both average the remaining noise over
    all programs, where a pooled median rests on the one or two calls in
    the middle.
    """
    setup_ticks = import_ticks + statistics.median(ticks for _, ticks in setups)
    medians_off, medians_on = off.program_medians(), on.program_medians()
    return {
        "setup_s": (setup_ticks * NOMINAL_TICK_S, "s"),
        "call_ticks_gmean": (statistics.geometric_mean(medians_off), "ticks"),
        "call_metrics_ticks_gmean": (statistics.geometric_mean(medians_on), "ticks"),
        "calls_per_kticks": (1000.0 * len(medians_off) / sum(medians_off), "1/kticks"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
