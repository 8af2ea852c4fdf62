"""The traced run: each layer's public function, called in pipeline order
and wrapped in a span, for every program of the workload.

Per program the run makes

1. the workload's own call untraced, with metrics off and on (the
   baseline the tracing overhead is measured against), and
2. the layer-by-layer pipeline below, one span per call:
   lex, parse, lower, verify, instrument, the five analysis passes in
   ``analyze_module``'s order, codegen cold / disk hit / memory hit, the
   plain run, the HCPA run, save, load, aggregate, compression
   statistics, one plan per personality and the renderings.

The per-layer metrics sum the spans over the workload's programs.
"""

from __future__ import annotations

import dataclasses
import os

from repro import (
    CompiledProgram,
    Interpreter,
    KremlinProfiler,
    aggregate_profile,
    compression_stats,
    create_planner,
    format_flat_profile,
    format_plan,
    format_region_table,
    load_profile,
    profile_program,
    save_profile,
)
from repro.analysis.callgraph import build_call_graph
from repro.analysis.dataflow import ReachingDefinitions
from repro.analysis.dependence import analyze_function_dependences
from repro.analysis.driver import analyze_module
from repro.analysis.lint import LintContext, run_lint
from repro.analysis.static_cost import compute_static_costs
from repro.analysis.summaries import compute_module_summaries
from repro.frontend.parser import Parser
from repro.frontend.source import SourceFile
from repro.instrument.costs import DEFAULT_COST_MODEL
from repro.instrument.passes import instrument_module
from repro.interp import diskcache
from repro.interp.codegen import codegen_unit
from repro.ir.verifier import verify_module
from repro.lowering.lower import lower_program

from kbench import refs as refmod
from kbench.spans import SpanRecorder
from kbench.workloads import Bench

_PLAIN = "interp.plain_run"
_HCPA = "kremlib.hcpa_run"

#: spans that together do the work of one ``analyze``; the codegen span
#: added to them depends on the workload's cache state
_ANALYZE_SPANS = (
    "frontend.lex",
    "frontend.parse",
    "lowering.lower",
    "ir.verify",
    "instrument.instrument",
    "analysis.dataflow",
    "analysis.summaries",
    "analysis.dependence",
    "analysis.static_cost",
    "analysis.lint",
    _HCPA,
    "hcpa.aggregate",
    "hcpa.compress",
    "planner.plan.openmp",
)

#: spans that together do the work of one replan call
_REPLAN_SPANS = ("hcpa.load", "hcpa.aggregate", "hcpa.compress", "report.render")

#: time metrics: metric name -> span name
_TIMES = {
    "frontend.lex_s": "frontend.lex",
    "frontend.parse_s": "frontend.parse",
    "lowering.lower_s": "lowering.lower",
    "ir.verify_s": "ir.verify",
    "instrument.instrument_s": "instrument.instrument",
    "analysis.dataflow_s": "analysis.dataflow",
    "analysis.summaries_s": "analysis.summaries",
    "analysis.dependence_s": "analysis.dependence",
    "analysis.static_cost_s": "analysis.static_cost",
    "analysis.lint_s": "analysis.lint",
    "interp.codegen_cold_s": "interp.codegen_cold",
    "interp.codegen_disk_s": "interp.codegen_disk",
    "interp.codegen_mem_s": "interp.codegen_mem",
    "interp.plain_run_s": _PLAIN,
    "kremlib.hcpa_run_s": _HCPA,
    "hcpa.save_s": "hcpa.save",
    "hcpa.load_s": "hcpa.load",
    "hcpa.aggregate_s": "hcpa.aggregate",
    "hcpa.compress_s": "hcpa.compress",
    "report.render_s": "report.render",
}

#: count metrics: metric name -> counter name
_COUNTS = {
    "frontend.tokens": "tokens",
    "lowering.ir_instructions": "ir_instructions",
    "instrument.regions": "regions",
    "analysis.loops": "loops",
    "interp.instructions": "instructions",
    "hcpa.dictionary_entries": "dictionary_entries",
}


def pipeline(rec: SpanRecorder, program, workdir: str) -> list[str]:
    """Run one program through every layer; returns reference mismatches."""
    source, filename = program.source, program.filename
    span = rec.span
    with span("pipeline.compile"):
        with span("frontend.lex"):
            parser = Parser(SourceFile(filename, source))
        with span("frontend.parse"):
            ast = parser.parse_program()
        rec.count("tokens", len(parser.tokens))
        with span("lowering.lower"):
            module = lower_program(ast)
        rec.count(
            "ir_instructions",
            sum(
                len(block.instructions) + (block.terminator is not None)
                for function in module.functions.values()
                for block in function.blocks
            ),
        )
        with span("ir.verify"):
            verify_module(module)
        with span("instrument.instrument"):
            instrumentation = instrument_module(module, DEFAULT_COST_MODEL)
        rec.count("regions", len(module.regions))

        with span("analysis.dataflow"):
            reaching = {
                name: ReachingDefinitions(function)
                for name, function in module.functions.items()
            }
        with span("analysis.summaries"):
            graph = build_call_graph(module)
            summaries = compute_module_summaries(module, graph)
        with span("analysis.dependence"):
            loops = {
                name: analyze_function_dependences(
                    function, module, rd=reaching[name], summaries=summaries
                )
                for name, function in module.functions.items()
            }
        rec.count("loops", sum(len(infos) for infos in loops.values()))
        with span("analysis.static_cost"):
            compute_static_costs(module, loops, regions=module.regions, graph=graph)
        with span("analysis.lint"):
            run_lint(
                LintContext(
                    module=module,
                    reaching=reaching,
                    dependences=loops,
                    summaries=summaries,
                )
            )
    # Stamping verdicts and static costs onto the region tree is private
    # to analyze_module, and the profile and plans carry those stamps, so
    # the whole analysis runs once more here, outside every span.
    analysis = analyze_module(module)
    compiled = CompiledProgram(
        module=module,
        instrumentation=instrumentation,
        source=source,
        filename=filename,
        analysis=analysis,
    )

    with span("pipeline.run"):
        # Codegen: cold into an empty directory, then a disk hit for a
        # second program object with the same key, then a memory hit.
        depth = KremlinProfiler(compiled).max_depth
        saved_dir = diskcache.cache_dir()
        cold_dir = os.path.join(workdir, "trace-cold", program.name)
        os.makedirs(cold_dir, exist_ok=True)
        diskcache.configure(directory=cold_dir, enabled=True)
        try:
            before = diskcache.stats()
            with span("interp.codegen_cold"):
                codegen_unit(compiled, "fused", None, depth, False)
            twin = dataclasses.replace(compiled)
            with span("interp.codegen_disk"):
                codegen_unit(twin, "fused", None, depth, False)
            with span("interp.codegen_mem"):
                codegen_unit(twin, "fused", None, depth, False)
            after = diskcache.stats()
        finally:
            diskcache.configure(directory=saved_dir, enabled=True)
        problems = []
        if (after["misses"] - before["misses"], after["hits"] - before["hits"]) != (1, 1):
            problems.append("codegen did not go cold, then disk hit")

        plain = Interpreter(twin)
        plain.prepare()
        with span(_PLAIN):
            plain_run = plain.run()
        with span(_HCPA):
            profile, run = profile_program(twin)
        rec.count("instructions", run.instructions_retired)
        if run.value != program.ref["value"] or plain_run.value != run.value:
            problems.append(f"returned {run.value!r}/{plain_run.value!r}, expected {program.ref['value']!r}")

        path = os.path.join(workdir, "trace-profiles", program.name + ".json")
        with span("hcpa.save"):
            save_profile(profile, path)
        with open(path, encoding="utf-8") as handle:
            problems += refmod.check_profile_text(handle.read(), program.ref)

        outputs = traced_replan(rec, path, filename)
        problems += refmod.check_replan(outputs, program.ref)
    return problems


def traced_replan(rec: SpanRecorder, path: str, filename: str) -> dict:
    span = rec.span
    with span("hcpa.load"):
        profile = load_profile(path)
    with span("hcpa.aggregate"):
        aggregated = aggregate_profile(profile)
    with span("hcpa.compress"):
        stats = compression_stats(profile)
    rec.count("dictionary_entries", stats.dictionary_entries)
    rec.count("raw_bytes", stats.raw_bytes)
    rec.count("compressed_bytes", stats.compressed_bytes)
    plans = {}
    for personality in refmod.PERSONALITIES:
        with span(f"planner.plan.{personality}"):
            plan = create_planner(personality).plan(aggregated)
        plan.program_name = filename
        plans[personality] = plan
    with span("report.render"):
        rendered = {name: format_plan(plan) for name, plan in plans.items()}
        regions = format_region_table(aggregated)
        flat = format_flat_profile(aggregated)
    return {"stats": stats, "plans": rendered, "regions": regions, "flat": flat}


def traced_run(bench: Bench) -> tuple[dict, str]:
    """Per-layer metrics and the derived-figures table for one workload."""
    rec = SpanRecorder(bench.workload)
    untraced: dict[str, float] = {}
    metrics_on: dict[str, float] = {}
    hits = misses = 0
    for program in bench.programs:
        rec.program = program.name
        if bench.workload == "fresh-cold":
            bench.fresh_cache_dir()
        before = diskcache.stats()
        untraced[program.name] = bench.call(program, metrics=False) or 0.0
        if bench.workload == "fresh-cold":
            bench.fresh_cache_dir()
        metrics_on[program.name] = bench.call(program, metrics=True) or 0.0
        after = diskcache.stats()
        hits += after["hits"] - before["hits"]
        misses += after["misses"] - before["misses"]
        try:
            problems = pipeline(rec, program, bench.workdir)
        except Exception as exc:  # a failed pipeline is counted, not fatal
            problems = [f"raised {type(exc).__name__}: {exc}"]
        bench.tally.record(f"traced {program.name}", problems)
    if bench.workload == "replan":
        # replan makes no analyze call; its cache traffic is the one of
        # the analyze calls that saved its profiles during set-up
        hits, misses = bench.profile_cache_traffic
    return _metrics(bench, rec, untraced, metrics_on, hits, misses)


def _codegen_span(workload: str) -> str:
    return "interp.codegen_cold" if workload == "fresh-cold" else "interp.codegen_disk"


def _call_spans(workload: str) -> tuple[str, ...]:
    if workload == "replan":
        return _REPLAN_SPANS + tuple(f"planner.plan.{p}" for p in refmod.PERSONALITIES)
    return _ANALYZE_SPANS + (_codegen_span(workload),)


def _metrics(bench, rec, untraced, metrics_on, hits, misses) -> tuple[dict, str]:
    out: dict[str, tuple[float, str]] = {}
    for metric, span_name in _TIMES.items():
        out[metric] = (rec.total(span_name), "s")
    for personality in refmod.PERSONALITIES:
        out[f"planner.plan_s.{personality}"] = (rec.total(f"planner.plan.{personality}"), "s")
    for metric, counter in _COUNTS.items():
        out[metric] = (rec.counts.get(counter, 0), "count")
    compressed = rec.counts.get("compressed_bytes", 0)
    out["hcpa.compression_ratio"] = (rec.counts.get("raw_bytes", 0) / compressed if compressed else 0.0, "x")
    out["interp.diskcache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    hcpa_s, plain_s = rec.total(_HCPA), rec.total(_PLAIN)
    out["kremlib.slowdown_x"] = (hcpa_s / plain_s, "x")
    out["kremlib.profiled_minstr_per_s"] = (rec.counts.get("instructions", 0) / 1e6 / hcpa_s, "Minstr/s")
    off_total, on_total = sum(untraced.values()), sum(metrics_on.values())
    out["obs.metrics_on_x"] = (on_total / off_total, "x")
    call_spans = _call_spans(bench.workload)
    traced_total = sum(rec.total(name) for name in call_spans)
    out["trace.untraced_call_s"] = (off_total, "s")
    out["trace.spans_s"] = (traced_total, "s")
    out["trace.overhead_s"] = (traced_total - off_total, "s")
    return out, derived_table(bench, rec, untraced, metrics_on, call_spans)


def derived_table(bench, rec, untraced, metrics_on, call_spans) -> str:
    """Plain-text table for PR descriptions; taken from the traced run and
    not gated. Cold and warm analyze are the analyze spans with a cold
    codegen or with a disk hit as the codegen step."""
    call = "replan" if bench.workload == "replan" else "analyze"
    lines = [
        f"derived figures, workload {bench.workload} (traced run, not gated; times in ms)",
        f"{'program':<10} {'plain':>9} {'hcpa':>9} {'slowdown':>8} {'cold':>9} {'warm':>9} "
        f"{'cold/warm':>9} {call:>9} {'+metrics':>9} {'on/off':>7}",
    ]
    for program in bench.programs:
        name = program.name
        plain, hcpa = rec.total(_PLAIN, name), rec.total(_HCPA, name)
        base = sum(rec.total(s, name) for s in _ANALYZE_SPANS)
        cold = base + rec.total("interp.codegen_cold", name)
        warm = base + rec.total("interp.codegen_disk", name)
        off, on = untraced[name], metrics_on[name]
        lines.append(
            f"{name:<10} {plain * 1e3:9.2f} {hcpa * 1e3:9.2f} {_ratio(hcpa, plain):>8} "
            f"{cold * 1e3:9.2f} {warm * 1e3:9.2f} {_ratio(cold, warm):>9} "
            f"{off * 1e3:9.2f} {on * 1e3:9.2f} {_ratio(on, off):>7}"
        )
    off_total = sum(untraced.values())
    traced_total = sum(rec.total(n) for n in call_spans)
    overhead = traced_total - off_total
    lines.append(
        f"tracing overhead: spans of the {call} layers sum to {traced_total:.4f} s "
        f"against {off_total:.4f} s untraced ({overhead:+.4f} s, "
        f"{100.0 * overhead / off_total:+.1f}%)"
    )
    return "\n".join(lines)


def _ratio(a: float, b: float) -> str:
    return f"{a / b:.2f}x" if b else "-"

