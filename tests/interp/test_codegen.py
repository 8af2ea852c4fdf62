"""The AOT code generator: one fused emission mode, two engines."""

from __future__ import annotations

import json
import re

import pytest

from repro import kremlin_cc
from repro.interp.codegen import build_unit
from repro.interp.errors import InterpreterError
from repro.interp.interpreter import Interpreter

LOOP_AND_CALL = """
int data[64];
int scale(int v, int k) {
  if (v > k) {
    return v * k;
  }
  return v + k;
}
int main() {
  int total = 0;
  for (int i = 0; i < 64; i = i + 1) {
    data[i] = scale(i, 3);
  }
  for (int j = 0; j < 64; j = j + 1) {
    total = total + data[j];
  }
  return total;
}
"""

#: lines that only exist in metrics-on units: the counter bumps plus the
#: guard of the stale-entry bump
_COUNTER_LINE = re.compile(r"^\s*(_m\w+\[0\] \+= .*|if _vl\d+ == 0:)$")


def _strip_counters(source: str) -> list[str]:
    return [
        line for line in source.splitlines() if not _COUNTER_LINE.match(line)
    ]


def test_metrics_on_source_is_metrics_off_plus_counter_lines():
    program = kremlin_cc(LOOP_AND_CALL, "loop.c")
    off = build_unit(program, "fused", metrics_on=False).source
    on = build_unit(program, "fused", metrics_on=True).source
    assert on != off
    for name in ("_mfp", "_mres", "_mev", "_mcell", "_mfr"):
        assert f"{name}[0] += " in on, name
    assert not any(_COUNTER_LINE.match(line) for line in off.splitlines())
    assert _strip_counters(on) == off.splitlines()


def test_bytecode_engine_is_gone():
    program = kremlin_cc(LOOP_AND_CALL, "loop.c")
    with pytest.raises(InterpreterError, match="expected 'tree' or 'compiled'"):
        Interpreter(program, engine="bytecode")


def _profile_json(program, engine: str, max_depth=None):
    from repro.hcpa.serialize import profile_to_json
    from repro.kremlib.profiler import KremlinProfiler

    profiler = KremlinProfiler(program, max_depth=max_depth)
    interp = Interpreter(program, observer=profiler, engine=engine)
    result = interp.run("main")
    profile = json.dumps(profile_to_json(profiler.profile), sort_keys=True)
    return interp, result.value, profile


def test_default_built_fused_unit_runs_like_tree(monkeypatch):
    from repro.interp import runtime

    program = kremlin_cc(LOOP_AND_CALL, "loop.c")
    unit = build_unit(program, "fused")
    monkeypatch.setattr(runtime, "codegen_unit", lambda *args, **kw: unit)
    interp, value, profile = _profile_json(program, "compiled")
    assert interp._compiled.unit is unit
    _, tree_value, tree_profile = _profile_json(
        kremlin_cc(LOOP_AND_CALL, "loop.c"), "tree"
    )
    assert value == tree_value
    assert profile == tree_profile


def test_depth_windows_share_one_unit():
    program = kremlin_cc(LOOP_AND_CALL, "loop.c")
    windowed, _, windowed_profile = _profile_json(program, "compiled", 2)
    unlimited, _, unlimited_profile = _profile_json(program, "compiled")
    assert windowed._compiled.unit is unlimited._compiled.unit
    reference = kremlin_cc(LOOP_AND_CALL, "loop.c")
    assert windowed_profile == _profile_json(reference, "tree", 2)[2]
    assert unlimited_profile == _profile_json(reference, "tree")[2]
    assert windowed_profile != unlimited_profile


def test_region_markers_are_helper_calls():
    source = build_unit(kremlin_cc(LOOP_AND_CALL, "loop.c"), "fused").source
    assert "_renter(" in source and "_rexit(" in source
    for inlined in ("_ActiveRegion", "ProfilerError", "_intern", "stack.pop"):
        assert inlined not in source, inlined


DIVISION = """
int main() {
  int a = -7;
  float f = 7.5;
  int q = a / 2;
  int r = a % 3;
  float g = f / 2.5;
  return q * 100 + r * 10 + g;
}
"""


@pytest.mark.parametrize("flavor", ["plain", "fused"])
def test_literal_nonzero_divisor_skips_zero_check(flavor):
    program = kremlin_cc(DIVISION, "div.c")
    assert "if b == 0:" not in build_unit(program, flavor).source
    for engine in ("tree", "compiled"):
        assert Interpreter(program, engine=engine).run("main").value == -307
    assert _profile_json(program, "compiled")[1:] == _profile_json(
        kremlin_cc(DIVISION, "div.c"), "tree"
    )[1:]


@pytest.mark.parametrize(
    "op, message", [("/", "division by zero"), ("%", "modulo by zero")]
)
@pytest.mark.parametrize("profiled", [False, True])
def test_literal_zero_divisor_still_raises_located_error(op, message, profiled):
    from repro.kremlib.profiler import KremlinProfiler

    source = f"int main() {{\n  int a = 7;\n  return a {op} 0;\n}}\n"
    errors = []
    for engine in ("tree", "compiled"):
        program = kremlin_cc(source, "zero.c")
        observer = KremlinProfiler(program) if profiled else None
        with pytest.raises(InterpreterError, match=message) as caught:
            Interpreter(program, observer=observer, engine=engine).run("main")
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert errors[1].startswith("zero.c:3:")


def _nested_loops(depth: int) -> str:
    opens = "".join(
        f"for (int i{k} = 0; i{k} < 1; i{k}++) {{ " for k in range(depth)
    )
    return (
        "int main() { int s = 0; " + opens + "s = s + 1; "
        + "} " * depth + "return s; }"
    )


def test_dispatch_fallbacks_are_metered():
    from repro.interp.codegen import _MAX_LOOP_NESTING
    from repro.obs.metrics import collecting_metrics

    program = kremlin_cc(_nested_loops(_MAX_LOOP_NESTING + 1), "deep.c")
    with collecting_metrics() as registry:
        unit = build_unit(program, "fused")
    counters = registry.to_dict()["counters"]
    assert unit.fallback_functions == ["main"]
    assert counters["codegen.fallback_functions"] == 1
    assert "codegen.forced_dispatch_retries" not in counters


def test_forced_dispatch_retries_are_metered(monkeypatch):
    import builtins

    from repro.interp import codegen
    from repro.obs.metrics import collecting_metrics

    calls = []

    def flaky_compile(source, filename, mode):
        calls.append(filename)
        if len(calls) == 1:
            raise SyntaxError("too many statically nested blocks")
        return builtins.compile(source, filename, mode)

    monkeypatch.setattr(codegen, "compile", flaky_compile, raising=False)
    program = kremlin_cc(LOOP_AND_CALL, "loop.c")
    with collecting_metrics() as registry:
        unit = build_unit(program, "fused")
    counters = registry.to_dict()["counters"]
    assert len(calls) == 2
    assert sorted(unit.fallback_functions) == ["main", "scale"]
    assert counters["codegen.forced_dispatch_retries"] == 1
    assert counters["codegen.fallback_functions"] == 2


@pytest.mark.parametrize("op", ["&&", "||"])
def test_long_short_circuit_chain_structures(op):
    """Each short-circuit diamond's join continues at the same indent; the
    structurer loops over that continuation instead of recursing once per
    term, so an 800-term chain stays native control flow."""
    from repro import KremlinSession
    from repro.hcpa.serialize import profile_to_json
    from repro.interp.codegen import codegen_unit
    from repro.kremlib.profiler import profile_program

    chain = f" {op} ".join(["a"] * 800)
    source = (
        "int main() {\n  int a = 1;\n  int s = 0;\n"
        f"  if ({chain}) {{\n    s = 2;\n  }}\n  return s;\n}}\n"
    )
    report = KremlinSession().analyze(source)
    assert report.run.value == 2
    unit = codegen_unit(report.program, "fused")
    assert unit.fallback_functions == []
    tree_profile, _ = profile_program(report.program, engine="tree")
    assert json.dumps(profile_to_json(report.profile), sort_keys=True) == (
        json.dumps(profile_to_json(tree_profile), sort_keys=True)
    )
