"""The AOT code generator: one fused emission mode, two engines."""

from __future__ import annotations

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
