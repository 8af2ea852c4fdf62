"""Reaching-definitions and def-use chain tests."""

from repro.analysis.dataflow import (
    ReachingDefinitions,
    definitions_in_loop,
    upward_exposed_registers,
)
from repro.analysis.loops import find_natural_loops
from tests.conftest import compile_source


def reaching_for(source, name="main"):
    program = compile_source(source)
    function = program.module.function(name)
    return function, ReachingDefinitions(function)


def find_register(function, name):
    for param in function.params:
        if param.name == name:
            return param
    for block in function.blocks:
        for instr in block.instructions:
            if instr.result is not None and instr.result.name == name:
                return instr.result
    raise KeyError(name)


class TestReachingDefinitions:
    def test_straight_line_single_def(self):
        function, rd = reaching_for(
            "int main() { int x = 1; int y = x + 2; return y; }"
        )
        x = find_register(function, "x")
        assert len(rd.defs_of[x]) == 1

    def test_if_else_merge_has_two_defs(self):
        function, rd = reaching_for(
            """
            int main() {
              int x = 0;
              if (x < 1) { x = 1; } else { x = 2; }
              return x;
            }
            """
        )
        x = find_register(function, "x")
        # Three textual defs: the init and one per branch arm.
        assert len(rd.defs_of[x]) == 3
        # At the return, only the two arm defs reach (the init is killed
        # on both paths).
        terminator = next(
            block.terminator
            for block in function.blocks
            if block.terminator is not None
            and x in block.terminator.operands
        )
        reaching = rd.reaching(terminator, x)
        assert len(reaching) == 2
        assert all(d.instr is not None for d in reaching)
        assert len({d.block.label for d in reaching}) == 2

    def test_parameters_reach_entry(self):
        function, rd = reaching_for(
            "int f(int n) { return n + 1; }\nint main() { return f(1); }",
            name="f",
        )
        n = function.params[0]
        defs = rd.defs_of[n]
        assert any(d.is_parameter for d in defs)
        # The parameter definition is observed by the body's use.
        [param_def] = [d for d in defs if d.is_parameter]
        assert rd.uses_of[param_def]

    def test_loop_body_sees_both_init_and_update(self):
        function, rd = reaching_for(
            "int main() { int s = 0; for (int i = 0; i < 4; i++)"
            " { s = s + i; } return s; }"
        )
        s = find_register(function, "s")
        forest = find_natural_loops(function)
        [loop] = forest.loops
        update = next(
            instr
            for block in function.blocks
            if block in loop.blocks
            for instr in block.instructions
            if instr.opcode.startswith("binop") and s in instr.operands
        )
        # Inside the loop the read of s sees the init (first trip) and the
        # previous iteration's update (back edge).
        assert len(rd.reaching(update, s)) == 2

    def test_external_reaching_finds_loop_init(self):
        function, rd = reaching_for(
            "int main() { int s = 7; for (int i = 0; i < 4; i++)"
            " { s = s + 1; } return s; }"
        )
        forest = find_natural_loops(function)
        [loop] = forest.loops
        s = find_register(function, "s")
        external = rd.external_reaching(loop, s)
        assert len(external) == 1
        [init] = external
        assert init.block not in loop.blocks

    def test_long_straight_line_use_sees_previous_def(self):
        body = " ".join("x = x + 1;" for _ in range(2000))
        function, rd = reaching_for(
            f"int main() {{ int x = 0; {body} return x; }}"
        )
        x = find_register(function, "x")
        defs = rd.defs_of[x]  # layout order
        assert len(defs) == 2001
        seen = uses = 0
        for block in function.blocks:
            for owner in [*block.instructions, block.terminator]:
                if owner is None:
                    continue
                if x in owner.operands:
                    assert rd.reaching(owner, x) == {defs[seen - 1]}
                    uses += 1
                if getattr(owner, "result", None) is x:
                    assert defs[seen].instr is owner
                    seen += 1
        assert uses == 2000 + 1  # every `x + 1` and the return


class TestLoopHelpers:
    SOURCE = """
    float a[32];
    int main() {
      float t = 0.0;
      for (int i = 0; i < 32; i++) {
        t = a[i] * 2.0;
        a[i] = t;
      }
      return (int) t;
    }
    """

    def _loop(self):
        program = compile_source(self.SOURCE)
        function = program.module.function("main")
        [loop] = find_natural_loops(function).loops
        return function, loop

    def test_upward_exposed_excludes_killed_temp(self):
        function, loop = self._loop()
        t = find_register(function, "t")
        i = find_register(function, "i")
        exposed = upward_exposed_registers(loop)
        # t is written before read in every iteration -> not exposed;
        # i is read by the header test before its update -> exposed.
        assert t not in exposed
        assert i in exposed

    def test_definitions_in_loop(self):
        function, loop = self._loop()
        rd = ReachingDefinitions(function)
        t = find_register(function, "t")
        in_loop = definitions_in_loop(rd, loop)
        assert t in in_loop
        assert all(
            d.block in loop.blocks
            for defs in in_loop.values()
            for d in defs
        )
