"""Lowering tests: structure of the produced IR and semantic error checks."""

import pytest

from repro.frontend.errors import SemanticError
from repro.frontend.parser import parse_program
from repro.ir import verify_module
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Copy,
    Load,
    RegionEnter,
    RegionExit,
    Store,
)
from repro.ir.types import FLOAT, INT, ArrayType
from repro.lowering.lower import lower_program
from tests.conftest import compile_source


def lower(source):
    module = lower_program(parse_program(source, "t.c"))
    verify_module(module)
    return module


def instrs_of(module, name="main", cls=None):
    function = module.function(name)
    out = list(function.instructions())
    if cls is not None:
        out = [i for i in out if isinstance(i, cls)]
    return out


class TestBasicLowering:
    def test_every_program_verifies(self):
        lower("int main() { return 0; }")

    def test_missing_main_rejected(self):
        with pytest.raises(SemanticError, match="no main"):
            lower("void f() { }")

    def test_scalar_globals(self):
        module = lower("int n = 4; float f; int main() { return n; }")
        assert module.globals["n"].init == 4
        assert module.globals["f"].init is None

    def test_constant_folded_global_init(self):
        module = lower("int n = 2 * 3 + 1; int main() { return n; }")
        assert module.globals["n"].init == 7

    def test_nonconstant_global_init_rejected(self):
        with pytest.raises(SemanticError, match="constant"):
            lower("int n = rand(); int main() { return n; }")

    def test_local_array_allocates(self):
        module = lower("int main() { float buf[8]; buf[0] = 1.0; return 0; }")
        allocas = instrs_of(module, cls=Alloca)
        assert len(allocas) == 1
        assert allocas[0].array_type == ArrayType(FLOAT, (8,))

    def test_local_scalar_zero_initialized(self):
        module = lower("int main() { int x; return x; }")
        copies = instrs_of(module, cls=Copy)
        assert any(
            getattr(c.operand, "value", None) == 0 for c in copies
        )

    def test_undeclared_variable_rejected(self):
        with pytest.raises(SemanticError, match="undeclared"):
            lower("int main() { return ghost; }")

    def test_redeclaration_in_same_scope_rejected(self):
        with pytest.raises(SemanticError, match="redeclaration"):
            lower("int main() { int x = 1; int x = 2; return x; }")

    def test_shadowing_in_nested_scope_allowed(self):
        lower("int main() { int x = 1; { int x = 2; } return x; }")

    def test_builtin_shadowing_rejected(self):
        with pytest.raises(SemanticError, match="shadows a builtin"):
            lower("int sqrt(int x) { return x; } int main() { return 0; }")


class TestTypesAndCoercion:
    def test_int_to_float_coercion_inserts_cast(self):
        module = lower("int main() { float x = 1; return (int) x; }")
        casts = instrs_of(module, cls=Cast)
        assert any(c.target == FLOAT for c in casts) or True  # constant folded
        # with a non-constant it must be an explicit cast:
        module = lower("int main() { int n = 3; float x = n; return (int) x; }")
        casts = instrs_of(module, cls=Cast)
        assert any(c.target == FLOAT for c in casts)

    def test_mixed_arithmetic_promotes(self):
        module = lower("int main() { int n = 2; float f = 1.5; float r = n + f; return (int) r; }")
        binop = next(i for i in instrs_of(module, cls=BinOp) if i.op == "+")
        assert binop.result.type == FLOAT

    def test_modulo_requires_ints(self):
        with pytest.raises(SemanticError, match="integer operands"):
            lower("int main() { float f = 1.5; int r = f % 2; return r; }")

    def test_float_array_index_rejected(self):
        with pytest.raises(SemanticError, match="indices must be integers"):
            lower("int a[4]; int main() { float f = 1.0; return a[f]; }")

    def test_whole_array_assignment_rejected(self):
        with pytest.raises(SemanticError, match="whole array"):
            lower("int a[4]; int b[4]; int main() { a = b; return 0; }")

    def test_array_in_arithmetic_rejected(self):
        with pytest.raises(SemanticError, match="scalar"):
            lower("int a[4]; int main() { return a + 1; }")

    def test_rank_mismatch_rejected(self):
        with pytest.raises(SemanticError, match="rank"):
            lower("int a[4][4]; int main() { return a[1]; }")


class TestCalls:
    def test_user_call_arity_checked(self):
        with pytest.raises(SemanticError, match="expects 2 arguments"):
            lower("int f(int a, int b) { return a; } int main() { return f(1); }")

    def test_unknown_callee_rejected(self):
        with pytest.raises(SemanticError, match="unknown function"):
            lower("int main() { return nosuch(); }")

    def test_scalar_arg_coerced(self):
        module = lower(
            "float f(float x) { return x; } int main() { int n = 2; return (int) f(n); }"
        )
        casts = instrs_of(module, cls=Cast)
        assert any(c.target == FLOAT for c in casts)

    def test_array_argument_passed_by_reference(self):
        module = lower(
            """
            void fill(float v[4]) { v[0] = 1.0; }
            int main() { float data[4]; fill(data); return 0; }
            """
        )
        call = next(i for i in instrs_of(module, cls=Call) if i.callee == "fill")
        assert isinstance(call.args[0].type, ArrayType)

    def test_array_element_type_mismatch_rejected(self):
        with pytest.raises(SemanticError, match="element type"):
            lower(
                """
                void fill(float v[4]) { }
                int main() { int data[4]; fill(data); return 0; }
                """
            )

    def test_array_extent_mismatch_rejected(self):
        with pytest.raises(SemanticError, match="extent"):
            lower(
                """
                void fill(float v[4]) { }
                int main() { float data[8]; fill(data); return 0; }
                """
            )

    def test_unsized_param_accepts_any_extent(self):
        lower(
            """
            void fill(float v[]) { v[0] = 1.0; }
            int main() { float a[8]; float b[16]; fill(a); fill(b); return 0; }
            """
        )

    def test_builtin_arity_checked(self):
        with pytest.raises(SemanticError, match="expects 1 arguments"):
            lower("int main() { float x = sqrt(1.0, 2.0); return 0; }")

    def test_string_outside_print_rejected(self):
        with pytest.raises(SemanticError, match="print"):
            lower('int main() { float x = sqrt("two"); return 0; }')

    def test_void_return_value_use_rejected(self):
        with pytest.raises(SemanticError, match="cannot return a value|void"):
            lower("void f() { return 1; } int main() { return 0; }")

    def test_missing_return_value_rejected(self):
        with pytest.raises(SemanticError, match="must return"):
            lower("int f() { return; } int main() { return 0; }")


class TestControlFlowLowering:
    def test_break_outside_loop_rejected(self):
        with pytest.raises(SemanticError, match="break outside"):
            lower("int main() { break; return 0; }")

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(SemanticError, match="continue outside"):
            lower("int main() { continue; return 0; }")

    def test_unreachable_code_after_return_is_pruned(self):
        module = lower("int main() { return 1; int x = 2; x = 3; }")
        labels = [b.label for b in module.function("main").blocks]
        assert not any(label.startswith("dead") for label in labels)

    def test_implicit_return_for_void(self):
        module = lower("void f() { } int main() { f(); return 0; }")
        # f's single block must end in ret
        f = module.function("f")
        assert f.blocks[-1].terminator is not None

    def test_index_arithmetic_is_explicit(self):
        module = lower("float m[4][8]; int main() { m[1][2] = 3.0; return 0; }")
        # linearization: 1*8 + 2 -> at least one mul and one add
        ops = [i.op for i in instrs_of(module, cls=BinOp)]
        assert "*" in ops and "+" in ops

    def test_one_dim_index_has_no_multiply(self):
        module = lower("float v[8]; int main() { int i = 3; v[i] = 1.0; return 0; }")
        ops = [i.op for i in instrs_of(module, cls=BinOp)]
        assert "*" not in ops


class TestRegionMarkers:
    def test_function_region_entered_and_exited(self):
        module = lower("int main() { return 0; }")
        enters = instrs_of(module, cls=RegionEnter)
        exits = instrs_of(module, cls=RegionExit)
        assert len(enters) == 1 and len(exits) == 1
        assert enters[0].region_id == exits[0].region_id

    def test_loop_creates_loop_and_body_regions(self):
        program = compile_source(
            "int main() { int s = 0; for (int i = 0; i < 3; i++) s += i; return s; }"
        )
        regions = program.regions
        assert len(regions.loops()) == 1
        assert len(regions.bodies()) == 1
        loop = regions.loops()[0]
        body = regions.body_of(loop.id)
        assert body.parent_id == loop.id

    def test_region_tree_nesting_matches_source(self):
        program = compile_source(
            """
            void f() {
              for (int i = 0; i < 2; i++) {
                for (int j = 0; j < 2; j++) { }
              }
            }
            int main() { f(); return 0; }
            """
        )
        regions = program.regions
        f_region = regions.function_region("f")
        loops = [r for r in regions.loops() if r.function_name == "f"]
        assert len(loops) == 2
        outer = next(l for l in loops if l.loop_depth == 1)
        inner = next(l for l in loops if l.loop_depth == 2)
        # inner loop's lexical ancestors: outer body, outer loop, f
        ancestor_ids = [r.id for r in regions.ancestors(inner.id)]
        assert outer.id in ancestor_ids
        assert f_region.id in ancestor_ids

    def test_return_inside_nested_loops_exits_all_regions(self):
        source = """
        int main() {
          for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 3; j++) {
              if (i + j == 3) return 1;
            }
          }
          return 0;
        }
        """
        module = lower(source)
        # Find the block containing the early Ret: it must be preceded by
        # exits for body2, loop2, body1, loop1, function (5 markers).
        for block in module.function("main").blocks:
            from repro.ir.instructions import Ret

            if isinstance(block.terminator, Ret):
                exits = [
                    i for i in block.instructions if isinstance(i, RegionExit)
                ]
                if len(exits) >= 5:
                    return
        pytest.fail("no return block exits all five active regions")


class TestLongExpressions:
    """Long left-deep chains lower iteratively: the whole pipeline ends in
    a result or a located diagnostic, never a RecursionError."""

    @pytest.mark.parametrize("terms", [800, 5000])
    def test_long_sum_analyzes(self, terms):
        from repro.api import KremlinSession
        from repro.frontend.errors import ParseError

        source = (
            "int main() { int x = " + " + ".join(["1"] * terms)
            + "; return x; }"
        )
        try:
            report = KremlinSession().analyze(source)
        except ParseError as error:
            assert error.span is not None
        else:
            assert report.run.value == terms

    def test_long_global_initializer_folds(self):
        module = lower(
            "int g = " + " - ".join(["3"] * 5000) + ";"
            " int main() { return g; }"
        )
        assert module.globals["g"].init == 3 - 3 * 4999

    def test_mixed_chain_keeps_recursive_ir(self):
        """Short-circuit links allocate their register and blocks before
        their left operand is lowered, outermost first, exactly as the
        recursive lowering did."""
        from repro.ir.printer import print_module

        module = lower(
            "int main() { int a = 2; return a * a + a && a || a - 1; }"
        )
        assert print_module(module).splitlines()[2:] == [
            "func main() -> int {",
            "entry0:",
            "  region_enter #0",
            "  %0.a = copy 2",
            "  %3 = * %0.a, %0.a",
            "  %4 = + %3, %0.a",
            "  branch %4 ? sc.rhs4 : sc.short5",
            "sc.rhs1:",
            "  %6 = - %0.a, 1",
            "  %7 = != %6, 0",
            "  %1.sc = copy %7",
            "  jump sc.join3",
            "sc.short2:",
            "  %1.sc = copy 1",
            "  jump sc.join3",
            "sc.join3:",
            "  region_exit #0",
            "  ret %1.sc",
            "sc.rhs4:",
            "  %5 = != %0.a, 0",
            "  %2.sc = copy %5",
            "  jump sc.join6",
            "sc.short5:",
            "  %2.sc = copy 0",
            "  jump sc.join6",
            "sc.join6:",
            "  branch %2.sc ? sc.short2 : sc.rhs1",
            "}",
        ]
