"""Golden-file tests for the loop-carried dependence classifier.

Each case in the corpus is one canonical loop shape with an exact expected
verdict (and, for carried dependences, an expected witness chain). These are
deliberately brittle: a classifier change that moves any verdict must update
the golden expectations here and explain why.
"""

import pytest

from repro.analysis.dependence import (
    DepClass,
    analyze_function_dependences,
    iterations_structurally_identical,
    may_alias,
)
from repro.analysis.verdict import Verdict
from repro.ir.types import FLOAT, INT, ArrayType
from tests.conftest import compile_source


def loop_infos(source, name):
    program = compile_source(source)
    function = program.module.function(name)
    return analyze_function_dependences(function, program.module)


def single_loop(source, name):
    infos = loop_infos(source, name)
    assert len(infos) == 1, f"expected one loop in {name}, got {len(infos)}"
    return infos[0]


CORPUS = """
float a[512];
float b[512];
float c[512];
int keys[512];
int hist[16];
float acc;

void induction_only(int n) {
  for (int i = 0; i < n; i++) {
    a[i] = 1.0;
  }
}

void sum_reduction(int n) {
  float s = 0.0;
  for (int i = 0; i < n; i++) {
    s += a[i];
  }
  acc = s;
}

void prefix_sum(int n) {
  for (int i = 1; i < n; i++) {
    a[i] = a[i - 1] + b[i];
  }
}

void stencil(int n) {
  for (int i = 1; i < n - 1; i++) {
    b[i] = a[i - 1] + a[i] + a[i + 1];
  }
}

void private_temp(int n) {
  for (int i = 0; i < n; i++) {
    float t = a[i] * 2.0;
    b[i] = t + 1.0;
  }
}

void scalar_recurrence(int n) {
  float x = 1.0;
  for (int i = 0; i < n; i++) {
    x = x * 0.5 + 0.25;
  }
  acc = x;
}

void histogram(int n) {
  for (int i = 0; i < n; i++) {
    hist[keys[i]] += 1;
  }
}

void cell_reduction(int n) {
  for (int i = 0; i < n; i++) {
    acc += a[i];
  }
}

int main() { return 0; }
"""


class TestGoldenVerdicts:
    def test_induction_only_is_doall(self):
        info = single_loop(CORPUS, "induction_only")
        assert info.verdict.verdict is Verdict.SAFE_DOALL
        assert info.scalar_class("i") is DepClass.INDUCTION
        assert not info.witnesses

    def test_sum_reduction(self):
        info = single_loop(CORPUS, "sum_reduction")
        assert info.verdict.verdict is Verdict.SAFE_WITH_REDUCTION
        assert info.verdict.reduction_vars == ("s",)
        assert info.verdict.tag == "reduction(s)"
        assert info.scalar_class("s") is DepClass.REDUCTION

    def test_prefix_sum_is_cross_iteration(self):
        info = single_loop(CORPUS, "prefix_sum")
        assert info.verdict.verdict is Verdict.DOACROSS_ONLY
        [witness] = info.verdict.witnesses
        assert witness.kind == "array-dep"
        assert witness.distance == 1
        # The witness chain points at the write and the colliding read.
        roles = [role for role, _span in witness.chain]
        assert any("written" in role or "store" in role for role in roles)
        assert any("read" in role or "load" in role for role in roles)
        for _role, span in witness.chain:
            assert span.filename == "test.c"
            assert span.start.line > 0

    def test_stencil_is_doall(self):
        # Reads a[i-1], a[i], a[i+1] but writes only b[i]: no loop-carried
        # dependence because reads and writes hit disjoint arrays.
        info = single_loop(CORPUS, "stencil")
        assert info.verdict.verdict is Verdict.SAFE_DOALL

    def test_private_temp_is_doall(self):
        info = single_loop(CORPUS, "private_temp")
        assert info.verdict.verdict is Verdict.SAFE_DOALL
        assert info.scalar_class("t") is DepClass.PRIVATE

    def test_scalar_recurrence_is_doacross(self):
        info = single_loop(CORPUS, "scalar_recurrence")
        assert info.verdict.verdict is Verdict.DOACROSS_ONLY
        assert info.scalar_class("x") is DepClass.CROSS_ITERATION
        [witness] = info.verdict.witnesses
        assert witness.kind == "scalar-recurrence"
        assert "x" in witness.description
        rendered = witness.render()
        assert "test.c:" in rendered

    def test_histogram_is_unsafe(self):
        info = single_loop(CORPUS, "histogram")
        assert info.verdict.verdict is Verdict.UNSAFE
        kinds = {w.kind for w in info.verdict.witnesses}
        assert "non-affine-subscript" in kinds

    def test_scalar_cell_reduction(self):
        # acc += a[i] through a global scalar cell: recognized as a
        # reduction on the memory cell, not a carried dependence.
        info = single_loop(CORPUS, "cell_reduction")
        assert info.verdict.verdict is Verdict.SAFE_WITH_REDUCTION
        assert "acc" in info.verdict.reduction_vars

    def test_verdict_tags_match_describe(self):
        for name, tag in [
            ("induction_only", "doall"),
            ("prefix_sum", "doacross"),
            ("histogram", "unsafe"),
        ]:
            info = single_loop(CORPUS, name)
            assert info.verdict.tag == tag


class TestWitnessShapes:
    def test_impure_call_blocks_doall(self):
        source = """
        float a[64];
        int main() {
          for (int i = 0; i < 64; i++) {
            a[i] = (float) rand();
          }
          return 0;
        }
        """
        info = single_loop(source, "main")
        assert info.verdict.verdict is Verdict.UNSAFE
        kinds = {w.kind for w in info.verdict.witnesses}
        assert "impure-call" in kinds

    def test_pure_callee_stays_doall(self):
        source = """
        float a[64];
        float square(float x) { return x * x; }
        int main() {
          for (int i = 0; i < 64; i++) {
            a[i] = square((float) i);
          }
          return 0;
        }
        """
        info = single_loop(source, "main")
        assert info.verdict.verdict is Verdict.SAFE_DOALL

    def test_early_exit_demotes_to_doacross(self):
        source = """
        float a[64];
        int main() {
          for (int i = 0; i < 64; i++) {
            if (a[i] > 10.0) { break; }
            a[i] = 1.0;
          }
          return 0;
        }
        """
        info = single_loop(source, "main")
        assert info.verdict.verdict is Verdict.DOACROSS_ONLY
        kinds = {w.kind for w in info.verdict.witnesses}
        assert "early-exit" in kinds

    def test_invariant_address_store(self):
        source = """
        float a[64];
        float last;
        int main() {
          for (int i = 0; i < 64; i++) {
            a[0] = (float) i;
          }
          return 0;
        }
        """
        info = single_loop(source, "main")
        assert info.verdict.verdict is Verdict.DOACROSS_ONLY
        kinds = {w.kind for w in info.verdict.witnesses}
        assert "invariant-address" in kinds

    def test_may_alias_params(self):
        source = """
        void copy(float dst[64], float src[64], int n) {
          for (int i = 1; i < n; i++) {
            dst[i] = src[i - 1];
          }
        }
        int main() { return 0; }
        """
        info = single_loop(source, "copy")
        # dst and src may be the same array at a call site; the shifted
        # subscript then carries a dependence.
        assert info.verdict.verdict is Verdict.UNSAFE

    def test_constant_distance_two(self):
        source = """
        float a[64];
        int main() {
          for (int i = 2; i < 64; i++) {
            a[i] = a[i - 2] * 0.5;
          }
          return 0;
        }
        """
        info = single_loop(source, "main")
        assert info.verdict.verdict is Verdict.DOACROSS_ONLY
        [witness] = info.verdict.witnesses
        assert witness.distance == 2


class TestHelpers:
    def test_summary_purity(self):
        summaries = compile_source(CORPUS).analysis.summaries
        # Every corpus function touches global arrays -> impure; purity is
        # about memory effects, not determinism.
        assert summaries["sum_reduction"].pure is False
        source = """
        float square(float x) { return x * x; }
        float chain(float x) { return square(x) + 1.0; }
        int noisy() { return rand(); }
        int main() { return 0; }
        """
        summaries = compile_source(source).analysis.summaries
        assert summaries["square"].pure is True
        assert summaries["chain"].pure is True  # propagates through calls
        assert summaries["noisy"].pure is False

    def test_may_alias_rules(self):
        from repro.analysis.dependence import MemObject

        arr = ArrayType(FLOAT, (8,))
        g1 = MemObject("global", "a", "global:a", FLOAT, True)
        g2 = MemObject("global", "b", "global:b", FLOAT, True)
        p1 = MemObject("param", "p", "param:p", FLOAT, True)
        p2 = MemObject("param", "q", "param:q", FLOAT, True)
        p_int = MemObject("param", "r", "param:r", INT, True)
        local = MemObject("alloca", "t", "alloca:t", FLOAT, True)
        scalar = MemObject("global", "acc", "global:acc", FLOAT, False)
        assert may_alias(g1, g1)
        assert not may_alias(g1, g2)  # distinct globals are disjoint
        assert may_alias(p1, p2)  # params of equal element type may alias
        assert may_alias(p1, g1)  # a param may be bound to a global array
        assert not may_alias(p1, p_int)  # element types differ
        assert not may_alias(local, p1)  # locals never escape
        assert not may_alias(scalar, g1)  # scalar cells are not arrays
        del arr

    def test_structural_identity_gate(self):
        info = single_loop(CORPUS, "induction_only")
        assert iterations_structurally_identical(info)
        source = """
        float a[64];
        float f(float x) { return x + 1.0; }
        int main() {
          for (int i = 0; i < 64; i++) { a[i] = f(a[i]); }
          return 0;
        }
        """
        info = single_loop(source, "main")
        # Calls disqualify the loop from the structural-identity gate even
        # though it is statically safe.
        assert not iterations_structurally_identical(info)

    def test_innermost_first_ordering(self):
        source = """
        float m[8][8];
        int main() {
          for (int i = 0; i < 8; i++) {
            for (int j = 0; j < 8; j++) {
              m[i][j] = 1.0;
            }
          }
          return 0;
        }
        """
        infos = loop_infos(source, "main")
        assert len(infos) == 2
        # Innermost loops come first; each natural loop knows its header's
        # static region.
        assert infos[0].loop.depth > infos[1].loop.depth
        assert all(info.region_id >= 0 for info in infos)


class TestSquareMatrixPrecision:
    def test_row_major_2d_write_is_doall_with_literal_bounds(self):
        # With literal bounds the inner induction's range is known, so the
        # row-major subscript i*8+j cannot collide across outer iterations.
        source = """
        float m[8][8];
        float src[8][8];
        int main() {
          for (int i = 0; i < 8; i++) {
            for (int j = 0; j < 8; j++) {
              m[i][j] = src[i][j];
            }
          }
          return 0;
        }
        """
        infos = loop_infos(source, "main")
        outer = [i for i in infos if i.loop.depth == min(x.loop.depth for x in infos)]
        assert outer[0].verdict.verdict is Verdict.SAFE_DOALL

    def test_symbolic_bound_stays_conservative(self):
        # A mutable-global bound hides the inner range: the analyzer must
        # not guess, so the outer loop is conservatively unsafe.
        source = """
        int N = 8;
        float m[8][8];
        int main() {
          for (int i = 0; i < N; i++) {
            for (int j = 0; j < N; j++) {
              m[i][j] = 1.0;
            }
          }
          return 0;
        }
        """
        infos = loop_infos(source, "main")
        outer = [i for i in infos if i.loop.depth == min(x.loop.depth for x in infos)]
        assert outer[0].verdict.verdict in (
            Verdict.UNSAFE,
            Verdict.DOACROSS_ONLY,
        )


@pytest.mark.parametrize("name", ["induction_only", "sum_reduction"])
def test_verdict_is_deterministic(name):
    first = single_loop(CORPUS, name).verdict
    second = single_loop(CORPUS, name).verdict
    assert first.tag == second.tag
    assert [w.render() for w in first.witnesses] == [
        w.render() for w in second.witnesses
    ]
