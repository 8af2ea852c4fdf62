"""Unit tests for interprocedural mod/ref summary computation."""

import json

from repro.analysis.callgraph import build_call_graph
from repro.analysis.dataflow import ReachingDefinitions
from repro.analysis.summaries import (
    ParamAffine,
    compute_module_summaries,
    rebind,
    summaries_to_json,
)
from tests.conftest import compile_source


def summaries_of(source):
    module = compile_source(source).module
    return compute_module_summaries(module, build_call_graph(module))


class TestDirectEffects:
    def test_global_array_affine_write(self):
        summaries = summaries_of(
            """
            int dst[64];
            void put(int i) { dst[i + 3] = 1; }
            int main() { put(0); return 0; }
            """
        )
        put = summaries["put"]
        assert put.transparent
        (record,) = put.records
        assert record.target == ("global", "dst")
        assert record.is_store
        assert record.describe(put.param_names) == "writes @dst[i+3]"

    def test_param_array_effect(self):
        summaries = summaries_of(
            """
            int a[8];
            void fill(int p[], int i) { p[i] = 0; }
            int main() { fill(a, 1); return 0; }
            """
        )
        fill = summaries["fill"]
        (record,) = fill.records
        assert record.target == ("param", 0)
        assert record.describe(fill.param_names) == "writes p[i]"

    def test_scalar_global_reduction_marked(self):
        summaries = summaries_of(
            """
            float acc;
            void bump(float v) { acc = acc + v; }
            int main() { bump(1.0); return 0; }
            """
        )
        bump = summaries["bump"]
        assert bump.transparent
        ops = {record.reduction_op for record in bump.records}
        assert ops == {"+"}

    def test_nonaffine_subscript_degrades_to_taint(self):
        summaries = summaries_of(
            """
            int a[64];
            void scatter(int i) { a[i * i] = 1; }
            int main() { scatter(2); return 0; }
            """
        )
        (record,) = summaries["scatter"].records
        assert record.index is None  # taint: may touch any cell
        assert record.describe(()) == "writes @a[*]"

    def test_pure_function_flagged(self):
        summaries = summaries_of(
            """
            int square(int x) { return x * x; }
            int main() { return square(3); }
            """
        )
        assert summaries["square"].pure
        assert summaries["square"].side_effect_free


class TestTransitiveAndRecursive:
    def test_effects_inline_through_wrappers(self):
        summaries = summaries_of(
            """
            int dst[64];
            void inner(int i) { dst[i] = 1; }
            void outer(int j) { inner(j + 1); }
            int main() { outer(0); return 0; }
            """
        )
        outer = summaries["outer"]
        (record,) = outer.records
        # inner's dst[i] rebinds through the call-site map i := j + 1
        assert record.describe(outer.param_names) == "writes @dst[j+1]"

    def test_recursive_with_effects_is_top(self):
        summaries = summaries_of(
            """
            int count;
            int probe(int n) {
              count = count + 1;
              if (n <= 1) { return 0; }
              return probe(n / 2);
            }
            int main() { return probe(9); }
            """
        )
        probe = summaries["probe"]
        assert probe.top
        assert not probe.transparent
        assert any("recursive" in reason for reason in probe.reasons)

    def test_pure_recursion_stays_pure(self):
        summaries = summaries_of(
            """
            int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            int main() { return fib(6); }
            """
        )
        assert summaries["fib"].pure


class TestRebinding:
    def test_rebind_substitutes_arguments(self):
        # callee index: p0 + 2  rebound with arg0 = (3*q1 + 5)
        index = ParamAffine(terms=((0, 1),), const=2)
        arguments = {0: ParamAffine(terms=((1, 3),), const=5)}
        rebound = rebind(index, arguments)
        assert rebound == ParamAffine(terms=((1, 3),), const=7)

    def test_rebind_unmapped_argument_fails(self):
        index = ParamAffine(terms=((0, 1),))
        assert rebind(index, {}) is None


class TestSerialization:
    def test_summaries_to_json_round_trips(self):
        summaries = summaries_of(
            """
            int dst[64];
            float acc;
            void blur(int i) { dst[i] = i; }
            void bump(float v) { acc = acc + v; }
            int main() { blur(0); bump(1.0); return 0; }
            """
        )
        document = summaries_to_json(summaries)
        text = json.dumps(document, sort_keys=True)
        assert json.dumps(json.loads(text), sort_keys=True) == text
        by_name = {record["name"]: record for record in document}
        blur_accesses = by_name["blur"]["accesses"]
        assert {"object": "@dst", "mode": "write", "index": "i", "array": True} in blur_accesses
        assert any(a["mode"] == "reduce(+)" for a in by_name["bump"]["accesses"])

    def test_shared_reaching_definitions_change_nothing(self):
        module = compile_source(
            """
            int dst[64];
            float acc;
            void blur(int i) { dst[i] = i; }
            void bump(float v) { acc = acc + v; }
            int fact(int n) {
              if (n < 2) { return 1; }
              return n * fact(n - 1);
            }
            int main() { blur(0); bump(1.0); return fact(3); }
            """
        ).module
        graph = build_call_graph(module)
        reaching = {
            name: ReachingDefinitions(function)
            for name, function in module.functions.items()
        }
        alone = compute_module_summaries(module, graph)
        shared = compute_module_summaries(module, graph, reaching)
        assert summaries_to_json(shared) == summaries_to_json(alone)
        assert alone["blur"].records and alone["fact"].pure
