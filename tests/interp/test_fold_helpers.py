"""Fused-flavor runtime helpers: in-place timestamp folds and the
resolution cache's tag restore and per-prefix invalidation.

The helpers replace list comprehensions the generated code used to
inline, so each one must reproduce its comprehension exactly, and the
cache must keep every cached common-prefix length true against the live
region path. Profiles stay byte-identical to the tree engine.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import kremlin_cc
from repro.hcpa.serialize import profile_to_json
from repro.interp.codegen import build_unit
from repro.interp.interpreter import Interpreter
from repro.interp.runtime import (
    _fold_const,
    _fold_full,
    _fold_prefix,
    _region_hooks,
    _resolve_miss,
    _seed_prefix,
)
from repro.kremlib.profiler import KremlinProfiler
from repro.obs import MetricsRegistry, collecting_metrics

HUGE = 2**63


def _ints(rng, count):
    """Timestamps: mostly small, some past int64."""
    return [
        rng.choice((rng.randrange(50), HUGE + rng.randrange(HUGE)))
        for _ in range(count)
    ]


def _offsets(rng):
    return (0, 1 + rng.randrange(20), HUGE + rng.randrange(9))


def _cases(seed):
    """(t, tm, vl) triples as generated code passes them: ``t`` is
    tracked-depth long, ``tm`` at least ``vl`` long, ``vl <= len(t)``."""
    rng = random.Random(seed)
    for n in range(13):
        for vl in range(n + 1):
            tm = _ints(rng, vl + rng.randrange(13 - vl))
            yield rng, _ints(rng, n), tm, vl


class TestFoldHelpers:
    def test_prefix_fold_matches_comprehension(self):
        for rng, t, tm, vl in _cases(1):
            for k in _offsets(rng):
                expected = list(t)
                expected[:vl] = [
                    _c if _c > _t + k else _t + k
                    for _c, _t in zip(expected, tm[:vl])
                ]
                got = list(t)
                _fold_prefix(got, tm, vl, k)
                assert got == expected, (t, tm, vl, k)

    def test_full_fold_matches_comprehension(self):
        for rng, t, _, _ in _cases(2):
            tm = _ints(rng, len(t))
            for k in _offsets(rng):
                expected = list(t)
                expected[:] = [
                    _c if _c > _t + k else _t + k
                    for _c, _t in zip(expected, tm)
                ]
                got = list(t)
                _fold_full(got, tm, k)
                assert got == expected, (t, tm, k)

    def test_const_floor_matches_comprehension(self):
        for rng, t, _, dp in _cases(3):
            for c in _offsets(rng):
                expected = list(t)
                expected[:dp] = [_c if _c > c else c for _c in expected[:dp]]
                got = list(t)
                _fold_const(got, c, dp)
                assert got == expected, (t, c, dp)

    def test_seed_matches_comprehension(self):
        for rng, t, tm, vl in _cases(4):
            dp = len(t)
            for k in _offsets(rng):
                for c in (0, k):
                    expected = [_t + k for _t in tm[:vl]] + [c] * (dp - vl)
                    assert _seed_prefix(tm, vl, k, c, dp) == expected
            # the zero-offset seed is emitted as a plain slice concatenation
            assert tm[:vl] + [7] * (dp - vl) == _seed_prefix(tm, vl, 0, 7, dp)


def _hooks():
    prof = KremlinProfiler(kremlin_cc("int main() { return 0; }", "t.c"))
    state = [prof.tags, prof.tracked_depth]
    rcache: dict = {}
    buckets: list = [[]]
    rmc = [0]
    renter, rexit = _region_hooks(prof, state, [], [], rcache, buckets, rmc)
    return state, rcache, renter, rexit, _resolve_miss(rcache, buckets, rmc)


def _common_prefix(tags, current):
    k = 0
    while k < min(len(tags), len(current)) and tags[k] == current[k]:
        k += 1
    return k


class TestResolutionCache:
    def test_exit_restores_the_parent_tags_tuple(self):
        state, _, renter, rexit, _ = _hooks()
        renter(1)
        parent = state[0]
        renter(2)
        assert state[0] is not parent
        rexit(2)
        assert state[0] is parent
        rexit(1)
        assert state[0] == ()

    def test_exit_drops_only_overshooting_prefixes(self):
        state, rcache, renter, rexit, rmiss = _hooks()
        for static_id in (1, 2, 3):
            renter(static_id)
        a, b, c = state[0]
        keys = [(a, -1), (a, b, -1), (a, b, c, -1)]
        assert [rmiss(key, state[0]) for key in keys] == [1, 2, 3]
        rexit(3)
        assert rcache == {keys[0]: 1, keys[1]: 2}
        renter(4)  # an enter keeps every cached prefix
        rexit(4)
        assert rcache == {keys[0]: 1, keys[1]: 2}
        rexit(2)
        assert rcache == {keys[0]: 1}
        rexit(1)
        assert rcache == {}

    def test_cached_prefixes_stay_true_under_random_region_traffic(self):
        rng = random.Random(7)
        state, rcache, renter, rexit, rmiss = _hooks()
        open_ids: list[int] = []
        seen: list[tuple] = [()]
        for step in range(3000):
            roll = rng.random()
            if roll < 0.35 or not open_ids:
                open_ids.append(step)
                renter(step)
                seen.append(state[0])
            elif roll < 0.65:
                rexit(open_ids.pop())
            else:
                tags = rng.choice(seen)
                if tags not in rcache:
                    rmiss(tags, state[0])
            for tags, cached in rcache.items():
                assert cached == _common_prefix(tags, state[0])


# An inner loop reading an array an earlier loop nest wrote: the reads
# resolve entries whose tags diverge from the live path below the root.
CROSS_NEST = """
int a[64];
int b[8];
int main() {
  for (int i = 0; i < 8; i = i + 1) {
    for (int j = 0; j < 8; j = j + 1) {
      a[i * 8 + j] = i * j + 1;
    }
  }
  int s = 0;
  for (int r = 0; r < 8; r = r + 1) {
    for (int k = 0; k < 8; k = k + 1) {
      s = s + a[r * 8 + k] * a[k * 8 + r];
    }
    b[r] = s;
  }
  return s + b[3];
}
"""

# One straight-line segment retires many shadow events, so a single flush
# folds many materialized vectors.
WIDE_SOURCE = """
int a[16];
int main() {
  int t0 = 3; int t1 = t0 + 1; int t2 = t1 * 2; int t3 = t2 - t0;
  int t4 = t3 + t1; int t5 = t4 * t2; int t6 = t5 - t3; int t7 = t6 + t4;
  int t8 = t7 + t5; int t9 = t8 - t6; int s = t9 + t7;
  for (int i = 0; i < 16; i++) {
    a[i] = s + i;
    s = s + a[i];
  }
  return s;
}
"""


def _profile(source: str, engine: str, max_depth=None) -> tuple[int, str]:
    program = kremlin_cc(source, "fold.c")
    profiler = KremlinProfiler(program, max_depth=max_depth)
    result = Interpreter(program, observer=profiler, engine=engine).run(
        "main"
    )
    profile = json.dumps(profile_to_json(profiler.profile), sort_keys=True)
    return result.value, profile


@pytest.mark.parametrize("metrics", [False, True])
@pytest.mark.parametrize("max_depth", [None, 1, 2, 3])
def test_cross_nest_reads_profile_like_tree(max_depth, metrics):
    reference = _profile(CROSS_NEST, "tree", max_depth)
    if metrics:
        registry = MetricsRegistry()
        with collecting_metrics(registry):
            compiled = _profile(CROSS_NEST, "compiled", max_depth)
        counters = registry.to_dict()["counters"]
        misses = counters["shadow.rcache_misses"]
        assert 0 <= counters["shadow.rcache_drops"] <= misses
        if max_depth is None:
            assert misses > 0
    else:
        compiled = _profile(CROSS_NEST, "compiled", max_depth)
    assert compiled == reference


def test_wide_segment_profile_like_tree():
    assert _profile(WIDE_SOURCE, "compiled") == _profile(WIDE_SOURCE, "tree")


@pytest.mark.parametrize("metrics_on", [False, True])
def test_fused_source_folds_through_helpers(metrics_on):
    for source in (CROSS_NEST, WIDE_SOURCE):
        program = kremlin_cc(source, "fold.c")
        unit = build_unit(program, "fused", metrics_on=metrics_on)
        assert "for _c, _t in zip(" not in unit.source
        assert "_fpre(" in unit.source and "_fall(" in unit.source
