"""Runtime support for the AOT compiled engine.

:class:`CompiledEngine` owns one interpreter instance's bindings of the
cached :class:`~repro.interp.codegen.CodegenUnit`: it builds the exec
environment (instance-scoped names like ``cells``/``interp``/``counts``
and the ``_go_*``/``_ga_*``/``_gid_*`` global-array bindings; profiler
state mirrors and the helpers closed over them for the fused flavor),
executes the unit's code object to materialize the generated functions,
and drives entry-point calls with the same run lifecycle as the tree
engine.

Code objects are compiled once per program (cached on the program by
:func:`~repro.interp.codegen.codegen_unit`); per-interpreter preparation
is just a dict build plus ``exec`` of precompiled code.
"""

from __future__ import annotations

import time

from repro.interp.codegen import codegen_unit
from repro.interp.errors import InterpreterError
from repro.interp.interpreter import ArrayStorage, RunResult
from repro.kremlib.profiler import ProfilerError, _ActiveRegion
from repro.kremlib.shadow import resolve_entry
from repro.obs.metrics import get_metrics, metrics_enabled


def _slow_index(index, size: int, span) -> int:
    """Out-of-line index check, same semantics as interpreter._check_index.

    Bound as ``_slow_index`` in generated code."""
    if not isinstance(index, int):
        raise InterpreterError(f"non-integer array index {index!r}", span)
    if index < 0 or index >= size:
        raise InterpreterError(
            f"array index {index} out of bounds (size {size})", span
        )
    return index


def _compute_ts(inputs, cost: int, depth: int) -> list:
    """Reference merge: ts[d] = max over inputs of times[d] (0 beyond
    validity) + cost. Bound as ``_cts``; the fused call sites use it,
    the per-segment generated code folds the same math through the
    helpers below."""
    ts = [cost] * depth
    for times, valid in inputs:
        if valid > depth:
            valid = depth
        d = 0
        for t in times[:valid]:
            t += cost
            if t > ts[d]:
                ts[d] = t
            d += 1
    return ts


def _fold_prefix(t, tm, vl, k) -> None:
    """In-place ``t[d] = max(t[d], tm[d] + k)`` for ``d < vl``.

    Bound as ``_fpre``: the fold of a resolved entry's valid prefix into a
    timestamp vector or the region stack's ``cps``. ``vl`` never exceeds
    ``len(tm)`` or ``len(t)`` (the entry resolution clamps it to both), so
    these are exactly the positions the equivalent
    ``t[:vl] = [max(...) for _c, _t in zip(t, tm[:vl])]`` covers."""
    d = 0
    while d < vl:
        x = tm[d] + k
        if x > t[d]:
            t[d] = x
        d += 1


def _fold_full(t, tm, k) -> None:
    """In-place ``t[d] = max(t[d], tm[d] + k)`` over all of ``tm``.

    Bound as ``_fall``: the fold of a full-depth vector (a materialized
    event or a call's timestamps); ``tm`` and ``t`` are both tracked-depth
    long."""
    d = 0
    for x in tm:
        x += k
        if x > t[d]:
            t[d] = x
        d += 1


def _fold_const(t, c, dp) -> None:
    """In-place ``t[d] = max(t[d], c)`` for ``d < dp``. Bound as
    ``_fcon``: the constant floor of a region fold."""
    for d in range(dp):
        if t[d] < c:
            t[d] = c


def _seed_prefix(tm, vl, k, c, dp) -> list:
    """A fresh ``dp``-long vector: ``tm[d] + k`` below ``vl``, ``c`` from
    there on. Bound as ``_fseed``: the seed of a materialized timestamp
    from one resolved entry (or, with ``vl == dp``, a full-depth one)."""
    ts = [c] * dp
    d = 0
    while d < vl:
        ts[d] = tm[d] + k
        d += 1
    return ts


def _resolve_miss(rcache: dict, buckets: list, rmc: list):
    """Build ``_rmiss(tags, current)``: the common-prefix length of two
    region tag tuples, for the fused entry resolution's cache misses.

    Stores the result in ``rcache`` (the engine's ``_rcache``), files the
    key under its prefix length in ``buckets`` and raises the high-water
    mark ``rmc[0]`` that the region-exit hook checks."""

    def _rmiss(tags, current):
        limit = len(tags)
        if len(current) < limit:
            limit = len(current)
        k = 0
        while k < limit and tags[k] == current[k]:
            k += 1
        rcache[tags] = k
        if k > rmc[0]:
            rmc[0] = k
            while len(buckets) <= k:
                buckets.append([])
        buckets[k].append(tags)
        return k

    return _rmiss


def _region_hooks(
    prof,
    state: list,
    cps: list,
    tag_stack: list,
    rcache: dict,
    buckets: list,
    rmc: list,
):
    """Build ``(_renter, _rexit)``: KremlinProfiler's region events over
    the fused engine's mirrors, called once per region marker.

    Both keep ``state`` (``[tags, tracked_depth]``) and the profiler's
    own fields in step; ``cps`` holds the critical-path maxima of the
    open tracked regions. ``tag_stack`` holds the parent tag tuple of
    every open region: an exit restores that very tuple, so values the
    parent wrote before the child region ran still take the generated
    code's ``_tg is _cu`` arm instead of the cache.

    Resolution-cache upkeep: a region ENTER preserves every cached
    common-prefix length exactly (the appended instance id is freshly
    allocated, so no cached tag can match it), and an EXIT to tag length
    ``L`` keeps every entry whose cached prefix is at most ``L`` (the live
    path's first ``L`` tags did not change). Only the entries filed in
    ``buckets[L + 1:]`` could overshoot the popped path; those are
    dropped. ``rmc[0]`` bounds the highest non-empty bucket, so
    loop-level exits (the hot case: every cached prefix stops at or above
    the loop tag) skip the drop loop entirely."""
    stack = prof.stack
    max_depth = prof.max_depth
    intern = prof.dictionary.intern

    def _renter(static_id):
        tracked = len(stack) < max_depth
        region = _ActiveRegion(static_id, prof._next_instance, tracked)
        prof._next_instance += 1
        stack.append(region)
        parent = state[0]
        tag_stack.append(parent)
        tags = parent + (region.instance,)
        state[0] = tags
        prof.tags = tags
        depth = len(stack)
        if depth > max_depth:
            depth = max_depth
        state[1] = depth
        prof.tracked_depth = depth
        if tracked:
            cps.append(0)

    def _rexit(static_id):
        if not stack:
            raise ProfilerError(
                f"region_exit #{static_id} with empty region stack"
            )
        region = stack.pop()
        if region.static_id != static_id:
            raise ProfilerError(
                f"unbalanced regions: exiting #{static_id} but "
                f"#{region.static_id} is on top"
            )
        tags = tag_stack.pop()
        state[0] = tags
        prof.tags = tags
        depth = len(stack)
        if depth > max_depth:
            depth = max_depth
        state[1] = depth
        prof.tracked_depth = depth
        if region.tracked:
            region.cp = cps.pop()
        cp = region.cp
        if not region.tracked or cp > region.work:
            cp = region.work
        char = intern(
            region.static_id,
            region.work,
            cp,
            tuple(sorted(region.children.items())),
        )
        if stack:
            parent = stack[-1]
            parent.work += region.work
            parent.children[char] = parent.children.get(char, 0) + 1
        else:
            prof.root_char = char
        top = rmc[0]
        keep = len(tags)
        if top > keep:
            for k in range(keep + 1, top + 1):
                bucket = buckets[k]
                for key in bucket:
                    del rcache[key]
                bucket.clear()
            rmc[0] = keep

    return _renter, _rexit


def _metered_hooks(rmiss, rexit, rcache: dict, misses: list, drops: list):
    """Metrics-on wrappers of ``(_rmiss, _rexit)`` that count cache misses
    (``shadow.rcache_misses``) and the keys each exit drops
    (``shadow.rcache_drops``); the metrics-off closures stay unwrapped."""

    def _rmiss(tags, current):
        misses[0] += 1
        return rmiss(tags, current)

    def _rexit(static_id):
        before = len(rcache)
        rexit(static_id)
        drops[0] += before - len(rcache)

    return _rmiss, _rexit


class CompiledEngine:
    """Executes the AOT-compiled functions for one Interpreter."""

    def __init__(self, interp):
        self.interp = interp
        # Shared mutable [instructions_retired, total_cost]; generated code
        # flushes into it at returns (plain) or block boundaries (fused).
        self.counts = [interp.instructions_retired, interp.total_cost]
        self._fns: dict | None = None
        self._env: dict | None = None
        self.unit = None
        #: wall-clock seconds spent in prepare() (codegen + env binding);
        #: near-zero on unit-cache hits. The bench harness records it.
        self.codegen_seconds = 0.0
        # Fused-flavor profiler mirrors: ``state`` is [tags, tracked_depth],
        # ``cps`` the per-depth critical-path maxima of the open regions,
        # ``_tags`` the parent tag tuple of each open region, ``_rcache``
        # the common-prefix resolution cache with its keys filed by cached
        # prefix length in ``_rbuckets``.
        self._state: list | None = None
        self._cps: list | None = None
        self._tags: list = []
        self._rcache: dict | None = None
        self._rbuckets: list = [[]]
        # High-water mark of cached resolution prefixes: a region exit
        # only drops buckets when the popped tag is shorter than this (a
        # cached prefix could otherwise overshoot the live region path).
        self._rmc: list = [0]
        self._frames_cell = None

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Bind the cached codegen unit to this interpreter (idempotent)."""
        if self._fns is not None:
            return
        start = time.perf_counter()
        interp = self.interp
        observer = interp.observer
        env: dict = {
            "counts": self.counts,
            "cells": interp.globals_scalar,
            "interp": interp,
            "InterpreterError": InterpreterError,
            "ArrayStorage": ArrayStorage,
            "_slow_index": _slow_index,
            # Pin hot builtins into module scope: LOAD_GLOBAL hits beat
            # the globals-then-builtins miss chain.
            "int": int,
            "float": float,
            "type": type,
            "len": len,
            "abs": abs,
            "isinstance": isinstance,
            "max": max,
            "id": id,
            "tuple": tuple,
            "sorted": sorted,
        }
        if observer is None:
            unit = codegen_unit(
                interp.program, "plain", interp.max_instructions
            )
        else:
            # The Interpreter only routes KremlinProfiler observers here.
            metrics_on = metrics_enabled()
            unit = codegen_unit(
                interp.program,
                "fused",
                interp.max_instructions,
                metrics_on=metrics_on,
            )
            self._state = [observer.tags, observer.tracked_depth]
            self._cps = []
            self._rcache = {}
            renter, rexit = _region_hooks(
                observer,
                self._state,
                self._cps,
                self._tags,
                self._rcache,
                self._rbuckets,
                self._rmc,
            )
            rmiss = _resolve_miss(self._rcache, self._rbuckets, self._rmc)
            if metrics_on:
                registry = get_metrics()
                rmiss, rexit = _metered_hooks(
                    rmiss,
                    rexit,
                    self._rcache,
                    registry.counter("shadow.rcache_misses").cell,
                    registry.counter("shadow.rcache_drops").cell,
                )
            env.update(
                {
                    "state": self._state,
                    "cps": self._cps,
                    "_rcache": self._rcache,
                    "stack": observer.stack,
                    "mem_shadow": observer.mem_shadow,
                    "prof": observer,
                    "_renter": renter,
                    "_rexit": rexit,
                    "_rmiss": rmiss,
                    "_fpre": _fold_prefix,
                    "_fall": _fold_full,
                    "_fcon": _fold_const,
                    "_fseed": _seed_prefix,
                    "_resolve": resolve_entry,
                    "_cts": _compute_ts,
                }
            )
            if metrics_on:
                self._frames_cell = registry.counter("shadow.frames").cell
                env.update(
                    {
                        "_mfp": registry.counter("fastpath.known_hits").cell,
                        "_mres": registry.counter(
                            "fastpath.entry_resolutions"
                        ).cell,
                        "_mev": registry.counter(
                            "shadow.stale_evictions"
                        ).cell,
                        "_mcell": registry.counter(
                            "shadow.cell_writes"
                        ).cell,
                        "_mfr": self._frames_cell,
                    }
                )
        env.update(unit.program_env)
        for name in unit.array_globals:
            storage = interp.globals_array[name]
            env[f"_go_{name}"] = storage
            env[f"_ga_{name}"] = storage.data
            env[f"_gid_{name}"] = id(storage)
        exec(unit.code, env)  # noqa: S102 - our own generated module
        self.unit = unit
        self._env = env
        self._fns = {
            name: env[f"_mc_{name}"]
            for name in interp.module.functions
        }
        self.codegen_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, entry: str, args: tuple) -> RunResult:
        interp = self.interp
        observer = interp.observer
        self.prepare()
        counts = self.counts
        counts[0] = interp.instructions_retired
        counts[1] = interp.total_cost
        if observer is not None:
            observer.on_run_start(interp)
            # Sync mirrors after the profiler reset its source state.
            state = self._state
            state[0] = observer.tags
            state[1] = observer.tracked_depth
            del self._cps[:]
            del self._tags[:]
            self._rcache.clear()
            for bucket in self._rbuckets:
                bucket.clear()
            self._rmc[0] = 0
            if self._frames_cell is not None:
                self._frames_cell[0] += 1
        function = interp.module.function(entry)
        fn = self._fns[entry]
        if len(args) != len(function.params):
            raise InterpreterError(
                f"{entry}() expects {len(function.params)} arguments, "
                f"got {len(args)}"
            )
        if observer is None:
            value = fn(*args, 0)
        else:
            # Entry-point shadow parameters start unwritten, exactly like
            # the tree profiler's fresh ShadowFrame.
            value = fn(*args, *([None] * len(function.params)), 0)
        interp.instructions_retired = counts[0]
        interp.total_cost = counts[1]
        if observer is not None:
            observer.on_run_end(interp)
        return RunResult(
            value=value,
            output=list(interp.output),
            instructions_retired=interp.instructions_retired,
            total_cost=interp.total_cost,
        )
