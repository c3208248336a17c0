"""Host-time attribution for the benchmark, recorded from outside ``src/``.

The benchmark never edits the simulator.  It wraps the public calls
into each module at run time and records a span around each one:

* :class:`SpanRecorder` keeps a stack of open frames.  A frame's self
  time is its duration minus the time its child frames cover, so the
  per-layer self times add up to the wrapped part of the pass.
* :func:`install` swaps the wrappers in and returns a :class:`Patches`
  whose ``undo()`` restores every original attribute.

Two tiers of wrappers are installed:

* ``tracing=False``: only the trace-length probe (``RunSpec.execute``
  and ``build_fiu_trace``, about 150 calls per pass), which the output
  check needs to compare completed requests with trace length.
* ``tracing=True``: every layer below, plus ``check_invariants()`` on
  each scheme after its replay (its time is excluded from the pass).

Frames of once-per-run calls are also kept as spans (name, start, end,
parent, run id), written out when the run ends.  Per-request or
per-victim calls (metrics folds, GC collects) are only aggregated into
their layer's self time and call count: they run millions of times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

perf = time.perf_counter

#: Reasons the replay kernels tag fallback requests with (see
#: ``repro.kernel.orchestrator`` and ``repro.kernel.arrayepoch``).
FALLBACK_REASONS = (
    "gc-trigger",
    "trim",
    "negative-fp",
    "array-coord-grant",
    "array-ncq-stall",
    "array-unmodelled",
)

COORDINATIONS = ("independent", "staggered", "global-token")

#: Frames whose self time is whatever no narrower wrapper saw: the pass
#: itself, ``warm_experiments`` (run fan-out, result pickling, memo
#: bookkeeping) and ``RunSpec.execute`` (config, scheme and device
#: construction, result assembly).  They are reported on their own and
#: left out of ``trace.coverage``.
CATCH_ALL = ("pass", "experiments.warm", "runner.execute")


class SpanRecorder:
    """In-memory span stack with per-layer self-time accounting."""

    def __init__(self) -> None:
        #: kept spans: (span id, parent id, run id, name, start s, end s).
        self.spans: List[tuple] = []
        #: open frames: [span id, name, start, child seconds, run id].
        self._stack: List[list] = []
        self._next_id = 1
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: plain counters (requests built, cache bytes, kernel requests, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: run id -> requests its traces hold (the output check's input).
        self.trace_requests: Dict[str, int] = defaultdict(int)
        #: failures found inside a replay: (run id, message).
        self.failures: List[tuple] = []

    @property
    def run_id(self) -> Optional[str]:
        for frame in reversed(self._stack):
            if frame[4] is not None:
                return frame[4]
        return None

    def open(self, name: str, run_id: Optional[str] = None) -> list:
        frame = [self._next_id, name, perf(), 0.0, run_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list, keep: bool = True) -> float:
        end = perf()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        duration = end - frame[2]
        name = frame[1]
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[3]
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if keep:
            self.spans.append(
                (
                    frame[0],
                    parent[0] if parent is not None else None,
                    frame[4] if frame[4] is not None else self.run_id,
                    name,
                    frame[2],
                    end,
                )
            )
        return duration

    def exclude(self, seconds: float) -> None:
        """Drop ``seconds`` of benchmark-only work from the enclosing frames."""
        for frame in self._stack:
            frame[2] += seconds

    def span_rows(self) -> List[dict]:
        return [
            {"id": s[0], "parent": s[1], "run": s[2], "name": s[3],
             "start_s": s[4], "end_s": s[5]}
            for s in self.spans
        ]


class Patches:
    """Attribute replacements that ``undo()`` puts back in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def function(self, module_name: str, name: str, value: Callable) -> None:
        """Replace a module function and every ``repro`` binding of it."""
        original = getattr(sys.modules[module_name], name)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if module.__dict__.get(name) is original:
                self.set(module, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def _spanned(rec: SpanRecorder, name: str, fn: Callable, keep: bool = True) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(frame, keep)

    return wrapper


def install(rec: SpanRecorder, tracing: bool) -> Patches:
    """Wrap the simulator's public calls; see the module docstring."""
    from repro.runner import RunSpec
    from repro.workloads import fiu

    patches = Patches()
    execute = RunSpec.execute
    build = fiu.build_fiu_trace

    def traced_execute(spec, *args, **kwargs):
        frame = rec.open("runner.execute", run_id=spec.label())
        try:
            return execute(spec, *args, **kwargs)
        finally:
            rec.close(frame)

    def traced_build(*args, **kwargs):
        frame = rec.open("workloads.trace_build")
        try:
            trace = build(*args, **kwargs)
        finally:
            rec.close(frame, keep=tracing)
        run_id = rec.run_id
        if run_id is not None:
            rec.trace_requests[run_id] += len(trace)
        rec.counts["workloads.requests_built"] += len(trace)
        return trace

    patches.set(RunSpec, "execute", functools.wraps(execute)(traced_execute))
    patches.function("repro.workloads.fiu", "build_fiu_trace", functools.wraps(build)(traced_build))
    if tracing:
        _install_layers(rec, patches)
    return patches


def _install_layers(rec: SpanRecorder, patches: Patches) -> None:
    from repro.array.device import SSDArray
    from repro.device.parallel import ParallelSSD
    from repro.device.ssd import SSD
    from repro.experiments import registry
    from repro.obs.metrics import ArrayMetrics, DeviceMetrics
    from repro.obs.trace import Tracer
    from repro.runner.cache import RunCache
    from repro.workloads import multiplex

    class KernelTrackTracer(Tracer):
        """Keeps only ``kernel``-track events (the attribution input)."""

        def _push(self, event) -> None:
            if event.track == "kernel":
                super()._push(event)

    def wrap_gc(scheme, layer: str) -> None:
        # Instance attributes shadow the class methods for this scheme only.
        for name in ("run_gc", "collect_next"):
            setattr(scheme, name, _spanned(rec, layer, getattr(scheme, name), keep=False))

    def finish_scheme(scheme, layer: str) -> None:
        start = perf()
        try:
            scheme.check_invariants()
        except AssertionError as exc:
            rec.failures.append((rec.run_id, f"check_invariants: {exc}"))
        rec.exclude(perf() - start)
        stats = getattr(scheme, "kernel_gc_stats", None) or {}
        rec.counts["kernel.gc_collects"] += sum(stats.values())
        rec.counts["kernel.gc_batched"] += stats.get("batched", 0)
        rec.counts[f"{layer}.blocks"] += scheme.gc_counters.blocks_erased

    def fold_attribution(tracer: Tracer) -> None:
        attr = tracer.kernel_attribution()
        for key in ("batches", "batched_requests", "fallback_requests"):
            rec.counts[f"kernel.{key}"] += attr[key]
        prefix = "fallback_requests["
        for key, value in attr.items():
            if key.startswith(prefix):
                rec.counts[f"kernel.fallback.{key[len(prefix):-1]}"] += value

    ssd_replay = SSD.replay

    @functools.wraps(ssd_replay)
    def traced_ssd_replay(self, trace):
        frame = rec.open("device.replay")
        rec.counts["device.requests"] += len(trace)
        kernel_tracer = None
        if self.tracer is None and self.scheme.config.kernel == "vectorized":
            # Device-level only: a scheme-level tracer would switch the
            # CAGC collect onto its traced reference pipeline.
            kernel_tracer = self.tracer = KernelTrackTracer()
        try:
            wrap_gc(self.scheme, "schemes.gc")
            result = ssd_replay(self, trace)
            if kernel_tracer is not None:
                fold_attribution(kernel_tracer)
            finish_scheme(self.scheme, "schemes.gc")
            return result
        finally:
            if kernel_tracer is not None:
                self.tracer = None
            rec.close(frame)

    parallel_replay = ParallelSSD.replay

    @functools.wraps(parallel_replay)
    def traced_parallel_replay(self, trace):
        frame = rec.open("device.replay")
        rec.counts["device.requests"] += len(trace)
        try:
            wrap_gc(self.scheme, "schemes.gc")
            result = parallel_replay(self, trace)
            finish_scheme(self.scheme, "schemes.gc")
            return result
        finally:
            rec.close(frame)

    array_replay = SSDArray.replay

    @functools.wraps(array_replay)
    def traced_array_replay(self, trace):
        frame = rec.open(f"array.replay.{self.coordination}")
        try:
            for lane in self.lanes:
                wrap_gc(lane.scheme, "array.gc")
            kernel_tracer = None
            if self.tracer is None and self.lanes[0].scheme.config.kernel == "vectorized":
                kernel_tracer = self.tracer = KernelTrackTracer()
            result = array_replay(self, trace)
            if kernel_tracer is not None:
                fold_attribution(kernel_tracer)
            if result.kernel_fallback_reason is not None:
                rec.counts[f"kernel.fallback.{result.kernel_fallback_reason}"] += len(trace)
                rec.counts["kernel.fallback_requests"] += len(trace)
            for lane in self.lanes:
                finish_scheme(lane.scheme, "array.gc")
            rec.counts["array.coord_deferrals"] += float(
                result.coord_stats.get("gc_deferrals", 0)
            )
            rec.counts["array.ncq_held"] += sum(result.ncq_held)
            return result
        finally:
            rec.close(frame)

    cache_get = RunCache.get
    cache_put = RunCache.put

    @functools.wraps(cache_get)
    def traced_get(self, spec):
        frame = rec.open("runner.cache_get", run_id=spec.label())
        try:
            result = cache_get(self, spec)
        finally:
            rec.close(frame)
        if result is None:
            rec.counts["runner.cache_misses"] += 1
        else:
            rec.counts["runner.cache_hits"] += 1
            rec.counts["runner.cache_bytes"] += self.path_for(spec).stat().st_size
        return result

    @functools.wraps(cache_put)
    def traced_put(self, spec, result):
        frame = rec.open("runner.cache_put", run_id=spec.label())
        try:
            path = cache_put(self, spec, result)
        finally:
            rec.close(frame)
        rec.counts["runner.cache_bytes"] += path.stat().st_size
        return path

    patches.set(SSD, "replay", traced_ssd_replay)
    patches.set(ParallelSSD, "replay", traced_parallel_replay)
    patches.set(SSDArray, "replay", traced_array_replay)
    patches.set(RunCache, "get", traced_get)
    patches.set(RunCache, "put", traced_put)
    patches.function(
        "repro.workloads.multiplex", "multiplex_traces",
        _spanned(rec, "workloads.multiplex", multiplex.multiplex_traces),
    )
    patches.function(
        "repro.experiments.registry", "run_experiment",
        _spanned(rec, "experiments.report", registry.run_experiment),
    )
    patches.function(
        "repro.experiments.registry", "warm_experiments",
        _spanned(rec, "experiments.warm", registry.warm_experiments),
    )
    for cls in (DeviceMetrics, ArrayMetrics):
        for name, value in list(cls.__dict__.items()):
            if name.startswith("on_") and callable(value):
                patches.set(cls, name, _spanned(rec, "obs.fold", value, keep=False))


def layer_metrics(rec: SpanRecorder, wall_s: float) -> Dict[str, float]:
    """The per-layer figures of one traced pass (see README)."""
    s = rec.self_s
    c = rec.counts
    gc_s = s["schemes.gc"]
    fold_s = s["obs.fold"]
    replay_s = rec.total_s["device.replay"]
    requests = c["device.requests"]
    batched = c["kernel.batched_requests"]
    fallback = c["kernel.fallback_requests"]
    routed = batched + fallback
    out = {
        "workloads.trace_build_s": s["workloads.trace_build"],
        "workloads.requests_built": c["workloads.requests_built"],
        "workloads.multiplex_s": s["workloads.multiplex"],
        "device.replay_s": replay_s,
        "device.self_s": s["device.replay"],
        "device.host_us_per_request": 1e6 * replay_s / requests if requests else 0.0,
        "schemes.gc_s": gc_s,
        "schemes.gc_calls": float(rec.calls["schemes.gc"]),
        "schemes.gc_host_us_per_block": (
            1e6 * gc_s / c["schemes.gc.blocks"] if c["schemes.gc.blocks"] else 0.0
        ),
        "kernel.batched_share": batched / routed if routed else 0.0,
        "kernel.fallback_share": fallback / routed if routed else 0.0,
        "kernel.mean_batch_requests": (
            batched / c["kernel.batches"] if c["kernel.batches"] else 0.0
        ),
        "kernel.gc_batched_share": (
            c["kernel.gc_batched"] / c["kernel.gc_collects"]
            if c["kernel.gc_collects"] else 0.0
        ),
    }
    known = 0.0
    for reason in FALLBACK_REASONS:
        out[f"kernel.fallback.{reason}"] = c[f"kernel.fallback.{reason}"]
        known += c[f"kernel.fallback.{reason}"]
    out["kernel.fallback.other"] = max(0.0, fallback - known)
    for coord in COORDINATIONS:
        out[f"array.replay_s.{coord}"] = rec.total_s[f"array.replay.{coord}"]
    out.update(
        {
            "array.gc_s": s["array.gc"],
            "array.coord_deferrals": c["array.coord_deferrals"],
            "array.ncq_held": c["array.ncq_held"],
            "runner.execute_s": s["runner.execute"],
            "runner.cache_get_s": s["runner.cache_get"],
            "runner.cache_put_s": s["runner.cache_put"],
            "runner.cache_hits": c["runner.cache_hits"],
            "runner.cache_misses": c["runner.cache_misses"],
            "runner.cache_bytes": c["runner.cache_bytes"],
            "experiments.report_s": s["experiments.report"],
            "experiments.warm_s": s["experiments.warm"],
            "obs.fold_s": fold_s,
        }
    )
    attributed = sum(v for k, v in s.items() if k not in CATCH_ALL)
    out["trace.coverage"] = attributed / wall_s if wall_s > 0 else 0.0
    return out
