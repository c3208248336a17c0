"""Per-lane array replay: the vectorized kernel across N lanes.

``replay_array_vectorized`` reproduces :meth:`repro.array.SSDArray
.replay` bit for bit without running every request through the shared
event loop, for the one case where that pays: ``independent``
coordination.  There the array's coupling surface is empty:

* the :class:`~repro.array.router.RangeRouter` is a pure function of
  the LPN, so ``RangeRouter.split`` hands each device its sub-stream
  in one vectorized pass;
* with no coordinator, devices never interact, so each lane replays
  its whole sub-stream through the single-device kernel
  (:func:`repro.kernel.orchestrator.replay_vectorized`) on its own
  clock, and the shared clock only has to end at the latest lane;
* NCQ admission is trajectory-transparent — a bounded queue ahead of a
  FIFO work-conserving server never changes completion times — so the
  gate's ``peak``/``held`` counters are recomputed after the fact by a
  scalar replay of the gate over the lane's arrival and completion
  columns (:func:`_gate_replay`).

``staggered`` and ``global-token`` replays couple the lanes through
coordinator grants, windows and idle bursts; they run the reference
array loop.  Whatever the kernel does not model falls back wholesale
with the one array reason, ``array-unmodelled`` (coordinated replays,
preemptive lanes, write buffers, streaming traces), so a
reference-loop replay on a vectorized config is always tagged, never
silent.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.kernel.orchestrator import replay_vectorized
from repro.schemes.inline_dedupe import InlineDedupeScheme

#: The array tier's fallback reason: some device, observer or
#: coordination feature is outside the per-lane model and the replay
#: runs the reference loop.
FALLBACK_UNMODELLED = "array-unmodelled"


# ---------------------------------------------------------- NCQ counters


def _gate_replay(a: np.ndarray, c: np.ndarray, depth: int) -> Tuple[int, int]:
    """Faithful scalar replay of ``_ArrayLane``'s admission mechanics.

    Ports the reference chain exactly: the catch-up loop admits every
    already-due row synchronously, a row arriving at a full gate parks
    (one ``held`` count, chain paused), and a completion frees a slot
    and re-admits the parked row before anything else.  Completion
    events are ordered against pending arrival events by (time,
    schedule order); the completion for request ``k`` is scheduled at
    its service start ``max(a_k, c_{k-1})``, which is what breaks
    exact-time ties the same way the event heap does.
    """
    n = int(a.size)
    al = a.tolist()
    cl = c.tolist()
    inflight = 0
    peak = 0
    held = 0
    r = 0  # next row to admit/schedule
    blocked = False
    pend_t: Optional[float] = None  # pending arrival event time
    pend_sched = 0.0  # when that arrival event was scheduled

    def chain(now: float) -> None:
        nonlocal r, blocked, pend_t, pend_sched, inflight, peak, held
        while r < n:
            ar = al[r]
            if ar <= now and inflight > 0:
                if inflight >= depth:
                    blocked = True
                    held += 1
                    return
                inflight += 1
                if inflight > peak:
                    peak = inflight
                r += 1
                continue
            pend_t = ar if ar > now else now
            pend_sched = now
            return
        pend_t = None

    chain(0.0)
    prev_c = 0.0
    for k in range(n):
        ck = cl[k]
        sk = al[k] if al[k] > prev_c else prev_c
        while pend_t is not None and (
            pend_t < ck or (pend_t == ck and pend_sched <= sk)
        ):
            now = pend_t
            pend_t = None
            if inflight >= depth:
                blocked = True
                held += 1
            else:
                inflight += 1
                if inflight > peak:
                    peak = inflight
                r += 1
                chain(now)
        inflight -= 1
        if blocked:
            blocked = False
            inflight += 1
            if inflight > peak:
                peak = inflight
            r += 1
            chain(ck)
        prev_c = ck
    return peak, held


# --------------------------------------------------------- metrics fold


class _LaneFold:
    """Per-lane adapter: batched folds into the array's ArrayMetrics.

    Quacks like :class:`~repro.obs.metrics.DeviceMetrics` for the
    single-device kernel hooks (``on_batch``/``on_complete``/
    ``on_fallback``/``finish``/``snapshot``) but lands every latency in
    the array bundle's global, per-device and per-tenant families
    (``on_array_batch`` / ``on_array_complete``) — the exact counts and
    histogram buckets the reference's per-completion calls produce,
    folded per batch; only the time-series recorder cadence differs
    (batch boundaries instead of per completion, the same deliberate
    trade-off the single-device kernel makes).  It also keeps the
    lane's latency column so completions (arrival + latency) can be
    reconstructed for the gate replay.
    """

    __slots__ = ("metrics", "device", "tenants", "cursor", "parts")

    def __init__(self, metrics, device: int, tenants: np.ndarray) -> None:
        self.metrics = metrics
        self.device = device
        self.tenants = tenants
        self.cursor = 0
        self.parts: List[np.ndarray] = []

    def on_batch(self, latencies_us: np.ndarray, end_us: float, ssd) -> None:
        n = int(latencies_us.size)
        tslice = self.tenants[self.cursor : self.cursor + n]
        self.metrics.on_array_batch(self.device, tslice, latencies_us, end_us)
        self.cursor += n
        self.parts.append(latencies_us)

    def on_complete(self, now_us: float, latency_us: float, ssd) -> None:
        tenant = int(self.tenants[self.cursor]) if self.tenants.size else 0
        self.metrics.on_array_complete(self.device, tenant, now_us, latency_us)
        self.cursor += 1
        self.parts.append(np.array([latency_us], dtype=np.float64))

    def on_fallback(self, reason: str) -> None:
        self.metrics.on_fallback(reason)

    def finish(self, now_us: float, ssd) -> None:  # the array finishes
        pass

    def snapshot(self) -> None:  # lane results carry no snapshot
        return None

    def latencies(self) -> np.ndarray:
        if not self.parts:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(self.parts)


# ------------------------------------------------------------ eligibility


def array_kernel_eligible(array, trace) -> Optional[str]:
    """``None`` when the per-lane kernel models this replay exactly,
    else the ``array-unmodelled`` fallback reason.

    Only ``independent`` coordination is modelled: a coordinator
    couples the lanes, and those replays run the reference loop.  The
    rest mirrors the single-device :func:`repro.kernel.orchestrator
    .kernel_eligible` axes per lane (blocking GC, no write buffer,
    bulk or inline-dedupe scheme, a sliceable trace).  The array's
    :class:`~repro.obs.metrics.ArrayMetrics` bundle never blocks the
    kernel — the lane folds feed it batch-exactly, progress reporting
    included.
    """
    if array.coordinator is not None:
        return FALLBACK_UNMODELLED
    for lane in array.lanes:
        scheme = lane.scheme
        if scheme.config.kernel != "vectorized":
            return FALLBACK_UNMODELLED
        if scheme.config.gc_mode != "blocking":
            return FALLBACK_UNMODELLED
        if lane.buffer is not None:
            return FALLBACK_UNMODELLED
        if not (
            scheme.bulk_user_writes or type(scheme) is InlineDedupeScheme
        ):
            return FALLBACK_UNMODELLED
    times = getattr(trace, "times_us", None)
    if times is None or not hasattr(trace, "iter_chunks"):
        return FALLBACK_UNMODELLED  # streaming traces: no random access
    return None


# ----------------------------------------------------------- entry point


def replay_array_vectorized(array, trace, tenants: int):
    """Replay ``trace`` one full-trace kernel run per lane.

    The caller (:meth:`SSDArray.replay`) has already verified
    :func:`array_kernel_eligible` and bound the metrics bundle; this
    returns the fully-populated :class:`~repro.array.device
    .ArrayResult` with ``kernel_fallback_reason=None``.
    """
    from repro.array.device import ArrayResult
    from repro.array.telemetry import ArrayTelemetry

    sim = array.sim
    for lane, (sub, tenants_of) in zip(array.lanes, array.router.split(trace)):
        fold = _LaneFold(array.metrics, lane.index, tenants_of)
        # Assigned post-construction on purpose: the constructor path
        # would bind the lane's own gauges into a registry.
        lane.metrics = fold
        lane._trace_name = sub.name
        sim.now = 0.0  # each lane replays on its own clock segment
        result = replay_vectorized(lane, sub)
        lane.metrics = None
        lane.last_event_us = result.simulated_us if len(sub) else 0.0
        lane.rows_done = True
        lats = fold.latencies()
        arr = np.asarray(sub.times_us, dtype=np.float64)
        comp = arr + lats if lats.size == len(sub) else arr
        lane.ncq_peak, lane.ncq_held = _gate_replay(arr, comp, array.ncq_depth)
    kernel_gc = tuple(
        dict(getattr(lane.scheme, "kernel_gc_stats", {}) or {})
        for lane in array.lanes
    )
    simulated_us = max([lane.last_event_us for lane in array.lanes] + [0.0])
    sim.now = simulated_us
    array.metrics.finish(simulated_us, array)
    return ArrayResult(
        coordination=array.coordination,
        trace=trace.name,
        devices=tuple(lane.finish() for lane in array.lanes),
        tenants=tenants,
        telemetry=ArrayTelemetry.of(array.metrics),
        simulated_us=simulated_us,
        ncq_depth=array.ncq_depth,
        ncq_peaks=tuple(lane.ncq_peak for lane in array.lanes),
        ncq_held=tuple(lane.ncq_held for lane in array.lanes),
        kernel_fallback_reason=None,
        kernel_gc=kernel_gc,
        metrics=array.metrics.snapshot(),
    )


__all__ = [
    "FALLBACK_UNMODELLED",
    "array_kernel_eligible",
    "replay_array_vectorized",
]
