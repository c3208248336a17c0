"""Array-kernel properties and digest identity with the reference array.

Two layers pin ``repro.kernel.arrayepoch`` to the reference event loop:

* **structural property** (Hypothesis) — the router split hands every
  device its rows with their payloads intact (the partition and order
  properties live in ``test_array_multiplex.py``);
* **trajectory identity** — a 4-device / 4-tenant replay produces
  sha256-identical per-device trajectories on both kernel configs at
  NCQ depths {1, 4, 32} under every GC-coordination policy.  Only
  ``independent`` takes the per-lane kernel (depth 1 closes the gate,
  so the gate replay's ``held`` counter is pinned against the
  reference gate); ``staggered``/``global-token`` fall back to the
  reference loop, and the digests pin that fallback too.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import SSDArray
from repro.array.router import RangeRouter
from repro.config import small_config
from repro.oracle.diff import build_scheme
from repro.workloads.fiu import build_fiu_trace
from repro.workloads.multiplex import multiplex_traces
from repro.workloads.request import OpKind
from repro.workloads.trace import Trace

# ------------------------------------------------------------ strategies


@st.composite
def array_traces(draw):
    """A random routable trace plus the router that owns its space."""
    devices = draw(st.integers(min_value=1, max_value=4))
    ppd = draw(st.integers(min_value=4, max_value=32))
    n = draw(st.integers(min_value=0, max_value=40))
    router = RangeRouter(devices, ppd)
    ops = np.array(
        draw(
            st.lists(
                st.sampled_from(
                    [int(OpKind.WRITE), int(OpKind.READ), int(OpKind.TRIM)]
                ),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.uint8,
    )
    npages = np.array(
        draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    # Extent start chosen so no request straddles a device boundary.
    lpns = np.empty(n, dtype=np.int64)
    for i in range(n):
        dev = draw(st.integers(0, devices - 1))
        off = draw(st.integers(0, ppd - int(npages[i])))
        lpns[i] = dev * ppd + off
    gaps = np.array(
        draw(
            st.lists(
                st.floats(0.0, 50.0, allow_nan=False), min_size=n, max_size=n
            )
        ),
        dtype=np.float64,
    )
    times = np.cumsum(gaps)
    counts = np.where(ops == int(OpKind.WRITE), npages, 0).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    fps = np.array(
        draw(
            st.lists(
                st.integers(1, 40), min_size=total, max_size=total
            )
        ),
        dtype=np.int64,
    )
    return router, Trace(times, ops, lpns, npages, fps, offsets, name="hyp")


# ------------------------------------------------------- property suite


class TestSplitterProperties:
    @settings(deadline=None, max_examples=60)
    @given(array_traces())
    def test_split_preserves_rows(self, rt):
        """Every sub-trace row carries its merged row's payload: time,
        op, page count, device-local LPN and fingerprint slice."""
        router, trace = rt
        home = trace.lpns // router.pages_per_device
        for device, (sub, _) in enumerate(router.split(trace)):
            idx = np.nonzero(home == device)[0]
            assert np.array_equal(sub.times_us, trace.times_us[idx])
            assert np.array_equal(sub.ops, trace.ops[idx])
            assert np.array_equal(sub.npages, trace.npages[idx])
            assert np.array_equal(
                sub.lpns, trace.lpns[idx] - device * router.pages_per_device
            )
            # Fingerprint payloads survive row for row.
            for k, j in enumerate(idx):
                assert np.array_equal(
                    sub.fps_flat[sub.fp_offsets[k] : sub.fp_offsets[k + 1]],
                    trace.fps_flat[
                        trace.fp_offsets[j] : trace.fp_offsets[j + 1]
                    ],
                )


# -------------------------------------------------- trajectory identity


def _trajectory_digest(result, scheme) -> str:
    h = hashlib.sha256()
    h.update(result.response_times_us.tobytes())
    h.update(repr(result.gc).encode())
    h.update(repr(result.io).encode())
    h.update(repr(result.wear).encode())
    h.update(repr(result.simulated_us).encode())
    h.update(repr(sorted(scheme.state_snapshot().content.items())).encode())
    return h.hexdigest()


def _replay_digests(kernel, coordination, ncq_depth, scheme_name="cagc"):
    cfg = small_config(
        blocks=64, pages_per_block=16, gc_mode="blocking", kernel=kernel
    )
    tenant_traces = [
        build_fiu_trace(
            "mail", cfg, n_requests=500, fill_factor=3.0, seed=700 + t
        )
        for t in range(4)
    ]
    merged = multiplex_traces(
        tenant_traces, devices=4, pages_per_device=cfg.logical_pages
    )
    schemes = [build_scheme(scheme_name, "greedy", cfg) for _ in range(4)]
    result = SSDArray(
        schemes, coordination=coordination, ncq_depth=ncq_depth
    ).replay(merged)
    digests = tuple(
        _trajectory_digest(r, s) for r, s in zip(result.devices, schemes)
    )
    return result, digests


class TestEpochDigestIdentity:
    """Vectorized array replay == reference array loop, digest for
    digest; only ``independent`` runs the per-lane kernel."""

    @pytest.mark.parametrize(
        "coordination", ("independent", "staggered", "global-token")
    )
    @pytest.mark.parametrize("ncq_depth", (1, 4, 32))
    def test_identical_across_depths_and_coordinations(
        self, coordination, ncq_depth
    ):
        ref, ref_digests = _replay_digests("reference", coordination, ncq_depth)
        vec, vec_digests = _replay_digests("vectorized", coordination, ncq_depth)
        if coordination == "independent":
            assert vec.kernel_fallback_reason is None
        assert ref_digests == vec_digests
        assert ref.ncq_peaks == vec.ncq_peaks
        assert ref.ncq_held == vec.ncq_held
        assert ref.coord_stats == vec.coord_stats
        assert ref.simulated_us == vec.simulated_us

    def test_identical_with_inline_dedupe(self):
        ref, ref_digests = _replay_digests(
            "reference", "independent", 8, scheme_name="inline-dedupe"
        )
        vec, vec_digests = _replay_digests(
            "vectorized", "independent", 8, scheme_name="inline-dedupe"
        )
        assert vec.kernel_fallback_reason is None
        assert ref_digests == vec_digests

    def test_epoch_kernel_reports_gc_stats(self):
        vec, _ = _replay_digests("vectorized", "independent", 32)
        assert len(vec.kernel_gc) == 4
        assert any(any(stats.values()) for stats in vec.kernel_gc)


# ------------------------------------------------------------ metrics


def _replay_metered(kernel, coordination):
    from repro.obs.metrics import ArrayMetrics

    cfg = small_config(
        blocks=64, pages_per_block=16, gc_mode="blocking", kernel=kernel
    )
    tenant_traces = [
        build_fiu_trace(
            "mail", cfg, n_requests=300, fill_factor=3.0, seed=700 + t
        )
        for t in range(4)
    ]
    merged = multiplex_traces(
        tenant_traces, devices=4, pages_per_device=cfg.logical_pages
    )
    schemes = [build_scheme("cagc", "greedy", cfg) for _ in range(4)]
    metrics = ArrayMetrics()
    result = SSDArray(
        schemes, coordination=coordination, ncq_depth=4, metrics=metrics
    ).replay(merged)
    return result, metrics


class TestMetricsEquivalence:
    """An attached ArrayMetrics bundle stays observational on the array
    kernel: the run remains kernel-eligible, and every kernel-independent
    aggregate — the global request counter and latency histogram plus all
    per-device and per-tenant children — matches the reference loop's
    per-completion accounting (bucket counts / totals / maxima exactly,
    sums to float fold-order tolerance).  Time-series sample counts are
    deliberately not compared: the kernels clock the recorder differently
    (per completion vs per batch boundary) by design.
    """

    @pytest.mark.parametrize(
        "coordination", ("independent", "staggered", "global-token")
    )
    def test_aggregates_match_reference(self, coordination):
        ref, rm = _replay_metered("reference", coordination)
        vec, vm = _replay_metered("vectorized", coordination)
        assert vec.metrics is not None
        if coordination == "independent":
            assert vec.kernel_fallback_reason is None
            assert vm.kernel_batches.value > 0
        assert rm.requests.value == vm.requests.value
        for ra, rb in zip(
            rm._device_req + rm._tenant_req, vm._device_req + vm._tenant_req
        ):
            assert ra.value == rb.value
        pairs = [(rm.latency.hist, vm.latency.hist)]
        pairs += list(
            zip(rm.device_hists + rm.tenant_hists,
                vm.device_hists + vm.tenant_hists)
        )
        for rh, vh in pairs:
            assert np.array_equal(rh.counts, vh.counts)
            assert rh.total == vh.total
            assert rh.max_us == vh.max_us
            assert rh.sum_us == pytest.approx(vh.sum_us, rel=1e-9, abs=1e-6)
