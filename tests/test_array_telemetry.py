"""Per-tenant SLO telemetry: partition identity, report rows, and the
coordination tail-latency effect.

The partition identity is the accounting backbone of the SLO view:
every completion is recorded into the global, per-device and per-tenant
histograms, so folding either family back together must reproduce the
global histogram *exactly* (bucket counts, totals, maxima — integer
and order-independent) with ``sum_us`` equal up to float fold order.

The seeded coordination test pins the paper-adjacent effect the array
exists to show: unsynchronized per-device GC inflates the array-wide
p999 over staggered GC windows on the same workload.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.array import ArrayTelemetry, SSDArray
from repro.config import small_config
from repro.obs.metrics import ArrayMetrics
from repro.oracle.diff import build_scheme
from repro.workloads.fiu import build_fiu_trace
from repro.workloads.multiplex import multiplex_traces


def _gc_heavy_array_result(coordination: str):
    """The committed GC-heavy scenario: 4 tenants on 4 small devices,
    blocking GC, enough overwrite churn that every device collects
    continuously.  Fully deterministic (fixed seeds, fixed config)."""
    cfg = small_config(blocks=64, pages_per_block=16, gc_mode="blocking")
    tenant_traces = [
        build_fiu_trace(
            "mail", cfg, n_requests=1200, fill_factor=3.0, seed=100 + t
        )
        for t in range(4)
    ]
    merged = multiplex_traces(
        tenant_traces, devices=4, pages_per_device=cfg.logical_pages
    )
    schemes = [build_scheme("cagc", "greedy", cfg) for _ in range(4)]
    return SSDArray(schemes, coordination=coordination, ncq_depth=16).replay(
        merged
    )


def _recorded(devices: int, tenants: int, completions) -> ArrayTelemetry:
    """Feed ``(device, tenant, latency)`` completions into an
    ArrayMetrics bundle bound to a lane-less array; return its view."""
    metrics = ArrayMetrics()
    metrics.bind_array(SimpleNamespace(lanes=()), devices, tenants)
    for now, (device, tenant, latency) in enumerate(completions):
        metrics.on_array_complete(int(device), int(tenant), float(now), float(latency))
    return ArrayTelemetry.of(metrics)


class TestPartitionIdentity:
    @pytest.fixture(scope="class")
    def result(self):
        return _gc_heavy_array_result("staggered")

    def test_tenant_fold_exact(self, result):
        telemetry = result.telemetry
        folded = telemetry.folded_by_tenant()
        assert np.array_equal(folded.counts, telemetry.hist.counts)
        assert folded.total == telemetry.hist.total
        assert folded.max_us == telemetry.hist.max_us
        assert folded.sum_us == pytest.approx(
            telemetry.hist.sum_us, rel=1e-12
        )

    def test_device_fold_exact(self, result):
        telemetry = result.telemetry
        folded = telemetry.folded_by_device()
        assert np.array_equal(folded.counts, telemetry.hist.counts)
        assert folded.total == telemetry.hist.total
        assert folded.max_us == telemetry.hist.max_us
        assert folded.sum_us == pytest.approx(
            telemetry.hist.sum_us, rel=1e-12
        )

    def test_every_request_attributed(self, result):
        telemetry = result.telemetry
        assert telemetry.hist.total == 4 * 1200
        assert all(h.total == 1200 for h in telemetry.tenant_hists)
        # Disjoint tenant->device placement: tenant t is device t here.
        for tenant_hist, device_hist in zip(
            telemetry.tenant_hists, telemetry.device_hists
        ):
            assert np.array_equal(tenant_hist.counts, device_hist.counts)

    def test_device_results_agree_with_histograms(self, result):
        """The per-device RunResult latency summaries and the device
        histograms describe the same completions."""
        for device, hist in zip(result.devices, result.telemetry.device_hists):
            assert device.latency.count == hist.total
            assert device.latency.max_us == hist.max_us

    def test_synthetic_partition(self):
        """Direct unit check, independent of the simulator."""
        rng = np.random.default_rng(3)
        samples = rng.exponential(80.0, size=4000) + 0.2
        devices = rng.integers(0, 3, size=4000)
        tenants = rng.integers(0, 5, size=4000)
        telemetry = _recorded(3, 5, zip(devices, tenants, samples))
        for folded in (telemetry.folded_by_tenant(), telemetry.folded_by_device()):
            assert np.array_equal(folded.counts, telemetry.hist.counts)
            assert folded.total == telemetry.hist.total
            assert folded.max_us == telemetry.hist.max_us
            assert folded.sum_us == pytest.approx(
                telemetry.hist.sum_us, rel=1e-12
            )

    def test_arrays_round_trip(self):
        telemetry = _recorded(2, 3, ((i % 2, i % 3, 10.0 + i) for i in range(100)))
        back = ArrayTelemetry.from_arrays(telemetry.to_arrays())
        assert np.array_equal(back.hist.counts, telemetry.hist.counts)
        for a, b in zip(back.tenant_hists, telemetry.tenant_hists):
            assert np.array_equal(a.counts, b.counts)
            assert a.total == b.total and a.sum_us == b.sum_us
            assert a.max_us == b.max_us


class TestOneRecordPerFamily:
    """The result view and the metrics registry are one aggregator:
    ``ArrayResult.telemetry`` reads the bundle's histogram objects, and
    every completion lands in each family exactly once."""

    @pytest.mark.parametrize("coordination", ("independent", "staggered"))
    @pytest.mark.parametrize("kernel", ("reference", "vectorized"))
    def test_view_shares_histograms_and_counts_each_completion_once(
        self, kernel, coordination
    ):
        cfg = small_config(blocks=64, pages_per_block=16, kernel=kernel)
        tenant_traces = [
            build_fiu_trace(
                "mail",
                cfg,
                n_requests=400,
                fill_factor=1.5,
                lpn_utilization=0.42,
                seed=200 + t,
            )
            for t in range(3)
        ]
        merged = multiplex_traces(
            tenant_traces, devices=2, pages_per_device=cfg.logical_pages
        )
        metrics = ArrayMetrics()
        result = SSDArray(
            [build_scheme("cagc", "greedy", cfg) for _ in range(2)],
            coordination=coordination,
            ncq_depth=16,
            metrics=metrics,
        ).replay(merged)
        if coordination == "independent":
            assert result.kernel_fallback_reason is None
            # the kernel actually batched; the reference loop never does
            assert (metrics.kernel_batches.value > 0) == (
                kernel == "vectorized"
            )

        telemetry = result.telemetry
        assert telemetry.hist is metrics.latency.hist
        for i, hist in enumerate(telemetry.device_hists):
            assert hist is metrics.device_latency.labels(i).hist
        for t, hist in enumerate(telemetry.tenant_hists):
            assert hist is metrics.tenant_latency.labels(t).hist

        completed = sum(device.latency.count for device in result.devices)
        assert completed == len(merged) == result.requests_completed
        assert metrics.requests.value == completed
        assert telemetry.hist.total == completed
        assert sum(h.total for h in telemetry.device_hists) == completed
        assert sum(h.total for h in telemetry.tenant_hists) == completed

    def test_array_without_bundle_drives_a_private_one(self):
        cfg = small_config(blocks=64, pages_per_block=16)
        trace = build_fiu_trace("mail", cfg, n_requests=300)
        merged = multiplex_traces(
            [trace], devices=1, pages_per_device=cfg.logical_pages
        )
        array = SSDArray([build_scheme("baseline", "greedy", cfg)])
        result = array.replay(merged)
        assert isinstance(array.metrics, ArrayMetrics)
        assert result.telemetry.hist is array.metrics.latency.hist
        assert result.metrics.values["cagc_requests_total"] == len(merged)


class TestSLORows:
    def test_slo_rows_cover_array_and_tenants(self):
        telemetry = _recorded(
            2, 3, ((i % 2, i % 3, 50.0 + (i % 7)) for i in range(300))
        )
        rows = dict(telemetry.slo_rows())
        assert "array p99 / p999" in rows
        for tenant in range(3):
            assert f"tenant {tenant} p99 / p999" in rows

    def test_silent_tenants_skipped(self):
        telemetry = _recorded(1, 4, [(0, 1, 42.0)])
        rows = dict(telemetry.slo_rows())
        assert "tenant 1 p99 / p999" in rows
        assert "tenant 0 p99 / p999" not in rows

    def test_report_prints_per_tenant_slo_rows(self, tmp_path, monkeypatch, capsys):
        """End to end: ``cagc-repro report --array-devices`` must print
        one p99/p999 row per tenant."""
        from repro.cli import main
        from repro.experiments.common import reset_result_caches

        monkeypatch.setenv("CAGC_CACHE_DIR", str(tmp_path))
        reset_result_caches()
        code = main(
            [
                "report",
                "--workload",
                "mail",
                "--scheme",
                "baseline",
                "--scale",
                "quick",
                "--array-devices",
                "2",
                "--tenants",
                "2",
                "--gc-coord",
                "staggered",
                "-q",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "array p99 / p999" in out
        assert "tenant 0 p99 / p999" in out
        assert "tenant 1 p99 / p999" in out
        assert "staggered" in out


class TestCoordinationTailEffect:
    def test_staggered_reduces_array_p999(self):
        """The unsynchronized-GC cliff, seeded and deterministic:
        independent per-device GC must show strictly higher array-wide
        p999 than staggered windows on the same GC-heavy workload."""
        independent = _gc_heavy_array_result("independent")
        staggered = _gc_heavy_array_result("staggered")
        p999_ind = independent.percentile(99.9)
        p999_stag = staggered.percentile(99.9)
        assert p999_stag < p999_ind, (
            f"staggered p999 {p999_stag:.0f}us not below "
            f"independent {p999_ind:.0f}us"
        )
        # The effect is a tail effect: meaningful inflation (>5%), and
        # the coordinated run must actually have coordinated (deferrals
        # + idle bursts happened).
        assert p999_ind / p999_stag > 1.05
        assert staggered.coord_stats["gc_deferrals"] > 0
        assert staggered.coord_stats["idle_bursts"] > 0

    def test_global_token_also_tames_tail(self):
        independent = _gc_heavy_array_result("independent")
        token = _gc_heavy_array_result("global-token")
        assert token.percentile(99.9) < independent.percentile(99.9)
        assert token.coord_stats["token_grants"] > 0
