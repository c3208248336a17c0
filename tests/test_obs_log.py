"""Tests for the shared logger and the wall-clock heartbeat."""

from __future__ import annotations

import argparse
import io
import logging

import pytest

from repro.obs import Heartbeat
from repro.obs import log


@pytest.fixture(autouse=True)
def _restore_logger():
    yield
    # leave the module in its default state for other tests
    log.setup(verbosity=0)


class TestLog:
    def test_levels_follow_verbosity(self):
        assert log.setup(verbosity=-1).level == logging.WARNING
        assert log.setup(verbosity=0).level == logging.INFO
        assert log.setup(verbosity=2).level == logging.DEBUG

    def test_setup_is_idempotent(self):
        log.setup()
        log.setup()
        assert len(log.logger.handlers) == 1
        assert log.logger.propagate is False

    def test_messages_respect_level(self):
        stream = io.StringIO()
        log.setup(verbosity=-1, stream=stream)
        log.info("hidden")
        log.warning("shown")
        assert stream.getvalue() == "shown\n"

    def test_argparse_flags_round_trip(self):
        parser = argparse.ArgumentParser()
        log.add_verbosity_args(parser)
        args = parser.parse_args(["-q", "-q"])
        assert log.setup_from_args(args).level == logging.WARNING
        args = parser.parse_args(["-v"])
        assert log.setup_from_args(args).level == logging.DEBUG

    def test_logger_name_is_shared(self):
        assert log.logger is logging.getLogger("cagc")


def _bundle_replay(kernel, heartbeat, device="single", **metrics_kwargs):
    """Replay a small GC-heavy trace with a heartbeat-carrying bundle."""
    from repro.config import small_config
    from repro.device.parallel import ParallelSSD
    from repro.device.ssd import SSD
    from repro.obs import DeviceMetrics
    from repro.schemes import make_scheme
    from repro.workloads.fiu import build_fiu_trace

    cfg = small_config(blocks=64, pages_per_block=16, kernel=kernel)
    trace = build_fiu_trace("homes", cfg, n_requests=0, fill_factor=2.0)
    metrics = DeviceMetrics(heartbeat=heartbeat, **metrics_kwargs)
    scheme = make_scheme("baseline", cfg)
    device = ParallelSSD if device == "parallel" else SSD
    result = device(scheme, metrics=metrics).replay(trace)
    return trace, metrics, result


class TestHeartbeat:
    def test_zero_interval_prints_every_tick(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream)
        hb.tick(1_000_000.0, requests=5)
        hb.tick(2_000_000.0, requests=10)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert hb.beats == 2
        assert "sim" in lines[0] and "reqs" in lines[0]

    def test_long_interval_stays_quiet(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=3600.0, stream=stream)
        for i in range(100):
            hb.tick(float(i), requests=i)
        assert stream.getvalue() == ""
        assert hb.beats == 0

    def test_finish_always_prints_summary(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=3600.0, stream=stream)
        hb.finish(5_000_000.0, requests=600)
        out = stream.getvalue()
        assert "done" in out
        assert "600 reqs" in out

    def test_negative_interval_rejected(self):
        with pytest.raises(ValueError):
            Heartbeat(interval_s=-1.0)

    def test_tick_line_carries_ops_gc_and_eta(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream)
        hb.expect(100)
        hb.tick(1_000_000.0, requests=5, gc_collects=3)
        line = stream.getvalue().splitlines()[0]
        assert "ops/s" in line
        assert "gc 3" in line
        assert "eta" in line and "eta     -" not in line

    def test_eta_is_dash_without_expected_total(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream)
        hb.tick(1_000_000.0, requests=5)
        assert "eta     -" in stream.getvalue()

    def test_finish_line_carries_gc_count(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=3600.0, stream=stream)
        hb.finish(5_000_000.0, requests=600, gc_collects=7)
        out = stream.getvalue()
        assert "done" in out and "gc 7" in out

    def test_replay_feeds_expected_total_and_gc(self):
        # The caller that builds the trace declares its length; the
        # bundle feeds the request counter and the GC-collect gauge.
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream)
        hb.expect(10_000)
        _, _, result = _bundle_replay("reference", hb)
        lines = stream.getvalue().splitlines()
        assert result.gc.gc_invocations > 0
        assert any("eta     -" not in line for line in lines[:-1])
        assert lines[-1].startswith("[") and "done" in lines[-1]
        assert f"gc {result.gc.gc_invocations:,}" in lines[-1]
        assert f"{result.latency.count:,} reqs" in lines[-1]

    def test_device_drives_heartbeat(self):
        # One tick per series sample: a sub-microsecond cadence samples
        # at every reference-loop completion.
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream)
        trace, metrics, _ = _bundle_replay("reference", hb, interval_us=1e-3)
        assert hb.beats == len(trace)
        assert "done" in stream.getvalue()  # finish() summary from the bundle

    def test_vectorized_kernel_ticks_at_batch_boundaries(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream)
        trace, metrics, _ = _bundle_replay("vectorized", hb, interval_us=1e-3)
        # The kernel samples (and so beats) at run boundaries: one per
        # batch plus one per fallback request, fewer than per request.
        values = metrics.snapshot().values
        boundaries = values["cagc_kernel_batches_total"] + sum(
            v for k, v in values.items()
            if k.startswith("cagc_kernel_fallback_requests_total{")
        )
        assert 1 <= hb.beats == boundaries < len(trace)
        assert "done" in stream.getvalue()

    def test_vectorized_kernel_reports_no_event_rate(self):
        # The kernel has no event loop: its beats used to print the
        # request count as an event rate.  Only ops/s is reported now.
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream)
        _bundle_replay("vectorized", hb)
        out = stream.getvalue()
        assert "ops/s" in out
        assert "ev/s" not in out

    def test_parallel_device_reports_gc_count(self):
        stream = io.StringIO()
        hb = Heartbeat(interval_s=0.0, stream=stream)
        _, _, result = _bundle_replay("reference", hb, device="parallel")
        done = stream.getvalue().splitlines()[-1]
        assert result.gc.gc_invocations > 0
        assert f"gc {result.gc.gc_invocations:,}" in done
        assert result.metrics is not None
