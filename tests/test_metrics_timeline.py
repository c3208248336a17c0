"""Tests for the device's GC-activity timeline (the metrics series)."""

import numpy as np


class TestDeviceIntegration:
    def test_device_samples_gc_activity(self):
        from repro.config import small_config
        from repro.device.ssd import SSD
        from repro.obs import DeviceMetrics
        from repro.schemes import make_scheme
        from repro.workloads.fiu import build_fiu_trace

        cfg = small_config(blocks=64, pages_per_block=16)
        trace = build_fiu_trace("homes", cfg, n_requests=0, fill_factor=3.0)
        result = SSD(make_scheme("baseline", cfg), metrics=DeviceMetrics()).replay(
            trace
        )
        series = result.metrics
        free = series.column("cagc_free_fraction")
        assert series.samples > 0
        assert ((free >= 0) & (free <= 1)).all()
        erased = series.column("cagc_gc_blocks_erased_total")
        assert (np.diff(erased) >= 0).all()  # cumulative counter
        assert erased[-1] == result.gc.blocks_erased > 0
