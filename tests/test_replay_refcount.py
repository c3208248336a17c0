"""A finished replay is freed by refcount, and the kernel default.

Replayed devices are large (mapping, fingerprint-index and allocator
columns), and a sweep replays dozens of them in one process.  Any
reference cycle left behind by a replay keeps a whole device resident
until a full cycle-collector pass happens to run, which shows up as
peak RSS.  These tests run with the collector disabled, drop the device
and its result, and require weak references to the scheme and its flash
array to be dead.
"""

import gc
import os
import subprocess
import sys
import weakref

import pytest

from repro.array import SSDArray
from repro.array.coord import COORDINATIONS
from repro.config import SSDConfig, small_config
from repro.device.ssd import SSD
from repro.obs.metrics import DeviceMetrics
from repro.schemes import make_scheme
from repro.workloads.fiu import build_fiu_trace
from repro.workloads.multiplex import multiplex_traces

KERNELS = ("reference", "vectorized")


@pytest.fixture
def no_cycle_collector():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _config(kernel):
    return small_config(
        blocks=64, pages_per_block=16, gc_mode="blocking", kernel=kernel
    )


def _refs(scheme):
    """The scheme and its flash array: either can anchor a cycle."""
    return [weakref.ref(scheme), weakref.ref(scheme.flash)]


def _device_replay(kernel, scheme_name):
    cfg = _config(kernel)
    trace = build_fiu_trace("homes", cfg, n_requests=1200, seed=5)
    scheme = make_scheme(scheme_name, cfg)
    result = SSD(scheme, metrics=DeviceMetrics()).replay(trace)
    assert scheme.gc_counters.blocks_erased > 0  # GC (and its fast path) ran
    return _refs(scheme), result


def _array_replay(kernel, coordination):
    cfg = _config(kernel)
    tenant_traces = [
        build_fiu_trace("mail", cfg, n_requests=400, fill_factor=3.0, seed=300 + t)
        for t in range(4)
    ]
    merged = multiplex_traces(
        tenant_traces, devices=4, pages_per_device=cfg.logical_pages
    )
    schemes = [make_scheme("cagc", cfg) for _ in range(4)]
    result = SSDArray(schemes, coordination=coordination, ncq_depth=8).replay(
        merged
    )
    return [ref for s in schemes for ref in _refs(s)], result


@pytest.mark.usefixtures("no_cycle_collector")
class TestReplayLeavesNoCycles:
    @pytest.mark.parametrize("scheme_name", ("baseline", "cagc", "inline-dedupe"))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_device_replay_freed_by_refcount(self, kernel, scheme_name):
        refs, result = _device_replay(kernel, scheme_name)
        del result
        assert all(r() is None for r in refs), (
            "replayed device is held by a reference cycle"
        )

    @pytest.mark.parametrize("coordination", COORDINATIONS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_array_replay_freed_by_refcount(self, kernel, coordination):
        refs, result = _array_replay(kernel, coordination)
        del result
        assert all(r() is None for r in refs), (
            "replayed array lane is held by a reference cycle"
        )


class TestKernelDefault:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert SSDConfig().kernel == "vectorized"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "reference")
        assert SSDConfig().kernel == "reference"
        assert SSDConfig(kernel="vectorized").kernel == "vectorized"


def test_registry_import_keeps_kernel_lazy():
    """``repro.kernel`` loads on the first vectorized replay, not with
    the experiment registry, so import cost does not depend on the
    kernel in use."""
    probe = (
        "import sys; import repro.experiments.registry; "
        "print(len(sys.modules), any(m == 'repro.kernel' or "
        "m.startswith('repro.kernel.') for m in sys.modules))"
    )
    outputs = {}
    for kernel in KERNELS:
        env = dict(os.environ, REPRO_KERNEL=kernel)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        assert out[1] == "False", f"repro.kernel imported eagerly ({kernel})"
        outputs[kernel] = int(out[0])
    assert outputs["reference"] == outputs["vectorized"]
