"""Array-level differential equivalence.

Two exact claims anchor the SSD-array tier to the single-device
simulator the rest of the repo validates:

* **pass-through** — an N=1 array replaying a trace is
  sha256-trajectory-identical to the bare :class:`SSD`, across the full
  scheme x policy matrix and under an actively-blocking NCQ gate (a
  bounded queue ahead of a FIFO work-conserving server never moves a
  completion time);
* **independence** — under ``independent`` coordination, every device
  of an N=4 array with disjoint per-tenant LPN ranges produces exactly
  the trajectory of a solo replay of that tenant's trace on a bare
  device: the shared event heap interleaves the lanes without coupling
  them.

Either digest drifting means the array changed device *behaviour*, not
just orchestration — the one thing it must never do.
"""

import hashlib

import pytest

from repro.array import SSDArray
from repro.config import small_config
from repro.device.ssd import SSD
from repro.oracle.diff import build_scheme
from repro.workloads.fiu import build_fiu_trace
from repro.workloads.multiplex import multiplex_traces

SCHEMES = ("baseline", "inline-dedupe", "cagc", "lba-hotcold")
POLICIES = ("greedy", "cost-benefit", "random")


def _trajectory_digest(result, scheme) -> str:
    h = hashlib.sha256()
    h.update(result.response_times_us.tobytes())
    h.update(repr(result.gc).encode())
    h.update(repr(result.io).encode())
    h.update(repr(result.wear).encode())
    h.update(repr(result.simulated_us).encode())
    h.update(repr(sorted(scheme.state_snapshot().content.items())).encode())
    return h.hexdigest()


def _config(**overrides):
    return small_config(blocks=64, pages_per_block=16, **overrides)


class TestSingleDevicePassThrough:
    """N=1 array == bare SSD, digest for digest."""

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_combos_identical(self, scheme_name, policy):
        cfg = _config(gc_mode="blocking")
        trace = build_fiu_trace(
            "mail", cfg, n_requests=1200, fill_factor=3.0, seed=5
        )
        bare_scheme = build_scheme(scheme_name, policy, cfg)
        bare = SSD(bare_scheme).replay(trace)
        lane_scheme = build_scheme(scheme_name, policy, cfg)
        # Depth 8 on this GC-heavy trace blocks hundreds of admissions;
        # the trajectory must not notice.
        result = SSDArray([lane_scheme], ncq_depth=8).replay(trace)
        assert _trajectory_digest(bare, bare_scheme) == _trajectory_digest(
            result.devices[0], lane_scheme
        )

    @pytest.mark.parametrize("gc_mode", ("blocking", "preemptive"))
    @pytest.mark.parametrize("ncq_depth", (1, 4, 1024))
    def test_ncq_depth_invariant(self, gc_mode, ncq_depth):
        """Completion trajectories are invariant in the NCQ depth,
        including depth 1 (fully serialized admission) and a depth the
        queue never reaches."""
        cfg = _config(gc_mode=gc_mode)
        trace = build_fiu_trace(
            "mail", cfg, n_requests=800, fill_factor=3.0, seed=6
        )
        bare_scheme = build_scheme("cagc", "greedy", cfg)
        bare = SSD(bare_scheme).replay(trace)
        lane_scheme = build_scheme("cagc", "greedy", cfg)
        result = SSDArray([lane_scheme], ncq_depth=ncq_depth).replay(trace)
        assert _trajectory_digest(bare, bare_scheme) == _trajectory_digest(
            result.devices[0], lane_scheme
        )
        assert result.ncq_peaks[0] <= ncq_depth

    def test_gate_actually_blocks(self):
        """Guard against the gate silently never engaging (which would
        make the depth-invariance test vacuous)."""
        cfg = _config(gc_mode="blocking")
        trace = build_fiu_trace(
            "mail", cfg, n_requests=1200, fill_factor=3.0, seed=5
        )
        result = SSDArray(
            [build_scheme("cagc", "greedy", cfg)], ncq_depth=4
        ).replay(trace)
        assert result.ncq_held[0] > 0
        assert result.ncq_peaks[0] == 4


class TestPerDeviceIndependence:
    """N=4 independent array == four solo replays, device for device."""

    @pytest.mark.parametrize("scheme_name", ("baseline", "cagc"))
    @pytest.mark.parametrize("gc_mode", ("blocking", "preemptive"))
    def test_disjoint_tenants_match_solo(self, scheme_name, gc_mode):
        cfg = _config(gc_mode=gc_mode)
        tenant_traces = [
            build_fiu_trace(
                "mail", cfg, n_requests=700, fill_factor=3.0, seed=300 + t
            )
            for t in range(4)
        ]
        solo_digests = []
        for trace in tenant_traces:
            scheme = build_scheme(scheme_name, "greedy", cfg)
            solo_digests.append(
                _trajectory_digest(SSD(scheme).replay(trace), scheme)
            )
        schemes = [build_scheme(scheme_name, "greedy", cfg) for _ in range(4)]
        merged = multiplex_traces(
            tenant_traces, devices=4, pages_per_device=cfg.logical_pages
        )
        result = SSDArray(
            schemes, coordination="independent", ncq_depth=8
        ).replay(merged)
        for device in range(4):
            assert (
                _trajectory_digest(result.devices[device], schemes[device])
                == solo_digests[device]
            ), f"device {device} diverged from its solo replay"

    def test_coordination_changes_trajectories(self):
        """Sanity inversion: coordinated modes *should* differ from the
        solo trajectories (they move GC around) — if they did not, the
        coordination axis would be dead code."""
        cfg = _config(gc_mode="blocking")
        tenant_traces = [
            build_fiu_trace(
                "mail", cfg, n_requests=700, fill_factor=3.0, seed=300 + t
            )
            for t in range(4)
        ]
        digests = {}
        for coord in ("independent", "staggered"):
            schemes = [build_scheme("cagc", "greedy", cfg) for _ in range(4)]
            merged = multiplex_traces(
                tenant_traces, devices=4, pages_per_device=cfg.logical_pages
            )
            result = SSDArray(
                schemes, coordination=coord, ncq_depth=8
            ).replay(merged)
            digests[coord] = tuple(
                _trajectory_digest(r, s)
                for r, s in zip(result.devices, schemes)
            )
        assert digests["independent"] != digests["staggered"]


class TestKernelFallback:
    """Eligible vectorized configs take the per-lane kernel untagged;
    anything outside its model must fall back *with a reason tag*,
    never silently."""

    def test_eligible_config_takes_kernel_untagged(self):
        cfg = _config(kernel="vectorized")
        trace = build_fiu_trace("mail", cfg, n_requests=200)
        result = SSDArray([build_scheme("cagc", "greedy", cfg)]).replay(trace)
        assert result.kernel_fallback_reason is None

    def test_heartbeat_bundle_takes_kernel_untagged(self):
        """Progress reporting rides on the ArrayMetrics bundle, which
        the lane folds feed, so it no longer forces the reference loop."""
        import io

        from repro.obs import ArrayMetrics, Heartbeat

        cfg = _config(kernel="vectorized")
        trace = build_fiu_trace("mail", cfg, n_requests=200)
        stream = io.StringIO()
        metrics = ArrayMetrics(heartbeat=Heartbeat(0.0, stream=stream))
        result = SSDArray(
            [build_scheme("cagc", "greedy", cfg) for _ in range(2)],
            metrics=metrics,
        ).replay(trace)
        assert result.kernel_fallback_reason is None
        assert f"] done: sim {result.simulated_us / 1e6:.3f}s, 200 reqs" in (
            stream.getvalue()
        )

    def test_unmodelled_fallback_is_reason_tagged(self):
        from repro.kernel.arrayepoch import FALLBACK_UNMODELLED

        cfg = _config(kernel="vectorized", gc_mode="preemptive")
        trace = build_fiu_trace("mail", cfg, n_requests=200)
        result = SSDArray([build_scheme("cagc", "greedy", cfg)]).replay(trace)
        assert result.kernel_fallback_reason == FALLBACK_UNMODELLED

    @pytest.mark.parametrize("coordination", ("staggered", "global-token"))
    def test_coordinated_replay_falls_back_tagged(self, coordination):
        """Coordinated replays run the reference loop on a vectorized
        config, tagged, with the reference config's digests."""
        from repro.kernel.arrayepoch import FALLBACK_UNMODELLED

        digests = {}
        for kernel in ("reference", "vectorized"):
            cfg = _config(kernel=kernel)
            tenant_traces = [
                build_fiu_trace(
                    "mail", cfg, n_requests=400, fill_factor=3.0, seed=40 + t
                )
                for t in range(4)
            ]
            merged = multiplex_traces(
                tenant_traces, devices=4, pages_per_device=cfg.logical_pages
            )
            schemes = [build_scheme("cagc", "greedy", cfg) for _ in range(4)]
            result = SSDArray(
                schemes, coordination=coordination, ncq_depth=8
            ).replay(merged)
            expected = FALLBACK_UNMODELLED if kernel == "vectorized" else None
            assert result.kernel_fallback_reason == expected
            digests[kernel] = tuple(
                _trajectory_digest(r, s)
                for r, s in zip(result.devices, schemes)
            )
        assert digests["reference"] == digests["vectorized"]

    def test_reference_config_untagged(self):
        cfg = _config(kernel="reference")
        trace = build_fiu_trace("mail", cfg, n_requests=200)
        result = SSDArray([build_scheme("cagc", "greedy", cfg)]).replay(trace)
        assert result.kernel_fallback_reason is None

    def test_vectorized_matches_reference_array(self):
        """And the fallback must still be bit-identical to an array
        built on an explicit reference config."""
        digests = {}
        for kernel in ("reference", "vectorized"):
            cfg = _config(kernel=kernel)
            trace = build_fiu_trace(
                "mail", cfg, n_requests=800, fill_factor=3.0, seed=9
            )
            scheme = build_scheme("cagc", "greedy", cfg)
            result = SSDArray([scheme]).replay(trace)
            digests[kernel] = _trajectory_digest(result.devices[0], scheme)
        assert digests["reference"] == digests["vectorized"]
