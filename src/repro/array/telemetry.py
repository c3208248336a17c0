"""Per-tenant / per-device SLO view of one array replay.

Every :class:`~repro.array.SSDArray` replay drives one
:class:`~repro.obs.metrics.ArrayMetrics` bundle, which records each
completed request once into the array-wide latency histogram, once
into its device's child and once into its tenant's child.
:class:`ArrayTelemetry` is the result-side view over those same
histogram objects: queries, the ``report`` SLO rows, and the
runner-cache array layout.

The per-tenant and per-device families *partition* the global
histogram — bucket counts, totals and maxima fold back exactly (integer
sums and maxima are order-independent; ``sum_us`` matches to float
fold-order, which the telemetry tests pin with a tight relative
bound).  Percentile queries are answered from bucket counts, so the
per-tenant p99/p999 rows ``cagc-repro report`` prints add up to the
global distribution by construction.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.obs.telemetry import LatencyHistogram


def fold_histograms(hists: Sequence[LatencyHistogram]) -> LatencyHistogram:
    """Merge ``hists`` (in order) into a fresh histogram."""
    out = LatencyHistogram()
    for hist in hists:
        out.merge(hist)
    return out


class ArrayTelemetry:
    """SLO view over an array replay's global/device/tenant histograms."""

    def __init__(
        self,
        hist: LatencyHistogram,
        device_hists: Sequence[LatencyHistogram],
        tenant_hists: Sequence[LatencyHistogram],
    ) -> None:
        if not device_hists or not tenant_hists:
            raise ValueError("need at least one device and one tenant")
        self.hist = hist
        self.device_hists = list(device_hists)
        self.tenant_hists = list(tenant_hists)

    @classmethod
    def of(cls, metrics) -> "ArrayTelemetry":
        """The view over a bound :class:`~repro.obs.metrics.ArrayMetrics`
        bundle's histograms (shared objects, not copies)."""
        return cls(metrics.latency.hist, metrics.device_hists, metrics.tenant_hists)

    @property
    def devices(self) -> int:
        return len(self.device_hists)

    @property
    def tenants(self) -> int:
        return len(self.tenant_hists)

    # ------------------------------------------------------------ queries

    def folded_by_tenant(self) -> LatencyHistogram:
        return fold_histograms(self.tenant_hists)

    def folded_by_device(self) -> LatencyHistogram:
        return fold_histograms(self.device_hists)

    def tenant_percentiles(
        self, ps: Sequence[float] = (99.0, 99.9)
    ) -> List[Tuple[int, List[float]]]:
        """``(tenant, [percentile values])`` for every tenant with traffic."""
        return [
            (t, hist.quantiles(ps))
            for t, hist in enumerate(self.tenant_hists)
            if hist.total
        ]

    def slo_rows(self) -> List[Tuple[str, str]]:
        """``(metric, value)`` rows for the ``report`` table.

        One array-wide p99/p999 row plus one per tenant — the SLO view
        a multi-tenant serving tier is judged on.
        """
        rows: List[Tuple[str, str]] = [
            (
                "array p99 / p999",
                f"{self.hist.percentile(99.0):.0f} / "
                f"{self.hist.percentile(99.9):.0f}us "
                f"({self.hist.total:,} requests)",
            )
        ]
        for tenant, (p99, p999) in self.tenant_percentiles():
            hist = self.tenant_hists[tenant]
            rows.append(
                (
                    f"tenant {tenant} p99 / p999",
                    f"{p99:.0f} / {p999:.0f}us ({hist.total:,} requests)",
                )
            )
        return rows

    # ------------------------------------------------------ serialization

    def to_arrays(self) -> dict:
        """Histogram state as plain arrays (runner-cache layout)."""

        def pack(hists: Sequence[LatencyHistogram]) -> dict:
            return {
                "counts": np.stack([h.counts for h in hists]),
                "total": np.array([h.total for h in hists], dtype=np.int64),
                "sum_us": np.array([h.sum_us for h in hists]),
                "max_us": np.array([h.max_us for h in hists]),
            }

        return {
            "global": pack([self.hist]),
            "device": pack(self.device_hists),
            "tenant": pack(self.tenant_hists),
        }

    @classmethod
    def from_arrays(cls, data: dict) -> "ArrayTelemetry":
        def unpack(packed: dict) -> List[LatencyHistogram]:
            hists = []
            for i in range(len(packed["total"])):
                hist = LatencyHistogram()
                hist.counts = np.array(packed["counts"][i], dtype=np.int64)
                hist.total = int(packed["total"][i])
                hist.sum_us = float(packed["sum_us"][i])
                hist.max_us = float(packed["max_us"][i])
                hists.append(hist)
            return hists

        return cls(
            unpack(data["global"])[0],
            unpack(data["device"]),
            unpack(data["tenant"]),
        )


__all__ = ["ArrayTelemetry", "fold_histograms"]
