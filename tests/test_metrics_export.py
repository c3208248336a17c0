"""Exporters, SLO monitors, cross-run diffing, and the CLI surfaces
over the metrics stack.

The golden files under ``tests/data/`` pin the Prometheus snapshot and
JSONL time series of one fully-seeded reference-kernel run byte for
byte: exporter output is deterministic (registration order, shortest
round-trip float repr), so any drift here is a behavioral change in the
simulator or the registry, not noise.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.obs.compare import (
    DEFAULT_THRESHOLD,
    compare_snapshots,
    flagged,
    summarize,
)
from repro.obs.export import format_value, prometheus_text, series_csv, series_jsonl
from repro.obs.metrics import DeviceMetrics, MetricsSnapshot
from repro.obs.slo import (
    SLObjective,
    default_objectives,
    evaluate_slo,
    evaluate_slos,
    gc_spike_annotations,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def seeded_snapshot():
    """The committed golden scenario: 400 seeded mail requests on a
    small device, reference kernel (the series cadence is
    kernel-dependent by design, so the golden pins one kernel)."""
    from repro.config import small_config
    from repro.device.ssd import run_trace
    from repro.schemes import make_scheme
    from repro.workloads.fiu import build_fiu_trace

    cfg = small_config(blocks=64, pages_per_block=16, kernel="reference")
    trace = build_fiu_trace("mail", cfg, n_requests=400, fill_factor=3.0, seed=7)
    metrics = DeviceMetrics(interval_us=50_000.0)
    run_trace(make_scheme("cagc", cfg), trace, metrics=metrics)
    return metrics.snapshot()


class TestExporters:
    def test_format_value_integral_and_float(self):
        assert format_value(400.0) == "400"
        assert format_value(0.984375) == "0.984375"

    def test_prometheus_golden(self, seeded_snapshot):
        golden = (DATA / "metrics_golden.prom").read_text()
        assert prometheus_text(seeded_snapshot) == golden

    def test_jsonl_golden(self, seeded_snapshot):
        golden = (DATA / "metrics_golden.jsonl").read_text()
        assert series_jsonl(seeded_snapshot) == golden

    def test_prom_shape(self, seeded_snapshot):
        lines = prometheus_text(seeded_snapshot).splitlines()
        assert lines[0].startswith("# TYPE ")
        assert lines[-1] == "# EOF"
        assert "# TYPE cagc_requests_total counter" in lines
        assert "# TYPE cagc_waf gauge" in lines

    def test_csv_matches_jsonl_rows(self, seeded_snapshot):
        csv_lines = series_csv(seeded_snapshot).splitlines()
        jsonl_lines = series_jsonl(seeded_snapshot).splitlines()
        assert len(csv_lines) == len(jsonl_lines) + 1  # header row
        header = csv_lines[0].split(",")
        assert header[0] == "t_us"
        first = json.loads(jsonl_lines[0])
        assert list(first) == header


def _synthetic_snapshot():
    """Hand-built snapshot with a known violation pattern: p99 windows
    2, 3 and 7 breach 500us; GC collects land in windows 2 and 3 only."""
    times = np.arange(10) * 10_000.0
    p99 = np.array([100, 100, 900, 900, 100, 100, 100, 900, 100, 100], float)
    gc = np.array([0, 0, 1, 2, 2, 2, 2, 2, 2, 2], float)
    return MetricsSnapshot(
        values={"cagc_waf": 5.0},
        times_us=times,
        series={"window_p99_us": p99, "cagc_gc_invocations_total": gc},
        interval_us=10_000.0,
    )


class TestSLO:
    def test_series_objective_burn_rate(self):
        row = evaluate_slo(
            _synthetic_snapshot(),
            SLObjective("p99", "window_p99_us", 500.0, budget=0.1, burn_window=5),
        )
        assert row["windows"] == 10
        assert row["violations"] == 3
        assert row["violation_fraction"] == pytest.approx(0.3)
        # Worst 5-window stretch holds 2 violations: 0.4 of the window,
        # 4x the 10% budget.
        assert row["burn_rate"] == pytest.approx(4.0)
        assert row["status"] == "breach"

    def test_value_objective_zero_budget(self):
        row = evaluate_slo(
            _synthetic_snapshot(),
            SLObjective("waf", "cagc_waf", 4.0, kind="value", budget=0.0),
        )
        assert row["worst"] == 5.0
        assert row["violations"] == 1
        assert row["status"] == "breach"

    def test_missing_series_is_clean(self):
        row = evaluate_slo(
            _synthetic_snapshot(), SLObjective("x", "no_such_column", 1.0)
        )
        assert row["windows"] == 0
        assert row["status"] == "ok"

    def test_default_objectives_cover_latency_and_waf(self):
        names = [o.name for o in default_objectives()]
        assert names == ["p99-latency", "p999-latency", "waf"]
        rows = evaluate_slos(_synthetic_snapshot())
        assert [r["objective"] for r in rows] == names

    def test_gc_spike_annotations_correlate(self):
        spikes = gc_spike_annotations(_synthetic_snapshot(), limit=500.0)
        assert [s["t_us"] for s in spikes] == [20_000.0, 30_000.0, 70_000.0]
        assert [s["correlated"] for s in spikes] == [True, True, False]
        assert spikes[0]["gc_delta"] == 1.0


class TestCompare:
    def test_self_compare_is_clean(self, seeded_snapshot):
        rows = compare_snapshots(seeded_snapshot, seeded_snapshot)
        assert rows  # non-trivial alignment
        assert flagged(rows) == []
        assert summarize(rows)["clean"] is True

    def test_value_drift_flags(self):
        a = _synthetic_snapshot()
        b = _synthetic_snapshot()
        b.values["cagc_waf"] = a.values["cagc_waf"] * 2
        hot = flagged(compare_snapshots(a, b))
        assert any(r["metric"] == "cagc_waf" for r in hot)
        row = next(r for r in hot if r["metric"] == "cagc_waf")
        assert row["rel"] == pytest.approx(1.0)

    def test_one_sided_metric_flags(self):
        a = _synthetic_snapshot()
        b = _synthetic_snapshot()
        b.values["cagc_new_counter_total"] = 3.0
        hot = flagged(compare_snapshots(a, b))
        row = next(r for r in hot if r["metric"] == "cagc_new_counter_total")
        assert row["a"] is None and row["delta"] is None

    def test_series_aggregates_catch_transient_spike(self):
        # Same final values, different tail excursion mid-run: only the
        # series:...:max pseudo-metric can see it.
        a = _synthetic_snapshot()
        b = _synthetic_snapshot()
        b.series["window_p99_us"] = a.series["window_p99_us"].copy()
        b.series["window_p99_us"][7] = 9_000.0
        hot = flagged(compare_snapshots(a, b, threshold=DEFAULT_THRESHOLD))
        assert any(r["metric"] == "series:window_p99_us:max" for r in hot)
        assert not flagged(compare_snapshots(a, b, include_series=False))


class TestCLI:
    """The metrics / compare / bench-history CLI surfaces, sharing one
    quick-scale cached run so only the first invocation simulates."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, monkeypatch, tmp_path_factory):
        cache_dir = tmp_path_factory.getbasetemp() / "metrics-cli-cache"
        monkeypatch.setenv("CAGC_CACHE_DIR", str(cache_dir))

    RUN = ["--workload", "mail", "--scheme", "cagc", "--scale", "quick"]

    def test_metrics_prom_to_stdout(self, capsys):
        from repro.cli import main

        assert main(["metrics", *self.RUN, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# TYPE ")
        assert out.rstrip().endswith("# EOF")
        assert "cagc_requests_total" in out

    def test_metrics_parallel_device_is_metered(self, capsys):
        from repro.cli import main

        run = [*self.RUN, "--device", "parallel"]
        assert main(["metrics", *run, "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# TYPE ")
        assert "cagc_requests_total" in out

    def test_metrics_jsonl_and_slo(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "series.jsonl"
        assert (
            main(
                ["metrics", *self.RUN, "--format", "jsonl", "--out", str(out_file), "--slo"]
            )
            == 0
        )
        rows = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert rows and "t_us" in rows[0] and "window_p99_us" in rows[0]
        printed = capsys.readouterr().out
        assert "SLO burn rates" in printed
        assert "p99-latency" in printed
        assert "gc spikes" in printed

    def test_report_out_doc_structure(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "report.json"
        assert main(["report", *self.RUN, "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert set(doc) >= {"run", "metrics", "kernel", "slo"}
        assert doc["run"].startswith("mail/cagc/greedy@quick")
        assert set(doc["kernel"]) >= {"batches", "batched_requests", "fallback_requests"}
        assert [r["objective"] for r in doc["slo"]] == [
            "p99-latency",
            "p999-latency",
            "waf",
        ]

    def test_compare_self_is_zero_delta(self, capsys):
        from repro.cli import main

        label = "mail/cagc@quick"
        assert (
            main(["report", "--compare", label, label, "--fail-on-diff"]) == 0
        )
        out = capsys.readouterr().out
        assert "0 flagged" in out

    def test_compare_different_schemes_flags_and_fails(self, tmp_path, capsys):
        from repro.cli import main

        out_file = tmp_path / "diff.json"
        code = main(
            [
                "report",
                "--compare",
                "mail/baseline@quick",
                "mail/cagc@quick",
                "--fail-on-diff",
                "--out",
                str(out_file),
            ]
        )
        assert code == 1
        assert "flagged" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert doc["summary"]["flagged"] > 0
        assert doc["run_a"].startswith("mail/baseline")

    def test_bad_compare_label_rejected(self, capsys):
        from repro.cli import main

        assert main(["report", "--compare", "too/many/parts/here", "mail/cagc"]) == 2
        assert "error" in capsys.readouterr().err


class TestBenchHistoryCLI:
    def _write_history(self, path: Path) -> None:
        entries = [
            {
                "schema": 4,
                "git_sha": "aaa0001",
                "taken_at": "2026-08-01T00:00:00Z",
                "python": "3.12.0",
                "cases": {"baseline": 10.0, "cagc": 12.0},
            },
            {"schema": 3, "git_sha": "old0000", "cases": {"baseline": 1.0}},
            {
                "schema": 4,
                "git_sha": "bbb0002",
                "taken_at": "2026-08-02T00:00:00Z",
                "python": "3.12.0",
                "cases": {"baseline": 15.0, "cagc": 12.1},
            },
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in entries))

    def test_table_and_regression_annotations(self, tmp_path, capsys):
        from repro.cli import main

        history = tmp_path / "hist.jsonl"
        self._write_history(history)
        assert main(["bench-history", "--file", str(history)]) == 0
        out = capsys.readouterr().out
        assert "bench history: 2 snapshots" in out  # schema-3 entry dropped
        assert "15.00!" in out  # baseline 10 -> 15 is a >25% step
        assert "12.10" in out and "12.10!" not in out  # cagc within threshold
        assert "regression: baseline at bbb0002" in out

    def test_case_filter_hides_other_columns(self, tmp_path, capsys):
        from repro.cli import main

        history = tmp_path / "hist.jsonl"
        self._write_history(history)
        assert main(["bench-history", "--file", str(history), "--cases", "cagc"]) == 0
        out = capsys.readouterr().out
        assert "cagc" in out and "baseline" not in out

    def test_missing_file_errors(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench-history", "--file", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_repo_history_parses(self, capsys):
        from repro.cli import main

        history = Path(__file__).parent.parent / "BENCH_history.jsonl"
        if not history.exists():  # pragma: no cover - fresh checkout
            pytest.skip("no committed bench history")
        assert main(["bench-history", "--file", str(history)]) == 0
        assert "bench history" in capsys.readouterr().out
