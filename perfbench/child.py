"""One benchmark pass, run in a fresh interpreter.

Started by ``run.py`` with ``PYTHONPATH=src`` and ``CAGC_CACHE_DIR``
pointing at an empty directory.  Writes one JSON document to ``--out``;
the parent aggregates the documents of a run.

The body of a pass does what ``cagc-repro run`` does at ``--jobs 1``:
``warm_experiments`` replays every run behind the selected experiments
into the empty cache, then ``run_experiment`` builds each report.  After
the timed body, an untimed check reads every run back from the cache the
pass filled (as a second ``cagc-repro run`` would) and requires the same
results and the same report text.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback

import numpy as np

import probes

SCALE = "quick"
#: Bench seed ``n`` moves every run's seed by ``n * SEED_STRIDE``; the
#: stride keeps the stability study's seeds 0/1/2 apart.
SEED_STRIDE = 1000


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() before the spawn")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up of a cold pass and exit")
    return parser.parse_args(argv)


def reseed_fanout(seed: int, patches) -> None:
    """Route every run of the fan-out through a re-seeded spec.

    Both the prewarm and the report functions fetch results through
    ``repro.experiments.common.run_specs``; mapping the specs there keeps
    the in-process memo keyed by the shipped spec, so the report
    functions see the re-seeded results.
    """
    from repro.experiments import common

    run_specs = common.run_specs

    def reseeded_run_specs(specs, *args, **kwargs):
        return run_specs([reseed(spec, seed) for spec in specs], *args, **kwargs)

    patches.set(common, "run_specs", reseeded_run_specs)


def reseed(spec, seed: int):
    if seed == 0:
        return spec
    return dataclasses.replace(spec, seed=spec.seed + SEED_STRIDE * seed)


def experiment_ids(workload: str):
    from repro.experiments import EXPERIMENTS

    if workload == "figs-cold":
        return [i for i in EXPERIMENTS if i != "array-tail"]
    return ["array-tail"]


def run_pass(ids, rec: probes.SpanRecorder):
    """The timed body: returns (wall seconds, report texts, errors)."""
    from repro.experiments import common, registry

    errors = []
    texts = {}
    common.reset_result_caches()
    frame = rec.open("pass")
    try:
        registry.warm_experiments(ids, scale=SCALE, jobs=1)
        for experiment_id in ids:
            try:
                texts[experiment_id] = str(registry.run_experiment(experiment_id, scale=SCALE))
            except Exception:  # one failed report must not hide the others
                errors.append([f"report {experiment_id}", traceback.format_exc()])
    except Exception:  # every undelivered run then fails the output check
        errors.append([None, f"warm_experiments: {traceback.format_exc()}"])
    wall = rec.close(frame)
    return wall, texts, errors


def check_results(ids, seed, rec: probes.SpanRecorder, trace_requests):
    """Output check of every delivered run; returns (sim summary, errors).

    ``trace_requests`` maps each run id to the requests its traces held
    when the run was replayed.
    """
    from repro.experiments import common
    from repro.experiments.registry import specs_for_experiments
    from repro.obs.telemetry import LatencyHistogram

    errors = []
    hist = LatencyHistogram()
    samples = []
    tails = []
    sim = dict.fromkeys(
        ("runs", "requests", "physical_pages", "logical_pages", "blocks_erased",
         "pages_examined", "pages_migrated", "dedup_skipped"), 0
    )
    for spec in specs_for_experiments(ids, SCALE):
        label = reseed(spec, seed).label()
        sim["runs"] += 1
        result = common._MEMO.get(spec)
        if result is None:
            errors.append([label, "no result delivered"])
            continue
        devices = getattr(result, "devices", None)
        if devices is None:
            devices = (result,)
            completed = result.latency.count
            hist.record_many(result.response_times_us)
            kept_tail = result.latency.p999_us
        else:
            completed = result.requests_completed
            hist.merge(result.telemetry.hist)
            kept_tail = result.percentile(99.9)
        # An array's lane samples are the ones its array-wide histogram holds.
        run_samples = np.concatenate([device.response_times_us for device in devices])
        samples.append(run_samples)
        if completed:
            exact = len(run_samples) == completed
            tails.append(float(np.percentile(run_samples, 99.9)) if exact else kept_tail)
        expected = trace_requests.get(label)
        if expected is None:
            errors.append([label, "no trace length recorded"])
        elif completed != expected:
            errors.append([label, f"{completed} requests completed, trace holds {expected}"])
        sim["requests"] += completed
        for device in devices:
            gc, io = device.gc, device.io
            # CAGC promotions copy pages already counted as examined.
            if gc.pages_migrated + gc.dedup_skipped > gc.pages_examined + gc.promotions:
                errors.append([label, f"migrated+skipped exceeds examined+promoted ({gc})"])
            # WAF over the writes that reached flash (inline dedup hits never do).
            stored = io.logical_pages_written - io.inline_dedup_hits
            physical = io.user_pages_programmed + gc.pages_migrated
            if physical < stored:
                errors.append([label, f"write amplification below 1 ({physical} < {stored})"])
            sim["physical_pages"] += physical
            sim["logical_pages"] += io.logical_pages_written
            sim["blocks_erased"] += gc.blocks_erased
            sim["pages_examined"] += gc.pages_examined
            sim["pages_migrated"] += gc.pages_migrated
            sim["dedup_skipped"] += gc.dedup_skipped
    errors.extend([run, message] for run, message in rec.failures)
    sim["latency_samples"] = int(hist.total)
    sim["mean_response_us"] = hist.sum_us / hist.total if hist.total else 0.0
    pooled = np.concatenate(samples) if samples else np.empty(0)
    if len(pooled) == hist.total and hist.total:
        # Exact quantiles: the histogram's 7% buckets make p99 jump a
        # whole bucket between seeds.
        sim["p99_response_us"], sim["p999_response_us"] = (
            float(v) for v in np.percentile(pooled, [99.0, 99.9])
        )
    else:  # runs that kept no samples: fall back to the pooled histogram
        sim["p99_response_us"] = hist.percentile(99.0)
        sim["p999_response_us"] = hist.percentile(99.9)
    # The pooled top 0.1% is mostly one run's GC stalls, so it jumps
    # between seeds; the geometric mean of each run's p99.9 does not.
    sim["p999_run_geomean_us"] = float(np.exp(np.mean(np.log(tails)))) if tails else 0.0
    sim["runs_with_tail"] = len(tails)
    return sim, errors


def one_pass(ids, seed, traced):
    """Run, check and summarize one pass, then check the warm re-read."""
    rec = probes.SpanRecorder()
    patches = probes.install(rec, tracing=bool(traced))
    try:
        wall, texts, errors = run_pass(ids, rec)
    finally:
        patches.undo()
    # Before the output check, whose pooled sample arrays would raise it.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sim, check_errors = check_results(ids, seed, rec, rec.trace_requests)
    errors += check_errors
    warm, warm_errors = warm_check(ids, seed, traced, texts, sim, rec.trace_requests)
    errors += warm_errors
    doc = {
        "traced": bool(traced),
        "wall_s": wall,
        "rss_mb": rss_mb,
        "runs": sim["runs"],
        "reports": len(ids),
        "failed": len({unit or "pass" for unit, _ in errors}),
        "sim": sim,
        "errors": errors,
    }
    if traced:
        doc["layers"] = probes.layer_metrics(rec, wall)
        doc["layers"].update(warm)
        doc["spans"] = rec.span_rows()
    return doc


def warm_check(ids, seed, traced, cold_texts, cold_sim, trace_requests):
    """Read every run back from the cache the pass filled, untimed.

    Nothing may be replayed, and the results and report texts must equal
    the cold ones.  Returns the read side's layer figures (traced passes
    only) and the errors found.
    """
    rec = probes.SpanRecorder()
    patches = probes.install(rec, tracing=bool(traced))
    try:
        wall, texts, errors = run_pass(ids, rec)
    finally:
        patches.undo()
    replayed = rec.calls["runner.execute"]
    if replayed:
        errors.append([None, f"warm re-read replayed {replayed} runs instead of reading the cache"])
    sim, check_errors = check_results(ids, seed, rec, trace_requests)
    errors += check_errors
    if sim != cold_sim:
        errors.append([None, "results read back from the cache differ from the cold results"])
    for experiment_id, text in cold_texts.items():
        if texts.get(experiment_id) != text:
            errors.append([f"report {experiment_id}", "warm report text differs from the cold report"])
    layers = {}
    if traced:
        layers = {
            "warm.read_s": wall,
            "warm.cache_get_s": rec.self_s["runner.cache_get"],
            "warm.cache_hits": rec.counts["runner.cache_hits"],
            "warm.cache_bytes": rec.counts["runner.cache_bytes"],
            "warm.report_s": rec.self_s["experiments.report"],
        }
    return layers, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    import repro.experiments.registry  # noqa: F401  (the set-up being timed)
    from repro.config import SSDConfig

    setup_s = time.monotonic() - args.spawned_at
    base = probes.Patches()
    reseed_fanout(args.seed, base)
    ids = experiment_ids(args.workload)
    out = {"workload": args.workload, "kernel": SSDConfig().kernel,
           "setup_s": setup_s, "passes": []}
    if not args.setup_only:
        out["passes"].append(one_pass(ids, args.seed, args.traced))
    base.undo()
    with open(args.out, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
