"""End-to-end benchmark of the CAGC simulator's user-facing commands.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figs-cold --seed 0 --seconds 45 --trace 0

Workloads (see README.md for why each was chosen and its size):

* ``figs-cold``: every single-device run behind ``cagc-repro run all
  --scale quick`` from an empty result cache, then the 21 reports.
* ``array-tail-cold``: the ``array-tail`` experiment from an empty cache.

Every pass runs in a fresh child interpreter (``child.py``), one client,
serial, as ``cagc-repro run`` does at its default ``--jobs 1``.  The
last line of stdout is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of traced passes with ``--trace 1``.
Exits 2 without a result when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("figs-cold", "array-tail-cold")
#: Set-up samples per run: pass children plus import-only children.
SETUP_SAMPLES = 9
#: A run takes at least three passes (untraced and traced alternate when
#: tracing), so a single slow pass does not set ``wall_s`` alone.
MIN_PASSES = 3
#: Whole-run limit; a child still running at this point is killed.
RUN_LIMIT_S = 170.0
#: Environment that would change what the benchmark measures.
SCRUBBED_ENV = ("REPRO_KERNEL", "REPRO_KERNEL_CHUNK", "CAGC_NO_CACHE", "CAGC_CACHE_DIR")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "sim_mean_response_us": "us",
    "sim_p99_response_us": "us",
    "sim_p999_run_geomean_us": "us",
    "sim_waf": "ratio",
    "sim_blocks_erased": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 replays the shipped experiments; n re-seeds every run")
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance(root: Path) -> dict:
    """Where the measured code came from and what it ran on."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    import numpy

    return {
        "git_sha": sha or "n/a (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Runner:
    """Spawns the child passes of one benchmark run."""

    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        (root / ".perfbench").mkdir(exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
        self.env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH", "")) if p
        )
        self.started = time.monotonic()
        self.spawned = 0
        self.crashes = []

    def spawn(self, traced: int = 0, setup_only: bool = False):
        """Run one child to completion; returns its document or None."""
        index = self.spawned
        self.spawned += 1
        workdir = self.scratch / f"child-{index}"
        (workdir / "cache").mkdir(parents=True)
        env = dict(self.env, CAGC_CACHE_DIR=str(workdir / "cache"))
        out = workdir / "out.json"
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--traced", str(traced), "--out", str(out),
        ]
        if setup_only:
            cmd.append("--setup-only")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, cwd=self.root, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            _, stderr = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            _, stderr = proc.communicate()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        try:
            if proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}")
            with open(out) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            self.crashes.append(f"child {index} failed ({exc}):\n{stderr[-4000:]}")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return doc

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def run_passes(runner: Runner, seconds: float, trace: int):
    """One child per pass, until the next pass would overrun ``seconds``."""
    children = []
    durations = []
    while True:
        traced = int(trace and len(children) % 2 == 1)
        start = time.monotonic()
        doc = runner.spawn(traced=traced)
        durations.append(time.monotonic() - start)
        if doc is None:
            break
        children.append(doc)
        if len(children) >= MIN_PASSES and runner.elapsed() + statistics.median(durations) > seconds:
            break
    setups = [doc["setup_s"] for doc in children]
    while children and len(setups) < SETUP_SAMPLES:
        doc = runner.spawn(setup_only=True)
        if doc is None:
            break
        setups.append(doc["setup_s"])
    return children, setups


def summarize(children, setups, runner: Runner, trace: int):
    passes = [p for doc in children for p in doc["passes"]]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["runs"] + p["reports"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    # A deterministic simulator must deliver the same results every pass.
    for p in passes[1:]:
        if p["sim"] != passes[0]["sim"]:
            failed += p["runs"]
            errors.append([None, "simulated results differ between passes of one seed"])
    attempted += len(runner.crashes)
    failed = min(failed + len(runner.crashes), attempted)
    errors += [[None, text] for text in runner.crashes]
    metrics = {}
    sim = passes[0]["sim"] if passes else None
    if trace == 0 and untraced:
        walls = [p["wall_s"] for p in untraced]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "sim_requests_per_s": statistics.median(
                p["sim"]["requests"] / p["wall_s"] for p in untraced
            ),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
            "success_rate": 1.0 - failed / attempted,
            "sim_mean_response_us": sim["mean_response_us"],
            "sim_p99_response_us": sim["p99_response_us"],
            "sim_p999_run_geomean_us": sim["p999_run_geomean_us"],
            "sim_waf": sim["physical_pages"] / sim["logical_pages"],
            "sim_blocks_erased": float(sim["blocks_erased"]),
        }
    elif trace == 1 and traced and untraced:
        keys = traced[0]["layers"].keys()
        metrics = {k: statistics.median(p["layers"][k] for p in traced) for k in keys}
        examined = sim["pages_examined"]
        metrics.update(
            {
                "gc.pages_examined": float(examined),
                "gc.pages_migrated": float(sim["pages_migrated"]),
                "gc.dedup_skipped": float(sim["dedup_skipped"]),
                "gc.dedup_skip_ratio": sim["dedup_skipped"] / examined if examined else 0.0,
                "sim.pooled_p999_response_us": sim["p999_response_us"],
                "trace.overhead_s": statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced),
            }
        )
    return {
        "passes": passes, "untraced": untraced, "traced": traced,
        "attempted": max(attempted, 1), "failed": failed, "errors": errors,
        "metrics": metrics, "sim": sim, "setups": setups,
    }


def write_spans(root: Path, args, summary) -> Path:
    """Write the traced passes' spans and layer figures out at run end."""
    out_dir = root / ".perfbench" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}.json"
    doc = [
        {"pass": i, "wall_s": p["wall_s"], "layers": p["layers"], "spans": p["spans"]}
        for i, p in enumerate(summary["traced"])
    ]
    path.write_text(json.dumps(doc))
    return path


def report(args, info, kernel, summary) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"kernel {kernel}  git {info['git_sha']}  src {info['src_sha256']}  "
        f"python {info['python']}  numpy {info['numpy']}  "
        f"numba {'yes' if info['numba'] else 'no'}  nproc {info['nproc']}"
    )
    passes = summary["untraced"]
    print(
        f"passes: {len(passes)} untraced, {len(summary['traced'])} traced; "
        f"set-up samples: {len(summary['setups'])}"
    )
    sim = summary["sim"]
    error_rate = summary["failed"] / summary["attempted"]
    print(f"error_rate {error_rate:.6f}  ({summary['failed']} of {summary['attempted']} runs and reports)")
    samples = {
        "sim_mean_response_us": sim and sim["latency_samples"],
        "sim_p99_response_us": sim and sim["latency_samples"],
        "sim_p999_run_geomean_us": sim and f"{sim['runs_with_tail']} runs",
        "wall_s": len(passes),
        "sim_requests_per_s": len(passes),
        "setup_s": len(summary["setups"]),
    }
    for name, value in summary["metrics"].items():
        unit = END_TO_END_UNITS.get(name) or per_layer_unit(name)
        count = f"  (n={samples[name]})" if samples.get(name) is not None else ""
        print(f"  {name:34s} {value:16.6f} {unit}{count}")
    for unit, message in summary["errors"]:
        print(f"FAILED {unit or ''}: {message}", file=sys.stderr)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_us_per_request") or name.endswith("_us_per_block") or name.endswith("_us"):
        return "us"
    if name.endswith("_share") or name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name == "kernel.mean_batch_requests":
        return "requests"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("error: run from the root of a checkout holding src/repro", file=sys.stderr)
        return 2
    info = provenance(root)
    runner = Runner(root, args)
    try:
        children, setups = run_passes(runner, args.seconds, args.trace)
    finally:
        runner.close()
    summary = summarize(children, setups, runner, args.trace)
    if not summary["metrics"]:
        for text in runner.crashes:
            print(text, file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1
    kernel = children[0]["kernel"]
    report(args, info, kernel, summary)
    if args.trace:
        print(f"spans: {write_spans(root, args, summary)}")
    units = END_TO_END_UNITS if args.trace == 0 else None
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name] if units else per_layer_unit(name)}
            for name, value in summary["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
