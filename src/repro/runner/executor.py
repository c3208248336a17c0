"""Fan-out execution of :class:`RunSpec` batches.

``run_specs`` is the orchestration core: it deduplicates the requested
specs, satisfies what it can from the persistent :class:`RunCache`, and
fans the misses out over a ``ProcessPoolExecutor`` (``jobs`` worker
processes, default ``os.cpu_count()``).  Each simulation is fully
independent and internally seeded, so parallel execution is guaranteed
to return results bit-identical to serial execution — the equivalence
the runner test suite asserts per scheme.

Workers return serialized results (the parent deserializes and writes
the cache), which keeps cache writes single-writer/atomic and avoids
pickling ``RunResult`` dataclasses across the process boundary twice.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runner.cache import RunCache
from repro.runner.serialize import result_from_bytes, result_to_bytes
from repro.runner.spec import RunSpec

#: progress callback: (spec, source) with source in {"cache", "run"}.
ProgressFn = Callable[[RunSpec, str], None]

#: one finished miss: (spec, result, None) or (spec, None, exception).
_Outcome = Tuple[RunSpec, Optional[object], Optional[BaseException]]


class RunSpecError(RuntimeError):
    """One or more specs raised; every other result was still returned
    to the cache.  ``failures`` holds the ``(spec, exception)`` pairs in
    completion order; the first exception is the ``__cause__``."""

    def __init__(self, failures: List[Tuple[RunSpec, BaseException]]) -> None:
        self.failures = failures
        detail = "; ".join(
            f"{spec.label()}: {type(exc).__name__}: {exc}" for spec, exc in failures
        )
        super().__init__(f"{len(failures)} run(s) failed: {detail}")


def execute_spec(spec: RunSpec):
    """Run one spec in-process (no caching).  Picklable worker entry."""
    return spec.execute()


def _execute_spec_bytes(spec: RunSpec) -> bytes:
    """Worker entry: run one spec and return the serialized result."""
    return result_to_bytes(spec.execute())


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value (``None``/0 -> cpu count)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    progress: Optional[ProgressFn] = None,
) -> List[object]:
    """Execute ``specs``; returns results aligned with the input order.

    Duplicate specs are computed once.  ``cache`` (when given) is
    consulted first and updated with every fresh result as soon as it
    completes; ``jobs=1`` runs serially in-process, ``jobs>1`` fans
    cache-misses out over a process pool.  A spec that raises does not
    stop the others: they still run and are cached, and a
    :class:`RunSpecError` naming every failed spec is raised at the end.
    """
    unique: List[RunSpec] = []
    seen: Dict[RunSpec, None] = {}
    for spec in specs:
        if spec not in seen:
            seen[spec] = None
            unique.append(spec)

    results: Dict[RunSpec, object] = {}
    misses: List[RunSpec] = []
    for spec in unique:
        cached = cache.get(spec) if cache is not None else None
        if cached is not None:
            results[spec] = cached
            if progress is not None:
                progress(spec, "cache")
        else:
            misses.append(spec)

    failures: List[Tuple[RunSpec, BaseException]] = []
    for spec, result, error in _execute_misses(misses, resolve_jobs(jobs)):
        if error is not None:
            failures.append((spec, error))
            continue
        results[spec] = result
        if cache is not None:
            cache.put(spec, result)
        if progress is not None:
            progress(spec, "run")
    if failures:
        raise RunSpecError(failures) from failures[0][1]

    return [results[spec] for spec in specs]


def _execute_serial(misses: List[RunSpec]) -> Iterator[_Outcome]:
    for spec in misses:
        try:
            result = execute_spec(spec)
        except Exception as exc:
            yield spec, None, exc
        else:
            yield spec, result, None


def _execute_misses(misses: List[RunSpec], jobs: int) -> Iterator[_Outcome]:
    """Yield each miss's outcome as it completes."""
    if jobs <= 1 or len(misses) <= 1:
        yield from _execute_serial(misses)
        return
    pool = None
    try:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(misses)))
        futures = {pool.submit(_execute_spec_bytes, spec): spec for spec in misses}
    except (OSError, PermissionError):
        # Restricted environments (no /dev/shm, forbidden fork) fall
        # back to serial execution; results are identical by design.
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        yield from _execute_serial(misses)
        return
    with pool:
        for future in as_completed(futures):
            spec = futures[future]
            try:
                payload = future.result()
            except Exception as exc:
                yield spec, None, exc
            else:
                yield spec, result_from_bytes(payload), None
