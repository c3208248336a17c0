"""Wall-clock progress heartbeat for long replays.

A multi-million-request FIU replay can run for minutes with nothing on
the terminal.  :class:`Heartbeat` prints a short line to stderr every
``interval_s`` wall seconds with the simulated time reached, requests
completed, the rolling request throughput (ops/s over the last beat
window), the GC collect count so far, and — when the caller declared
the trace length via :meth:`expect` — an ETA extrapolated from the
rolling throughput: enough to distinguish "slow but moving" from
"hung" and "GC death spiral".

The heartbeat keeps no counters of its own: it rides on a metrics
bundle (``DeviceMetrics(heartbeat=...)`` / ``ArrayMetrics``), which
calls :meth:`tick` at every time-series sample it already takes and
:meth:`finish` at the end of the replay, passing its own request
counter and GC-collect gauge.  ``tick`` itself is one
``time.monotonic()`` compare in the common case.
"""

from __future__ import annotations

import sys
import time
from typing import IO, Optional


class Heartbeat:
    """Rate-limited progress reporter (wall-clock driven)."""

    __slots__ = (
        "interval_s",
        "stream",
        "_start",
        "_next_due",
        "_last_requests",
        "total_requests",
        "beats",
    )

    def __init__(self, interval_s: float = 5.0, stream: Optional[IO[str]] = None) -> None:
        if interval_s < 0:
            raise ValueError("interval_s must be non-negative")
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self._start = time.monotonic()
        self._next_due = self._start + interval_s
        self._last_requests = 0
        self.total_requests = 0
        self.beats = 0

    def expect(self, total_requests: int) -> None:
        """Declare the trace length so ticks can print an ETA."""
        self.total_requests = int(total_requests)

    def tick(self, sim_now_us: float, requests: int, gc_collects: int = 0) -> None:
        """Called per metrics sample; prints when a beat is due."""
        now = time.monotonic()
        if now < self._next_due:
            return
        elapsed = now - self._start
        window = max(now - (self._next_due - self.interval_s), 1e-9)
        ops = (requests - self._last_requests) / window
        if self.total_requests > requests and ops > 0:
            eta = f"eta {(self.total_requests - requests) / ops:5.0f}s"
        else:
            eta = "eta     -"
        self.stream.write(
            f"[{elapsed:7.1f}s] sim {sim_now_us / 1e6:9.3f}s  "
            f"{requests:,} reqs  {ops:,.0f} ops/s  "
            f"gc {gc_collects:,}  {eta}\n"
        )
        self.stream.flush()
        self._last_requests = requests
        self._next_due = now + self.interval_s
        self.beats += 1

    def finish(self, sim_now_us: float, requests: int, gc_collects: int = 0) -> None:
        """Final summary line (always printed)."""
        elapsed = max(time.monotonic() - self._start, 1e-9)
        self.stream.write(
            f"[{elapsed:7.1f}s] done: sim {sim_now_us / 1e6:.3f}s, "
            f"{requests:,} reqs, {requests / elapsed:,.0f} ops/s overall, "
            f"gc {gc_collects:,}\n"
        )
        self.stream.flush()
