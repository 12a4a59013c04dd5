"""Campaign progress reporting: heartbeats with throughput and ETA.

Monte-Carlo fault campaigns are the longest-running operation in the repo
(minutes at paper-sized trial counts over every configuration).
:class:`ProgressTracker` turns a stream of completed work into periodic
:class:`ProgressEvent` heartbeats: the campaign driver advances it once
per merged shard — serial, pooled or resumed alike — so with ``every``
equal to the shard size the callback fires once per shard, plus once at
the end.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ProgressEvent:
    """One heartbeat of a long-running campaign."""

    done: int  #: trials completed so far
    total: int  #: trials requested
    elapsed_s: float
    rate: float  #: trials per second (0.0 until the first trial lands)
    eta_s: float  #: estimated seconds remaining (0.0 when rate unknown)
    counts: dict  #: outcome-name -> count snapshot

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0

    def render(self) -> str:
        pct = self.fraction * 100.0
        return (
            f"{self.done}/{self.total} trials ({pct:.0f}%) "
            f"{self.rate:.1f}/s eta {self.eta_s:.1f}s"
        )


ProgressCallback = Callable[[ProgressEvent], None]


class ProgressTracker:
    """Drives a :class:`ProgressCallback` from a stream of completed trials."""

    def __init__(
        self,
        total: int,
        callback: ProgressCallback | None,
        every: int = 25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if every < 1:
            raise ValueError(f"heartbeat interval must be >= 1, got {every}")
        self.total = total
        self.callback = callback
        self.every = every
        self._clock = clock
        self._t0 = clock()
        self.done = 0
        self.n_events = 0

    def _event(self, counts: dict) -> ProgressEvent:
        elapsed = self._clock() - self._t0
        rate = self.done / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total - self.done)
        eta = remaining / rate if rate > 0 else 0.0
        return ProgressEvent(
            done=self.done,
            total=self.total,
            elapsed_s=elapsed,
            rate=rate,
            eta_s=eta,
            counts=dict(counts),
        )

    def step(self, counts: dict) -> None:
        """Record one finished trial; fire the callback on heartbeat trials."""
        self.advance(1, counts)

    def advance(self, n: int, counts: dict) -> None:
        """Record ``n`` finished trials at once.

        This is the cross-worker aggregation path: when a campaign or sweep
        fans out over a process pool, the parent advances one shared
        tracker by a whole shard (or grid point) as each worker result
        lands.  The callback fires whenever the batch crosses a heartbeat
        boundary, and once at the end.
        """
        if n < 0:
            raise ValueError(f"cannot advance by {n}")
        before = self.done
        self.done += n
        if self.callback is None or n == 0:
            return
        if self.done // self.every > before // self.every or self.done >= self.total:
            self.n_events += 1
            self.callback(self._event(counts))


def print_progress(event: ProgressEvent) -> None:
    """A ready-made callback: one status line per heartbeat on stderr."""
    print(f"  [campaign] {event.render()}", file=sys.stderr)
