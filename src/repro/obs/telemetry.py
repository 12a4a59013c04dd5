"""The process-global telemetry facade.

Every instrumented call site goes through a :class:`Telemetry` object —
usually the process-global default from :func:`get_telemetry`.  The default
is **disabled**: every method is a constant-time no-op returning shared
singletons, so instrumentation costs one attribute check when telemetry is
off (hot loops additionally hoist ``tel.enabled`` into a local before
iterating).  :func:`configure` swaps in a live instance with a metrics
registry and/or a tracer; :func:`reset` restores the no-op default.

Call sites never need ``None`` checks or ``try/except`` — a disabled
telemetry behaves exactly like an enabled one that records nothing.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **args: Any) -> "_NullSpan":
        return self


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()
_NULL_TIMER = _NullTimer()


class _TimedSpan:
    """A span that also feeds its duration into a metrics histogram."""

    __slots__ = ("_span", "_metrics", "_timer_name", "_t0")

    def __init__(self, span: Span, metrics: MetricsRegistry, timer_name: str) -> None:
        self._span = span
        self._metrics = metrics
        self._timer_name = timer_name

    def __enter__(self) -> Span:
        self._t0 = time.perf_counter()
        return self._span.__enter__()

    def __exit__(self, *exc) -> None:
        self._span.__exit__(*exc)
        self._metrics.observe(self._timer_name, time.perf_counter() - self._t0)


class Telemetry:
    """Bundle of an optional metrics registry and tracer."""

    __slots__ = ("enabled", "metrics", "tracer")

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        enabled: bool = True,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.enabled = enabled and (metrics is not None or tracer is not None)

    # -- spans -----------------------------------------------------------------
    def span(self, name: str, cat: str = "", timer: str | None = None, **args: Any):
        """Open a trace span; ``timer`` also records its duration as a metric."""
        if not self.enabled:
            return NULL_SPAN
        if self.tracer is not None:
            sp = self.tracer.span(name, cat, **args)
            if timer is not None and self.metrics is not None:
                return _TimedSpan(sp, self.metrics, timer)
            return sp
        if timer is not None and self.metrics is not None:
            return self.metrics.timer(timer)
        return NULL_SPAN

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        if self.enabled and self.tracer is not None:
            self.tracer.instant(name, cat, **args)

    # -- metrics ---------------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        if self.enabled and self.metrics is not None:
            self.metrics.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled and self.metrics is not None:
            self.metrics.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled and self.metrics is not None:
            self.metrics.observe(name, value)

    def timer(self, name: str):
        if self.enabled and self.metrics is not None:
            return self.metrics.timer(name)
        return _NULL_TIMER

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()


#: The disabled default every call site sees until ``configure`` runs.
NULL_TELEMETRY = Telemetry(enabled=False)

_current: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The process-global telemetry (the no-op default unless configured)."""
    return _current


def set_telemetry(telemetry: Telemetry) -> Telemetry:
    """Install ``telemetry`` globally; returns the previous one (for restore)."""
    global _current
    previous = _current
    _current = telemetry
    return previous


def configure(
    trace_path: str | Path | None = None,
    metrics: bool = True,
    keep_events: bool | None = None,
) -> Telemetry:
    """Build and install a live telemetry.

    ``trace_path`` opens a JSON-lines tracer sink; ``metrics`` attaches a
    registry (on by default — metrics are cheap).  Returns the installed
    instance so callers can render/flush it at shutdown.
    """
    registry = MetricsRegistry() if metrics else None
    tracer = (
        Tracer(path=trace_path, keep_events=keep_events)
        if trace_path is not None or keep_events
        else None
    )
    telemetry = Telemetry(metrics=registry, tracer=tracer)
    set_telemetry(telemetry)
    return telemetry


def reset() -> None:
    """Close any active tracer and restore the disabled default."""
    global _current, _capture_active
    _current.close()
    _current = NULL_TELEMETRY
    _capture_active = False


# -- worker-side capture -------------------------------------------------------
#
# A pool worker cannot share the parent's sinks (a forked trace-file handle
# would interleave JSON lines from every process), so instead it records
# everything *in memory* and ships one snapshot per task back with the task's
# result.  The parent rebases the spans onto its own timeline (tagged with
# the worker's pid — Chrome export turns that into per-worker lanes) and
# folds the metrics into its registry.  One payload per shard, not one
# update per trial: the batching contract that keeps worker telemetry off
# the trial hot path.


#: Whether this process currently runs a capture telemetry installed by
#: :func:`configure_worker_capture` (as opposed to any other live telemetry).
_capture_active = False


def configure_worker_capture() -> Telemetry:
    """Install an in-memory capture telemetry in a pool worker."""
    global _capture_active
    telemetry = Telemetry(
        metrics=MetricsRegistry(), tracer=Tracer(keep_events=True)
    )
    set_telemetry(telemetry)
    _capture_active = True
    return telemetry


def ensure_worker_capture(on: bool) -> None:
    """Align this worker's capture state with the parent's map-time decision.

    Workers in a *persistent* pool outlive the telemetry configuration they
    were spawned under: the parent may run one map with telemetry live and
    the next without (or vice versa).  Called at the top of every pooled task, this
    turns capture on or off to match, and is a no-op when already aligned —
    in particular it never clears an active capture's pending buffers.
    """
    if on and not _capture_active:
        configure_worker_capture()
    elif not on and _capture_active:
        reset()


def drain_worker_snapshot() -> dict | None:
    """Capture-and-clear this worker's telemetry as one picklable payload.

    Returns ``None`` when no capture telemetry is installed (workers of a
    telemetry-less parent).  Draining clears the worker's buffers so each
    task's payload contains exactly the events and metric deltas produced
    since the previous drain — merging payloads therefore never double
    counts, and worker-merged counters stay bit-identical to a serial run.
    """
    tel = _current
    if not tel.enabled or tel.tracer is None or tel.metrics is None:
        return None
    snapshot = {
        "pid": os.getpid(),
        "epoch": tel.tracer.epoch,
        "events": list(tel.tracer.events),
        "metrics": tel.metrics.snapshot(),
    }
    tel.tracer.events.clear()
    tel.metrics.clear()
    return snapshot


def absorb_worker_snapshot(
    snapshot: dict | None, telemetry: Telemetry | None = None
) -> None:
    """Merge one worker snapshot into the (parent) telemetry."""
    if snapshot is None:
        return
    tel = telemetry if telemetry is not None else _current
    if not tel.enabled:
        return
    if tel.tracer is not None and snapshot.get("events"):
        tel.tracer.absorb(
            snapshot["events"],
            pid=int(snapshot.get("pid", 0)),
            epoch=float(snapshot.get("epoch", tel.tracer.epoch)),
        )
    if tel.metrics is not None and snapshot.get("metrics"):
        tel.metrics.merge_snapshot(snapshot["metrics"])
