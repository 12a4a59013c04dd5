"""Span-based execution tracer with a JSON-lines on-disk format.

One :class:`Tracer` serializes a single logical timeline: spans open with
:meth:`Tracer.span` (a context manager), may nest arbitrarily, and are
emitted as one *complete* event per span when they close.  Instant events
mark points in time (lost campaign shards, cache-corruption
warnings).  Timestamps are seconds relative to the tracer's epoch, so traces
are diffable across runs.

Event schema (one JSON object per line):

``{"ev": "X", "name": ..., "cat": ..., "ts": ..., "dur": ..., "depth": ...,
"args": {...}}`` for spans, and ``{"ev": "I", ...}`` (no ``dur``) for
instants.  ``depth`` is the span-nesting depth at open time (0 = top level).
Events merged from a worker process additionally carry ``"pid"`` (see
:meth:`Tracer.absorb`); events without it belong to the parent timeline.
The format converts 1:1 to the Chrome trace-event format — see
:mod:`repro.obs.chrome`.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, IO


class Span:
    """An open span; emitted to the tracer's sink when the ``with`` exits.

    Arguments passed at open time can be extended or overwritten through
    :meth:`set` while the span is live — the common pattern for recording
    results (instruction deltas, outcome counts) discovered inside the span.
    """

    __slots__ = ("_tracer", "name", "cat", "args", "depth", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.depth = 0
        self._start = 0.0

    def set(self, **args: Any) -> "Span":
        """Attach or overwrite argument fields before the span closes."""
        self.args.update(args)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.depth = len(tracer._stack)
        tracer._stack.append(self)
        self._start = tracer._now()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        end = tracer._now()
        tracer._stack.pop()
        tracer._emit(
            {
                "ev": "X",
                "name": self.name,
                "cat": self.cat,
                "ts": self._start - tracer._epoch,
                "dur": end - self._start,
                "depth": self.depth,
                "args": self.args,
            }
        )


class Tracer:
    """Collects events in memory and/or streams them as JSON lines.

    ``path`` opens a file sink (one JSON object per line, flushed on
    :meth:`close`); without it events accumulate in :attr:`events` — handy
    for tests and in-process summaries.  ``clock`` is injectable for
    deterministic tests.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        clock: Callable[[], float] = time.perf_counter,
        keep_events: bool | None = None,
    ) -> None:
        self._now = clock
        self._epoch = clock()
        self._stack: list[Span] = []
        self._sink: IO[str] | None = None
        self.path = Path(path) if path is not None else None
        if self.path is not None:
            self._sink = self.path.open("w", encoding="utf-8")
        # Default: keep events in memory only when there is no file sink.
        self.keep_events = (self._sink is None) if keep_events is None else keep_events
        self.events: list[dict] = []

    # -- emission --------------------------------------------------------------
    def span(self, name: str, cat: str = "", **args: Any) -> Span:
        return Span(self, name, cat, args)

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        self._emit(
            {
                "ev": "I",
                "name": name,
                "cat": cat,
                "ts": self._now() - self._epoch,
                "depth": len(self._stack),
                "args": args,
            }
        )

    def _emit(self, event: dict) -> None:
        if self.keep_events:
            self.events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event) + "\n")

    # -- cross-process merging -------------------------------------------------
    @property
    def epoch(self) -> float:
        """The tracer's absolute epoch on its clock (for cross-process rebasing)."""
        return self._epoch

    def absorb(self, events: list[dict], pid: int, epoch: float) -> None:
        """Merge events captured by a worker tracer into this timeline.

        ``events`` carry timestamps relative to the worker tracer's
        ``epoch`` (an absolute reading of the same monotonic clock —
        ``time.perf_counter`` is system-wide on Linux), so rebasing is a
        constant offset.  Each merged event is tagged with the worker's
        ``pid``, which the Chrome exporter turns into a per-worker lane.
        """
        offset = epoch - self._epoch
        for ev in events:
            merged = dict(ev)
            merged["ts"] = float(ev.get("ts", 0.0)) + offset
            merged["pid"] = pid
            self._emit(merged)

    # -- lifecycle -------------------------------------------------------------
    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None


def read_trace(path: str | Path) -> list[dict]:
    """Load a JSON-lines trace file back into event dicts.

    Blank lines are skipped; a malformed line raises ``ValueError`` naming
    its line number, so truncated traces fail loudly rather than silently
    dropping the tail.
    """
    events = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed trace line: {exc}") from exc
    return events
