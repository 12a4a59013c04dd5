"""Unified telemetry: metrics, traces, progress, and the run ledger.

The package has these moving parts:

* :mod:`repro.obs.metrics` — counters / gauges / histograms / timers in a
  :class:`~repro.obs.metrics.MetricsRegistry`, mergeable across processes;
* :mod:`repro.obs.trace` — a span :class:`~repro.obs.trace.Tracer` writing
  JSON lines, convertible to Chrome trace-event files
  (:mod:`repro.obs.chrome`, with one lane per worker pid) and summarizable
  back into text tables (:mod:`repro.obs.report`);
* :mod:`repro.obs.progress` — per-shard campaign heartbeats with rate and
  ETA;
* :mod:`repro.obs.ledger` — the content-addressed run ledger under
  ``results/runs/`` (manifest + metrics + trace per run);
* :mod:`repro.obs.export` — registry snapshots as JSON;
* :mod:`repro.obs.telemetry` — the process-global
  :class:`~repro.obs.telemetry.Telemetry` facade every instrumented call
  site uses, plus the worker-side capture/merge hooks the process pool
  rides on.  Disabled by default: instrumentation is a no-op until
  :func:`~repro.obs.telemetry.configure` runs (the CLI's ``--trace`` /
  ``--metrics`` flags do exactly that).

See ``docs/observability.md`` for usage, the metric naming scheme, and the
zero-overhead ground rules.
"""

from repro.obs.chrome import convert_trace_file, export_chrome_trace
from repro.obs.export import to_json, write_metrics
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    diff_runs,
    git_revision,
    render_run,
    render_run_list,
)
from repro.obs.metrics import HistogramSummary, MetricsRegistry
from repro.obs.progress import (
    ProgressCallback,
    ProgressEvent,
    ProgressTracker,
    print_progress,
)
from repro.obs.report import summarize_trace, summarize_trace_file
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    absorb_worker_snapshot,
    configure,
    configure_worker_capture,
    drain_worker_snapshot,
    ensure_worker_capture,
    get_telemetry,
    reset,
    set_telemetry,
)
from repro.obs.trace import Span, Tracer, read_trace

__all__ = [
    "HistogramSummary",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "ProgressCallback",
    "ProgressEvent",
    "ProgressTracker",
    "RunLedger",
    "RunRecord",
    "Span",
    "Telemetry",
    "Tracer",
    "absorb_worker_snapshot",
    "configure",
    "configure_worker_capture",
    "convert_trace_file",
    "diff_runs",
    "drain_worker_snapshot",
    "ensure_worker_capture",
    "export_chrome_trace",
    "get_telemetry",
    "git_revision",
    "print_progress",
    "read_trace",
    "render_run",
    "render_run_list",
    "reset",
    "set_telemetry",
    "summarize_trace",
    "summarize_trace_file",
    "to_json",
    "write_metrics",
]
