"""Metrics snapshot export: Prometheus text format and JSON.

The telemetry :class:`~repro.obs.metrics.MetricsRegistry` is in-process and
flat; this module turns one registry snapshot into the two interchange
formats the rest of the tooling consumes:

* **Prometheus text exposition format** (version 0.0.4) — what the CLI's
  ``--metrics-out FILE.prom`` writes, scrapeable by any
  Prometheus/OpenMetrics collector via the node-exporter textfile
  collector;
* **JSON** — the ``metrics.json`` artifact stored per run in the run
  ledger (:mod:`repro.obs.ledger`).

Metric names are sanitized to Prometheus conventions (``[a-zA-Z0-9_:]``,
dots become underscores) and prefixed with ``repro_``.  Counters export
with a ``_total`` suffix; histograms export their running summary as
``_count`` / ``_sum`` plus ``_min`` / ``_max`` gauges (the registry keeps
summaries, not buckets).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from repro.obs.metrics import MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Every exported metric family is namespaced under this prefix.
PREFIX = "repro"


def prometheus_name(name: str) -> str:
    """Sanitize a dotted registry name into a Prometheus metric name."""
    sane = _NAME_RE.sub("_", name.replace(".", "_"))
    if sane and sane[0].isdigit():
        sane = f"_{sane}"
    return f"{PREFIX}_{sane}"


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(snapshot: MetricsRegistry | dict) -> str:
    """Render a registry (or its :meth:`snapshot` dict) as Prometheus text."""
    if isinstance(snapshot, MetricsRegistry):
        snapshot = snapshot.snapshot()
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = f"{prometheus_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = prometheus_name(name)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {_fmt(hist.get('count', 0))}")
        lines.append(f"{metric}_sum {_fmt(hist.get('total', 0.0))}")
        lines.append(f"{metric}_min {_fmt(hist.get('min', 0.0))}")
        lines.append(f"{metric}_max {_fmt(hist.get('max', 0.0))}")
    return "\n".join(lines) + "\n" if lines else ""


def to_json(snapshot: MetricsRegistry | dict, indent: int | None = 2) -> str:
    """Render a registry (or its :meth:`snapshot` dict) as a JSON document."""
    if isinstance(snapshot, MetricsRegistry):
        snapshot = snapshot.snapshot()
    return json.dumps(snapshot, indent=indent, sort_keys=True) + "\n"


def write_metrics(
    snapshot: MetricsRegistry | dict, out_path: str | Path
) -> Path:
    """Write a metrics snapshot to ``out_path``, format chosen by suffix.

    ``.prom`` / ``.txt`` → Prometheus text format; anything else → JSON.
    """
    out_path = Path(out_path)
    if out_path.suffix in (".prom", ".txt"):
        out_path.write_text(to_prometheus(snapshot))
    else:
        out_path.write_text(to_json(snapshot))
    return out_path
