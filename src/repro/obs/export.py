"""Metrics snapshot export as JSON.

The telemetry :class:`~repro.obs.metrics.MetricsRegistry` is in-process and
flat; this module turns one registry snapshot into the JSON document that
the CLI's ``--metrics-out FILE`` writes and the run ledger
(:mod:`repro.obs.ledger`) stores per run as ``metrics.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import MetricsRegistry


def to_json(snapshot: MetricsRegistry | dict, indent: int | None = 2) -> str:
    """Render a registry (or its :meth:`snapshot` dict) as a JSON document."""
    if isinstance(snapshot, MetricsRegistry):
        snapshot = snapshot.snapshot()
    return json.dumps(snapshot, indent=indent, sort_keys=True) + "\n"


def write_metrics(
    snapshot: MetricsRegistry | dict, out_path: str | Path
) -> Path:
    """Write a metrics snapshot to ``out_path`` as JSON."""
    out_path = Path(out_path)
    out_path.write_text(to_json(snapshot))
    return out_path
