"""Summarize a captured trace into the repo's text-table house style.

``python -m repro report trace --file run.jsonl`` renders three views:

* **span summary** — every span name with count / total / mean / max
  duration, sorted by total time (the profile view);
* **pipeline passes** — the ``cat == "pass"`` spans in execution order with
  their instruction and block deltas (the compile-shape view);
* **campaigns** — one row per ``campaign`` span: trial and fault counts
  and the outcome breakdown the span's ``outcome_*`` args carry.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.trace import read_trace
from repro.utils.tables import format_table


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.2f}ms"


def span_summary_table(events: list[dict]) -> str:
    spans = [e for e in events if e.get("ev") == "X"]
    agg: dict[str, list[float]] = {}
    for e in spans:
        agg.setdefault(e["name"], []).append(float(e.get("dur", 0.0)))
    rows = []
    for name, durs in sorted(agg.items(), key=lambda kv: -sum(kv[1])):
        rows.append(
            [name, len(durs), _fmt_s(sum(durs)), _fmt_s(sum(durs) / len(durs)),
             _fmt_s(max(durs))]
        )
    if not rows:
        return "span summary: (no spans in trace)"
    return format_table(
        ["span", "count", "total", "mean", "max"], rows, title="span summary"
    )


def pass_table(events: list[dict]) -> str:
    passes = [e for e in events if e.get("ev") == "X" and e.get("cat") == "pass"]
    passes.sort(key=lambda e: float(e.get("ts", 0.0)))
    rows = []
    for e in passes:
        args = e.get("args", {})
        before = args.get("instructions_before")
        after = args.get("instructions_after")
        delta = "" if before is None or after is None else f"{after - before:+d}"
        rows.append(
            [
                e["name"].removeprefix("pass:"),
                "" if before is None else before,
                "" if after is None else after,
                delta,
                args.get("blocks_after", ""),
                _fmt_s(float(e.get("dur", 0.0))),
                "yes" if args.get("changed") else "no",
            ]
        )
    if not rows:
        return "pipeline passes: (no pass spans in trace)"
    return format_table(
        ["pass", "insns before", "insns after", "delta", "blocks", "time", "changed"],
        rows,
        title="pipeline passes",
    )


def campaign_table(events: list[dict]) -> str:
    campaigns = [
        e for e in events if e.get("ev") == "X" and e.get("name") == "campaign"
    ]
    if not campaigns:
        return "campaigns: (no campaign spans in trace)"
    rows = []
    for i, c in enumerate(campaigns):
        args = c.get("args", {})
        breakdown = " ".join(
            f"{k.removeprefix('outcome_')}={v}"
            for k, v in sorted(args.items())
            if k.startswith("outcome_")
        )
        rows.append(
            [
                i,
                args.get("trials", ""),
                args.get("faults", ""),
                _fmt_s(float(c.get("dur", 0.0))),
                breakdown,
            ]
        )
    return format_table(
        ["campaign", "trials", "faults", "time", "outcomes"],
        rows,
        title="fault campaigns",
    )


def summarize_trace(events: list[dict]) -> str:
    """The full three-table report for one trace."""
    return "\n\n".join(
        [span_summary_table(events), pass_table(events), campaign_table(events)]
    )


def summarize_trace_file(path: str | Path) -> str:
    return summarize_trace(read_trace(path))
