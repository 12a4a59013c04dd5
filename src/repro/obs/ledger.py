"""Content-addressed run ledger: every campaign a durable, queryable artifact.

A *run* is one recorded unit of work — a fault-injection campaign, a bench
measurement — stored as a directory under ``results/runs/`` (override with
``REPRO_RUNS_DIR``)::

    results/runs/<run_id>/
        manifest.json       # identity + configuration + timings + counters
        metrics.json        # full telemetry registry snapshot (optional)
        trace.chrome.json   # Chrome trace-event export (optional)

``run_id`` is the first 12 hex digits of the SHA-256 of the canonical
manifest JSON, so a run's identity *is* its content: re-recording an
identical manifest lands on the same id (idempotent), any difference —
seed, scheme, timing, counter — yields a new entry.  The manifest carries
everything needed to compare two runs: seed, scheme, fault model, backend,
jobs, effective cores, git revision, wall-clock timings, and the campaign
counters.

Corrupt manifests are never fatal: :meth:`RunLedger.list_runs` warns once,
renames the bad file ``manifest.json.bad`` (quarantine — the evidence
survives, later scans stay silent), and skips the entry, mirroring the
eval-cache quarantine behaviour.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.utils.tables import format_table

logger = logging.getLogger(__name__)

#: Default ledger location, relative to the working directory.
DEFAULT_RUNS_DIR = Path("results") / "runs"

MANIFEST_NAME = "manifest.json"
METRICS_NAME = "metrics.json"
TRACE_NAME = "trace.chrome.json"

#: Manifest keys treated as configuration (shown first by ``diff``).
CONFIG_KEYS = (
    "kind", "workload", "scheme", "issue", "delay", "fault_model", "backend",
    "trials", "seed", "jobs", "effective_cores", "git_rev", "python",
)


class LedgerError(ReproError):
    """Run-ledger lookup or record failure."""


def git_revision(cwd: str | Path | None = None) -> str | None:
    """Best-effort short git revision of the working tree (or ``None``)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def run_id_for(manifest: dict) -> str:
    """Content address: 12 hex digits of SHA-256 over canonical JSON."""
    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@dataclass
class RunRecord:
    """One loaded ledger entry."""

    run_id: str
    path: Path
    manifest: dict
    metrics: dict | None = field(default=None)

    @property
    def trace_path(self) -> Path | None:
        p = self.path / TRACE_NAME
        return p if p.exists() else None


#: Staging directories older than this are presumed orphaned by a crashed
#: publish and swept on the next ledger use; generous enough that no live
#: ``record()`` (staging is a few file copies) can be caught by it.
STAGE_TTL_S = 3600.0


class RunLedger:
    """Reader/writer for the content-addressed run directory."""

    def __init__(
        self, root: str | Path | None = None, stage_ttl_s: float = STAGE_TTL_S
    ) -> None:
        if root is None:
            root = os.environ.get("REPRO_RUNS_DIR") or DEFAULT_RUNS_DIR
        self.root = Path(root)
        self.stage_ttl_s = stage_ttl_s
        self._swept = False

    def _sweep_stale_stages(self) -> int:
        """Remove ``.stage-*`` directories a crashed publish left behind.

        A ``record()`` interrupted between staging and the atomic rename
        leaks its temp directory; a crash-looping recorder leaks one per
        attempt.  Swept once per ledger instance (the first read or write),
        age-gated by ``stage_ttl_s`` so a concurrent publisher's live stage
        is never touched.  Returns the number of directories removed.
        """
        if self._swept or not self.root.is_dir():
            self._swept = True
            return 0
        self._swept = True
        removed = 0
        cutoff = time.time() - self.stage_ttl_s
        for stage in self.root.glob(".stage-*"):
            try:
                if not stage.is_dir() or stage.stat().st_mtime > cutoff:
                    continue
            except OSError:  # pragma: no cover - raced with another sweep
                continue
            shutil.rmtree(stage, ignore_errors=True)
            removed += 1
        if removed:
            logger.warning(
                "swept %d orphaned staging director%s from %s "
                "(left by a crashed publish)",
                removed, "y" if removed == 1 else "ies", self.root,
            )
        return removed

    # -- recording -------------------------------------------------------------
    def record(
        self,
        manifest: dict,
        metrics: dict | None = None,
        trace_events: list[dict] | None = None,
    ) -> str:
        """Persist one run; returns its content-addressed ``run_id``.

        The manifest is stored as given plus a ``run_id`` field (excluded
        from the hash).  ``metrics`` is a registry snapshot dict;
        ``trace_events`` repro-schema trace events to export as a Chrome
        trace.  Publication is atomic: everything is staged in a temp
        directory and renamed into place, so a crash can never leave a
        half-written entry.
        """
        run_id = run_id_for(manifest)
        final = self.root / run_id
        stage = self.root / f".stage-{os.getpid()}-{run_id}"
        self.root.mkdir(parents=True, exist_ok=True)
        self._sweep_stale_stages()
        shutil.rmtree(stage, ignore_errors=True)
        stage.mkdir()
        try:
            (stage / MANIFEST_NAME).write_text(
                json.dumps({**manifest, "run_id": run_id}, indent=2, sort_keys=True)
                + "\n"
            )
            if metrics is not None:
                from repro.obs.export import to_json

                (stage / METRICS_NAME).write_text(to_json(metrics))
            if trace_events is not None:
                from repro.obs.chrome import export_chrome_trace

                export_chrome_trace(trace_events, stage / TRACE_NAME)
            # Idempotent republish: an identical manifest hashes to the
            # same id; replace the old entry wholesale.
            shutil.rmtree(final, ignore_errors=True)
            os.replace(stage, final)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        return run_id

    # -- reading ---------------------------------------------------------------
    def _read_manifest(self, run_dir: Path) -> dict | None:
        """Load one manifest, quarantining corruption (warn once, ``.bad``)."""
        path = run_dir / MANIFEST_NAME
        try:
            data = json.loads(path.read_text())
            if not isinstance(data, dict):
                raise ValueError(f"expected object, got {type(data).__name__}")
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            logger.warning(
                "corrupt run manifest %s: %s — quarantining as %s.bad and "
                "skipping", path, exc, MANIFEST_NAME,
            )
            try:
                os.replace(path, path.with_name(f"{MANIFEST_NAME}.bad"))
            except OSError as rexc:  # pragma: no cover - fs permissions
                logger.warning("could not quarantine %s: %s", path, rexc)
            return None
        return data

    def list_runs(self) -> list[RunRecord]:
        """Every readable run, newest first (by recorded ``created_at``)."""
        records: list[RunRecord] = []
        if not self.root.is_dir():
            return records
        self._sweep_stale_stages()
        for run_dir in sorted(self.root.iterdir()):
            if not run_dir.is_dir() or run_dir.name.startswith("."):
                continue
            manifest = self._read_manifest(run_dir)
            if manifest is None:
                continue
            records.append(
                RunRecord(
                    run_id=manifest.get("run_id", run_dir.name),
                    path=run_dir,
                    manifest=manifest,
                )
            )
        records.sort(
            key=lambda r: r.manifest.get("created_at", ""), reverse=True
        )
        return records

    def load(self, run_id: str) -> RunRecord:
        """Load one run by id (unambiguous prefixes accepted)."""
        if not self.root.is_dir():
            raise LedgerError(f"no run ledger at {self.root}")
        matches = [
            d for d in self.root.iterdir()
            if d.is_dir() and d.name.startswith(run_id)
        ]
        if not matches:
            raise LedgerError(f"no run {run_id!r} in {self.root}")
        if len(matches) > 1:
            names = ", ".join(sorted(d.name for d in matches))
            raise LedgerError(f"run id {run_id!r} is ambiguous: {names}")
        run_dir = matches[0]
        manifest = self._read_manifest(run_dir)
        if manifest is None:
            raise LedgerError(f"run {run_dir.name} has no readable manifest")
        metrics = None
        metrics_path = run_dir / METRICS_NAME
        if metrics_path.exists():
            try:
                metrics = json.loads(metrics_path.read_text())
            except (OSError, ValueError) as exc:
                logger.warning("unreadable metrics for run %s: %s", run_dir.name, exc)
        return RunRecord(
            run_id=manifest.get("run_id", run_dir.name),
            path=run_dir,
            manifest=manifest,
            metrics=metrics,
        )


# -- rendering -----------------------------------------------------------------
def render_run_list(records: list[RunRecord]) -> str:
    if not records:
        return "run ledger: (no runs recorded)"
    rows = []
    for r in records:
        m = r.manifest
        timings = m.get("timings", {})
        rows.append(
            [
                r.run_id,
                m.get("created_at", ""),
                m.get("kind", "?"),
                m.get("workload", ""),
                m.get("scheme", ""),
                m.get("trials", ""),
                f"{m.get('jobs', '')}",
                _num(timings.get("wall_s")),
                _num(timings.get("trials_per_s")),
            ]
        )
    return format_table(
        ["run", "created", "kind", "workload", "scheme", "trials", "jobs",
         "wall s", "trials/s"],
        rows,
        title=f"run ledger ({len(records)} runs)",
    )


def render_run(record: RunRecord) -> str:
    m = record.manifest
    rows = [[k, _val(m[k])] for k in CONFIG_KEYS if k in m]
    rows += [["created_at", m.get("created_at", "")]]
    rows += [
        [f"timing: {k}", _num(v)] for k, v in sorted(m.get("timings", {}).items())
    ]
    rows += [
        [f"counter: {k}", _num(v)] for k, v in sorted(m.get("counters", {}).items())
    ]
    artifacts = [
        name for name in (METRICS_NAME, TRACE_NAME)
        if (record.path / name).exists()
    ]
    rows += [["artifacts", ", ".join(artifacts) if artifacts else "(none)"]]
    return format_table(
        ["field", "value"], rows, title=f"run {record.run_id}"
    )


def diff_runs(a: RunRecord, b: RunRecord) -> str:
    """Configuration, timing, and counter deltas between two ledger runs."""
    ma, mb = a.manifest, b.manifest
    parts: list[str] = []

    config_rows = []
    for key in CONFIG_KEYS:
        va, vb = ma.get(key), mb.get(key)
        if va is None and vb is None:
            continue
        marker = "" if va == vb else "*"
        config_rows.append([key, _val(va), _val(vb), marker])
    parts.append(
        format_table(
            ["config", a.run_id, b.run_id, "differs"],
            config_rows,
            title=f"run diff: {a.run_id} vs {b.run_id}",
        )
    )

    ta, tb = ma.get("timings", {}), mb.get("timings", {})
    timing_rows = []
    for key in sorted(set(ta) | set(tb)):
        va, vb = ta.get(key), tb.get(key)
        timing_rows.append([key, _num(va), _num(vb), _delta(va, vb)])
    if timing_rows:
        parts.append(
            format_table(
                ["timing", a.run_id, b.run_id, "delta"], timing_rows
            )
        )

    ca, cb = ma.get("counters", {}), mb.get("counters", {})
    counter_rows = []
    for key in sorted(set(ca) | set(cb)):
        # A counter absent from one run is semantically zero there.
        va, vb = ca.get(key, 0), cb.get(key, 0)
        counter_rows.append([key, _num(va), _num(vb), _delta(va, vb)])
    if counter_rows:
        parts.append(
            format_table(
                ["counter", a.run_id, b.run_id, "delta"], counter_rows
            )
        )
    return "\n\n".join(parts)


def _val(v: object) -> str:
    return "" if v is None else str(v)


def _num(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:g}"
    return str(v)


def _delta(a: object, b: object) -> str:
    if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
        return ""
    d = b - a
    if a:
        return f"{d:+g} ({d / a * 100:+.1f}%)"
    return f"{d:+g}"


def utc_timestamp(clock: float | None = None) -> str:
    """ISO-8601 UTC second-resolution timestamp (ledger ``created_at``)."""
    return time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime(time.time() if clock is None else clock)
    )
