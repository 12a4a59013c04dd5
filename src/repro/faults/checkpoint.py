"""Crash-resilient campaign checkpoints (JSON-lines, append-only).

A checkpoint file makes an interrupted campaign resumable without losing the
shards already computed.  The format is one JSON object per line:

* line 1 — a **header** identifying the campaign::

      {"format": "repro-campaign-checkpoint", "version": 2,
       "seed": 2013, "trials": 300, "fault_model": "reg-bit",
       "golden_dyn": 123456, "shard_trials": 25, "reference_dyn": null}

* every further line — one **completed shard**::

      {"shard": 3, "trials": 25, "counts": {"detected": 20, ...},
       "faults": 31, "detected_dyn": 48210, "latencies": [44, 1029, ...]}

``detected_dyn`` sums the dynamic instructions of the shard's detected
trials; ``latencies`` holds each detected trial's detection latency.  Both
are required, and a version-1 file (which lacks ``detected_dyn``) is
rejected.

Shard lines are appended with a single ``write()`` + flush + fsync as each
shard completes, so a crash can lose at most the trailing, partially
written line — which :meth:`CampaignCheckpoint.load` detects, quarantines
to ``<file>.bad`` with one warning, and drops (rewriting the file to the
last good record).  Because every shard draws
from an RNG stream fully determined by ``(seed, shard_index)``, merging the
checkpointed shards with freshly computed ones is bit-identical to an
uninterrupted run at any worker count.

Resuming against a checkpoint whose header does not match the requested
campaign (different seed, trial budget, fault model, binary, or shard size)
raises: silently mixing streams would corrupt the statistics.  So does a
shard record outside the header's shard plan (an index not in
``[0, n_shards)``, or a trial count other than the plan's for that index):
merging it would report more trials than the campaign asked for.  A shard
record counting an outcome name the taxonomy does not know raises too.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.faults.classify import Outcome
from repro.parallel import plan_shards

logger = logging.getLogger(__name__)

FORMAT_NAME = "repro-campaign-checkpoint"
FORMAT_VERSION = 2

#: Header keys that must match exactly for a resume to be sound.
IDENTITY_KEYS = (
    "seed", "trials", "fault_model", "golden_dyn", "shard_trials",
    "reference_dyn",
)


#: The outcome names a shard record's ``counts`` may hold.
_OUTCOME_NAMES = frozenset(o.value for o in Outcome)


class CheckpointError(ReproError):
    """Checkpoint file unusable for the requested campaign."""


class CampaignCheckpoint:
    """Reader/writer for one campaign's checkpoint file."""

    def __init__(self, path: str | Path, header: dict[str, Any]) -> None:
        self.path = Path(path)
        self.header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            **{k: header.get(k) for k in IDENTITY_KEYS},
        }

    # -- reading ---------------------------------------------------------------
    def load(self, resume: bool) -> dict[int, dict[str, Any]]:
        """Return completed shards (``index -> shard record``).

        With ``resume=False`` (or no file yet) the file is truncated to a
        fresh header and the result is empty.  With ``resume=True`` the
        existing file is validated against this campaign's identity and its
        intact shard records are returned; a torn trailing line (from a
        crash mid-append) is quarantined to ``<file>.bad`` with one warning
        and the file is healed in place — resume continues from the last
        complete record instead of raising.
        """
        if not resume or not self.path.exists():
            self._rewrite([])
            return {}
        records, torn_line = self._read_records()
        if torn_line is not None:
            self._quarantine_torn(torn_line)
            self._rewrite(list(records.values()))
        return records

    def _quarantine_torn(self, torn_line: str) -> None:
        """Preserve the torn tail as evidence in ``<file>.bad``, warn once."""
        bad = self.path.with_name(f"{self.path.name}.bad")
        try:
            bad.write_text(torn_line + "\n")
        except OSError as exc:  # pragma: no cover - fs permissions
            logger.warning("could not quarantine torn line to %s: %s", bad, exc)
            return
        logger.warning(
            "checkpoint %s has a torn trailing line (crash mid-append); "
            "quarantined it to %s and resuming from the last complete "
            "record", self.path, bad,
        )

    def _read_records(self) -> tuple[dict[int, dict[str, Any]], str | None]:
        lines = self.path.read_text().splitlines()
        if not lines:
            raise CheckpointError(f"checkpoint {self.path} is empty")
        try:
            header = json.loads(lines[0])
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint {self.path} has a corrupt header: {exc}"
            ) from None
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise CheckpointError(f"{self.path} is not a campaign checkpoint")
        if header.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has version {header.get('version')}, "
                f"expected {FORMAT_VERSION}"
            )
        for key in IDENTITY_KEYS:
            if header.get(key) != self.header[key]:
                raise CheckpointError(
                    f"checkpoint {self.path} belongs to a different campaign: "
                    f"{key}={header.get(key)!r} != {self.header[key]!r}"
                )
        plan = plan_shards(header["trials"], header["shard_trials"])
        records: dict[int, dict[str, Any]] = {}
        torn_line: str | None = None
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                index = int(rec["shard"])
                rec["trials"] = int(rec["trials"])
                rec["faults"] = int(rec["faults"])
                rec["detected_dyn"] = int(rec["detected_dyn"])
                rec["counts"] = {
                    str(k): int(v) for k, v in rec["counts"].items()
                }
                rec["latencies"] = [int(v) for v in rec["latencies"]]
            except (ValueError, KeyError, TypeError):
                if lineno == len(lines):
                    torn_line = line  # crash mid-append: quarantine the tail
                    break
                raise CheckpointError(
                    f"checkpoint {self.path} line {lineno} is corrupt"
                ) from None
            if not 0 <= index < len(plan) or rec["trials"] != plan[index]:
                raise CheckpointError(
                    f"checkpoint {self.path} line {lineno}: shard {index} "
                    f"with {rec['trials']} trials is not in the campaign's "
                    f"{len(plan)}-shard plan"
                )
            for name in rec["counts"]:
                if name not in _OUTCOME_NAMES:  # a stale or foreign file
                    raise CheckpointError(
                        f"checkpoint {self.path} line {lineno}: unknown "
                        f"outcome {name!r}"
                    )
            # Identical by determinism if duplicated; last write wins.
            records[index] = rec
        return records, torn_line

    # -- writing ---------------------------------------------------------------
    def _rewrite(self, records: list[dict[str, Any]]) -> None:
        """Atomically (re)write header + ``records`` via temp + replace."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w") as f:
                f.write(json.dumps(self.header) + "\n")
                for rec in records:
                    f.write(json.dumps(rec) + "\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)

    def append(self, record: dict[str, Any]) -> None:
        """Durably append one completed-shard record (single atomic write)."""
        line = json.dumps(record) + "\n"
        with open(self.path, "a") as f:
            f.write(line)
            f.flush()
            os.fsync(f.fileno())
