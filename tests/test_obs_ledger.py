"""Metrics export and the content-addressed run ledger."""

from __future__ import annotations

import json
import logging

import pytest

from repro import obs
from repro.errors import ReproError
from repro.obs.export import to_json, write_metrics
from repro.obs.ledger import RunLedger, diff_runs, run_id_for
from repro.obs.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.reset()
    yield
    obs.reset()


class TestMetricsExport:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.count("campaign.trials", 200)
        reg.count("campaign.outcome.data-corrupt", 5)
        reg.gauge("eval.points", 12)
        for v in (1.0, 3.0):
            reg.observe("campaign.detection_latency", v)
        return reg

    def test_accepts_snapshot_dict(self):
        reg = self._registry()
        assert to_json(reg) == to_json(reg.snapshot())

    def test_json_roundtrip(self):
        reg = self._registry()
        payload = json.loads(to_json(reg))
        assert payload["counters"]["campaign.trials"] == 200
        assert payload["histograms"]["campaign.detection_latency"]["count"] == 2

    def test_write_metrics_is_json_for_any_suffix(self, tmp_path):
        reg = self._registry()
        for name in ("m.json", "m.prom"):
            out = write_metrics(reg, tmp_path / name)
            assert json.loads(out.read_text())["counters"]["campaign.trials"] == 200


def _manifest(**over) -> dict:
    base = {
        "kind": "inject",
        "created_at": "2026-08-08T12:00:00Z",
        "workload": "workload:parser",
        "scheme": "casted",
        "fault_model": "reg-bit",
        "backend": "compiled",
        "trials": 100,
        "seed": 2013,
        "jobs": 2,
        "effective_cores": 4,
        "timings": {"wall_s": 1.5, "trials_per_s": 66.7},
        "counters": {"campaign.trials": 100, "campaign.faults_injected": 120},
    }
    base.update(over)
    return base


class TestRunLedger:
    def test_record_and_load(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.record(
            _manifest(), metrics={"counters": {"campaign.trials": 100}}
        )
        rec = ledger.load(run_id)
        assert rec.manifest["scheme"] == "casted"
        assert rec.manifest["run_id"] == run_id
        assert rec.metrics["counters"]["campaign.trials"] == 100

    def test_run_id_is_content_addressed(self, tmp_path):
        assert run_id_for(_manifest()) == run_id_for(_manifest())
        assert run_id_for(_manifest()) != run_id_for(_manifest(seed=7))
        ledger = RunLedger(tmp_path / "runs")
        a = ledger.record(_manifest())
        b = ledger.record(_manifest())  # idempotent republish
        assert a == b
        assert len(ledger.list_runs()) == 1

    def test_prefix_load_and_ambiguity(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.record(_manifest())
        assert ledger.load(run_id[:4]).run_id == run_id
        with pytest.raises(ReproError, match="no run"):
            ledger.load("ffffffffffff")
        with pytest.raises(ReproError, match="ambiguous"):
            ledger.record(_manifest(seed=99))
            ledger.load("")

    def test_list_newest_first(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        ledger.record(_manifest(created_at="2026-08-08T10:00:00Z"))
        newest = ledger.record(_manifest(created_at="2026-08-08T11:00:00Z"))
        records = ledger.list_runs()
        assert [r.run_id for r in records][0] == newest

    def test_trace_artifact(self, tmp_path):
        trace = [
            {"ev": "X", "name": "shard", "cat": "campaign", "ts": 0.1,
             "dur": 0.2, "depth": 0, "args": {}},
        ]
        ledger = RunLedger(tmp_path / "runs")
        run_id = ledger.record(_manifest(), trace_events=trace)
        rec = ledger.load(run_id)
        assert rec.trace_path is not None
        payload = json.loads(rec.trace_path.read_text())
        assert any(e.get("name") == "shard" for e in payload["traceEvents"])

    def test_no_ledger_dir(self, tmp_path):
        ledger = RunLedger(tmp_path / "missing")
        assert ledger.list_runs() == []
        with pytest.raises(ReproError, match="no run ledger"):
            ledger.load("abc")

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "env-runs"))
        assert RunLedger().root == tmp_path / "env-runs"


class TestLedgerQuarantine:
    def test_corrupt_manifest_quarantined_and_skipped(self, tmp_path, caplog):
        ledger = RunLedger(tmp_path / "runs")
        good = ledger.record(_manifest())
        bad_dir = tmp_path / "runs" / "deadbeef0000"
        bad_dir.mkdir()
        (bad_dir / "manifest.json").write_text("{ not json")
        with caplog.at_level(logging.WARNING, logger="repro.obs.ledger"):
            records = ledger.list_runs()
        assert [r.run_id for r in records] == [good]
        warnings = [
            r for r in caplog.records if "corrupt run manifest" in r.message
        ]
        assert len(warnings) == 1
        # quarantined, not destroyed
        assert (bad_dir / "manifest.json.bad").read_text() == "{ not json"
        assert not (bad_dir / "manifest.json").exists()

    def test_quarantined_run_does_not_rewarn(self, tmp_path, caplog):
        ledger = RunLedger(tmp_path / "runs")
        ledger.record(_manifest())
        bad_dir = tmp_path / "runs" / "deadbeef0000"
        bad_dir.mkdir()
        (bad_dir / "manifest.json").write_text("[1, 2]")
        ledger.list_runs()  # first scan quarantines
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.obs.ledger"):
            ledger.list_runs()
        assert not any(
            "corrupt run manifest" in r.message for r in caplog.records
        )


class TestDiffRuns:
    def test_diff_marks_config_and_deltas(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        a = ledger.load(ledger.record(_manifest()))
        b = ledger.load(
            ledger.record(
                _manifest(
                    scheme="noed",
                    timings={"wall_s": 3.0, "trials_per_s": 33.3},
                    counters={"campaign.trials": 100},
                )
            )
        )
        text = diff_runs(a, b)
        assert "scheme" in text and "noed" in text and "*" in text
        assert "wall_s" in text and "+1.5" in text
        # counter missing from b is treated as zero
        assert "campaign.faults_injected" in text and "-120" in text


class TestRunsCLI:
    def _record_two(self, runs_dir) -> tuple[str, str]:
        ledger = RunLedger(runs_dir)
        a = ledger.record(_manifest())
        b = ledger.record(_manifest(scheme="noed", seed=7))
        return a, b

    def test_list_show_diff(self, tmp_path, capsys):
        from repro.cli import main

        runs_dir = str(tmp_path / "runs")
        a, b = self._record_two(runs_dir)
        assert main(["runs", "list", "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert a in out and b in out and "run ledger (2 runs)" in out

        assert main(["runs", "show", a[:6], "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert f"run {a}" in out and "casted" in out

        assert main(["runs", "diff", a, b, "--runs-dir", runs_dir]) == 0
        out = capsys.readouterr().out
        assert "run diff" in out and "scheme" in out

        # --runs-dir may also come before the ids
        assert main(["runs", "show", "--runs-dir", runs_dir, a[:6]]) == 0
        assert f"run {a}" in capsys.readouterr().out
        assert main(["runs", "diff", "--runs-dir", runs_dir, a, b]) == 0
        assert "run diff" in capsys.readouterr().out

    def test_show_needs_one_id(self, tmp_path, capsys):
        from repro.cli import main

        runs_dir = str(tmp_path / "runs")
        self._record_two(runs_dir)
        assert main(["runs", "show", "--runs-dir", runs_dir]) == 2
        assert "exactly one run id" in capsys.readouterr().err

    def test_diff_needs_two_ids(self, tmp_path, capsys):
        from repro.cli import main

        runs_dir = str(tmp_path / "runs")
        a, _ = self._record_two(runs_dir)
        assert main(["runs", "diff", a, "--runs-dir", runs_dir]) == 2
        assert "exactly two run ids" in capsys.readouterr().err

    def test_unknown_run_id(self, tmp_path, capsys):
        from repro.cli import main

        runs_dir = str(tmp_path / "runs")
        self._record_two(runs_dir)
        assert main(["runs", "show", "ffffffffffff", "--runs-dir", runs_dir]) == 2
        assert "no run" in capsys.readouterr().err


class TestInjectLedgerCLI:
    def test_inject_records_run_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        runs_dir = str(tmp_path / "runs")
        rc = main(
            ["inject", "workload:cjpeg", "--scheme", "noed", "--trials", "30",
             "--issue", "2", "--delay", "1", "--jobs", "2",
             "--ledger", "--runs-dir", runs_dir]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "[ledger] recorded run" in err
        ledger = RunLedger(runs_dir)
        (rec,) = ledger.list_runs()
        m = rec.manifest
        assert m["kind"] == "inject"
        assert m["workload"] == "workload:cjpeg"
        assert m["scheme"] == "noed"
        assert m["trials"] == 30 and m["jobs"] == 2
        assert m["counters"]["campaign.trials"] == 30
        assert m["timings"]["wall_s"] > 0
        # metrics and the Chrome trace land next to the manifest, and
        # nothing else does
        rec = ledger.load(rec.run_id)
        assert rec.metrics is not None and rec.trace_path is not None
        assert sorted(p.name for p in rec.path.iterdir()) == [
            "manifest.json", "metrics.json", "trace.chrome.json"
        ]
        payload = json.loads(rec.trace_path.read_text())
        (camp,) = [
            e for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "campaign"
        ]
        assert camp["args"]["trials"] == 30 and camp["args"]["jobs"] == 2
        outcomes = {
            k: v for k, v in camp["args"].items() if k.startswith("outcome_")
        }
        assert sum(outcomes.values()) == 30
        assert outcomes == {
            k.replace("campaign.outcome.", "outcome_"): v
            for k, v in m["counters"].items()
            if k.startswith("campaign.outcome.")
        }

    def test_diff_marks_issue_and_delay(self, tmp_path, capsys):
        from repro.cli import main

        runs_dir = str(tmp_path / "runs")
        ids = []
        for issue, delay in (("2", "1"), ("4", "2")):
            assert main(
                ["inject", "workload:mcf", "--scheme", "casted", "--trials", "5",
                 "--seed", "7", "--issue", issue, "--delay", delay,
                 "--ledger", "--runs-dir", runs_dir]
            ) == 0
            ids.append(capsys.readouterr().err.split("recorded run ")[1].split()[0])
        assert main(["runs", "diff", "--runs-dir", runs_dir, *ids]) == 0
        rows = {
            cells[0]: cells
            for cells in map(str.split, capsys.readouterr().out.splitlines())
            if cells
        }
        assert rows["issue"] == ["issue", "2", "4", "*"]
        assert rows["delay"] == ["delay", "1", "2", "*"]
        assert rows["seed"] == ["seed", "7", "7"]

    def test_manifest_records_resolved_backend(self, tmp_path, monkeypatch):
        """An empty REPRO_SIM_BACKEND resolves to compiled, and says so."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_SIM_BACKEND", "")
        runs_dir = str(tmp_path / "runs")
        rc = main(
            ["inject", "workload:cjpeg", "--scheme", "noed", "--trials", "5",
             "--issue", "2", "--delay", "1", "--ledger", "--runs-dir", runs_dir]
        )
        assert rc == 0
        (rec,) = RunLedger(runs_dir).list_runs()
        assert rec.manifest["backend"] == "compiled"
        assert "batch" not in rec.manifest and "snapshots" not in rec.manifest

    def test_metrics_out_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "m.json"
        rc = main(
            ["inject", "workload:cjpeg", "--scheme", "noed", "--trials", "5",
             "--issue", "2", "--delay", "1", "--metrics-out", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["counters"]["campaign.trials"] == 5


class TestStaleStageSweep:
    """Orphaned ``.stage-*`` dirs (a publisher killed mid-record) are swept."""

    def _orphan(self, root, age_s: float):
        import os
        import time

        stage = root / f".stage-99999-{int(age_s)}"
        stage.mkdir(parents=True)
        (stage / "manifest.json").write_text("{}")
        old = time.time() - age_s
        os.utime(stage, (old, old))
        return stage

    def test_old_stage_swept_on_record(self, tmp_path, caplog):
        root = tmp_path / "runs"
        root.mkdir()
        stale = self._orphan(root, age_s=7200)
        with caplog.at_level(logging.WARNING, logger="repro.obs.ledger"):
            RunLedger(root).record(_manifest())
        assert not stale.exists()
        assert any("stage" in r.message for r in caplog.records)

    def test_fresh_stage_left_alone(self, tmp_path):
        root = tmp_path / "runs"
        root.mkdir()
        live = self._orphan(root, age_s=10)  # a concurrent publisher
        RunLedger(root).record(_manifest())
        assert live.exists()

    def test_sweep_on_list_runs(self, tmp_path):
        root = tmp_path / "runs"
        root.mkdir()
        stale = self._orphan(root, age_s=7200)
        assert RunLedger(root).list_runs() == []
        assert not stale.exists()

    def test_sweep_runs_once_per_instance(self, tmp_path):
        root = tmp_path / "runs"
        root.mkdir()
        ledger = RunLedger(root)
        ledger.list_runs()
        stale = self._orphan(root, age_s=7200)
        ledger.list_runs()  # second call on the same instance: no sweep
        assert stale.exists()
        RunLedger(root).list_runs()  # a fresh instance sweeps it
        assert not stale.exists()
