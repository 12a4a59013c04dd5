"""The telemetry layer: metrics, spans, Chrome export, progress, wiring."""

from __future__ import annotations

import json
import re

import pytest

from repro import obs
from repro.obs.chrome import export_chrome_trace, to_chrome_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressEvent, ProgressTracker
from repro.obs.report import campaign_table, summarize_trace
from repro.obs.telemetry import NULL_SPAN, Telemetry
from repro.obs.trace import Tracer, read_trace
from repro.ir.interp import ExitKind
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from tests.conftest import build_loop_program


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with the disabled global default."""
    obs.reset()
    yield
    obs.reset()


def _fake_clock(step: float = 1.0):
    """Deterministic strictly-increasing clock."""
    state = {"t": 0.0}

    def clock() -> float:
        state["t"] += step
        return state["t"]

    return clock


class TestNoOpPath:
    def test_default_is_disabled(self):
        tel = obs.get_telemetry()
        assert not tel.enabled

    def test_disabled_span_is_shared_singleton(self):
        tel = obs.get_telemetry()
        sp1 = tel.span("a", cat="x", foo=1)
        sp2 = tel.span("b")
        assert sp1 is NULL_SPAN and sp2 is NULL_SPAN
        with sp1 as s:
            s.set(bar=2)  # must be accepted and ignored

    def test_disabled_metrics_record_nothing(self):
        tel = obs.get_telemetry()
        tel.count("c")
        tel.gauge("g", 3.0)
        tel.observe("h", 1.0)
        with tel.timer("t"):
            pass
        tel.instant("i")
        assert tel.metrics is None and tel.tracer is None

    def test_telemetry_without_backends_is_disabled(self):
        assert not Telemetry().enabled

    def test_executor_results_identical_with_and_without_telemetry(self):
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        compiled = compile_program(build_loop_program(8), Scheme.CASTED, machine)
        off = VLIWExecutor(compiled).run()
        obs.configure(keep_events=True)
        on = VLIWExecutor(compiled).run()
        obs.reset()
        assert off == on


class TestSpans:
    def test_nesting_depths(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("outer", cat="a"):
            with tracer.span("inner", cat="a"):
                tracer.instant("tick", cat="a")
            with tracer.span("sibling", cat="a"):
                pass
        names = {e["name"]: e for e in tracer.events}
        assert names["outer"]["depth"] == 0
        assert names["inner"]["depth"] == 1
        assert names["sibling"]["depth"] == 1
        assert names["tick"]["depth"] == 2  # inside outer > inner

    def test_spans_emit_on_close_innermost_first(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [e["name"] for e in tracer.events] == ["inner", "outer"]

    def test_span_contains_children_in_time(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.events
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_set_args_before_close(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("s", cat="c", a=1) as sp:
            sp.set(b=2, a=3)
        (ev,) = tracer.events
        assert ev["args"] == {"a": 3, "b": 2}

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(path=path, clock=_fake_clock())
        with tracer.span("s", cat="c"):
            tracer.instant("i", cat="c", k="v")
        tracer.close()
        events = read_trace(path)
        assert [e["ev"] for e in events] == ["I", "X"]
        assert events[0]["args"] == {"k": "v"}

    def test_read_trace_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "I"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)


class TestMetrics:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.count("c")
        reg.count("c", 4)
        reg.gauge("g", 1.0)
        reg.gauge("g", 2.5)
        for v in (1.0, 3.0, 2.0):
            reg.observe("h", v)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        h = snap["histograms"]["h"]
        assert (h["count"], h["min"], h["max"], h["total"]) == (3, 1.0, 3.0, 6.0)
        assert h["mean"] == pytest.approx(2.0)

    def test_timer_feeds_histogram(self):
        reg = MetricsRegistry()
        with reg.timer("t.seconds"):
            pass
        assert reg.histograms["t.seconds"].count == 1
        assert reg.histograms["t.seconds"].total >= 0.0

    def test_render_contains_every_metric(self):
        reg = MetricsRegistry()
        reg.count("my.counter")
        reg.gauge("my.gauge", 7)
        reg.observe("my.hist", 1)
        text = reg.render()
        for name in ("my.counter", "my.gauge", "my.hist"):
            assert name in text

    def test_render_empty(self):
        assert "no metrics" in MetricsRegistry().render()


class TestChromeExport:
    def _trace_events(self):
        tracer = Tracer(clock=_fake_clock())
        with tracer.span("pipeline", cat="compile", n=2):
            with tracer.span("pass:dce", cat="pass"):
                pass
        with tracer.span("campaign", cat="campaign"):
            tracer.instant("shard-lost", cat="campaign", shard=0)
        return tracer.events

    def test_schema_validity(self, tmp_path):
        out = tmp_path / "chrome.json"
        export_chrome_trace(self._trace_events(), out)
        payload = json.loads(out.read_text())
        assert set(payload) >= {"traceEvents", "displayTimeUnit"}
        events = payload["traceEvents"]
        assert events, "no events exported"
        for ev in events:
            assert {"ph", "pid", "tid", "name"} <= set(ev)
            if ev["ph"] == "X":
                assert ev["dur"] >= 0.0 and isinstance(ev["ts"], float)
            if ev["ph"] == "i":
                assert ev["s"] == "t"

    def test_timestamps_in_microseconds(self):
        events = to_chrome_events(self._trace_events())
        xs = [e for e in events if e["ph"] == "X"]
        src = [e for e in self._trace_events() if e["ev"] == "X"]
        assert xs[0]["ts"] == pytest.approx(src[0]["ts"] * 1e6)
        assert xs[0]["dur"] == pytest.approx(src[0]["dur"] * 1e6)

    def test_categories_get_named_lanes(self):
        events = to_chrome_events(self._trace_events())
        meta = [e for e in events if e["ph"] == "M" and e["name"] == "thread_name"]
        lanes = {m["args"]["name"] for m in meta}
        assert {"compile", "pass", "campaign"} <= lanes
        # every lane gets a distinct tid
        tids = [m["tid"] for m in meta]
        assert len(tids) == len(set(tids))


class TestProgress:
    def test_heartbeat_invocation_count(self):
        events: list[ProgressEvent] = []
        tracker = ProgressTracker(
            12, events.append, every=5, clock=_fake_clock(0.5)
        )
        for i in range(12):
            tracker.step({"benign": i + 1})
        # heartbeats at 5, 10, and the final trial
        assert [e.done for e in events] == [5, 10, 12]
        assert tracker.n_events == 3

    def test_event_fields(self):
        events: list[ProgressEvent] = []
        tracker = ProgressTracker(4, events.append, every=2, clock=_fake_clock(1.0))
        for i in range(4):
            tracker.step({"sdc": i + 1})
        last = events[-1]
        assert last.total == 4 and last.fraction == 1.0
        assert last.eta_s == 0.0
        assert last.rate > 0.0
        assert last.counts == {"sdc": 4}
        assert "4/4 trials (100%)" in last.render()

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ProgressTracker(5, None, every=0)

    def test_campaign_invokes_progress(self):
        from repro.faults.injector import FaultInjector

        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        compiled = compile_program(build_loop_program(6), Scheme.NOED, machine)
        injector = FaultInjector(
            compiled.program,
            mem_words=compiled.mem_words,
            frame_words=compiled.frame_words,
        )
        events: list[ProgressEvent] = []
        res = injector.run_campaign(trials=60, seed=7, progress=events.append)
        # one heartbeat per merged shard: shards of 25 + 25 + 10
        assert [e.done for e in events] == [25, 50, 60]
        assert [sum(e.counts.values()) for e in events] == [25, 50, 60]
        assert sum(events[-1].counts.values()) == res.trials == 60


class TestPipelineInstrumentation:
    def test_compile_emits_pass_spans_and_metrics(self):
        tel = obs.configure(keep_events=True)
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        compile_program(build_loop_program(5), Scheme.CASTED, machine)
        obs.reset()
        spans = {e["name"] for e in tel.tracer.events if e["ev"] == "X"}
        assert "pipeline" in spans
        for name in ("pass:dce", "pass:error-detection", "pass:assign-casted",
                     "pass:regalloc", "pass:schedule"):
            assert name in spans, name
        args = next(
            e["args"] for e in tel.tracer.events
            if e["name"] == "pass:error-detection"
        )
        # error detection grows the program; the delta must be recorded
        assert args["instructions_after"] > args["instructions_before"]
        winners = [
            k for k in tel.metrics.counters if k.startswith("assign.casted.winner.")
        ]
        assert len(winners) == 1  # exactly one portfolio winner per compile
        assert tel.metrics.histograms["sched.block_length"].count > 0
        assert tel.metrics.histograms["sched.slot_pressure"].max <= 1.0

    def test_executor_records_issue_and_stall_attribution(self):
        tel = obs.configure(keep_events=True)
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        compiled = compile_program(build_loop_program(8), Scheme.CASTED, machine)
        result = VLIWExecutor(compiled).run()
        obs.reset()
        counters = tel.metrics.counters
        issue_total = sum(
            v for k, v in counters.items() if k.startswith("sim.issue.")
        )
        assert issue_total == result.dyn_instructions
        assert counters["sim.cycles"] == result.cycles
        stall_total = sum(
            v for k, v in counters.items() if k.startswith("sim.stalls.block.")
        )
        assert stall_total == result.stall_cycles
        assert counters["sim.cache.accesses"] == result.cache.accesses
        sim_spans = [e for e in tel.tracer.events if e["name"] == "sim.run"]
        assert len(sim_spans) == 1
        assert sim_spans[0]["args"]["kind"] == "ok"

    def test_campaign_span_carries_outcome_mix(self):
        from repro.faults.injector import run_campaign

        tel = obs.configure(keep_events=True)
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        compiled = compile_program(build_loop_program(5), Scheme.NOED, machine)
        res = run_campaign(
            compiled.program, trials=7, seed=3,
            mem_words=compiled.mem_words, frame_words=compiled.frame_words,
        )
        obs.reset()
        (camp,) = [e for e in tel.tracer.events if e["name"] == "campaign"]
        assert camp["args"]["trials"] == 7
        outcomes = {
            k.removeprefix("outcome_"): v
            for k, v in camp["args"].items() if k.startswith("outcome_")
        }
        assert outcomes == {o.value: n for o, n in res.counts.items()}
        assert not any(e["ev"] == "I" for e in tel.tracer.events)

    def test_campaign_table_has_one_row_per_campaign(self):
        """Profile, snapshot and shard spans share the campaign category;
        only the ``campaign`` span itself is a table row."""
        from repro.faults.injector import run_campaign

        tel = obs.configure(keep_events=True)
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        compiled = compile_program(build_loop_program(5), Scheme.NOED, machine)
        res = run_campaign(
            compiled.program, trials=30, seed=3,
            mem_words=compiled.mem_words, frame_words=compiled.frame_words,
        )
        obs.reset()
        assert sum(e["name"] == "shard" for e in tel.tracer.events) == 2
        lines = campaign_table(tel.tracer.events).splitlines()
        (row,) = lines[4:]  # title, rule, header, rule, rows
        assert row.split()[:2] == ["0", "30"]
        for o, n in res.counts.items():
            assert f"{o.value}={n}" in row

    def test_report_summarizes_pipeline_and_campaign(self):
        tel = obs.configure(keep_events=True)
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        compiled = compile_program(build_loop_program(5), Scheme.DCED, machine)
        VLIWExecutor(compiled).run()
        from repro.faults.injector import run_campaign

        run_campaign(
            compiled.program, trials=5, seed=3,
            mem_words=compiled.mem_words, frame_words=compiled.frame_words,
        )
        obs.reset()
        text = summarize_trace(tel.tracer.events)
        assert "span summary" in text
        assert "pipeline passes" in text
        assert "error-detection" in text
        assert "fault campaigns" in text


class TestEvaluatorCache:
    def test_corrupt_disk_cache_falls_through(self, tmp_path, monkeypatch, caplog):
        import logging

        from repro.eval.experiment import Evaluator, package_digest

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = f"perf_cjpeg_noed_iw2_d0_{package_digest()}"
        (tmp_path / f"{key}.json").write_text("{ this is not json")
        tel = obs.configure()
        ev = Evaluator(seed=2013)
        with caplog.at_level(logging.WARNING, logger="repro.eval.experiment"):
            rec = ev.perf("cjpeg", Scheme.NOED, 2, 0)
        obs.reset()
        assert rec.cycles > 0
        assert any("corrupt result cache" in r.message for r in caplog.records)
        assert tel.metrics.counters["eval.cache.corrupt"] == 1
        # the recompute must repair the cache file in place...
        assert json.loads((tmp_path / f"{key}.json").read_text())["cycles"] == rec.cycles
        # ...and the corrupt original is quarantined, not destroyed
        assert (tmp_path / f"{key}.json.bad").read_text() == "{ this is not json"

    def test_quarantined_cache_does_not_rewarn(self, tmp_path, monkeypatch, caplog):
        """A second evaluator over the same cache dir loads the repaired
        entry silently — the corrupt file no longer shadows the key."""
        import logging

        from repro.eval.experiment import Evaluator, package_digest

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = f"perf_cjpeg_noed_iw2_d0_{package_digest()}"
        (tmp_path / f"{key}.json").write_text("{ this is not json")
        first = Evaluator(seed=2013).perf("cjpeg", Scheme.NOED, 2, 0)
        caplog.clear()  # drop the (expected) warning from the first run
        with caplog.at_level(logging.WARNING, logger="repro.eval.experiment"):
            again = Evaluator(seed=2013).perf("cjpeg", Scheme.NOED, 2, 0)
        assert again.cycles == first.cycles
        assert not any("corrupt result cache" in r.message for r in caplog.records)

    def test_wrong_shape_cache_falls_through(self, tmp_path, monkeypatch):
        from repro.eval.experiment import Evaluator, package_digest

        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = f"perf_cjpeg_noed_iw2_d0_{package_digest()}"
        (tmp_path / f"{key}.json").write_text("[1, 2, 3]")
        ev = Evaluator(seed=2013)
        assert ev.perf("cjpeg", Scheme.NOED, 2, 0).cycles > 0
        assert (tmp_path / f"{key}.json.bad").exists()


class TestFunctionalRun:
    def test_public_functional_run_matches_trace(self):
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        compiled = compile_program(build_loop_program(4), Scheme.DCED, machine)
        executor = VLIWExecutor(compiled)
        visits: list[int] = []
        result = executor.functional_run(visit_sink=visits.append)
        assert result.kind is ExitKind.OK
        assert visits
        labels = compiled.program.main.block_labels()
        assert labels[visits[0]] == compiled.program.main.entry.label
        # without a sink the run is the same, and records nothing
        assert executor.functional_run() == result


class TestCLI:
    def test_trace_flag_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.chrome.json"
        rc = main(
            ["inject", "workload:cjpeg", "--scheme", "noed", "--trials", "5",
             "--issue", "2", "--delay", "1",
             "--trace", str(trace), "--metrics"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry metrics" in out
        events = read_trace(trace)
        names = {e["name"] for e in events}
        assert "pipeline" in names and "campaign" in names

        rc = main(["report", "trace", "--file", str(trace), "--chrome", str(chrome)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "span summary" in out and "fault campaigns" in out
        assert re.search(r"\b(benign|detected|exception|data-corrupt)=\d", out)
        payload = json.loads(chrome.read_text())
        assert payload["traceEvents"]

    @staticmethod
    def _traced_inject(tmp_path, jobs: int):
        from repro.cli import main

        trace = tmp_path / f"jobs{jobs}.jsonl"
        rc = main(
            ["inject", "workload:mcf", "--scheme", "casted", "--trials", "50",
             "--seed", "7", "--jobs", str(jobs), "--trace", str(trace)]
        )
        assert rc == 0
        return trace

    def test_report_outcomes_same_at_any_jobs(self, tmp_path, capsys):
        from repro.cli import main

        rows = []
        for jobs in (1, 2):
            trace = self._traced_inject(tmp_path, jobs)
            capsys.readouterr()
            assert main(["report", "trace", "--file", str(trace)]) == 0
            table = capsys.readouterr().out.split("fault campaigns")[1]
            (row,) = table.strip().splitlines()[3:]
            rows.append(row.split())
        serial, pooled = rows
        assert "detected=" in " ".join(serial)
        # campaign index, trials and faults, then the outcome mix (time differs)
        assert serial[:3] == pooled[:3]
        assert serial[4:] == pooled[4:]

    def test_pooled_trace_has_no_duplicate_lines(self, tmp_path):
        lines = self._traced_inject(tmp_path, 2).read_text().splitlines()
        assert len(lines) == len(set(lines))

    def test_report_trace_requires_file(self, capsys):
        from repro.cli import main

        assert main(["report", "trace"]) == 2
        assert "needs --file" in capsys.readouterr().err

    def test_report_trace_missing_file(self, capsys):
        from repro.cli import main

        assert main(["report", "trace", "--file", "/nonexistent/t.jsonl"]) == 2
