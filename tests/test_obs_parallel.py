"""Worker telemetry capture/merge: parity, batching, lanes, rebasing.

The determinism contract extends to observability: a parallel campaign's
worker-merged ``campaign.*`` counters (and the detection-latency
histogram) must be bit-identical to a serial run's at any ``--jobs``.
Timing histograms (``*.seconds``) are exempt — worker-side init work
depends on pool reuse and worker-cache state (a fresh worker decodes the
shipped spec and adopts the golden run it inherited, or executes it; a
warm one skips it), so parallel runs legitimately record different
amounts of those.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.faults.injector import FaultInjector
from repro.machine.config import MachineConfig
from repro.obs.chrome import to_chrome_events
from repro.obs.telemetry import (
    absorb_worker_snapshot,
    configure_worker_capture,
    drain_worker_snapshot,
    get_telemetry,
)
from repro.obs.trace import Tracer
from repro.parallel import _captured_call, parallel_map
from repro.pipeline import Scheme, compile_program
from repro.workloads import get_workload, workload_names

SCHEMES = (Scheme.NOED, Scheme.SCED, Scheme.DCED, Scheme.CASTED)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.reset()
    yield
    obs.reset()


def _compile(workload: str, scheme: Scheme):
    return compile_program(
        get_workload(workload).program,
        scheme,
        MachineConfig(issue_width=2, inter_cluster_delay=1),
    )


def _campaign_observables(injector: FaultInjector, trials: int, jobs: int):
    """(campaign.* counters, detection-latency histogram) for one run."""
    tel = obs.configure()
    injector.run_campaign(trials, seed=2013, jobs=jobs)
    obs.reset()
    snap = tel.metrics.snapshot()
    counters = {
        k: v for k, v in snap["counters"].items() if k.startswith("campaign.")
    }
    latency = snap["histograms"].get("campaign.detection_latency")
    return counters, latency


class TestWorkerMergeParity:
    @pytest.mark.parametrize("workload", sorted(workload_names()))
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_counters_bit_identical_serial_vs_parallel(self, workload, scheme):
        """The full 7-workload x 4-scheme matrix, jobs=1 vs jobs=2."""
        cp = _compile(workload, scheme)
        injector = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
        )
        serial = _campaign_observables(injector, trials=30, jobs=1)
        parallel = _campaign_observables(injector, trials=30, jobs=2)
        assert serial == parallel

    def test_parity_at_higher_jobs(self):
        cp = _compile("parser", Scheme.CASTED)
        injector = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
        )
        reference = _campaign_observables(injector, trials=100, jobs=1)
        for jobs in (2, 4):
            assert _campaign_observables(injector, trials=100, jobs=jobs) == (
                reference
            ), f"jobs={jobs}"

    def test_shard_results_bit_identical_with_capture_on(self):
        """Telemetry capture must not perturb campaign results at all."""
        cp = _compile("parser", Scheme.CASTED)
        injector = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
        )

        def signature(res):
            return (
                res.counts,
                res.total_faults_injected,
                res.detection_latency_sum,
                res.detections_timed,
            )

        plain = injector.run_campaign(50, seed=11, jobs=2)  # telemetry off
        obs.configure()
        captured = injector.run_campaign(50, seed=11, jobs=2)
        obs.reset()
        serial = injector.run_campaign(50, seed=11, jobs=1)
        assert signature(plain) == signature(captured) == signature(serial)


class TestWorkerSpans:
    def test_parallel_campaign_traces_worker_lanes(self):
        cp = _compile("parser", Scheme.CASTED)
        injector = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
        )
        tel = obs.configure(keep_events=True)
        injector.run_campaign(100, seed=2013, jobs=2)
        obs.reset()
        worker_events = [e for e in tel.tracer.events if "pid" in e]
        assert worker_events, "no worker spans were absorbed"
        pids = {e["pid"] for e in worker_events}
        assert pids and os.getpid() not in pids
        names = {e["name"] for e in worker_events}
        assert "worker:init" in names  # pool bootstrap phase
        assert "shard" in names  # one span per shard, batched
        # worker timestamps are rebased into the parent's timeline
        assert all(e["ts"] >= 0 for e in worker_events)
        # batching contract: one shard span per shard (100 trials = 4),
        # never one per trial
        shard_spans = [e for e in worker_events if e["name"] == "shard"]
        assert len(shard_spans) == 4
        assert all(sp["args"]["trials"] > 0 for sp in shard_spans)

    def test_absorb_rebases_timestamps(self):
        parent = Tracer(clock=lambda: 100.0, keep_events=True)
        worker_events = [
            {"ev": "X", "name": "shard", "cat": "campaign", "ts": 1.0,
             "dur": 0.5, "depth": 0, "args": {}},
        ]
        # worker epoch 103.0 on the same clock -> offset +3.0
        parent.absorb(worker_events, pid=4242, epoch=103.0)
        (ev,) = parent.events
        assert ev["ts"] == pytest.approx(4.0)
        assert ev["pid"] == 4242
        assert ev["dur"] == pytest.approx(0.5)

    def test_chrome_export_gives_each_worker_a_process_lane(self):
        events = [
            {"ev": "X", "name": "pipeline", "cat": "compile", "ts": 0.0,
             "dur": 1.0, "depth": 0, "args": {}},
            {"ev": "X", "name": "worker:init", "cat": "worker", "ts": 0.1,
             "dur": 0.2, "depth": 0, "args": {}, "pid": 4242},
            {"ev": "X", "name": "shard", "cat": "campaign", "ts": 0.3,
             "dur": 0.4, "depth": 0, "args": {}, "pid": 4243},
        ]
        chrome = to_chrome_events(events)
        names = {
            m["pid"]: m["args"]["name"]
            for m in chrome
            if m["ph"] == "M" and m["name"] == "process_name"
        }
        assert names[1] == "repro"
        assert names[4242] == "worker 4242"
        assert names[4243] == "worker 4243"
        spans = {e["name"]: e for e in chrome if e["ph"] == "X"}
        assert spans["pipeline"]["pid"] == 1
        assert spans["worker:init"]["pid"] == 4242
        assert spans["shard"]["pid"] == 4243
        # workers sort below the parent lane
        sort = {
            m["pid"]: m["args"]["sort_index"]
            for m in chrome
            if m["ph"] == "M" and m["name"] == "process_sort_index"
        }
        assert sort[1] == 0 and sort[4242] > 0 and sort[4243] > 0
        assert sort[4242] != sort[4243]


def _traced_task(x: int) -> int:
    tel = get_telemetry()
    with tel.span("task", cat="worker"):
        tel.count("test.tasks")
        tel.observe("test.values", float(x))
    return x * 2


def _failing_task(x: int) -> int:
    tel = get_telemetry()
    tel.count("test.tasks")
    if x == 2:
        raise ValueError("boom")
    return x


class TestCaptureMechanics:
    def test_parallel_map_merges_worker_metrics(self):
        tel = obs.configure(keep_events=True)
        results = parallel_map(_traced_task, [1, 2, 3, 4, 5], jobs=2)
        obs.reset()
        assert results == [2, 4, 6, 8, 10]
        assert tel.metrics.counters["test.tasks"] == 5
        hist = tel.metrics.histograms["test.values"]
        assert hist.count == 5 and hist.total == pytest.approx(15.0)
        task_spans = [e for e in tel.tracer.events if e["name"] == "task"]
        assert len(task_spans) == 5
        assert all("pid" in e for e in task_spans)

    def test_no_capture_when_parent_disabled(self):
        results = parallel_map(_traced_task, [1, 2, 3], jobs=2)
        assert results == [2, 4, 6]
        assert not get_telemetry().enabled

    def test_drain_clears_between_tasks(self):
        previous = get_telemetry()
        try:
            configure_worker_capture()
            _traced_task(3)
            first = drain_worker_snapshot()
            assert first["metrics"]["counters"]["test.tasks"] == 1
            assert any(e["name"] == "task" for e in first["events"])
            _traced_task(4)
            second = drain_worker_snapshot()
            # only the *delta* since the previous drain travels
            assert second["metrics"]["counters"]["test.tasks"] == 1
            assert len(second["events"]) == len(first["events"])
        finally:
            obs.set_telemetry(previous)

    def test_failed_task_discards_partial_telemetry(self):
        previous = get_telemetry()
        try:
            configure_worker_capture()
            with pytest.raises(ValueError, match="boom"):
                _captured_call(_failing_task, 2)
            # the failing attempt's counters must not leak into the next task
            captured = _captured_call(_failing_task, 1)
            assert captured.result == 1
            assert captured.snapshot["metrics"]["counters"]["test.tasks"] == 1
        finally:
            obs.set_telemetry(previous)

    def test_absorb_none_snapshot_is_noop(self):
        tel = obs.configure()
        absorb_worker_snapshot(None, tel)
        obs.reset()
        assert tel.metrics.snapshot()["counters"] == {}

    def test_merge_counts_across_failures(self):
        """Inline-retried failures still merge the successful tasks once."""
        failures: list[int] = []
        tel = obs.configure()
        results = parallel_map(
            _failing_task,
            [1, 2, 3],
            jobs=2,
            on_failure=lambda i, exc: failures.append(i),
        )
        obs.reset()
        assert results == [1, None, 3]
        assert failures == [1]
        # successes counted exactly once; the failed attempt discarded
        assert tel.metrics.counters["test.tasks"] == 2
