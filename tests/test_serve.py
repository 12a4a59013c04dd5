"""The campaign service: store, queue, runner, HTTP API, resume-on-restart.

The crash-recovery tests at the bottom are the point of the subsystem:
a daemon SIGKILLed mid-campaign (at seeded chaos points — see
``tests/chaos.py``) is restarted on the same state directory and must
finish the interrupted job with outcome counts bit-identical to an
uninterrupted run, because campaign shards are deterministic in
``(seed, shard_index)`` and completed shards live in the checkpoint.
"""

from __future__ import annotations

import json

import pytest

from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.daemon import ServeApp, ServeHTTPServer, ServerThread
from repro.serve.queue import JobQueue, QueueFull
from repro.serve.runner import checkpoint_partial
from repro.serve.store import Job, JobError, JobState, JobStore
from tests.chaos import Daemon

WORKLOAD = "workload:mcf"


def reference_counts(trials: int = 75, seed: int = 7) -> dict[str, int]:
    """Direct (no service) campaign result — the determinism oracle."""
    from repro.cli import _load_program
    from repro.faults.injector import run_campaign
    from repro.sim.executor import VLIWExecutor

    machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
    program = _load_program(WORKLOAD)
    compiled = compile_program(program, Scheme.CASTED, machine)
    noed = compile_program(program, Scheme.NOED, machine)
    reference = VLIWExecutor(noed).run().dyn_instructions
    res = run_campaign(
        compiled.program, trials, seed,
        mem_words=compiled.mem_words, frame_words=compiled.frame_words,
        reference_dyn=reference,
    )
    return {o.value: n for o, n in res.counts.items()}


# -- store ---------------------------------------------------------------------
class TestJobStore:
    def test_save_load_round_trip(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.new_job("inject", {"trials": 10}, client="alice", priority=3)
        store.save(job)
        loaded = store.load(job.id)
        assert loaded.to_json() == job.to_json()

    def test_seq_survives_restart(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.new_job("compile", {})
        store.save(a)
        fresh = JobStore(tmp_path)  # new daemon, same directory
        b = fresh.new_job("compile", {})
        assert b.seq > a.seq

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(JobError, match="unknown job kind"):
            JobStore(tmp_path).new_job("frobnicate", {})

    def test_corrupt_record_quarantined(self, tmp_path, caplog):
        store = JobStore(tmp_path)
        job = store.new_job("compile", {})
        store.save(job)
        bad = store.jobs_dir / "j999999-feed00.json"
        bad.write_text("{ torn mid-wri")
        with caplog.at_level("WARNING"):
            jobs = store.load_all()
        assert [j.id for j in jobs] == [job.id]
        assert not bad.exists()
        assert (store.jobs_dir / f"{bad.name}.bad").exists()
        assert any("quarantin" in r.message for r in caplog.records)

    def test_illegal_transition_raises(self, tmp_path):
        job = JobStore(tmp_path).new_job("compile", {})
        with pytest.raises(JobError, match="illegal transition"):
            job.transition(JobState.DONE)  # queued cannot jump to done

    def test_recover_requeues_interrupted(self, tmp_path):
        store = JobStore(tmp_path)
        running = store.new_job("inject", {})
        running.transition(JobState.RUNNING)
        store.save(running)
        finishing = store.new_job("inject", {})
        finishing.transition(JobState.RUNNING)
        finishing.transition(JobState.CHECKPOINTING)
        store.save(finishing)
        done = store.new_job("compile", {})
        done.transition(JobState.RUNNING)
        done.transition(JobState.CHECKPOINTING)
        done.transition(JobState.DONE)
        store.save(done)
        queued = store.recover()
        assert {j.id for j in queued} == {running.id, finishing.id}
        for j in queued:
            assert j.state is JobState.QUEUED
            assert j.restarts == 1
            assert "requeued-on-restart" in j.note
        assert store.load(done.id).state is JobState.DONE

    def test_recover_orders_by_priority_then_seq(self, tmp_path):
        store = JobStore(tmp_path)
        low = store.new_job("compile", {}, priority=20)
        high = store.new_job("compile", {}, priority=1)
        store.save(low)
        store.save(high)
        assert [j.id for j in store.recover()] == [high.id, low.id]


# -- queue ---------------------------------------------------------------------
def _job(seq: int, priority: int = 10, client: str = "a") -> Job:
    return Job(
        id=f"j{seq:06d}-test", kind="compile", spec={},
        client=client, priority=priority, seq=seq,
    )


class TestJobQueue:
    def test_priority_then_fifo(self):
        q = JobQueue(limit=10)
        q.push(_job(1, priority=10))
        q.push(_job(2, priority=1))
        q.push(_job(3, priority=10))
        assert [q.pop().seq for _ in range(3)] == [2, 1, 3]

    def test_full_queue_refuses_with_estimate(self):
        q = JobQueue(limit=2, initial_job_s=10.0)
        q.push(_job(1))
        q.push(_job(2))
        with pytest.raises(QueueFull) as exc:
            q.ensure_capacity("a")
        assert exc.value.retry_after_s >= 1.0
        with pytest.raises(QueueFull):
            q.push(_job(3))

    def test_force_push_bypasses_capacity(self):
        q = JobQueue(limit=1)
        q.push(_job(1))
        q.push(_job(2), force=True)  # recovered work always fits
        assert len(q) == 2

    def test_per_client_cap(self):
        q = JobQueue(limit=10, max_per_client=1)
        q.push(_job(1, client="noisy"))
        with pytest.raises(QueueFull, match="per-client cap"):
            q.ensure_capacity("noisy")
        q.ensure_capacity("quiet")  # other tenants unaffected

    def test_remove_is_lazy_deletion(self):
        q = JobQueue(limit=10)
        q.push(_job(1, priority=1))
        q.push(_job(2, priority=5))
        assert q.remove("j000001-test").seq == 1
        assert q.remove("j000001-test") is None
        assert q.pop().seq == 2  # stale heap entry skipped

    def test_push_is_idempotent(self):
        q = JobQueue(limit=10)
        job = _job(1)
        q.push(job)
        q.push(job)
        assert len(q) == 1

    def test_pop_empty_returns_none(self):
        assert JobQueue(limit=2).pop(timeout=0.01) is None


# -- partial-result merge ------------------------------------------------------
class TestCheckpointPartial:
    def test_merges_shards_and_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        lines = [
            json.dumps({"format": "repro-campaign-checkpoint", "seed": 7}),
            json.dumps({"shard": 0, "trials": 25, "faults": 30,
                        "counts": {"detected": 20, "benign": 5}}),
            json.dumps({"shard": 1, "trials": 25, "faults": 28,
                        "counts": {"detected": 22, "sdc": 3}}),
            '{"shard": 2, "trials": 25, "cou',  # torn by the crash
        ]
        path.write_text("\n".join(lines) + "\n")
        partial = checkpoint_partial(path)
        assert partial["trials"] == 50
        assert partial["counts"] == {"benign": 5, "detected": 42, "sdc": 3}
        assert partial["faults"] == 58
        assert partial["incomplete"] is True

    def test_no_file_or_no_shards_is_none(self, tmp_path):
        assert checkpoint_partial(tmp_path / "missing.jsonl") is None
        empty = tmp_path / "header-only.jsonl"
        empty.write_text(json.dumps({"format": "repro-campaign-checkpoint"}) + "\n")
        assert checkpoint_partial(empty) is None


# -- in-process app ------------------------------------------------------------
@pytest.fixture
def app(tmp_path):
    app = ServeApp(state_dir=tmp_path / "serve", jobs=1, queue_limit=4)
    app.start()
    yield app
    app.shutdown(requeue=True)


def _wait_terminal(app: ServeApp, job_id: str, timeout: float = 60.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = app.store.load(job_id)
        if job.terminal:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} not terminal after {timeout}s")


class TestServeApp:
    def test_compile_job_completes(self, app):
        summary = app.submit({
            "kind": "compile",
            "spec": {"program": WORKLOAD, "scheme": "casted"},
        })
        job = _wait_terminal(app, summary["id"])
        assert job.state is JobState.DONE
        assert job.result["instructions"] > 0
        assert job.incomplete is False

    def test_bad_program_fails_cleanly(self, app):
        summary = app.submit({
            "kind": "compile", "spec": {"program": "workload:nonesuch"},
        })
        job = _wait_terminal(app, summary["id"])
        assert job.state is JobState.FAILED
        assert "nonesuch" in job.error
        # the runner survived: a following job still executes
        again = app.submit({
            "kind": "compile", "spec": {"program": WORKLOAD},
        })
        assert _wait_terminal(app, again["id"]).state is JobState.DONE

    def test_inject_job_matches_direct_campaign(self, app):
        summary = app.submit({
            "kind": "inject",
            "spec": {"program": WORKLOAD, "trials": 75, "seed": 7},
        })
        job = _wait_terminal(app, summary["id"], timeout=120)
        assert job.state is JobState.DONE
        assert job.result["counts"] == reference_counts(75, 7)
        assert job.result["incomplete"] is False

    def test_cancel_queued_job(self, app):
        # Saturate the single runner with a real job, then cancel a queued one.
        first = app.submit({
            "kind": "inject",
            "spec": {"program": WORKLOAD, "trials": 200, "seed": 1},
        })
        victim = app.submit({"kind": "compile", "spec": {"program": WORKLOAD}})
        out = app.cancel(victim["id"])
        assert out["changed"] is True
        job = _wait_terminal(app, victim["id"])
        assert job.state is JobState.CANCELLED
        assert _wait_terminal(app, first["id"], timeout=120).state is JobState.DONE

    def test_submission_validation(self, app):
        with pytest.raises(ValueError, match="unknown job kind"):
            app.submit({"kind": "nope", "spec": {}})
        with pytest.raises(ValueError, match="JSON object"):
            app.submit({"kind": "inject", "spec": "not-a-dict"})

    def test_metrics_text_renders(self, app):
        text = app.metrics_text()
        assert "repro_serve_queue_depth" in text


class TestJobDeadline:
    """Over-deadline jobs degrade to `done` + `incomplete`, never `failed`."""

    def _hang_after_one_shard(self, job, ctx):
        import time

        ck = ctx.store.checkpoint_path(job.id)
        ck.write_text(
            json.dumps({"format": "repro-campaign-checkpoint", "seed": 7})
            + "\n"
            + json.dumps({"shard": 0, "trials": 25, "faults": 30,
                          "counts": {"detected": 20, "benign": 5}})
            + "\n"
        )
        while True:  # a wedged campaign: only the watchdog can stop it
            ctx.check()
            time.sleep(0.02)

    def test_deadline_merges_checkpoint_into_partial(
        self, tmp_path, monkeypatch
    ):
        from repro.serve import runner as runner_mod

        monkeypatch.setitem(
            runner_mod.HANDLERS, "inject", self._hang_after_one_shard
        )
        app = ServeApp(state_dir=tmp_path / "serve", jobs=1)
        app.start()
        try:
            summary = app.submit({
                "kind": "inject",
                "spec": {"program": WORKLOAD, "deadline_s": 0.5},
            })
            job = _wait_terminal(app, summary["id"], timeout=30)
            assert job.state is JobState.DONE
            assert job.incomplete is True
            assert job.note == "deadline"
            assert job.result["trials"] == 25
            assert job.result["counts"] == {"benign": 5, "detected": 20}
        finally:
            app.shutdown(requeue=True)

    def test_deadline_with_no_shards_is_incomplete_empty(
        self, tmp_path, monkeypatch
    ):
        import time

        from repro.serve import runner as runner_mod

        def hang(job, ctx):
            while True:
                ctx.check()
                time.sleep(0.02)

        monkeypatch.setitem(runner_mod.HANDLERS, "inject", hang)
        app = ServeApp(state_dir=tmp_path / "serve", jobs=1, job_timeout=0.5)
        app.start()
        try:
            summary = app.submit({"kind": "inject", "spec": {"program": WORKLOAD}})
            job = _wait_terminal(app, summary["id"], timeout=30)
            assert job.state is JobState.DONE
            assert job.incomplete is True
            assert job.result is None  # nothing completed, and it says so
        finally:
            app.shutdown(requeue=True)


# -- HTTP surface --------------------------------------------------------------
@pytest.fixture
def http_client(tmp_path):
    app = ServeApp(state_dir=tmp_path / "serve", jobs=1, queue_limit=2)
    server = ServeHTTPServer(("127.0.0.1", 0), app)
    app.start()
    with ServerThread(server) as st:
        yield ServeClient(st.url)


class TestServeHTTP:
    def test_end_to_end_compile(self, http_client):
        job = http_client.submit("compile", {"program": WORKLOAD})
        final = http_client.wait(job["id"], timeout=60)
        assert final["state"] == "done"
        result = http_client.result(job["id"])
        assert result["result"]["instructions"] > 0
        events = http_client.events(job["id"])
        kinds = [e["kind"] for e in events["events"]]
        assert "job-start" in kinds and "job-done" in kinds

    def test_result_conflict_until_terminal(self, http_client):
        job = http_client.submit(
            "inject", {"program": WORKLOAD, "trials": 500, "seed": 3},
        )
        with pytest.raises(ServeClientError) as exc:
            http_client.result(job["id"])
        assert exc.value.status == 409
        http_client.cancel(job["id"])
        http_client.wait(job["id"], timeout=60)

    def test_unknown_job_is_404(self, http_client):
        with pytest.raises(ServeClientError) as exc:
            http_client.job("j000099-nope")
        assert exc.value.status == 404

    def test_bad_submission_is_400(self, http_client):
        with pytest.raises(ServeClientError) as exc:
            http_client.submit("frobnicate", {})
        assert exc.value.status == 400

    def test_backpressure_is_429_with_retry_after(self, http_client):
        # queue_limit=2: park one long job + fill the queue, then overflow.
        http_client.submit("inject", {"program": WORKLOAD, "trials": 2000, "seed": 1})
        http_client.submit("compile", {"program": WORKLOAD})
        http_client.submit("compile", {"program": WORKLOAD})
        with pytest.raises(ServeClientError) as exc:
            http_client.submit("compile", {"program": WORKLOAD})
        assert exc.value.status == 429
        assert exc.value.retry_after_s >= 1.0
        assert "full" in str(exc.value)

    def test_healthz(self, http_client):
        health = http_client.healthz()
        assert health["ok"] is True


# -- resume-on-restart (the chaos tests) ---------------------------------------
INJECT_SPEC = {"program": WORKLOAD, "trials": 75, "seed": 7, "heartbeat": 25}


def _submit_and_die(tmp_path, chaos: str, spec: dict) -> str:
    """Start a chaos-armed daemon, submit ``spec``, wait for it to die."""
    daemon = Daemon(tmp_path / "serve", jobs=1, chaos=chaos)
    client = ServeClient(daemon.url)
    job = client.submit("inject", spec)
    rc = daemon.wait_dead(timeout=120)
    assert rc != 0  # SIGKILL, not a clean exit
    return job["id"]


def _restart_and_finish(tmp_path, job_id: str) -> dict:
    with Daemon(tmp_path / "serve", jobs=1) as daemon:
        client = ServeClient(daemon.url)
        final = client.wait(job_id, timeout=180)
        daemon.terminate()
    return final


class TestResumeOnRestart:
    def test_kill9_mid_campaign_then_restart_bit_identical(self, tmp_path):
        job_id = _submit_and_die(tmp_path, "daemon.heartbeat:2", INJECT_SPEC)
        final = _restart_and_finish(tmp_path, job_id)
        assert final["state"] == "done"
        assert final["restarts"] >= 1
        assert final["incomplete"] is False
        assert final["result"]["counts"] == reference_counts(75, 7)

    def test_mid_campaign_kill_preserves_completed_shards(self, tmp_path):
        job_id = _submit_and_die(
            tmp_path, "daemon.heartbeat:2", INJECT_SPEC
        )
        store = JobStore(tmp_path / "serve")
        # the durable record still says running/checkpointing (torn daemon)
        assert store.load(job_id).state in (
            JobState.RUNNING, JobState.CHECKPOINTING,
        )
        ck = store.checkpoint_path(job_id)
        assert ck.exists()
        shards = [
            json.loads(line) for line in ck.read_text().splitlines()[1:]
            if line.strip()
        ]
        assert shards, "the first heartbeat's shard must be checkpointed"

    def test_graceful_sigterm_requeues_current_job(self, tmp_path):
        daemon = Daemon(tmp_path / "serve", jobs=1)
        client = ServeClient(daemon.url)
        job = client.submit(
            "inject", {"program": WORKLOAD, "trials": 3000, "seed": 11},
        )
        # wait until it is actually running before pulling the plug
        import time

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if client.job(job["id"])["state"] == "running":
                break
            time.sleep(0.05)
        daemon.terminate()
        store = JobStore(tmp_path / "serve")
        record = store.load(job["id"])
        assert record.state is JobState.QUEUED
        assert record.note == "daemon-shutdown"


@pytest.mark.heavy
class TestResumeOnRestartHeavy:
    """Deeper chaos matrix: kill points x execution backends."""

    def test_kill9_at_job_start_then_restart(self, tmp_path):
        job_id = _submit_and_die(tmp_path, "daemon.job-start:1", INJECT_SPEC)
        final = _restart_and_finish(tmp_path, job_id)
        assert final["state"] == "done"
        assert final["result"]["counts"] == reference_counts(75, 7)

    @pytest.mark.parametrize("backend", ["interp", "compiled"])
    def test_restart_deterministic_per_backend(self, tmp_path, backend):
        spec = dict(INJECT_SPEC, backend=backend)
        job_id = _submit_and_die(tmp_path, "daemon.heartbeat:2", spec)
        final = _restart_and_finish(tmp_path, job_id)
        assert final["state"] == "done"
        assert final["result"]["counts"] == reference_counts(75, 7)

    def test_double_kill_then_restart(self, tmp_path):
        """Two consecutive crashes still converge to the exact counts."""
        job_id = _submit_and_die(tmp_path, "daemon.heartbeat:2", INJECT_SPEC)
        daemon = Daemon(tmp_path / "serve", jobs=1, chaos="daemon.heartbeat:1")
        daemon.wait_dead(timeout=120)
        final = _restart_and_finish(tmp_path, job_id)
        assert final["state"] == "done"
        assert final["restarts"] >= 2
        assert final["result"]["counts"] == reference_counts(75, 7)
