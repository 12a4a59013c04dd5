"""Campaign resilience: crashed workers, checkpoints, interrupted resumes.

The worker-crash contract under test (see ``parallel_map``): a task whose
worker raises — or whose worker process *dies* — is retried up to
``retries`` extra times on a fresh pool; a worker death cannot be
attributed to one task, so a pool crash charges an attempt to every
in-flight task.  After exhaustion the task reports to ``on_failure``
(slot ``None``) instead of aborting the map, and the campaign driver
turns exhausted shards into a ``partial`` result.
"""

import json
import os
import signal
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

import repro.faults.injector as injector_mod
from repro.faults.checkpoint import CampaignCheckpoint, CheckpointError
from repro.faults.classify import Outcome
from repro.faults.injector import CampaignResult, FaultInjector, ShardResult
from repro.machine.config import MachineConfig
from repro.parallel import RETRY_BACKOFF, parallel_map
from repro.pipeline import Scheme, compile_program
from repro.workloads import get_workload
from tests.conftest import build_loop_program

REPO_ROOT = Path(__file__).resolve().parent.parent


def _double(x):
    return x * 2


def _raise_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x * 2


def _exit_on_three(x):
    if x == 3:
        os._exit(1)  # simulate an OOM-kill / segfault: no exception, no cleanup
    return x * 2


def _lose_all(fn, tasks, jobs=1, on_result=None, retries=0, on_failure=None):
    """A ``parallel_map`` stand-in whose every task exhausts its retries."""
    for i in range(len(tasks)):
        on_failure(i, RuntimeError("worker died"))
    return [None] * len(tasks)


_CAMPAIGN_TASK_WORKER = injector_mod._campaign_task_worker


def _exit_once_then_run_task(flag, task):
    """Kill the first worker to get here, then run campaign tasks as usual."""
    try:
        fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return _CAMPAIGN_TASK_WORKER(task)
    os.close(fd)
    os._exit(1)


def _exit_once(task):
    """Crash the worker the first time it sees the flag file missing."""
    x, flag = task
    if x == 3 and not os.path.exists(flag):
        open(flag, "w").close()
        os._exit(1)
    return x * 2


class TestParallelMapFailures:
    def test_raising_task_propagates_by_default(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_raise_on_three, [1, 2, 3, 4], jobs=2)

    def test_raising_task_inline_propagates(self):
        with pytest.raises(ValueError, match="boom"):
            parallel_map(_raise_on_three, [3], jobs=1)

    def test_on_failure_degrades_instead_of_raising(self):
        failures = []
        out = parallel_map(
            _raise_on_three, [1, 2, 3, 4], jobs=2,
            on_failure=lambda i, exc: failures.append((i, str(exc))),
        )
        assert out == [2, 4, None, 8]
        assert failures == [(2, "boom")]

    def test_on_failure_inline(self):
        failures = []
        out = parallel_map(
            _raise_on_three, [3], jobs=1,
            on_failure=lambda i, exc: failures.append(i),
        )
        assert out == [None]
        assert failures == [0]

    def test_killed_worker_exhausts_then_degrades(self):
        failures = []
        out = parallel_map(
            _exit_on_three, [1, 2, 3, 4], jobs=2, retries=1,
            on_failure=lambda i, exc: failures.append(i),
        )
        assert out[2] is None
        assert 2 in failures
        # every surviving task completed despite sharing pools with the crasher
        assert [out[i] for i in (0, 1, 3)] == [2, 4, 8]

    def test_killed_worker_without_on_failure_raises(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            parallel_map(_exit_on_three, [1, 2, 3, 4], jobs=2, retries=0)

    def test_transient_crash_retries_cleanly(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        tasks = [(x, flag) for x in (1, 2, 3, 4)]
        failures = []
        out = parallel_map(
            _exit_once, tasks, jobs=2, retries=2,
            on_failure=lambda i, exc: failures.append(i),
        )
        assert out == [2, 4, 6, 8]
        assert failures == []


HEADER = {
    "seed": 1, "trials": 50, "fault_model": "reg-bit",
    "golden_dyn": 123, "shard_trials": 25, "reference_dyn": None,
}


class TestCheckpointFile:
    def test_fresh_load_writes_header(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        assert ck.load(resume=False) == {}
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["format"] == "repro-campaign-checkpoint"

    def test_append_then_resume_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        # A detection before any fault landed has no latency, so a record
        # may hold fewer latencies than detected trials.
        rec = {"shard": 0, "trials": 25, "counts": {"detected": 3, "benign": 22},
               "faults": 25, "latencies": [9]}
        ck.append(rec)
        got = CampaignCheckpoint(path, HEADER).load(resume=True)
        assert got == {0: rec}

    def test_resume_without_file_starts_fresh(self, tmp_path):
        ck = CampaignCheckpoint(tmp_path / "missing.jsonl", HEADER)
        assert ck.load(resume=True) == {}

    def test_identity_mismatch_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignCheckpoint(path, HEADER).load(resume=False)
        other = dict(HEADER, seed=2)
        with pytest.raises(CheckpointError, match="seed"):
            CampaignCheckpoint(path, other).load(resume=True)

    def test_torn_tail_dropped_and_healed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        rec = {"shard": 0, "trials": 25, "counts": {"benign": 25},
               "faults": 25, "latencies": []}
        ck.append(rec)
        with open(path, "a") as f:
            f.write('{"shard": 1, "trials": 2')  # crash mid-append
        got = CampaignCheckpoint(path, HEADER).load(resume=True)
        assert got == {0: rec}
        # healed: the torn line is gone, so appends stay well-formed
        assert path.read_text().endswith(json.dumps(rec) + "\n")
        # ...and preserved as evidence in the quarantine file
        bad = path.with_name(f"{path.name}.bad")
        assert bad.read_text().startswith('{"shard": 1, "trials": 2')

    def test_torn_tail_quarantine_warns_once(self, tmp_path, caplog):
        import logging

        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        with open(path, "a") as f:
            f.write('{"shard": 0, "tri')
        with caplog.at_level(logging.WARNING, logger="repro.faults.checkpoint"):
            CampaignCheckpoint(path, HEADER).load(resume=True)
        warnings = [r for r in caplog.records if "torn" in r.message]
        assert len(warnings) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        with open(path, "a") as f:
            f.write("garbage\n")
            f.write(json.dumps({"shard": 1, "trials": 25,
                                "counts": {}, "faults": 25,
                                "latencies": []}) + "\n")
        with pytest.raises(CheckpointError, match="line 2"):
            CampaignCheckpoint(path, HEADER).load(resume=True)

    @pytest.mark.parametrize("index,trials", [
        (-1, 25),  # negative index
        (2, 25),   # one past the 2-shard plan
        (1, 24),   # in the plan, wrong size
    ], ids=["negative-index", "index-past-end", "wrong-size"])
    def test_record_outside_plan_raises(self, tmp_path, index, trials):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        ck.append({"shard": 0, "trials": 25, "counts": {"benign": 25},
                   "faults": 25, "latencies": []})
        ck.append({"shard": index, "trials": trials,
                   "counts": {"benign": trials}, "faults": trials,
                   "latencies": []})
        with pytest.raises(CheckpointError, match="plan"):
            CampaignCheckpoint(path, HEADER).load(resume=True)

    def test_version_1_rejected_on_resume(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        path.write_text(json.dumps({**ck.header, "version": 1}) + "\n")
        with pytest.raises(CheckpointError, match="version 1"):
            CampaignCheckpoint(path, HEADER).load(resume=True)

    def test_version_2_rejected_on_resume(self, tmp_path):
        """Version 2 records carried ``detected_dyn``; version 3 does not."""
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        path.write_text(
            json.dumps({**ck.header, "version": 2}) + "\n"
            + json.dumps({"shard": 0, "trials": 25, "counts": {"benign": 25},
                          "faults": 25, "detected_dyn": 0, "latencies": []})
            + "\n"
        )
        with pytest.raises(CheckpointError, match="version 2, expected 3"):
            CampaignCheckpoint(path, HEADER).load(resume=True)

    def test_shard_result_json_round_trip(self):
        sr = ShardResult(
            index=3, trials=25, counts={Outcome.DETECTED: 20, Outcome.BENIGN: 5},
            faults=31, latencies=(44, 1029),
        )
        assert ShardResult.from_json(json.loads(json.dumps(sr.to_json()))) == sr

    def test_unknown_outcome_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        ck.append({"shard": 0, "trials": 25, "counts": {"vaporized": 25},
                   "faults": 25, "latencies": []})
        with pytest.raises(CheckpointError, match="line 2: unknown outcome 'vaporized'"):
            CampaignCheckpoint(path, HEADER).load(resume=True)

    @pytest.mark.parametrize("counts,latencies,match", [
        ({"detected": 30, "benign": -5}, [], "line 3: negative count benign=-5"),
        ({"detected": 400, "exception": 6}, [], "line 3: counts sum to 406"),
        ({"detected": 20, "benign": 4}, [], "line 3: counts sum to 24"),
        ({"detected": 2, "benign": 23}, [5, 6, 7], "line 3: 3 latencies for 2"),
    ], ids=["negative", "over-sum", "under-sum", "extra-latencies"])
    def test_counts_inconsistent_with_trials_rejected(
        self, tmp_path, counts, latencies, match
    ):
        path = tmp_path / "c.jsonl"
        ck = CampaignCheckpoint(path, HEADER)
        ck.load(resume=False)
        ck.append({"shard": 0, "trials": 25, "counts": {"benign": 25},
                   "faults": 25, "latencies": []})
        ck.append({"shard": 1, "trials": 25, "counts": counts,
                   "faults": 25, "latencies": latencies})
        with pytest.raises(CheckpointError, match=match):
            CampaignCheckpoint(path, HEADER).load(resume=True)


@pytest.fixture(scope="module")
def loop_injector():
    return FaultInjector(build_loop_program())


class TestCampaignCheckpointResume:
    TRIALS = 60  # 3 shards at SHARD_TRIALS=25

    def _truncate_to_shards(self, path, k):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: 1 + k]) + "\n")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kill_and_resume_bit_identical(self, loop_injector, tmp_path, jobs):
        """Interrupted after k shards + resumed == uninterrupted, any --jobs."""
        full = loop_injector.run_campaign(trials=self.TRIALS, seed=11)
        path = tmp_path / "c.jsonl"
        loop_injector.run_campaign(trials=self.TRIALS, seed=11, checkpoint=path)
        self._truncate_to_shards(path, 1)  # "crash" with one shard recorded
        resumed = loop_injector.run_campaign(
            trials=self.TRIALS, seed=11, checkpoint=path, resume=True, jobs=jobs
        )
        assert resumed.counts == full.counts
        assert resumed.total_faults_injected == full.total_faults_injected
        assert resumed.detection_latency_sum == full.detection_latency_sum
        assert resumed.trials == full.trials == self.TRIALS
        assert not resumed.partial

    def test_resume_with_everything_done_runs_nothing(self, loop_injector, tmp_path):
        path = tmp_path / "c.jsonl"
        full = loop_injector.run_campaign(trials=self.TRIALS, seed=11, checkpoint=path)
        resumed = loop_injector.run_campaign(
            trials=self.TRIALS, seed=11, checkpoint=path, resume=True
        )
        assert resumed.counts == full.counts

    def test_without_resume_checkpoint_is_truncated(self, loop_injector, tmp_path):
        path = tmp_path / "c.jsonl"
        loop_injector.run_campaign(trials=self.TRIALS, seed=11, checkpoint=path)
        loop_injector.run_campaign(trials=25, seed=12, checkpoint=path)
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["seed"] == 12
        assert len(lines) == 2  # header + the single fresh shard

    def test_resume_foreign_campaign_raises(self, loop_injector, tmp_path):
        path = tmp_path / "c.jsonl"
        loop_injector.run_campaign(trials=self.TRIALS, seed=11, checkpoint=path)
        with pytest.raises(CheckpointError):
            loop_injector.run_campaign(
                trials=self.TRIALS, seed=99, checkpoint=path, resume=True
            )


def _shard_records(path):
    """Complete shard lines in a checkpoint file (0 while it is absent)."""
    try:
        return max(0, path.read_text().count("\n") - 1)
    except OSError:
        return 0


class TestInjectKillResume:
    """SIGKILL a real ``repro inject`` twice mid-campaign, then resume.

    Nothing inside the campaign cooperates: the test polls the checkpoint
    file and kills the CLI's whole process group (pool workers included)
    from outside once enough shards have landed.  The finishing
    ``--resume`` run must print exactly what an uninterrupted run prints.
    """

    ARGS = ("inject", "workload:parser", "--scheme", "casted",
            "--trials", "300", "--seed", "7")
    SHARDS = 12  # 300 trials / SHARD_TRIALS=25

    def _cmd(self, *extra):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop("REPRO_JOBS", None)
        return [sys.executable, "-m", "repro", *self.ARGS, *extra], env

    def _run(self, *extra):
        cmd, env = self._cmd(*extra)
        done = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        return done.stdout

    def _kill_at(self, ckpt, records, *extra):
        """Start the campaign; SIGKILL it once ``ckpt`` holds ``records``."""
        cmd, env = self._cmd(*extra)
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 300
            while _shard_records(ckpt) < records:
                assert proc.poll() is None, (
                    f"campaign exited (rc={proc.returncode}) before "
                    f"{records} shard records landed"
                )
                assert time.monotonic() < deadline, "campaign stalled"
                time.sleep(0.001)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # exited and reaped: the assert says why
                pass
        return proc.wait(timeout=30)

    @pytest.fixture(scope="class")
    def uninterrupted(self):
        return self._run("--jobs", "1")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_double_kill9_then_resume_byte_identical(
        self, uninterrupted, tmp_path, jobs
    ):
        ckpt = tmp_path / "campaign.ckpt"
        common = ("--jobs", jobs, "--checkpoint", str(ckpt))

        rc = self._kill_at(ckpt, 2, *common)
        first = _shard_records(ckpt)
        assert rc == -signal.SIGKILL
        assert 2 <= first < self.SHARDS

        # The resumed run must make progress of its own before dying again.
        rc = self._kill_at(ckpt, max(5, first + 1), *common, "--resume")
        second = _shard_records(ckpt)
        assert rc == -signal.SIGKILL
        assert first < second < self.SHARDS

        assert self._run(*common, "--resume") == uninterrupted
        assert _shard_records(ckpt) == self.SHARDS


class TestCampaignDegradation:
    """Shard loss (all retries exhausted) must not lose the campaign."""

    def _lossy_parallel_map(self, lost_task_index):
        """A parallel_map that computes inline but 'loses' one task."""

        def fake(fn, tasks, jobs=1, on_result=None, retries=0, on_failure=None):
            results = []
            for i, task in enumerate(tasks):
                if i == lost_task_index:
                    on_failure(i, RuntimeError("worker died"))
                    results.append(None)
                    continue
                r = fn(task)
                if on_result is not None:
                    on_result(i, r)
                results.append(r)
            return results

        return fake

    def test_partial_result_merges_survivors(self, loop_injector, monkeypatch, tmp_path):
        full = loop_injector.run_campaign(trials=75, seed=5)
        monkeypatch.setattr(
            injector_mod, "parallel_map", self._lossy_parallel_map(1)
        )
        # Pin one shard per pool task so "task 1 lost" means "shard 1 lost"
        # regardless of the cost-calibrated task grouping.
        monkeypatch.setattr(injector_mod, "MIN_TASK_SECONDS", 0.0)
        path = tmp_path / "c.jsonl"
        res = loop_injector.run_campaign(
            trials=75, seed=5, jobs=2, checkpoint=path
        )
        assert res.partial
        assert res.lost_trials == 25
        assert res.trials == 50
        assert sum(res.counts.values()) == 50
        assert sum(res.fraction(o) for o in res.counts) == pytest.approx(1.0)
        # the lost shard never reached the checkpoint...
        recorded = {json.loads(ln)["shard"]
                    for ln in path.read_text().splitlines()[1:]}
        assert recorded == {0, 2}
        # ...so a later resume retries exactly it and completes the campaign
        monkeypatch.setattr(injector_mod, "parallel_map", parallel_map)
        healed = loop_injector.run_campaign(
            trials=75, seed=5, checkpoint=path, resume=True
        )
        assert not healed.partial
        assert healed.counts == full.counts

    def test_empty_campaign_coverage_is_zero(self, loop_injector):
        """Regression: trials=0 used to report coverage 1.0."""
        res = loop_injector.run_campaign(trials=0, seed=1)
        assert res.trials == 0
        assert res.coverage == 0.0
        assert CampaignResult(trials=0).coverage == 0.0

    def test_all_shards_lost_yields_empty_partial(self, loop_injector, monkeypatch):
        monkeypatch.setattr(injector_mod, "parallel_map", _lose_all)
        res = loop_injector.run_campaign(trials=50, seed=5, jobs=2)
        assert res.partial
        assert res.trials == 0
        assert res.lost_trials == 50
        assert res.coverage == 0.0  # the empty-campaign fix, end to end

    def test_lost_shard_leaves_trace_instant(self, loop_injector, monkeypatch):
        from repro import obs

        monkeypatch.setattr(injector_mod, "parallel_map", _lose_all)
        tel = obs.configure(keep_events=True)
        try:
            loop_injector.run_campaign(trials=50, seed=5, jobs=2)
        finally:
            obs.reset()
        lost = [
            e for e in tel.tracer.events
            if e["ev"] == "I" and e["name"] == "shard-lost"
        ]
        assert sorted(e["args"]["shard"] for e in lost) == [0, 1]
        assert all(e["cat"] == "campaign" for e in lost)
        assert all(e["args"]["error"] == "worker died" for e in lost)


class TestRetryBackoff:
    def test_backoff_sleeps_are_exact_exponential(self, monkeypatch):
        import repro.parallel as parallel_mod

        naps = []
        monkeypatch.setattr(parallel_mod.time, "sleep", naps.append)
        out = parallel_map(
            _raise_on_three, [1, 2, 3, 4], jobs=2, retries=2,
            on_failure=lambda i, exc: None,
        )
        assert out == [2, 4, None, 8]
        # one nap per retry round, doubling
        assert naps == [RETRY_BACKOFF, 2 * RETRY_BACKOFF]


class TestChaosPoints:
    """A pool worker killed mid-campaign costs retries, never results."""

    def test_worker_shard_kill_once_retries_bit_identical(
        self, loop_injector, tmp_path, monkeypatch
    ):
        """A worker that dies before a shard retries to exact counts."""
        full = loop_injector.run_campaign(trials=50, seed=9)
        flag = tmp_path / "worker-killed"
        monkeypatch.setattr(
            injector_mod, "_campaign_task_worker",
            partial(_exit_once_then_run_task, str(flag)),
        )
        res = loop_injector.run_campaign(trials=50, seed=9, jobs=2)
        assert flag.exists(), "a worker must actually have been killed"
        assert res.counts == full.counts
        assert not res.partial


class TestStepWatchdogInPool:
    """Pool tasks end through the instruction watchdog, not a wall clock."""

    def test_timeouts_match_serial_in_pool_mode(self):
        cp = compile_program(
            get_workload("mcf").program,
            Scheme.CASTED,
            MachineConfig(issue_width=2, inter_cluster_delay=2),
        )
        injector = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
            fault_model="cf", backend="compiled",
        )
        serial = injector.run_campaign(trials=75, seed=1, jobs=1)
        pooled = injector.run_campaign(trials=75, seed=1, jobs=2)
        assert serial.counts.get(Outcome.TIMEOUT, 0) > 0
        assert pooled.counts == serial.counts
        assert not pooled.partial
