"""Persistent WorkerPool engine: reuse, determinism, crash survival.

Campaigns and sweeps share one long-lived set of workers instead of
forking a fresh pool per call.  These tests pin down the contract that
makes that safe:

* **bit-identity** — a campaign or sweep run on a reused pool produces
  exactly the results of a fresh-pool run and of a serial run (the shard
  plan and RNG streams depend only on the trial count, never on pool
  lifetime or task grouping);
* **spawn-once accounting** — one campaign + one sweep under one pool
  spawn workers exactly once (``pool.spawns``/``pool.reuses``);
* **golden runs without transport** — a worker forked after the injector
  was built inherits its golden run; one forked before executes it, with
  the same results;
* **worker-resident cache** — a second campaign over the same injector
  hits the workers' content-addressed cache (``pool.worker_cache.hits``)
  instead of rebuilding golden state;
* **crash survival** — a worker dying mid-map breaks the executor, not
  the pool object: the map retries on a respawned executor and later maps
  keep working (``pool.respawns``);
* **fail fast, then stop** — a map that re-raises a task's error cancels
  its unfinished tasks instead of leaving them to run ahead of the next
  map.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import obs, store
from repro import parallel as parallel_mod
from repro.eval.experiment import Evaluator
from repro.faults.injector import FaultInjector
from repro.machine.config import MachineConfig
from repro.parallel import WorkerPool, current_pool, ensure_pool
from repro.pipeline import Scheme, compile_program
from repro.workloads import get_workload

TRIALS = 100  # 4 shards of SHARD_TRIALS=25: both dispatch waves exercised
SEED = 2013


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.reset()
    yield
    obs.reset()


def _injector() -> FaultInjector:
    cp = compile_program(
        get_workload("mcf").program,
        Scheme.CASTED,
        MachineConfig(issue_width=2, inter_cluster_delay=1),
    )
    return FaultInjector(
        cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
        backend="compiled",
    )


def _signature(res):
    return (
        res.counts,
        res.total_faults_injected,
        res.detection_latency_sum,
        res.detections_timed,
    )


# -- worker functions (module-level for picklability) -------------------------


def _crash_once(task):
    flag, value = task
    try:
        fd = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return value * 2
    os.close(fd)
    os._exit(42)


def _mark_then_work(task):
    """Leave a marker file when the task starts; task 0 fails instead.

    Task 0 fails after every worker has started a task, and well before
    any other task finishes.
    """
    marker_dir, i = task
    if i == 0:
        time.sleep(0.2)
        raise ValueError("first task fails")
    open(os.path.join(marker_dir, str(i)), "w").close()
    time.sleep(0.6)
    return i


def _double(x):
    return x * 2


class TestPoolDeterminism:
    def test_campaign_bit_identical_reused_vs_fresh_vs_serial(self):
        inj = _injector()
        serial = inj.run_campaign(TRIALS, SEED, jobs=1)
        fresh = inj.run_campaign(TRIALS, SEED, jobs=2)
        with WorkerPool(2):
            reused_a = inj.run_campaign(TRIALS, SEED, jobs=2)
            reused_b = inj.run_campaign(TRIALS, SEED, jobs=2)
        assert _signature(serial) == _signature(fresh)
        assert _signature(serial) == _signature(reused_a)
        assert _signature(serial) == _signature(reused_b)

    def test_sweep_bit_identical_reused_vs_serial(self, tmp_path, monkeypatch):
        points = [("mcf", Scheme.CASTED, 2, 1), ("mcf", Scheme.SCED, 2, 1)]
        d1, d2 = tmp_path / "serial", tmp_path / "pooled"

        def run(jobs: int, cache_dir) -> dict[str, str]:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
            Evaluator(seed=SEED, cache=True).sweep(points, trials=25, jobs=jobs)
            return {p.name: p.read_text() for p in cache_dir.glob("*.json")}

        serial_files = run(1, d1)
        with WorkerPool(2):
            pooled_files = run(2, d2)
        assert serial_files
        assert serial_files == pooled_files


class TestWorkerGoldenRuns:
    @pytest.mark.parametrize("pool_first", [True, False])
    def test_workers_inherit_or_execute_the_golden_run(self, pool_first):
        """Workers forked before the injector existed execute the golden run
        themselves; workers forked after it inherit the parent's.  Either
        way the campaign matches the serial one."""
        store._held.clear()
        store._pinned.clear()
        tel = obs.configure(keep_events=True)
        with WorkerPool(2):
            if pool_first:
                parallel_mod.parallel_map(_double, [1, 2], jobs=2)
            inj = _injector()
            pooled = inj.run_campaign(TRIALS, SEED, jobs=2)
        obs.reset()
        serial = inj.run_campaign(TRIALS, SEED, jobs=1)
        assert _signature(pooled) == _signature(serial)
        adopted = [
            e["args"]["adopted"]
            for e in tel.tracer.events
            if "pid" in e and e["name"] == "injector:profile"
        ]
        assert adopted
        assert set(adopted) == {not pool_first}


class TestPoolReuse:
    def test_spawn_once_across_campaign_and_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        inj = _injector()
        with WorkerPool(2) as pool:
            inj.run_campaign(TRIALS, SEED, jobs=2)
            Evaluator(seed=SEED, cache=True).sweep(
                [("mcf", Scheme.CASTED, 2, 1)], trials=25, jobs=2
            )
            assert pool.spawns == 1
            assert pool.reuses >= 1
            assert pool.respawns == 0

    def test_worker_cache_hits_on_second_campaign(self):
        tel = obs.configure()
        inj = _injector()
        with WorkerPool(2):
            inj.run_campaign(TRIALS, SEED, jobs=2)
            inj.run_campaign(TRIALS, SEED, jobs=2)
        obs.reset()
        counters = tel.metrics.snapshot()["counters"]
        # Every worker builds the injector at most once (misses), and the
        # second campaign's tasks find it resident (hits).
        assert counters.get("pool.worker_cache.misses", 0) >= 1
        assert counters.get("pool.worker_cache.misses", 0) <= 2
        assert counters.get("pool.worker_cache.hits", 0) >= 1
        assert counters.get("pool.spawns", 0) == 1

    def test_ensure_pool_borrows_ambient(self):
        with WorkerPool(2) as pool:
            with ensure_pool(2) as borrowed:
                assert borrowed is pool
            assert current_pool() is pool
        assert current_pool() is None

    def test_ensure_pool_serial_yields_none(self):
        with ensure_pool(1) as pool:
            assert pool is None


class TestPoolCrashSurvival:
    def test_map_survives_mid_map_worker_crash(self, tmp_path):
        flag = str(tmp_path / "crashed-once")
        tasks = [(flag, v) for v in range(6)]
        with WorkerPool(2) as pool:
            results = pool.map(_crash_once, tasks, retries=1)
            assert results == [v * 2 for v in range(6)]
            assert pool.respawns == 1
            assert pool.spawns == 2
            # The pool object survives the dead executor: next map works.
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
            assert pool.spawns == 2  # respawned executor was reused

    def test_fail_fast_map_cancels_unfinished_tasks(self, tmp_path):
        jobs = 2
        tasks = [(str(tmp_path), i) for i in range(12)]
        with WorkerPool(jobs) as pool:
            with pytest.raises(ValueError, match="first task fails"):
                pool.map(_mark_then_work, tasks)
            # Queued behind whatever the failed map left running.
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
        ran = len(os.listdir(tmp_path))
        # Besides the failure, only the other task in flight (jobs - 1),
        # the one the failed task's worker picked up next and the
        # executor's call queue (jobs + 1) escape the cancellation.
        assert ran <= 2 * jobs + 1
