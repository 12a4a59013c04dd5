"""Job execution: runner thread, watchdog, handlers, graceful degradation.

The runner executes one job at a time off the queue (the parallelism lives
*inside* a job — campaign shards fan out over the worker pool), walking
each through the durable state machine and persisting every transition.
Execution is separated from reporting in the MEEK sense: handlers only
compute and return a result dict; all state, persistence, and event-log
bookkeeping happens here, so a handler failure can never wedge the
service.

Failure modes and what happens:

* **worker crash** — ``parallel_map`` retries the shard with jittered
  backoff; an exhausted shard degrades the campaign to a ``partial``
  result, which lands as ``done`` + ``incomplete`` (never ``failed``);
* **hung worker** — the per-shard deadline (``shard_timeout``) kills the
  pool and retries on the same budget (see
  :func:`repro.parallel.parallel_map`);
* **job over deadline** — the watchdog requests cooperative cancellation;
  the completed shards are merged from the job's checkpoint into a
  ``done`` + ``incomplete`` partial result;
* **client cancel** — same cooperative path, terminal state ``cancelled``
  (completed shards stay checkpointed; the partial counts ride along);
* **handler exception** — terminal state ``failed`` with the error string;
* **daemon death** — nothing to do here: every completed shard is already
  in the checkpoint and the job record says ``running``, so the next
  daemon's :meth:`~repro.serve.store.JobStore.recover` requeues it and the
  re-run resumes bit-identically.

Cancellation is *cooperative*: the cancel flag is observed at campaign
heartbeats (shard granularity under a pool), which is exactly the place
where all completed work is already durable — "checkpoint before exiting"
costs nothing because the checkpoint is written shard-by-shard.
"""

from __future__ import annotations

import contextlib
import json
import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, ContextManager

from repro.chaos import chaos_point
from repro.machine.config import MachineConfig
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry, get_telemetry, set_telemetry
from repro.parallel import WorkerPool
from repro.pipeline import Scheme, compile_program
from repro.serve.queue import JobQueue
from repro.serve.store import Job, JobState, JobStore

logger = logging.getLogger(__name__)


class JobInterrupted(Exception):
    """Cooperative interruption of a running job (cancel/deadline/shutdown)."""

    def __init__(self, reason: str, requeue: bool = False) -> None:
        super().__init__(reason)
        self.reason = reason
        self.requeue = requeue


@dataclass
class RunContext:
    """What a handler may use: resources plus the cancellation probe."""

    store: JobStore
    jobs: int  #: worker processes available to this job
    shard_timeout: float | None  #: per-shard watchdog deadline (seconds)
    check: Callable[[], None]  #: raises JobInterrupted when flagged


def _machine_for(spec: dict) -> MachineConfig:
    return MachineConfig(
        issue_width=int(spec.get("issue", 2)),
        inter_cluster_delay=int(spec.get("delay", 1)),
    )


def _compile_spec(spec: dict):
    from repro.cli import _load_program

    program = _load_program(spec["program"])
    scheme = Scheme(spec.get("scheme", "casted"))
    return compile_program(program, scheme, _machine_for(spec)), scheme


# -- handlers ------------------------------------------------------------------
def _handle_inject(job: Job, ctx: RunContext) -> dict:
    """Fault-injection campaign; always checkpointed, always resumable."""
    from repro.faults.injector import FaultInjector
    from repro.sim.executor import VLIWExecutor

    spec = job.spec
    trials = int(spec.get("trials", 200))
    seed = int(spec.get("seed", 2013))
    compiled, scheme = _compile_spec(spec)
    ctx.check()
    reference = None
    if scheme is not Scheme.NOED:
        from repro.cli import _load_program

        noed = compile_program(
            _load_program(spec["program"]), Scheme.NOED, _machine_for(spec)
        )
        reference = VLIWExecutor(noed).run().dyn_instructions
    injector = FaultInjector(
        compiled.program,
        mem_words=compiled.mem_words,
        frame_words=compiled.frame_words,
        fault_model=spec.get("fault_model", "reg-bit"),
        backend=spec.get("backend"),
    )
    ctx.check()

    def on_progress(_event) -> None:
        chaos_point("daemon.heartbeat")
        ctx.check()

    res = injector.run_campaign(
        trials,
        seed,
        reference_dyn=reference,
        progress=on_progress,
        heartbeat=int(spec.get("heartbeat", 25)),
        jobs=ctx.jobs,
        checkpoint=ctx.store.checkpoint_path(job.id),
        resume=True,  # a fresh job simply finds no prior shards
        shard_timeout=ctx.shard_timeout,
    )
    result = {
        "kind": "inject",
        "trials": res.trials,
        "requested_trials": trials,
        "counts": {o.value: n for o, n in sorted(
            res.counts.items(), key=lambda kv: kv[0].value
        )},
        "faults": res.total_faults_injected,
        "coverage": round(res.coverage, 6),
        "golden_dyn": res.golden_dyn,
        "fault_model": res.fault_model,
        "incomplete": res.partial,
        "lost_trials": res.lost_trials,
    }
    if res.detections_timed:
        result["mean_detection_latency"] = round(res.mean_detection_latency, 2)
    return result


def _handle_compile(job: Job, ctx: RunContext) -> dict:
    """Compile-and-report: the cheap job kind (also the smoke-test one)."""
    compiled, scheme = _compile_spec(job.spec)
    ctx.check()
    stats = compiled.stats
    return {
        "kind": "compile",
        "scheme": scheme.value,
        "instructions": stats.n_instructions,
        "code_growth": round(stats.code_growth, 4),
        "spilled": stats.n_spilled,
        "static_cycles": stats.static_cycles,
        "incomplete": False,
    }


def _handle_sweep(job: Job, ctx: RunContext) -> dict:
    """Slowdown grid; lost grid points degrade to ``null`` + incomplete."""
    from repro.cli import _sweep_cell_worker
    from repro.parallel import parallel_map

    spec = job.spec
    issues = [int(v) for v in spec.get("issues", [1, 2, 4])]
    delays = [int(v) for v in spec.get("delays", [1, 2, 4])]
    grid = [(iw, d) for iw in issues for d in delays]
    tasks = [(spec["program"], iw, d, spec.get("backend")) for iw, d in grid]
    lost: list[int] = []

    def on_result(_i, _r) -> None:
        ctx.check()

    cells = parallel_map(
        _sweep_cell_worker,
        tasks,
        jobs=ctx.jobs,
        on_result=on_result,
        retries=2,
        retry_backoff=0.5,
        timeout=ctx.shard_timeout,
        on_failure=lambda i, exc: lost.append(i),
    )
    ctx.check()
    points = [
        {"issue": iw, "delay": d, "cycles": cells[i]}
        for i, (iw, d) in enumerate(grid)
    ]
    return {
        "kind": "sweep",
        "points": points,
        "incomplete": bool(lost),
        "lost_points": len(lost),
    }


HANDLERS: dict[str, Callable[[Job, RunContext], dict]] = {
    "inject": _handle_inject,
    "compile": _handle_compile,
    "sweep": _handle_sweep,
}


def checkpoint_partial(path) -> dict | None:
    """Merge a campaign checkpoint's completed shards into a partial result.

    Used when a job is stopped before ``run_campaign`` could return (job
    deadline, client cancel): the durable shard records *are* the result
    so far.  Tolerates a torn trailing line the same way resume does.
    """
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    counts: dict[str, int] = {}
    trials = faults = 0
    for line in lines[1:]:  # line 0 is the campaign header
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            shard_counts = {str(k): int(v) for k, v in rec["counts"].items()}
            shard_trials = int(rec["trials"])
            shard_faults = int(rec["faults"])
        except (ValueError, KeyError, TypeError):
            break  # torn tail — everything before it is intact
        for k, v in shard_counts.items():
            counts[k] = counts.get(k, 0) + v
        trials += shard_trials
        faults += shard_faults
    if not trials:
        return None
    return {
        "kind": "inject",
        "trials": trials,
        "counts": dict(sorted(counts.items())),
        "faults": faults,
        "incomplete": True,
    }


class JobRunner(threading.Thread):
    """Pops jobs off the queue and executes them, one at a time."""

    def __init__(
        self,
        store: JobStore,
        queue: JobQueue,
        jobs: int = 1,
        shard_timeout: float | None = None,
        default_deadline_s: float | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(name="serve-runner", daemon=True)
        self.store = store
        self.queue = queue
        self.jobs = jobs
        self.shard_timeout = shard_timeout
        self.default_deadline_s = default_deadline_s
        self.metrics = metrics
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        #: (job, monotonic deadline or None) while a job is executing.
        self._current: tuple[Job, float | None] | None = None
        #: job_id -> (reason, requeue) cancellation requests.
        self._cancel: dict[str, tuple[str, bool]] = {}
        #: One persistent worker pool for the daemon's whole lifetime —
        #: spawned lazily by the first parallel job, reused by every later
        #: one (a serve daemon is the textbook case for pool reuse: many
        #: jobs, often over the same few workloads, so worker-resident
        #: caches stay hot across jobs too).
        self._pool: WorkerPool | None = None

    # -- control surface (called from HTTP / watchdog / shutdown threads) ------
    def current_job(self) -> tuple[Job, float | None] | None:
        with self._lock:
            return self._current

    def request_cancel(
        self, job_id: str, reason: str = "cancelled", requeue: bool = False
    ) -> bool:
        """Flag ``job_id`` for cooperative interruption; True if it is current."""
        with self._lock:
            self._cancel[job_id] = (reason, requeue)
            return (
                self._current is not None and self._current[0].id == job_id
            )

    def stop(self, requeue_current: bool = True) -> None:
        """Stop after the current job yields (graceful-shutdown half)."""
        self._stopping.set()
        with self._lock:
            current = self._current
        if requeue_current and current is not None:
            self.request_cancel(
                current[0].id, reason="daemon-shutdown", requeue=True
            )

    def _count(self, name: str, n: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n)

    def _pool_context(self) -> ContextManager:
        """The ambient-pool scope a job's handler executes under.

        Serial runners (``jobs <= 1``) never create a pool.  Parallel
        runners lazily construct one :class:`WorkerPool` and *activate* it
        around each job — workers spawn on the first map that needs them
        and survive until :meth:`close_pool` at daemon shutdown.
        """
        if self.jobs <= 1:
            return contextlib.nullcontext()
        if self._pool is None:
            self._pool = WorkerPool(self.jobs)
        return self._pool.activate()

    def close_pool(self) -> None:
        """Shut the persistent pool down (daemon shutdown path)."""
        if self._pool is not None:
            self._pool.shutdown()

    def _check_for(self, job: Job) -> Callable[[], None]:
        def check() -> None:
            with self._lock:
                flagged = self._cancel.get(job.id)
            if flagged is not None:
                raise JobInterrupted(flagged[0], requeue=flagged[1])

        return check

    # -- main loop -------------------------------------------------------------
    def run(self) -> None:  # pragma: no cover - exercised via daemon tests
        while not self._stopping.is_set():
            job = self.queue.pop(timeout=0.25)
            if job is not None:
                self.execute(job)
        # Drain nothing further: queued jobs stay durable for the next run.
        self.close_pool()

    def execute(self, job: Job) -> None:
        """Walk one job through the state machine, persisting every step."""
        base_tel = get_telemetry()
        job_events = EventLog(path=self.store.events_path(job.id))
        job_tel = Telemetry(metrics=self.metrics, events=job_events)
        deadline_s = job.spec.get("deadline_s", self.default_deadline_s)
        deadline = (
            time.monotonic() + float(deadline_s)
            if deadline_s is not None
            else None
        )
        t0 = time.monotonic()
        job.transition(JobState.RUNNING)
        job.attempts += 1
        job.started_at = time.time()
        self.store.save(job)
        with self._lock:
            self._current = (job, deadline)
        set_telemetry(job_tel)
        job_tel.event(
            "job-start", job=job.id, job_kind=job.kind, client=job.client,
            attempt=job.attempts, restarts=job.restarts, jobs=self.jobs,
        )
        chaos_point("daemon.job-start")
        try:
            ctx = RunContext(
                store=self.store,
                jobs=self.jobs,
                shard_timeout=self.shard_timeout,
                check=self._check_for(job),
            )
            with self._pool_context():
                result = HANDLERS[job.kind](job, ctx)
        except JobInterrupted as exc:
            self._finish_interrupted(job, job_tel, exc)
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            logger.exception("job %s failed", job.id)
            job.transition(JobState.CHECKPOINTING)
            self.store.save(job)
            job.error = f"{type(exc).__name__}: {exc}"
            job.finished_at = time.time()
            job.transition(JobState.FAILED)
            self.store.save(job)
            job_tel.event("job-failed", job=job.id, error=job.error)
            self._count("serve.jobs_failed")
        else:
            job.transition(JobState.CHECKPOINTING)
            self.store.save(job)
            job.result = result
            job.incomplete = bool(result.get("incomplete"))
            job.finished_at = time.time()
            job.transition(JobState.DONE)
            self.store.save(job)
            job_tel.event(
                "job-done", job=job.id, incomplete=job.incomplete,
                wall_s=round(time.monotonic() - t0, 3),
            )
            self._count("serve.jobs_done")
            if job.incomplete:
                self._count("serve.jobs_degraded")
        finally:
            with self._lock:
                self._current = None
                self._cancel.pop(job.id, None)
            set_telemetry(base_tel)
            job_events.close()
            self.queue.note_duration(time.monotonic() - t0)

    def _finish_interrupted(
        self, job: Job, tel: Telemetry, exc: JobInterrupted
    ) -> None:
        """Route a cooperative interruption to its terminal (or requeued) state."""
        job.transition(JobState.CHECKPOINTING)
        job.note = exc.reason
        self.store.save(job)
        if exc.requeue:
            # Graceful shutdown: back to the durable queue, untouched
            # checkpoint, next daemon resumes it.
            job.transition(JobState.QUEUED)
            self.store.save(job)
            tel.event("job-requeued", job=job.id, reason=exc.reason)
            self._count("serve.jobs_requeued")
            return
        partial = None
        if job.kind == "inject":
            partial = checkpoint_partial(self.store.checkpoint_path(job.id))
        job.result = partial
        job.finished_at = time.time()
        if exc.reason == "deadline":
            # Degrade, don't error: the completed shards are a usable
            # partial result and the incomplete marker is the contract.
            job.incomplete = True
            job.transition(JobState.DONE)
            tel.event("job-deadline", job=job.id)
            self._count("serve.jobs_deadline")
        else:
            job.incomplete = partial is not None
            job.transition(JobState.CANCELLED)
            tel.event("job-cancelled", job=job.id, reason=exc.reason)
            self._count("serve.jobs_cancelled")
        self.store.save(job)


class Watchdog(threading.Thread):
    """Polls the runner's current job against its deadline."""

    def __init__(self, runner: JobRunner, poll_s: float = 0.2) -> None:
        super().__init__(name="serve-watchdog", daemon=True)
        self.runner = runner
        self.poll_s = poll_s
        self._stopping = threading.Event()
        self._flagged: str | None = None

    def stop(self) -> None:
        self._stopping.set()

    def run(self) -> None:
        while not self._stopping.wait(self.poll_s):
            current = self.runner.current_job()
            if current is None:
                self._flagged = None
                continue
            job, deadline = current
            if deadline is None or job.id == self._flagged:
                continue
            if time.monotonic() >= deadline:
                logger.warning(
                    "job %s exceeded its deadline; requesting cooperative "
                    "cancellation (degrades to a partial result)", job.id,
                )
                self._flagged = job.id
                self.runner.request_cancel(job.id, reason="deadline")
