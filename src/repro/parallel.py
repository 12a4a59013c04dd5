"""Process-pool plumbing for the parallel evaluation engine.

The evaluation workloads — Monte-Carlo fault campaigns and (workload,
scheme, issue-width, delay) sweep grids — are embarrassingly parallel, so
this module provides the pieces everything else builds on:

* :func:`resolve_jobs` — turn a user-facing ``--jobs`` value (``None``,
  ``0`` = all cores, ``N``) into a concrete worker count, honouring the
  ``REPRO_JOBS`` environment variable as the default;
* :func:`plan_shards` — split a trial budget into fixed-size shards.  The
  decomposition depends only on the trial count, **never** on the worker
  count, which is what makes campaign results bit-identical for a given
  seed regardless of ``--jobs`` (each shard owns an RNG stream derived
  from ``(seed, shard_index)``);
* :class:`WorkerPool` — a persistent, lazily spawned process pool that
  stays alive across maps.  Spawning workers and re-importing the world
  in each of them is pure fixed overhead; a campaign's two dispatch waves,
  a sweep following a campaign, or every map under one CLI command all
  reuse one pool (``pool.reuses`` counts how often that pays).
  Crash/hang semantics are preserved: a broken pool is discarded and
  respawned for the retry round, and the per-task ``timeout`` watchdog
  still SIGKILLs hung workers;
* :func:`parallel_map` — an order-preserving ``map`` with an inline fast
  path, per-result completion callbacks, retries with exponential backoff and
  the hung-worker watchdog.  Inside a ``with WorkerPool(...)`` /
  :func:`ensure_pool` scope it transparently routes onto the ambient pool
  instead of spawning an ephemeral one;
* :class:`PickledOnce` — wraps a payload shared by many tasks so the
  parent serializes the object graph once and every task ships the same
  immutable bytes.

Workers persist across tasks *and maps*, so what a task builds in the
worker's artifact store (:mod:`repro.store`) is paid once per worker, not
once per shard (``pool.worker_cache.{hits,misses}``).

**Worker telemetry.**  When the parent has live telemetry, workers record
into an in-memory *capture* telemetry: spans and metric updates accumulate
locally (one batched payload per task, never a per-trial flush) and travel
back piggybacked on the task result.  The parent rebases the spans onto
its own timeline tagged with the worker's pid — Chrome export then shows
one lane per worker — and folds the metric deltas into its registry, so
worker-merged counters are bit-identical to a serial run's.  Because a
persistent pool can outlive the telemetry state it was spawned under, the
capture mode is re-asserted per task (:func:`_pool_call`), not only at
bootstrap.  Mapped functions never see the payload; unwrapping happens
here.

Workers are separate processes: the mapped function and its tasks must be
module-level / picklable, and results travel back by value.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.obs.telemetry import absorb_worker_snapshot, get_telemetry

logger = logging.getLogger(__name__)

#: Fixed trials-per-shard for fault campaigns.  Part of the determinism
#: contract: changing it changes which RNG stream each trial draws from,
#: and so the outcome of every campaign.
SHARD_TRIALS = 25


def _cgroup_cpu_quota() -> int | None:
    """CPU limit imposed by the enclosing cgroup, rounded up, or ``None``.

    Containers routinely advertise every host core through ``os.cpu_count``
    while the scheduler caps them far lower; honouring the quota is what
    makes ``--jobs 0`` and the bench harness's ``effective_cores`` honest
    inside CI runners and dev containers.
    """
    try:
        # cgroup v2: "max 100000" or "<quota_us> <period_us>".
        raw = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if raw and raw[0] != "max":
            quota, period = int(raw[0]), int(raw[1]) if len(raw) > 1 else 100_000
            if quota > 0 and period > 0:
                return max(1, -(-quota // period))
    except (OSError, ValueError, IndexError):
        pass
    try:
        # cgroup v1.
        quota = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
        period = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
        if quota > 0 and period > 0:
            return max(1, -(-quota // period))
    except (OSError, ValueError):
        pass
    return None


def effective_cores() -> int:
    """The number of cores this process can actually use.

    The minimum of the scheduler affinity mask, the cgroup CPU quota and
    ``os.cpu_count()`` — each source alone over-reports in some environment
    (taskset/affinity pinning, containers, plain multi-core boxes).
    """
    candidates = [os.cpu_count() or 1]
    try:
        candidates.append(len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        pass
    quota = _cgroup_cpu_quota()
    if quota is not None:
        candidates.append(quota)
    return max(1, min(candidates))


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a ``--jobs`` value into a concrete worker count (>= 1).

    ``None`` falls back to the ``REPRO_JOBS`` environment variable (itself
    defaulting to 1 — parallelism is always opt-in); ``0`` means "all
    cores"; negative values are rejected.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = effective_cores()
    return max(1, jobs)


def plan_shards(total: int, shard_size: int = SHARD_TRIALS) -> list[int]:
    """Split ``total`` trials into shard sizes: ``[shard_size, ..., rest]``.

    The plan is a pure function of ``total`` (and the fixed shard size) so
    that serial and parallel executions decompose identically.
    """
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    full, rest = divmod(total, shard_size)
    plan = [shard_size] * full
    if rest:
        plan.append(rest)
    return plan


def plan_task_groups(
    n_items: int,
    est_item_seconds: float,
    jobs: int,
    min_task_seconds: float = 0.25,
) -> list[range]:
    """Group ``n_items`` work items into contiguous pool-task ranges.

    Each group carries at least ``min_task_seconds`` of estimated work
    (``est_item_seconds`` per item), so that cheap items — campaign
    shards take only a few milliseconds — stop paying one IPC round trip
    each.  Grouping is capped at ``ceil(n_items / jobs)`` items per task so
    every worker still gets work.  Like :func:`plan_shards`, the grouping
    only decides *dispatch*: items keep their own identity (RNG stream,
    checkpoint record), so results are bit-identical for any grouping.
    """
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    if n_items == 0:
        return []
    per = max(1, -(-min_task_seconds // max(est_item_seconds, 1e-9)))
    per = int(min(per, -(-n_items // max(jobs, 1))))
    return [range(i, min(i + per, n_items)) for i in range(0, n_items, per)]


def _pool_bootstrap(capture: bool) -> None:
    """Run in every worker before its first task.

    Telemetry objects forked from the parent share its trace-file handle;
    writing to it from several processes would interleave JSON lines, so
    workers never inherit the parent's sinks.  With ``capture`` on (the
    parent has live telemetry) the worker instead records into an
    in-memory capture telemetry; its spans ride back with the worker's
    first task result.  A persistent pool can outlive this initial
    choice, so :func:`_pool_call` re-asserts the capture mode at every
    task.
    """
    from repro import obs

    obs.reset()
    if capture:
        obs.configure_worker_capture()


def _noop() -> None:
    """Warm-up task: forces worker spawn so ``pool.spawn_s`` is honest."""
    return None


class _Captured:
    """A task result plus the worker-telemetry payload it carries home."""

    __slots__ = ("result", "snapshot")

    def __init__(self, result: Any, snapshot: dict | None) -> None:
        self.result = result
        self.snapshot = snapshot

    def __getstate__(self):
        return (self.result, self.snapshot)

    def __setstate__(self, state) -> None:
        self.result, self.snapshot = state


def _captured_call(fn: Callable[[Any], Any], task: Any) -> _Captured:
    """Run one task in a worker, attaching the drained telemetry snapshot.

    A failing task discards its partial telemetry instead of letting it
    leak into the next task's payload — retried work must not double-count
    metrics.
    """
    from repro.obs.telemetry import drain_worker_snapshot

    try:
        result = fn(task)
    except BaseException:
        drain_worker_snapshot()
        raise
    return _Captured(result, drain_worker_snapshot())


def _pool_call(fn: Callable[[Any], Any], capture: bool, task: Any) -> Any:
    """Worker-side task wrapper for persistent pools.

    Re-asserts the telemetry capture mode the *current* map decided (a
    long-lived worker may have been spawned while the parent's telemetry
    was in the other state), then runs the task, captured or plain.
    """
    from repro.obs.telemetry import ensure_worker_capture

    ensure_worker_capture(capture)
    if not capture:
        return fn(task)
    return _captured_call(fn, task)


def _kill_pool_workers(pool: ProcessPoolExecutor) -> int:
    """SIGKILL every live worker of ``pool`` (hung workers ignore SIGTERM).

    Reaches into the executor's ``_processes`` map — stable across every
    CPython we support — because the stdlib offers no public way to kill a
    worker that is stuck inside a task.  Returns the number of processes
    signalled; the executor observes the deaths as a broken pool.
    """
    killed = 0
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
            killed += 1
        except (OSError, AttributeError):  # pragma: no cover - already gone
            pass
    return killed


class PickledOnce:
    """A payload serialized once in the parent, decoded on demand in workers.

    ``parallel_map`` pickles every task independently, so a large object
    graph shared by N tasks would be walked N times.  Wrapping it in
    ``PickledOnce`` pays the traversal once up front; each task then ships
    the same immutable bytes (a memcpy, not a graph walk), and the worker
    decodes only when it actually needs the value — a worker whose
    artifact store already holds what the payload builds never does.
    """

    __slots__ = ("_blob",)

    def __init__(self, value: Any) -> None:
        self._blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    def load(self) -> Any:
        return pickle.loads(self._blob)

    def __getstate__(self) -> bytes:
        return self._blob

    def __setstate__(self, blob: bytes) -> None:
        self._blob = blob


# -- the persistent pool -------------------------------------------------------


class WorkerPool:
    """A long-lived process pool reused across maps.

    Workers are spawned lazily on the first :meth:`map` (``pool.spawn_s``
    times the spawn, including one warm-up round trip) and stay alive until
    :meth:`shutdown` — later maps reuse them (``pool.reuses``), which is
    what lets worker-resident state (the workers' artifact stores,
    :mod:`repro.store`) amortize across a whole campaign + sweep sequence.
    A broken or watchdog-killed pool is discarded and respawned for the
    retry round (``pool.respawns``); the pool object itself survives any
    number of worker crashes.

    Use as a context manager (``with WorkerPool(4):``) to install it as the
    thread's *ambient* pool: every :func:`parallel_map` in the block routes
    onto it.  Not safe for concurrent maps from multiple threads.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._pool: ProcessPoolExecutor | None = None
        #: Executor spawns (1 for a pool that never lost a worker).
        self.spawns = 0
        #: Maps served by an already-live executor.
        self.reuses = 0
        #: Respawns forced by a broken / watchdog-killed pool.
        self.respawns = 0

    # -- lifecycle -------------------------------------------------------------
    def _ensure(self, capture: bool) -> ProcessPoolExecutor:
        """The live executor, spawning (and timing the spawn) if needed."""
        if self._pool is not None:
            return self._pool
        tel = get_telemetry()
        if tel.tracer is not None:
            # Workers fork with a copy of the parent's trace-file buffer,
            # and the bootstrap's reset closes (so flushes) that copy:
            # anything still buffered here would land in the file twice.
            tel.tracer.flush()
        t0 = time.perf_counter()
        self._pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=partial(_pool_bootstrap, capture),
        )
        # One warm-up round trip: ProcessPoolExecutor forks its workers on
        # first submit, so without this the spawn cost would be silently
        # folded into the first real task's latency.
        self._pool.submit(_noop).result()
        spawn_s = time.perf_counter() - t0
        if self.spawns:
            self.respawns += 1
            tel.count("pool.respawns")
        self.spawns += 1
        tel.count("pool.spawns")
        tel.observe("pool.spawn_s", spawn_s)
        logger.debug(
            "worker pool spawned: %d worker(s) in %.3fs", self.jobs, spawn_s
        )
        return self._pool

    def _discard(self) -> None:
        """Drop the (broken) executor; the next round/map respawns."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def shutdown(self) -> None:
        """Terminate the workers.  The pool can spawn again on a later map."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- ambient installation ----------------------------------------------------
    def __enter__(self) -> "WorkerPool":
        _ambient_stack().append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        stack = _ambient_stack()
        if self in stack:
            stack.remove(self)
        self.shutdown()

    # -- mapping -----------------------------------------------------------------
    def map(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        jobs: int | None = None,
        on_result: Callable[[int, Any], None] | None = None,
        retries: int = 0,
        retry_backoff: float = 0.0,
        timeout: float | None = None,
        on_failure: Callable[[int, BaseException], None] | None = None,
    ) -> list[Any]:
        """Order-preserving map over the persistent pool.

        Same contract as :func:`parallel_map` (which documents the failure
        handling and the hung-worker watchdog in full), minus the inline
        fast path: every task runs in a worker.  ``jobs`` only narrows the
        dispatch window below the pool's worker count; it never widens it.

        Backoff between retry rounds is *charged-only*: a round whose
        retries are all uncharged bystanders (collateral of a watchdog
        kill — the task itself did nothing wrong) resubmits immediately
        instead of waiting out an exponential sleep it did not earn.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        window_jobs = min(self.jobs, resolve_jobs(jobs) if jobs else self.jobs)
        results: list[Any] = [None] * len(tasks)

        tel = get_telemetry()
        capture = tel.enabled
        call: Callable[[Any], Any] = partial(_pool_call, fn, capture)
        if self._pool is not None:
            self.reuses += 1
            tel.count("pool.reuses")

        def settle(i: int, outcome: Any) -> None:
            """Record one successful task result (unwrapping captured payloads)."""
            if isinstance(outcome, _Captured):
                absorb_worker_snapshot(outcome.snapshot, tel)
                outcome = outcome.result
            results[i] = outcome
            if on_result is not None:
                on_result(i, outcome)

        def exhaust(i: int, attempt: int, exc: BaseException) -> bool:
            """Requeue (False) or finalize the failure (True)."""
            if attempt < retries:
                return False
            if on_failure is None:
                raise exc
            logger.warning(
                "task %d failed after %d attempt(s): %s", i, attempt + 1, exc
            )
            on_failure(i, exc)
            return True

        pending: list[tuple[int, int]] = [(i, 0) for i in range(len(tasks))]
        backoff_round = 0
        sleep_before_next = False
        while pending:
            if sleep_before_next and retry_backoff > 0:
                backoff_round += 1
                time.sleep(retry_backoff * (2 ** (backoff_round - 1)))
            this_round, pending = pending, []
            charged = False
            broken = False
            hung: set = set()
            pool = self._ensure(capture)
            try:
                queue = deque(this_round)
                # With no deadline, submit everything upfront (the
                # historical behaviour).  With one, dispatch in a window of
                # ``jobs`` so a task's clock starts roughly when a worker
                # can run it.
                window = (
                    len(this_round)
                    if timeout is None
                    else min(window_jobs, len(this_round))
                )
                future_of: dict = {}
                deadline_of: dict = {}

                def submit_next():
                    i, attempt = queue.popleft()
                    future = pool.submit(call, tasks[i])
                    future_of[future] = (i, attempt)
                    if timeout is not None:
                        deadline_of[future] = time.monotonic() + timeout
                    return future

                not_done = {submit_next() for _ in range(window)}
                while not_done:
                    if timeout is not None:
                        budget = max(
                            0.0,
                            min(deadline_of[f] for f in not_done)
                            - time.monotonic(),
                        )
                        done, not_done = wait(
                            not_done, timeout=budget, return_when=FIRST_COMPLETED
                        )
                    else:
                        done, not_done = wait(
                            not_done, return_when=FIRST_COMPLETED
                        )
                    for future in done:
                        i, attempt = future_of[future]
                        try:
                            result = future.result()
                        except BrokenProcessPool as exc:
                            broken = True
                            if not exhaust(i, attempt, exc):
                                pending.append((i, attempt + 1))
                                charged = True
                        except Exception as exc:
                            if not exhaust(i, attempt, exc):
                                pending.append((i, attempt + 1))
                                charged = True
                        else:
                            settle(i, result)
                    if timeout is not None and not broken:
                        now = time.monotonic()
                        hung = {f for f in not_done if now >= deadline_of[f]}
                        if hung:
                            # Presumed-hung workers: kill the pool and sort
                            # the wreckage below — overdue tasks are charged
                            # a timeout attempt, bystanders retry for free.
                            broken = True
                            for future in hung:
                                i, _ = future_of[future]
                                logger.warning(
                                    "task %d exceeded its %.1fs deadline; "
                                    "killing its worker pool", i, timeout,
                                )
                            _kill_pool_workers(pool)
                    if broken:
                        # The executor is unusable; every unfinished future
                        # has (or will get) BrokenProcessPool.  Drain them
                        # all and fall through to a respawned pool for the
                        # requeued tasks.
                        wait(not_done)
                        for future in not_done:
                            i, attempt = future_of[future]
                            if future in hung:
                                try:
                                    result = future.result()
                                except BaseException:  # noqa: BLE001
                                    texc = TimeoutError(
                                        f"task {i} exceeded its {timeout:.1f}s "
                                        "deadline and its worker was killed"
                                    )
                                    if not exhaust(i, attempt, texc):
                                        pending.append((i, attempt + 1))
                                        charged = True
                                else:
                                    # Finished in the race window before the
                                    # kill landed: keep the honest result.
                                    settle(i, result)
                                continue
                            try:
                                result = future.result()
                            except BaseException as exc:  # noqa: BLE001
                                if hung:
                                    # Collateral of our own watchdog kill:
                                    # the task did nothing wrong, retry
                                    # uncharged.
                                    pending.append((i, attempt))
                                elif not exhaust(i, attempt, exc):
                                    pending.append((i, attempt + 1))
                                    charged = True
                            else:
                                settle(i, result)
                        not_done = set()
                        # Never-dispatched tasks carry over untouched.
                        pending.extend(queue)
                        queue.clear()
                    elif queue:
                        while queue and len(not_done) < window:
                            not_done.add(submit_next())
            except BaseException:
                if broken:
                    self._discard()
                raise
            if broken:
                self._discard()
            # Bystander-only rounds skip the backoff entirely: the sleep
            # exists to space out *failing* work, and nothing in the next
            # round failed.
            sleep_before_next = charged
        return results


# -- ambient pool ------------------------------------------------------------

_AMBIENT = threading.local()


def _ambient_stack() -> list[WorkerPool]:
    stack = getattr(_AMBIENT, "stack", None)
    if stack is None:
        stack = _AMBIENT.stack = []
    return stack


def current_pool() -> WorkerPool | None:
    """The innermost ambient :class:`WorkerPool` of this thread, if any."""
    stack = getattr(_AMBIENT, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def ensure_pool(jobs: int | None = None) -> Iterator[WorkerPool | None]:
    """An ambient pool for the block: reuse the current one or own a new one.

    The reuse-or-create idiom every multi-map driver wants: ``run_campaign``
    wraps its dispatch waves in ``ensure_pool(jobs)`` so they share one
    spawn, and when the CLI already installed a longer-lived pool the
    campaign transparently borrows it instead.
    Yields ``None`` without creating anything when ``jobs`` resolves to 1 —
    serial execution stays process-pool-free.  A newly created pool spawns
    lazily (on the first real map) and is shut down on exit; a borrowed one
    is left untouched.
    """
    if resolve_jobs(jobs) <= 1:
        yield None
        return
    pool = current_pool()
    if pool is not None:
        yield pool
        return
    with WorkerPool(jobs) as pool:
        yield pool


def parallel_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int | None = 1,
    on_result: Callable[[int, Any], None] | None = None,
    retries: int = 0,
    retry_backoff: float = 0.0,
    timeout: float | None = None,
    on_failure: Callable[[int, BaseException], None] | None = None,
) -> list[Any]:
    """Map ``fn`` over ``tasks``, preserving task order in the result list.

    With ``jobs <= 1`` (or fewer than two tasks and no ambient pool)
    everything runs inline in the calling process.  Otherwise tasks are
    distributed over a process pool: the thread's ambient
    :class:`WorkerPool` when one is installed, else an ephemeral pool torn
    down when the map returns.

    ``on_result(index, result)`` fires as each task finishes (completion
    order, not task order) — the hook the campaign and sweep drivers use to
    aggregate cross-worker progress into one
    :class:`~repro.obs.progress.ProgressTracker`.

    **Failure handling.**  A task attempt fails when ``fn`` raises or when
    its worker process dies (``BrokenProcessPool`` — an OOM kill, a signal,
    a segfaulting extension).  Each task is retried up to ``retries`` extra
    times, waiting ``retry_backoff * 2**(round-1)`` seconds between charged
    rounds; a dead pool is respawned and the unfinished tasks resubmitted
    to fresh workers.  A worker death cannot be attributed to one task
    exactly, so a pool crash charges an attempt to *every* task that was
    in flight: transient crashes retry everything cleanly, while a
    deterministically crashing task exhausts its budget after at most
    ``retries + 1`` pool rebuilds.  After exhaustion the task's slot stays ``None`` and
    ``on_failure(index, exc)`` is invoked; with no ``on_failure`` the
    exception propagates (the pre-existing fail-fast contract, the
    default).

    **Hung workers.**  ``timeout`` arms a per-task deadline (seconds): a
    task still running past it is presumed *hung* — not dead, so
    ``BrokenProcessPool`` never fires — and its whole pool is SIGKILLed.
    The overdue task is charged a :class:`TimeoutError` attempt and retried
    like a crash; in-flight tasks that were merely sharing the pool are
    resubmitted without losing an attempt *and* without waiting out a
    backoff they did not earn.  With a timeout armed, tasks are dispatched
    in a sliding window of ``jobs`` so the clock starts when a worker can
    actually pick the task up, not when the map began.  Inline execution
    (``jobs <= 1``) cannot preempt a hung call; the timeout only protects
    pool mode.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    ambient = current_pool()
    if jobs <= 1 or (len(tasks) <= 1 and ambient is None):
        results = []
        for i, task in enumerate(tasks):
            try:
                result = fn(task)
            except Exception as exc:
                # Inline attempts are deterministic: retrying in-process
                # would fail identically, so exhaust the budget directly.
                if on_failure is None:
                    raise
                logger.warning("task %d failed inline: %s", i, exc)
                on_failure(i, exc)
                results.append(None)
                continue
            if on_result is not None:
                on_result(i, result)
            results.append(result)
        return results

    if ambient is not None:
        return ambient.map(
            fn, tasks, jobs=jobs, on_result=on_result, retries=retries,
            retry_backoff=retry_backoff, timeout=timeout,
            on_failure=on_failure,
        )
    ephemeral = WorkerPool(min(jobs, len(tasks)))
    try:
        return ephemeral.map(
            fn, tasks, on_result=on_result, retries=retries,
            retry_backoff=retry_backoff, timeout=timeout,
            on_failure=on_failure,
        )
    finally:
        ephemeral.shutdown()
