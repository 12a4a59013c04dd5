"""The Monte-Carlo fault-injection campaign driver.

Methodology (paper §IV-C):

* the binary is profiled once to count dynamic instructions and find which
  of them produce a register output;
* each trial draws faults from a pluggable **fault model** (see
  :mod:`repro.faults.models`): the default ``reg-bit`` model picks a random
  output-producing dynamic instruction, a random output register (ours have
  at most one), and a random bit to flip — the paper's model, with its RNG
  stream frozen so historical results reproduce;
* plain binaries (NOED) receive exactly one fault per trial.  Protected
  binaries are larger, so — to keep the *error rate* fixed — each of their
  trials receives ``Binomial(dyn_protected, 1 / dyn_reference)`` faults
  (resampled to be at least one), where ``dyn_reference`` is the original
  binary's dynamic instruction count;
* the run is classified against the golden run (see
  :mod:`repro.faults.classify`), each detected trial additionally records
  its **detection latency** (dynamic instructions from injection to the
  ``CHKBR`` firing), and a watchdog bounds runaway executions.

Every trial — a campaign shard's, or a single
:meth:`FaultInjector.run_trial` — takes one path on either backend: it
resumes from the last golden snapshot at or before its first fault and
runs :meth:`~repro.ir.interp.Interpreter.run` against the program's
:class:`GoldenRun`, whose snapshots let it fast-forward over golden-equal
gaps and exit early at golden re-convergence.  The ``interp`` backend
records no snapshots, so the same path replays its trials from reset:
that backend is the differential oracle the ``compiled`` one is held to,
bit for bit.

Campaigns are *sharded*: the trial budget is split into fixed
:data:`~repro.parallel.SHARD_TRIALS`-sized shards and every shard draws
from its own RNG stream, seeded by ``(seed, shard_index)``.  The shard
plan depends only on the trial count — never on the worker count — so a
campaign's outcome counts are bit-identical for a given seed whether it
runs serially (``jobs=1``) or fanned out over a process pool
(``jobs=N``).  A pool worker builds its own injector from the constructor
arguments, and gets the golden run the way every process does: from its
artifact store, which a forked worker inherits from its parent, or by
executing the program once.  See ``docs/performance.md``.

Sharding also buys **resilience** (``docs/fault_injection.md``):

* a ``checkpoint`` file records every completed shard as an appended JSONL
  line; ``resume=True`` skips the recorded shards, and because each shard's
  RNG stream is self-contained the merged result is bit-identical to an
  uninterrupted run;
* a shard whose pool worker dies is retried with backoff on a fresh
  worker; when a shard exhausts its retries the campaign degrades
  gracefully — surviving shards are merged, the lost trial count is
  logged, and the result is marked ``partial`` instead of raising.
"""

from __future__ import annotations

import hashlib
import logging
import statistics
import time
from array import array
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import numpy.typing as npt

from repro import store
from repro.errors import SimError
from repro.faults.checkpoint import CampaignCheckpoint
from repro.faults.classify import (
    Outcome,
    classify,
    detection_latency,
)
from repro.faults.models import DEFAULT_FAULT_MODEL, get_fault_model
from repro.ir.interp import (
    FaultSpec,
    Interpreter,
    MemDelta,
    RunResult,
    Snapshot,
    visit_counts,
)
from repro.ir.printer import canonical_program_text
from repro.ir.program import Program
from repro.isa.registers import RegClass
from repro.obs import get_telemetry
from repro.obs.progress import ProgressCallback, ProgressTracker
from repro.parallel import (
    SHARD_TRIALS,
    PickledOnce,
    ensure_pool,
    parallel_map,
    plan_shards,
    plan_task_groups,
    resolve_jobs,
)
from repro.utils.rng import make_rng

logger = logging.getLogger(__name__)

#: Watchdog budget = factor x golden dynamic instruction count.
WATCHDOG_FACTOR = 25

#: Committed instructions between golden-run snapshots on the compiled
#: backend, each taken at the first block boundary at or past a multiple.
#: A trial resumes from the last one at or before its first fault, so its
#: residual prefix averages half an interval; a shorter run records none.
#: At iw2/d2 the kernels' golden runs (48-171 k instructions, NOED and
#: CASTED) record 23-83 each, stored as keyframes and deltas
#: (:data:`SNAPSHOT_KEYFRAME_EVERY`): 0.09-0.27 MB a program under
#: tracemalloc, 2.5 MB for all 14 against 8.3 MB as full memory lists.
SNAPSHOT_INTERVAL = 2_048

#: Every this-many-th golden snapshot keeps its full memory list (a
#: keyframe); the others keep only the memory words that changed since the
#: previous snapshot.  A restore copies the keyframe, then applies at most
#: ``SNAPSHOT_KEYFRAME_EVERY - 1`` deltas.
SNAPSHOT_KEYFRAME_EVERY = 8

#: Minimum seconds of measured work per pool task: shards are grouped into
#: tasks until each task carries at least this much, so cheap shards stop
#: paying one IPC round trip each.  It also stands in for the per-shard cost
#: when no calibration shard returned, which makes every task a single
#: shard.  The *shard* stays the RNG and checkpoint unit — grouping never
#: changes which stream a trial draws from (see docs/performance.md,
#: "Adaptive task sizing").
MIN_TASK_SECONDS = 0.25

#: Default extra attempts for a shard whose pool worker died.
SHARD_RETRIES = 2

#: Default seconds of backoff between shard retry rounds (scaled by round).
SHARD_RETRY_BACKOFF = 0.5


@dataclass(frozen=True)
class ShardResult:
    """Outcome of one campaign shard (the unit of checkpointing/retry)."""

    index: int
    trials: int
    counts: dict[Outcome, int]
    faults: int
    #: Dynamic instructions executed up to detection, summed over the
    #: shard's DETECTED trials (the work a restart throws away).
    detected_dyn: int
    #: Detection latency (dyn instructions, injection -> CHKBR) of every
    #: detected trial in the shard, in trial order.
    latencies: tuple[int, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "shard": self.index,
            "trials": self.trials,
            "counts": {o.value: n for o, n in self.counts.items()},
            "faults": self.faults,
            "detected_dyn": self.detected_dyn,
            "latencies": list(self.latencies),
        }

    @classmethod
    def from_json(cls, rec: dict[str, Any]) -> "ShardResult":
        return cls(
            index=int(rec["shard"]),
            trials=int(rec["trials"]),
            counts={Outcome(k): int(v) for k, v in rec["counts"].items()},
            faults=int(rec["faults"]),
            detected_dyn=int(rec["detected_dyn"]),
            latencies=tuple(int(v) for v in rec["latencies"]),
        )


@dataclass
class CampaignResult:
    """Aggregated outcome counts of one campaign.

    ``trials`` counts the trials that actually completed.  A campaign that
    lost shards to unrecoverable worker crashes is ``partial``: its
    fractions are still well-defined (they divide by the completed count)
    but cover ``lost_trials`` fewer trials than requested.
    """

    trials: int
    counts: dict[Outcome, int] = field(default_factory=dict)
    total_faults_injected: int = 0
    golden_dyn: int = 0
    fault_model: str = DEFAULT_FAULT_MODEL
    detection_latency_sum: int = 0
    detections_timed: int = 0
    #: Σ dyn instructions over DETECTED trials (see :attr:`reexecution_overhead`).
    detection_dyn_sum: int = 0
    lost_trials: int = 0
    partial: bool = False

    def fraction(self, outcome: Outcome) -> float:
        return self.counts.get(outcome, 0) / self.trials if self.trials else 0.0

    @property
    def coverage(self) -> float:
        """Everything that is not silent corruption or a hang.

        An empty campaign (``trials == 0``) covers nothing — 0.0, not the
        1.0 that "no observed SDC" would naively suggest.
        """
        if not self.trials:
            return 0.0
        return 1.0 - self.fraction(Outcome.SDC) - self.fraction(Outcome.TIMEOUT)

    @property
    def caught(self) -> float:
        """Detected plus exceptions.

        The paper reports exceptions separately "for clarity" but notes
        they are usually counted as detected (a custom handler catches
        them, §IV-C) — this is that combined number.
        """
        return self.fraction(Outcome.DETECTED) + self.fraction(Outcome.EXCEPTION)

    @property
    def mean_detection_latency(self) -> float:
        """Mean dynamic instructions from injection to the check firing."""
        if not self.detections_timed:
            return 0.0
        return self.detection_latency_sum / self.detections_timed

    # -- restart-on-detection (extension) ---------------------------------------
    # A transient fault strikes once (§I) and program start is a valid
    # checkpoint inside the sphere of replication (§III-B), so restarting a
    # detected trial re-runs fault-free to the golden output.  The restart
    # policy's outcome is therefore a view of this campaign, not a new one.
    @property
    def correct_completion(self) -> float:
        """Trials that end with the golden output under restart-on-detection."""
        return self.fraction(Outcome.BENIGN) + self.fraction(Outcome.DETECTED)

    @property
    def reexecution_overhead(self) -> float:
        """Mean work discarded by restarts per trial, in golden-run units."""
        if not self.trials or not self.golden_dyn:
            return 0.0
        return self.detection_dyn_sum / (self.trials * self.golden_dyn)

    def merged(self, other: "CampaignResult") -> "CampaignResult":
        """Combine outcome counts of two campaigns over the *same* binary.

        Merging is only well-defined for shards of one campaign (or repeat
        campaigns) against the same golden run and fault model: a mismatch
        means the results came from different experiments, whose fractions
        are not comparable, so that is an error rather than a silent
        keep-mine.
        """
        if self.golden_dyn != other.golden_dyn:
            raise ValueError(
                "cannot merge campaigns over different binaries: "
                f"golden_dyn {self.golden_dyn} != {other.golden_dyn}"
            )
        if self.fault_model != other.fault_model:
            raise ValueError(
                "cannot merge campaigns under different fault models: "
                f"{self.fault_model} != {other.fault_model}"
            )
        counts = dict(self.counts)
        for k, v in other.counts.items():
            counts[k] = counts.get(k, 0) + v
        return CampaignResult(
            trials=self.trials + other.trials,
            counts=counts,
            total_faults_injected=self.total_faults_injected
            + other.total_faults_injected,
            golden_dyn=self.golden_dyn,
            fault_model=self.fault_model,
            detection_latency_sum=self.detection_latency_sum
            + other.detection_latency_sum,
            detections_timed=self.detections_timed + other.detections_timed,
            detection_dyn_sum=self.detection_dyn_sum + other.detection_dyn_sum,
            lost_trials=self.lost_trials + other.lost_trials,
            partial=self.partial or other.partial,
        )


#: Content key of a golden run: canonical program text SHA-256, resolved
#: ``mem_words``, ``frame_words``, resolved backend, and the snapshot policy
#: (``SNAPSHOT_INTERVAL``, ``SNAPSHOT_KEYFRAME_EVERY``) the run was
#: recorded under.
GoldenKey = tuple[str, int, int, str, int, int]


@dataclass(eq=False)
class GoldenRun:
    """The one record of a golden execution: everything
    :class:`FaultInjector` computes by *executing* the program.

    It holds the final result, the architectural snapshots and the block
    visit sequence, and is held once per process in the artifact store
    (:mod:`repro.store`, under :func:`golden_key`), shared by every
    injector of the same program, geometry and backend — whatever its
    fault model.  The snapshots are keyframes and deltas, and read-only
    (see :class:`~repro.ir.interp.Snapshot`): trial restores copy from
    them, and :meth:`~repro.ir.interp.Interpreter.run` takes the golden
    run itself as ``converge`` and compares against them in place.  Only
    :func:`_execute_golden` makes one, so a pool worker either inherits
    its parent's run by fork or executes the program itself; the run is
    deterministic, so both give the same trials.
    """

    golden: RunResult
    snapshots: list[Snapshot]
    #: The program's block labels, in the order :attr:`visits` indexes.
    labels: tuple[str, ...]
    #: The block of every golden visit, in execution order, as an index
    #: into :attr:`labels` (see :meth:`Interpreter.run_visits`).
    visits: npt.NDArray[np.unsignedinteger[Any]]
    #: Instructions, and output-producing instructions, per block: the two
    #: rows :attr:`visit_dyn_cum` and :attr:`visit_dest_cum` accumulate.
    block_sizes: InitVar[list[list[int]]]
    #: ``dyn`` of every snapshot, in order.
    dyn_keys: list[int] = field(init=False)
    #: Instructions committed through each golden visit.  int64, like
    #: :attr:`visit_dest_cum`: one ``np.searchsorted`` for a Python int took
    #: 9.6 us on an int32 table against 2.5 us on int64.
    visit_dyn_cum: npt.NDArray[np.int64] = field(init=False)
    #: Output-producing instructions committed through each golden visit.
    visit_dest_cum: npt.NDArray[np.int64] = field(init=False)
    #: Int objects the snapshots' registers and delta words hold that the
    #: run created: values above CPython's small-int cache (256) that are
    #: not the object the previous snapshot held in the same place.
    new_ints: int = field(init=False)

    def __post_init__(self, block_sizes: list[list[int]]) -> None:
        self.dyn_keys = [s.dyn for s in self.snapshots]
        self.visit_dyn_cum, self.visit_dest_cum = self.cumulative(block_sizes)
        new_ints = 0
        prev: list[int] = []
        for s in self.snapshots:
            if len(prev) == len(s.regs):
                new_ints += sum(
                    1 for a, b in zip(s.regs, prev) if a is not b and a > 256
                )
            else:
                new_ints += sum(1 for v in s.regs if v > 256)
            if s.deltas:
                new_ints += sum(1 for v in s.deltas[-1][1] if v > 256)
            prev = s.regs
        self.new_ints = new_ints

    def cumulative(self, per_block: npt.ArrayLike) -> npt.NDArray[np.int64]:
        """Running totals over the golden visits of a per-block count.

        ``per_block`` holds one count per block (or one row of them per
        quantity); entry ``v`` of the result sums visits ``0..v``.
        """
        counts = np.asarray(per_block, dtype=np.int64)
        # ``take``, not fancy indexing: its result is C-ordered, so each row
        # stays contiguous for ``np.searchsorted``.
        return np.cumsum(counts.take(self.visits, axis=-1), axis=-1)

    @staticmethod
    def locate(cum: npt.NDArray[np.int64], count: int) -> tuple[int, int]:
        """The visit holding unit ``count`` of the running total ``cum``
        (from :meth:`cumulative`), and that unit's rank within the visit."""
        visit = int(np.searchsorted(cum, count, side="right"))
        return visit, count - (int(cum[visit - 1]) if visit else 0)

    def visit_start(self, visit: int) -> int:
        """Instructions committed before golden visit ``visit`` begins."""
        return int(self.visit_dyn_cum[visit - 1]) if visit else 0

    @property
    def nbytes(self) -> int:
        """Estimated size: 8 B per register, output and keyframe memory
        word, 12 B per delta word (a 4-byte address and a value), 32 B per
        int object the run created (:attr:`new_ints`), 350 B of object
        headers per snapshot, and per golden visit its block index (2 B)
        and two int64 running totals."""
        words = delta_words = 0
        for s in self.snapshots:
            words += len(s.regs) + len(s.output)
            if s.deltas:
                delta_words += len(s.deltas[-1][1])
            else:
                words += len(s.base)
        heads = 350 * len(self.snapshots)
        per_visit = self.visits.itemsize + 16
        return (
            8 * words + 12 * delta_words + 32 * self.new_ints + heads
            + per_visit * len(self.visits)
        )


#: Store key of a campaign injector: its golden run's key and fault model.
InjectorKey = tuple[GoldenKey, str]


def golden_key(
    program: Program, mem_words: int, frame_words: int, backend: str
) -> GoldenKey:
    """The content key a golden run of ``program`` is stored under."""
    digest = hashlib.sha256(canonical_program_text(program).encode()).hexdigest()
    return (
        digest, mem_words, frame_words, backend,
        SNAPSHOT_INTERVAL, SNAPSHOT_KEYFRAME_EVERY,
    )


def _delta(
    prev: npt.NDArray[np.uint64], cur: npt.NDArray[np.uint64], mem: list[int]
) -> MemDelta:
    """The words of ``mem`` (as ``cur``) that differ from ``prev``."""
    addrs = array("I", np.flatnonzero(cur != prev).astype(np.uint32).tobytes())
    return addrs, tuple([mem[a] for a in addrs])


def _snapshot_recorder(snapshots: list[Snapshot]) -> Callable[[Snapshot], None]:
    """A ``snapshot_sink`` that appends to ``snapshots`` as keyframes and deltas.

    Every :data:`SNAPSHOT_KEYFRAME_EVERY`-th snapshot keeps its full
    memory list; each other one keeps only the words that changed since
    the previous snapshot.  The full lists the run emits are compacted as
    they arrive, so at most two of them are alive at once besides the
    keyframes.
    """
    prev = np.empty(0, dtype=np.uint64)

    def record(full: Snapshot) -> None:
        nonlocal prev
        cur = np.array(full.base, dtype=np.uint64)
        if len(snapshots) % SNAPSHOT_KEYFRAME_EVERY:
            delta = _delta(prev, cur, full.base)
            full = snapshots[-1].step(
                full.dyn, full.label, full.regs, delta, full.output
            )
        snapshots.append(full)
        prev = cur

    return record


def _execute_golden(interp: Interpreter) -> GoldenRun:
    """Run the program fault-free once, recording its visits and snapshots.

    The compiled backend records an architectural snapshot every
    :data:`SNAPSHOT_INTERVAL` committed instructions
    (:func:`_snapshot_recorder`); each trial then resumes from the nearest
    snapshot at or before its earliest fault — bit-identical to a replay
    from zero, because the pre-fault prefix of every trial *is* the golden
    execution.  The interp oracle records none.
    """
    visits = interp.visit_buffer()
    snapshots: list[Snapshot] = []
    interp.chain  # fuse superblocks here, in the caller's profile span
    with get_telemetry().span(
        "injector:snapshots", cat="campaign",
        timer="campaign.snapshot_record.seconds",
    ) as sp:
        golden = interp.run(
            visit_sink=visits.append,
            snapshot_every=SNAPSHOT_INTERVAL if interp.backend == "compiled" else None,
            snapshot_sink=_snapshot_recorder(snapshots),
        )
        sp.set(snapshots=len(snapshots))
    blocks = list(interp.program.main.blocks())
    sizes = [
        [len(b.instructions) for b in blocks],
        [sum(1 for insn in b.instructions if insn.dests) for b in blocks],
    ]
    return GoldenRun(golden, snapshots, interp.labels, np.array(visits), sizes)


class CampaignWorkerSpec:
    """A content-addressed recipe for building a campaign injector in a worker.

    ``key`` is the injector's artifact-store key (the golden run's
    :data:`GoldenKey` plus the fault model), so a worker reuses one
    injector across every task — of every map — that shares it.
    ``payload`` holds the constructor arguments, pickled once in the
    parent (:class:`~repro.parallel.PickledOnce`): tasks ship the same
    immutable bytes, and a worker whose store already holds ``key`` never
    even unpickles them.  No golden state travels: the built injector
    finds the golden run in the worker's store (inherited by fork) or
    executes it once per worker and program.
    """

    __slots__ = ("key", "payload")

    def __init__(self, key: InjectorKey, payload: PickledOnce) -> None:
        self.key = key
        self.payload = payload

    def build(self) -> "FaultInjector":
        # The init span marks worker store misses on each worker's trace
        # lane: with the persistent pool it appears once per (workload,
        # scheme) per worker, not once per map.  Its ``injector:profile``
        # child reads ``adopted=False`` where the worker executed the
        # golden run.
        with get_telemetry().span("worker:init", cat="worker") as sp:
            program, mem_words, frame_words, fault_model, backend = (
                self.payload.load()
            )
            injector = FaultInjector(
                program, mem_words=mem_words, frame_words=frame_words,
                fault_model=fault_model, backend=backend,
            )
            sp.set(fault_model=fault_model)
        return injector


class FaultInjector:
    """Profile once, inject many times.

    The golden run is profiled once per *process*, not per injector: the
    constructor looks its content key up in the artifact store
    (:mod:`repro.store`) and adopts a held run; only a miss executes the
    program.
    """

    def __init__(
        self,
        program: Program,
        mem_words: int | None = None,
        frame_words: int = 0,
        fault_model: str = DEFAULT_FAULT_MODEL,
        backend: str | None = None,
    ) -> None:
        # Kept so campaign shards can rebuild an identical injector inside
        # pool workers (the interpreter's compiled closures don't pickle).
        self._ctor_args = (program, mem_words, frame_words, fault_model)
        self.program = program
        # The profile span covers program decode plus, unless this process
        # already holds the golden run, fusing superblocks and executing it.
        with get_telemetry().span(
            "injector:profile", cat="campaign", timer="campaign.profile.seconds",
        ) as sp:
            self.interp = Interpreter(
                program, mem_words=mem_words, frame_words=frame_words,
                backend=backend,
            )
            self.interp.decode()
            key = golden_key(
                program, self.interp.mem_words, frame_words, self.interp.backend
            )
            adopted = True

            def build() -> GoldenRun:
                nonlocal adopted
                adopted = False
                return _execute_golden(self.interp)

            run = store.get(key, build)
            sp.set(golden_dyn=run.golden.dyn_instructions, adopted=adopted)
            sp.set(snapshots=len(run.snapshots))
        #: The content key, reused as the base of :meth:`worker_spec`'s.
        self._golden_key: GoldenKey = key
        #: The one view of the golden execution; holding it keeps the run
        #: findable in the store.
        self.golden_run = run
        self.golden: RunResult = run.golden

        # Per-block static tables, by block index: the position of each
        # output-producing instruction, and whether it writes a predicate.
        self._dest_sites: list[list[tuple[int, bool]]] = [
            [
                (i, insn.dests[0].rclass is RegClass.PR)
                for i, insn in enumerate(block.instructions)
                if insn.dests
            ]
            for block in program.main.blocks()
        ]
        self.n_dest_sites = int(run.visit_dest_cum[-1])
        self.max_steps: int = (
            self.golden.dyn_instructions * WATCHDOG_FACTOR + 10_000
        )

        self.fault_model = fault_model
        self.model = get_fault_model(fault_model)
        self.model.prepare(self)
        self._worker_spec: CampaignWorkerSpec | None = None

    @property
    def nbytes(self) -> int:
        """Estimated size: the golden run, 600 B per instruction (its decoded
        closure and static tables), 700 B per block (its fused superblock's
        closure) and 8 B per word of the live memory list."""
        insns = sum(len(b.instructions) for b in self.program.main.blocks())
        decoded = 600 * insns + 700 * len(self.interp.labels) + 8 * self.interp.mem_words
        return self.golden_run.nbytes + decoded

    # -- the trial path ----------------------------------------------------------
    def _resume_point(self, faults: tuple[FaultSpec, ...]) -> Snapshot | None:
        """The last golden snapshot at or before the trial's first fault.

        A fault at ``dyn_index`` fires once ``dyn_index + 1`` instructions
        have committed, so any snapshot with ``dyn <= dyn_index`` is a safe
        resume point.  ``None`` means replay from reset: the fault precedes
        every snapshot, or the golden run recorded none.
        """
        run = self.golden_run
        k = bisect_right(run.dyn_keys, min(f.dyn_index for f in faults)) - 1
        return run.snapshots[k] if k >= 0 else None

    def _execute(self, trials: list[tuple[FaultSpec, ...]]) -> list[RunResult]:
        """Run each trial's faults, returning the results in trial order.

        One path on both backends: resume from :meth:`_resume_point` and let
        the golden run's snapshots shortcut the suffix.  The interp oracle
        has neither snapshots nor a fused chain, so there the same loop
        replays every trial from reset, one closure per instruction.
        Counters are emitted once per call, never per trial.
        """
        interp = self.interp
        converge = self.golden_run
        chained0, converged0 = interp.chained_visits, interp.converged
        forwards0 = interp.forwards
        restores = skipped = 0
        results: list[RunResult] = []
        for faults in trials:
            snap = self._resume_point(faults)
            if snap is not None:
                restores += 1
                skipped += snap.dyn
            results.append(
                interp.run(
                    faults, self.max_steps, resume_from=snap, converge=converge
                )
            )
        tel = get_telemetry()
        tel.count("campaign.batch_trials", len(trials))
        tel.count("campaign.snapshot_restores", restores)
        tel.count("campaign.cycles_skipped", skipped)
        tel.count("campaign.batch_converged", interp.converged - converged0)
        tel.count("campaign.batch_forwards", interp.forwards - forwards0)
        tel.count(
            "campaign.batch_guided_visits", interp.chained_visits - chained0
        )
        return results

    def worker_spec(self) -> CampaignWorkerSpec:
        """The content-addressed build recipe pool workers store this injector by.

        Memoized: the constructor arguments are pickled exactly once per
        injector, no matter how many campaigns, dispatch waves, or retry
        rounds ship them.  The key extends the golden run's content key —
        which already holds the program digest and the *resolved*
        backend, so a worker rebuild can never resolve differently from
        the parent — with the fault model.
        """
        if self._worker_spec is None:
            ctor_args = (*self._ctor_args, self.interp.backend)
            key: InjectorKey = (self._golden_key, self.fault_model)
            self._worker_spec = CampaignWorkerSpec(key, PickledOnce(ctor_args))
        return self._worker_spec

    # -- fault-site enumeration ----------------------------------------------
    def site_of(self, dyn_index: int) -> tuple[str, int]:
        """Map a dynamic fault position back to its static fault site.

        Returns ``(block label, instruction index within the block)`` of
        the golden instruction committing at ``dyn_index`` — the inverse
        of :meth:`sample_fault`'s site -> ``dyn_index`` mapping.  This is
        how the static coverage prover (:mod:`repro.analysis.coverage`)
        attributes a measured trial outcome to the per-site verdict it
        cross-validates against.
        """
        if dyn_index < 0 or dyn_index >= self.golden.dyn_instructions:
            raise SimError(
                f"dyn_index {dyn_index} outside the golden run "
                f"(0..{self.golden.dyn_instructions - 1})"
            )
        run = self.golden_run
        visit, pos = run.locate(run.visit_dyn_cum, dyn_index)
        return run.labels[run.visits[visit]], pos

    def visit_counts(self) -> dict[str, int]:
        """Golden execution count of every block (static-site weights)."""
        return visit_counts(self.golden_run.labels, self.golden_run.visits)

    # -- sampling ------------------------------------------------------------
    def sample_fault(self, rng: np.random.Generator) -> FaultSpec:
        """Uniformly pick an output-producing dynamic instruction + bit.

        This is the frozen ``reg-bit`` sampling path: its RNG draw sequence
        must never change, or default campaigns stop reproducing historical
        results.
        """
        if self.n_dest_sites == 0:
            raise SimError("program has no output-producing instructions")
        run = self.golden_run
        site = int(rng.integers(self.n_dest_sites))
        visit, within = run.locate(run.visit_dest_cum, site)
        pos, is_pr = self._dest_sites[run.visits[visit]][within]
        dyn_index = run.visit_start(visit) + pos
        if is_pr:
            bit = 0  # predicate registers invert regardless of bit
        else:
            bit = int(rng.integers(64))
        return FaultSpec(dyn_index=dyn_index, bit=bit)

    def faults_for_trial(
        self, rng: np.random.Generator, reference_dyn: int | None
    ) -> tuple[FaultSpec, ...]:
        """One fault, or rate-matched faults when ``reference_dyn`` is given."""
        sample = self.model.sample
        if reference_dyn is None or reference_dyn >= self.golden.dyn_instructions:
            return (sample(self, rng),)
        p = 1.0 / reference_dyn
        n = 0
        while n == 0:
            n = int(rng.binomial(self.golden.dyn_instructions, p))
        return tuple(sample(self, rng) for _ in range(n))

    # -- the campaign -----------------------------------------------------------
    def run_trial(self, faults: tuple[FaultSpec, ...]) -> Outcome:
        """Classify one trial, run on the same path as a campaign's."""
        (result,) = self._execute([faults])
        return classify(self.golden, result)

    def run_shard(
        self,
        shard_index: int,
        shard_trials: int,
        seed: int,
        reference_dyn: int | None = None,
    ) -> ShardResult:
        """Run one campaign shard.

        The shard's RNG stream is fully determined by ``(seed,
        shard_index)``, so shards can execute in any order, in any process,
        and still reproduce the same outcomes — the property checkpoint
        resume and crash retry both lean on.  Faults for every trial are
        drawn up front in trial order (executions never consume RNG), then
        the trials run, and are classified, in that order.
        """
        tel = get_telemetry()
        rng = make_rng(seed, "fault-campaign", shard_index)
        trials = [
            self.faults_for_trial(rng, reference_dyn) for _ in range(shard_trials)
        ]
        total_faults = sum(len(faults) for faults in trials)
        counts: dict[Outcome, int] = {}
        latencies: list[int] = []
        detected_dyn = 0
        # One span and one batch of counter updates per *shard*: telemetry
        # must never flush per trial (the batching contract worker capture
        # relies on — see docs/observability.md).
        with tel.span(
            "shard", cat="campaign", timer="campaign.shard.seconds",
            shard=shard_index, trials=shard_trials,
        ) as sp:
            for faults, result in zip(trials, self._execute(trials)):
                outcome = classify(self.golden, result)
                counts[outcome] = counts.get(outcome, 0) + 1
                if outcome is Outcome.DETECTED:
                    detected_dyn += result.dyn_instructions
                latency = detection_latency(result, faults)
                if latency is not None:
                    latencies.append(latency)
            sp.set(faults=total_faults)
        return ShardResult(
            index=shard_index,
            trials=shard_trials,
            counts=counts,
            faults=total_faults,
            detected_dyn=detected_dyn,
            latencies=tuple(latencies),
        )

    def run_campaign(
        self,
        trials: int,
        seed: int,
        reference_dyn: int | None = None,
        progress: ProgressCallback | None = None,
        jobs: int | None = 1,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        retries: int = SHARD_RETRIES,
        retry_backoff: float = SHARD_RETRY_BACKOFF,
        shard_timeout: float | None = None,
    ) -> CampaignResult:
        """Run ``trials`` Monte-Carlo trials and aggregate the outcomes.

        The campaign is split into fixed-size shards (see
        :data:`repro.parallel.SHARD_TRIALS`); ``jobs`` controls how many
        run concurrently (1 = in-process serial, 0 = all cores).  Outcome
        counts are identical for a given seed regardless of ``jobs``.

        ``checkpoint`` names a JSONL file that records every completed
        shard as it lands; ``resume=True`` loads it first and skips the
        recorded shards, yielding counts bit-identical to an uninterrupted
        run (``docs/fault_injection.md`` documents the format).  With
        ``jobs > 1``, a shard whose worker dies is retried up to
        ``retries`` times with backoff on a fresh worker; a shard that
        exhausts its retries is *dropped* — the campaign merges the
        surviving shards, logs the loss, and returns a ``partial`` result
        (the lost shards stay absent from the checkpoint, so a later
        ``resume`` retries exactly those).  ``shard_timeout`` (seconds,
        pool mode only) additionally arms the hung-worker watchdog: a pool
        task running past it is killed and retried on the same budget (see
        :func:`repro.parallel.parallel_map`).

        Every shard — serial, pooled or resumed from the checkpoint — is
        merged by the same ``absorb`` step.  ``progress`` (if given)
        receives a :class:`~repro.obs.progress.ProgressEvent` — completed
        trials, throughput, ETA, outcome counts so far — once per merged
        shard and once at the end.  With telemetry enabled the whole
        campaign is a ``campaign`` span whose ``outcome_*`` args carry the
        outcome breakdown, detection latencies feed the
        ``campaign.detection_latency`` histogram, and a shard dropped after
        exhausting its retries leaves a ``shard-lost`` instant.
        """
        tel = get_telemetry()
        jobs = resolve_jobs(jobs)
        backend = self.interp.backend
        shard_plan = plan_shards(trials, SHARD_TRIALS)
        counts: dict[Outcome, int] = {}
        state = {"faults": 0, "latency_sum": 0, "latency_n": 0, "detected_dyn": 0}
        tracker = ProgressTracker(trials, progress, every=SHARD_TRIALS)

        ckpt: CampaignCheckpoint | None = None
        done: dict[int, ShardResult] = {}
        if checkpoint is not None:
            ckpt = CampaignCheckpoint(
                checkpoint,
                header={
                    "seed": seed,
                    "trials": trials,
                    "fault_model": self.fault_model,
                    "golden_dyn": self.golden.dyn_instructions,
                    "shard_trials": SHARD_TRIALS,
                    "reference_dyn": reference_dyn,
                },
            )
            done = {
                index: ShardResult.from_json(rec)
                for index, rec in ckpt.load(resume).items()
            }

        def absorb(sr: ShardResult, fresh: bool) -> None:
            """Merge one shard; persist it when freshly computed."""
            for o, n in sr.counts.items():
                counts[o] = counts.get(o, 0) + n
            state["faults"] += sr.faults
            state["latency_sum"] += sum(sr.latencies)
            state["latency_n"] += len(sr.latencies)
            state["detected_dyn"] += sr.detected_dyn
            for v in sr.latencies:
                tel.observe("campaign.detection_latency", v)
            if fresh and ckpt is not None:
                ckpt.append(sr.to_json())
            if progress is not None:
                tracker.advance(sr.trials, {o.value: n for o, n in counts.items()})

        lost_shards: list[int] = []
        with tel.span(
            "campaign", cat="campaign", timer="campaign.seconds",
            trials=trials, seed=seed, jobs=jobs, shards=len(shard_plan),
            fault_model=self.fault_model, resumed_shards=len(done),
            golden_dyn=self.golden.dyn_instructions, backend=backend,
        ) as sp:
            for index in sorted(done):
                absorb(done[index], fresh=False)
            remaining = [
                (index, n) for index, n in enumerate(shard_plan) if index not in done
            ]
            if jobs <= 1 or len(remaining) <= 1:
                for index, n in remaining:
                    absorb(
                        self.run_shard(index, n, seed, reference_dyn),
                        fresh=True,
                    )
            else:
                self._run_shards_pool(
                    remaining, seed, reference_dyn, jobs, absorb, lost_shards,
                    retries=retries, retry_backoff=retry_backoff,
                    shard_timeout=shard_timeout,
                )
            lost_trials = sum(shard_plan[index] for index in lost_shards)
            completed = sum(counts.values())
            if lost_trials:
                logger.warning(
                    "campaign lost %d trial(s) across %d shard(s) to "
                    "unrecoverable worker crashes; returning partial result "
                    "(%d/%d trials)",
                    lost_trials, len(lost_shards), completed, trials,
                )
                tel.count("campaign.lost_trials", lost_trials)
            tel.count("campaign.trials", completed)
            tel.count("campaign.faults_injected", state["faults"])
            for o, n in counts.items():
                tel.count(f"campaign.outcome.{o.value}", n)
            sp.set(
                faults=state["faults"], lost_trials=lost_trials,
                **{f"outcome_{o.value}": n for o, n in counts.items()},
            )
        return CampaignResult(
            trials=completed,
            counts=counts,
            total_faults_injected=state["faults"],
            golden_dyn=self.golden.dyn_instructions,
            fault_model=self.fault_model,
            detection_latency_sum=state["latency_sum"],
            detections_timed=state["latency_n"],
            detection_dyn_sum=state["detected_dyn"],
            lost_trials=lost_trials,
            partial=lost_trials > 0,
        )

    def _run_shards_pool(
        self,
        remaining: list[tuple[int, int]],
        seed: int,
        reference_dyn: int | None,
        jobs: int,
        absorb: Callable[[ShardResult, bool], None],
        lost_shards: list[int],
        retries: int,
        retry_backoff: float,
        shard_timeout: float | None = None,
    ) -> None:
        """Fan shards out over a process pool; merge as they complete.

        Dispatch happens in two waves over one :func:`ensure_pool` scope
        (reusing an ambient :class:`~repro.parallel.WorkerPool` when the
        caller installed one — CLI, bench — and spawning exactly
        once otherwise):

        1. a *calibration* wave of up to ``jobs`` single-shard tasks, whose
           wall cost is measured;
        2. the rest, grouped by :func:`~repro.parallel.plan_task_groups`
           around the **median measured** per-shard cost (see
           :data:`MIN_TASK_SECONDS`), so dispatch granularity tracks what
           shards actually cost on this machine.  When no calibration task
           returned, every remaining task carries a single shard.

        Grouping and wave boundaries only decide *dispatch*; the shard
        remains the RNG / checkpoint / retry-accounting unit — a lost task
        reports every shard it carried, and results are bit-identical for
        any grouping.  Workers build (or fetch from their artifact store)
        the injector from :meth:`worker_spec`, so profiling happens at most
        once per worker per (program, scheme) — not per task.
        """
        spec = self.worker_spec()
        measured: list[float] = []

        def run_wave(
            shards: list[tuple[int, int]], groups: list[range]
        ) -> None:
            tasks = [
                (spec, [shards[i] for i in g], seed, reference_dyn)
                for g in groups
            ]

            def on_result(
                index: int, payload: tuple[float, list[ShardResult]]
            ) -> None:
                elapsed, srs = payload
                if srs:
                    measured.append(elapsed / len(srs))
                for sr in srs:
                    absorb(sr, fresh=True)

            def on_failure(index: int, exc: BaseException) -> None:
                for i in groups[index]:
                    shard_index = shards[i][0]
                    logger.warning("shard %d lost: %s", shard_index, exc)
                    get_telemetry().instant(
                        "shard-lost", cat="campaign", shard=shard_index,
                        error=str(exc),
                    )
                    lost_shards.append(shard_index)

            parallel_map(
                _campaign_task_worker,
                tasks,
                jobs=jobs,
                on_result=on_result,
                retries=retries,
                retry_backoff=retry_backoff,
                timeout=shard_timeout,
                on_failure=on_failure,
            )

        with ensure_pool(jobs):
            first = min(jobs, len(remaining))
            run_wave(
                remaining[:first], [range(i, i + 1) for i in range(first)]
            )
            rest = remaining[first:]
            if rest:
                est = (
                    statistics.median(measured) if measured else MIN_TASK_SECONDS
                )
                run_wave(
                    rest,
                    plan_task_groups(
                        len(rest), est, jobs, min_task_seconds=MIN_TASK_SECONDS
                    ),
                )


def _campaign_task_worker(
    task: tuple[CampaignWorkerSpec, list[tuple[int, int]], int, int | None],
) -> tuple[float, list[ShardResult]]:
    """Run a cost-calibrated group of shards in one pool dispatch.

    The injector comes from the worker's artifact store: the first task
    per (program, scheme) on a worker builds it from the spec, decoding
    the program and adopting the golden run the worker inherited by fork,
    or executing it where the worker has none; every later task reuses it.
    Returns the wall seconds spent alongside the shard results so the
    parent can calibrate adaptive task sizing.
    """
    from repro.chaos import chaos_point

    spec, shards, seed, reference_dyn = task
    injector = store.get(spec.key, spec.build, counter="pool.worker_cache")
    out: list[ShardResult] = []
    t0 = time.perf_counter()
    for shard_index, shard_trials in shards:
        chaos_point("worker.shard")
        out.append(
            injector.run_shard(shard_index, shard_trials, seed, reference_dyn)
        )
    return (time.perf_counter() - t0, out)


def run_campaign(
    program: Program,
    trials: int,
    seed: int,
    mem_words: int | None = None,
    frame_words: int = 0,
    reference_dyn: int | None = None,
    progress: ProgressCallback | None = None,
    jobs: int | None = 1,
    fault_model: str = DEFAULT_FAULT_MODEL,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    backend: str | None = None,
    shard_timeout: float | None = None,
) -> CampaignResult:
    """Convenience wrapper: profile + campaign in one call."""
    injector = FaultInjector(
        program, mem_words=mem_words, frame_words=frame_words,
        fault_model=fault_model, backend=backend,
    )
    return injector.run_campaign(
        trials, seed, reference_dyn=reference_dyn,
        progress=progress, jobs=jobs,
        checkpoint=checkpoint, resume=resume,
        shard_timeout=shard_timeout,
    )
