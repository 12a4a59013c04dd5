"""Batched fault-trial execution: one decoded program, N trials per group.

Every trial in a Monte-Carlo campaign shares the golden control flow until
its first injected fault diverges — the same amortize-the-redundancy
structure MEEK exploits for cheap parallel error detection and RepTFD
exploits by replaying against a single reference trace.  This module
leans on it *per group*:

1. **Group planning** (:func:`plan_groups`): a shard's trials are bucketed
   by the nearest golden snapshot at or before their earliest fault, then
   sorted by fault position inside each bucket.
2. **Shared prefix advance**: each group restores its snapshot *once* and
   a :class:`~repro.sim.compiled.TraceAdvancer` pushes the architectural
   state forward along the recorded golden block trace — a single
   Python-level dispatch per block visit serves every trial in the group,
   instead of each trial re-executing the prefix privately.
3. **Divergence peel-off**: at the block boundary where a trial's first
   fault lands, its state is forked (trials whose faults share a block
   share the fork) and the trial peels off to
   :meth:`~repro.ir.interp.Interpreter.run`, which applies faults exactly
   as a replay from reset does and runs every fault-free stretch of the
   suffix on its chained fast loop, whatever the control flow.
4. **Golden shortcuts**: peeled trials carry a
   :class:`~repro.ir.interp.ConvergenceIndex`.  A trial whose state matches
   the golden state at a snapshot boundary fast-forwards to the last
   golden snapshot at or before its next pending fault, or, with every fault
   applied, finishes immediately with the golden final result (masked
   faults stop costing a full program suffix).

This is the compiled backend's only campaign engine; a single trial is a
one-trial group.  Each step preserves the determinism contract: faults are
pre-drawn in trial order from the untouched per-shard RNG stream, peel-off
applies faults through the same run loop a replay from reset uses, and
the golden shortcuts return exactly the :class:`RunResult` a full replay
would have produced — so a campaign's
:class:`~repro.faults.injector.CampaignResult` is bit-identical to the
interp backend's replay-from-zero oracle (asserted across the workload x
scheme x fault model matrix in ``tests/test_batch.py``).  See
``docs/performance.md``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.ir.interp import (
    ConvergenceIndex,
    FaultSpec,
    Interpreter,
    RunResult,
    Snapshot,
)
from repro.sim.compiled import TraceAdvancer


@dataclass(frozen=True)
class TrialPlan:
    """One planned trial: its shard-local index and pre-drawn faults."""

    index: int
    faults: tuple[FaultSpec, ...]

    @property
    def first_dyn(self) -> int:
        return min(f.dyn_index for f in self.faults)


@dataclass(frozen=True)
class BatchGroup:
    """Trials sharing a golden snapshot bucket, sorted by fault position.

    ``snap_index`` is an index into the injector's snapshot list, or ``-1``
    for the reset-state bucket (faults before the first snapshot, or
    campaigns running without snapshots).
    """

    snap_index: int
    trials: tuple[TrialPlan, ...]


@dataclass
class GroupStats:
    """What one batched shard amortized (feeds ``campaign.batch_*``)."""

    groups: int = 0
    restores: int = 0
    #: Golden-prefix instructions executed once by the shared advance.
    golden_advanced: int = 0
    #: Sum over trials of the prefix each one did *not* re-execute.
    skipped_dyn: int = 0
    #: Trials finished by the golden re-convergence early exit.
    converged: int = 0
    #: Golden fast-forwards between a trial's pending faults.
    forwards: int = 0
    #: Post-fault block visits executed on the chained fast loop.
    guided_visits: int = 0


def plan_groups(
    plans: list[TrialPlan], snap_keys: list[int]
) -> list[BatchGroup]:
    """Bucket trials by nearest snapshot at or before their earliest fault.

    A pure function of the trial plans and the snapshot positions — the
    grouping never touches the RNG, so the engine and the interp oracle
    draw identical fault sequences.  A fault at ``dyn_index`` fires once
    ``dyn_index + 1`` instructions have committed, so any snapshot with
    ``dyn <= dyn_index`` is a safe resume point.  Groups are returned in snapshot order and
    trials inside a group in (first fault, trial index) order, which makes
    the shared prefix advance strictly forward.
    """
    buckets: dict[int, list[TrialPlan]] = {}
    for plan in plans:
        i = bisect_right(snap_keys, plan.first_dyn) - 1 if snap_keys else -1
        buckets.setdefault(i, []).append(plan)
    return [
        BatchGroup(
            snap_index=i,
            trials=tuple(
                sorted(buckets[i], key=lambda t: (t.first_dyn, t.index))
            ),
        )
        for i in sorted(buckets)
    ]


class BatchRunner:
    """Run planned trial groups against one profiled golden execution.

    Built once per compiled-backend
    :class:`~repro.faults.injector.FaultInjector` (lazily, on its first
    trial) from the injector's golden run, snapshot list and visit table;
    stateless across shards apart from the shared interpreter whose state
    every run resets or restores anyway.  It references the snapshots
    (which are read-only and may be shared with other injectors of the same
    program) and never copies them.
    """

    def __init__(
        self,
        interp: Interpreter,
        golden: RunResult,
        snapshots: list[Snapshot],
        visit_dyn_start: np.ndarray,
        max_steps: int,
    ) -> None:
        self.interp = interp
        self.golden = golden
        self.snapshots = snapshots
        self._visit_dyn_start = visit_dyn_start
        self.max_steps = max_steps
        self._trace = golden.block_trace
        self._advancer = TraceAdvancer(interp, golden.block_trace)
        self._converge = (
            ConvergenceIndex(snapshots, golden) if snapshots else None
        )
        #: Snapshot positions: the planner's buckets and the convergence
        #: boundaries are one list.
        self.snap_keys: list[int] = (
            self._converge.keys if self._converge is not None else []
        )

    def plan(self, plans: list[TrialPlan]) -> list[BatchGroup]:
        return plan_groups(plans, self.snap_keys)

    def _fork_visit(self, first_dyn: int) -> int:
        """Index of the golden block visit containing the first fault."""
        return int(
            np.searchsorted(self._visit_dyn_start, first_dyn, side="right") - 1
        )

    def run_group(
        self,
        group: BatchGroup,
        emit: Callable[[TrialPlan, RunResult], None],
        stats: GroupStats,
    ) -> None:
        """Advance the shared prefix once, then peel every trial off.

        ``emit(plan, result)`` fires once per trial, in the group's fault
        order; the caller reassembles trial order (outcome counts are
        order-insensitive, latencies are re-sorted by trial index).
        """
        interp = self.interp
        vds = self._visit_dyn_start
        if group.snap_index >= 0:
            snap = self.snapshots[group.snap_index]
            interp.restore(snap)
            cur_visit = int(np.searchsorted(vds, snap.dyn, side="left"))
            start_dyn = snap.dyn
            stats.restores += 1
        else:
            interp.reset_state()
            cur_visit = 0
            start_dyn = 0
        stats.groups += 1

        # Phase 1 — shared advance: walk the golden prefix once, capturing
        # a fork (full architectural state) at each distinct fault block.
        forks: list[tuple[TrialPlan, Snapshot]] = []
        fork: Snapshot | None = None
        for plan in group.trials:
            fv = self._fork_visit(plan.first_dyn)
            if fork is None or fv != cur_visit:
                self._advancer.advance(cur_visit, fv)
                cur_visit = fv
                fork = Snapshot(
                    dyn=int(vds[fv]),
                    label=self._trace[fv],
                    regs=interp._R[:],
                    mem=interp._M[:],
                    output=tuple(interp._O),
                )
            forks.append((plan, fork))
            stats.skipped_dyn += fork.dyn
        stats.golden_advanced += int(vds[cur_visit]) - start_dyn

        # Phase 2 — divergence peel-off: each trial runs from its fork, with
        # the convergence index as its fast-forward and early exit.
        converge = self._converge
        hits0 = converge.hits if converge is not None else 0
        forwards0 = converge.forwards if converge is not None else 0
        chained0 = interp.chained_visits
        for plan, fork in forks:
            result = interp.run(
                faults=plan.faults,
                max_steps=self.max_steps,
                resume_from=fork,
                converge=converge,
            )
            emit(plan, result)
        if converge is not None:
            stats.converged += converge.hits - hits0
            stats.forwards += converge.forwards - forwards0
        stats.guided_visits += interp.chained_visits - chained0
