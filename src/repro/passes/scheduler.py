"""Resource- and delay-aware VLIW list scheduler.

Schedules each basic block independently (block boundaries are barriers;
branch prediction is perfect, per Table I).  The cluster of every
instruction is fixed by the preceding assignment pass; the scheduler packs
instructions into per-cluster issue slots, honouring

* every DFG edge priced by :mod:`repro.passes.latency` (true deps pay the
  inter-cluster delay when they cross clusters),
* the remote-operand rule for cross-block operands: reading a register
  whose home file is the other cluster costs the delay from block entry,
* per-cluster issue width via a reservation table.

Priority is critical-path height, then program order — the same preference
order BUG uses, so the schedule realizes the assignment's intent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import ScheduleError
from repro.ir.basic_block import BasicBlock
from repro.ir.program import Program
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig
from repro.machine.reservation import ReservationTable
from repro.obs import get_telemetry
from repro.passes.assignment.base import (
    collect_function_def_clusters,
    validate_assignment,
)
from repro.passes.base import FunctionPass, PassContext
from repro.passes.latency import BlockShape, block_shape, edge_issue_latency


@dataclass(frozen=True)
class BlockSchedule:
    """Static schedule of one block.

    ``cycle_of[i]`` / ``slot_of[i]`` give the issue cycle and the slot
    (within the instruction's cluster) of ``block.instructions[i]``.
    ``length`` is the block's cycle count absent dynamic stalls.
    """

    label: str
    cycle_of: tuple[int, ...]
    slot_of: tuple[int, ...]
    length: int


@dataclass
class ScheduleResult:
    """All block schedules plus whole-program static statistics."""

    blocks: dict[str, BlockSchedule] = field(default_factory=dict)

    def total_slots(self) -> int:
        return sum(len(b.cycle_of) for b in self.blocks.values())

    def total_cycles_static(self) -> int:
        return sum(b.length for b in self.blocks.values())


class ListScheduler(FunctionPass):
    name = "schedule"

    def run(self, program: Program, ctx: PassContext) -> bool:
        if ctx.machine is None:
            raise ScheduleError("scheduling needs a machine config")
        machine = ctx.machine
        validate_assignment(program, machine.n_clusters)
        result = ScheduleResult()
        tel = get_telemetry()
        track = tel.enabled
        # Every function is scheduled (registers are function-local, so each
        # function uses its own home map); the schedule validator rejects any
        # block left without a schedule.
        for function in program.functions():
            homes = collect_function_def_clusters(function)
            for block in function.blocks():
                sched = schedule_block(block, machine, homes)
                result.blocks[block.label] = sched
                if track:
                    # Slot-reservation pressure: fraction of the block's issue
                    # slots (length x width x clusters) actually reserved.
                    capacity = sched.length * machine.issue_width * machine.n_clusters
                    tel.observe("sched.block_length", sched.length)
                    if capacity:
                        tel.observe(
                            "sched.slot_pressure", len(sched.cycle_of) / capacity
                        )
        ctx.artifacts["schedule"] = result
        ctx.record(
            self.name,
            static_cycles=result.total_cycles_static(),
            instructions=result.total_slots(),
        )
        return True


def schedule_block(
    block: BasicBlock,
    machine: MachineConfig,
    homes: dict[Reg, int],
    shape: BlockShape | None = None,
) -> BlockSchedule:
    """List-schedule one block given every instruction's cluster.

    ``homes`` maps registers to their home cluster for the cross-block
    remote-operand rule; registers absent from the map are assumed local
    (the CASTED assignment pass also calls this with a *partial* map to
    evaluate candidate placements).  ``shape`` is the block's
    :func:`~repro.passes.latency.block_shape`, built here when not given.
    """
    if shape is None:
        shape = block_shape(block, machine)
    dfg = shape.dfg
    heights = shape.heights
    insns = block.instructions
    n = dfg.n
    delay = machine.inter_cluster_delay

    # Earliest issue from cross-block remote operands.
    base_ready = [0] * n
    defined_in_block: set[Reg] = set()
    for i, insn in enumerate(insns):
        data_ops = shape.data_operands[i]
        for r in insn.reads():
            if r in data_ops or r in defined_in_block:
                continue
            home = homes.get(r)
            if home is not None and insn.cluster is not None and home != insn.cluster:
                base_ready[i] = max(base_ready[i], delay)
        for d in insn.writes():
            defined_in_block.add(d)

    table = ReservationTable(machine.n_clusters, machine.issue_width)
    cycle_of = [-1] * n
    slot_of = [-1] * n
    unscheduled_preds = [len(dfg.preds[i]) for i in range(n)]
    ready_at = [0] * n  # earliest legal issue cycle, updated as preds land

    ready: list[tuple[int, int]] = []  # (-height, index)
    for i in range(n):
        ready_at[i] = base_ready[i]
        if unscheduled_preds[i] == 0:
            heapq.heappush(ready, (-heights[i], i))

    n_done = 0
    cycle = 0
    pending: list[tuple[int, int]] = []  # deferred, re-queued next cycle
    guard = 0
    while n_done < n:
        guard += 1
        if guard > 1_000_000:  # pragma: no cover - safety net
            raise ScheduleError(f"scheduler live-locked in block {block.label}")
        deferred: list[tuple[int, int]] = []
        while ready:
            prio, i = heapq.heappop(ready)
            if ready_at[i] > cycle:
                deferred.append((prio, i))
                continue
            cluster = insns[i].cluster
            if not table.has_free_slot(cycle, cluster):
                deferred.append((prio, i))
                continue
            slot = table.reserve(cycle, cluster)
            cycle_of[i] = cycle
            slot_of[i] = slot
            n_done += 1
            for e in dfg.succs[i]:
                j = e.dst
                lat = edge_issue_latency(
                    e,
                    insns[i],
                    machine,
                    src_cluster=insns[i].cluster,
                    dst_cluster=insns[j].cluster,
                )
                if cycle + lat > ready_at[j]:
                    ready_at[j] = cycle + lat
                unscheduled_preds[j] -= 1
                if unscheduled_preds[j] == 0:
                    heapq.heappush(ready, (-heights[j], j))
        for item in deferred:
            heapq.heappush(ready, item)
        if n_done < n:
            cycle += 1

    length = (max(cycle_of) + 1) if n else 1
    return BlockSchedule(
        label=block.label,
        cycle_of=tuple(cycle_of),
        slot_of=tuple(slot_of),
        length=length,
    )
