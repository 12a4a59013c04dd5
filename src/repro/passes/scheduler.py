"""Resource- and delay-aware VLIW list scheduler.

Schedules each basic block independently (block boundaries are barriers;
branch prediction is perfect, per Table I).  The cluster of every
instruction is fixed by the preceding assignment pass; the scheduler packs
instructions into per-cluster issue slots, honouring

* every DFG edge priced by :mod:`repro.passes.latency` (true deps pay the
  inter-cluster delay when they cross clusters),
* the remote-operand rule for cross-block operands: reading a register
  whose home file is the other cluster costs the delay from block entry,
* per-cluster issue width.

Priority is critical-path height, then program order — the same preference
order BUG uses, so the schedule realizes the assignment's intent.

The scheduler is event driven.  Each cluster keeps a heap of the
instructions that may issue now, ordered by ``(-height, index)``; an
instruction whose last predecessor issued but whose operands arrive later
waits in a wake-up bucket for that cycle.  Each cycle takes the best head
among the clusters that still have a free slot, until none does, and
cycles in which nothing can issue are skipped.  That is the same order in
which a cycle-by-cycle list scheduler fills the slots: passing over an
instruction that cannot issue this cycle changes nothing.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import cast

from repro.errors import ScheduleError
from repro.ir.basic_block import BasicBlock
from repro.ir.program import Program
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry
from repro.passes.assignment.base import validate_function_assignment
from repro.passes.base import FunctionPass, PassContext
from repro.passes.latency import BlockShape, ShapeCache, block_shape


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
    """Schedules every block; changes no IR.

    ``ctx.artifacts["block-shapes"]``, a
    :class:`~repro.passes.latency.ShapeCache` of the function being
    scheduled, supplies the block shapes; without one, each block's shape
    is built here.
    """

    name = "schedule"
    changes_ir = False

    def run(self, program: Program, ctx: PassContext) -> bool:
        if ctx.machine is None:
            raise ScheduleError("scheduling needs a machine config")
        machine = ctx.machine
        functions = program.functions()
        # Every function is scheduled, against the home map its validation
        # returns (registers are function-local); the schedule validator
        # rejects any block left without a schedule.
        homes_of = [
            validate_function_assignment(fn, machine.n_clusters) for fn in functions
        ]
        cache: ShapeCache | None = ctx.artifacts.get("block-shapes")
        result = ScheduleResult()
        tel = get_telemetry()
        track = tel.enabled
        for function, homes in zip(functions, homes_of):
            shapes = (
                cache.shapes(machine)
                if cache is not None and cache.function is function
                else {}
            )
            for block in function.blocks():
                sched = schedule_block(block, machine, homes, shapes.get(block.label))
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


def remote_ready(
    shape: BlockShape,
    clusters: Sequence[int],
    home_of: Callable[[Reg], int | None],
    delay: int,
) -> list[int]:
    """Each instruction's earliest issue cycle from cross-block operands.

    Reading a register whose home (``home_of(reg)``, ``None`` when
    unknown) is another cluster costs ``delay`` from block entry.
    """
    ready = [0] * len(clusters)
    for i, regs in enumerate(shape.remote_reads):
        for r in regs:
            home = home_of(r)
            if home is not None and home != clusters[i]:
                ready[i] = delay
                break
    return ready


def list_schedule(
    shape: BlockShape,
    clusters: Sequence[int],
    ready_at: list[int],
    machine: MachineConfig,
) -> tuple[list[int], list[int], int]:
    """Issue cycle and slot of every instruction of a block, and its length.

    ``clusters[i]`` is instruction ``i``'s cluster and ``ready_at[i]`` its
    earliest issue cycle from cross-block operands (:func:`remote_ready`);
    the list is updated in place as predecessors issue.  An empty block
    takes one cycle.
    """
    n = shape.n
    n_clusters = machine.n_clusters
    width = machine.issue_width
    delay = machine.inter_cluster_delay
    if n and (min(clusters) < 0 or max(clusters) >= n_clusters):
        raise ScheduleError(f"cluster out of range in {list(clusters)}")
    succs = shape.succs
    heights = shape.heights
    waiting = list(shape.n_preds)  # predecessors not issued yet
    cycle_of = [-1] * n
    slot_of = [-1] * n
    heaps: list[list[tuple[int, int]]] = [[] for _ in range(n_clusters)]
    wake: dict[int, list[int]] = {}
    for i in range(n):
        if not waiting[i]:
            if ready_at[i]:
                wake.setdefault(ready_at[i], []).append(i)
            else:
                heappush(heaps[clusters[i]], (-heights[i], i))

    cycle = 0
    done = 0
    while done < n:
        if not any(heaps):
            cycle = min(wake)
        for i in wake.pop(cycle, ()):
            heappush(heaps[clusters[i]], (-heights[i], i))
        used = [0] * n_clusters
        while True:
            best: tuple[int, int] | None = None
            best_c = 0
            for c in range(n_clusters):
                heap = heaps[c]
                if heap and used[c] < width and (best is None or heap[0] < best):
                    best = heap[0]
                    best_c = c
            if best is None:
                break
            heappop(heaps[best_c])
            i = best[1]
            cycle_of[i] = cycle
            slot_of[i] = used[best_c]
            used[best_c] += 1
            done += 1
            for j, lat, data_lat in succs[i]:
                if data_lat >= 0 and clusters[j] != best_c and data_lat + delay > lat:
                    lat = data_lat + delay
                if cycle + lat > ready_at[j]:
                    ready_at[j] = cycle + lat
                waiting[j] -= 1
                if not waiting[j]:
                    if ready_at[j] <= cycle:
                        heappush(heaps[clusters[j]], (-heights[j], j))
                    else:
                        wake.setdefault(ready_at[j], []).append(j)
        cycle += 1
    return cycle_of, slot_of, max(cycle, 1)


def schedule_block(
    block: BasicBlock,
    machine: MachineConfig,
    homes: dict[Reg, int],
    shape: BlockShape | None = None,
) -> BlockSchedule:
    """List-schedule one block given every instruction's cluster.

    ``homes`` maps registers to their home cluster for the cross-block
    remote-operand rule; registers absent from the map are assumed local
    (CASTED prices candidate placements against *partial* maps).
    ``shape`` is the block's :func:`~repro.passes.latency.block_shape`,
    built here when not given.
    """
    if shape is None:
        shape = block_shape(block, machine)
    clusters = [insn.cluster for insn in block.instructions]
    if None in clusters:
        raise ScheduleError(f"unassigned instruction in block {block.label}")
    assigned = cast(list[int], clusters)
    ready = remote_ready(shape, assigned, homes.get, machine.inter_cluster_delay)
    cycle_of, slot_of, length = list_schedule(shape, assigned, ready, machine)
    return BlockSchedule(
        label=block.label,
        cycle_of=tuple(cycle_of),
        slot_of=tuple(slot_of),
        length=length,
    )
