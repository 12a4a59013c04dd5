"""Issue traces (the SKI-style debugging view).

Replays a compiled program's block-visit sequence against its static
schedules and emits one record per issued instruction with its global issue
cycle in *compute time* — dynamic memory stalls are not folded in (they
stall the whole machine uniformly and are reported in aggregate by
``SimResult.stall_cycles``), so the trace's final cycle equals
``SimResult.cycles - SimResult.stall_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.pipeline import CompiledProgram
from repro.sim.executor import VLIWExecutor


@dataclass(frozen=True)
class IssueRecord:
    """One instruction issue."""

    cycle: int  # global cycle of issue
    cluster: int
    slot: int
    block: str
    text: str  # rendered instruction
    role: str


def issue_trace(
    compiled: CompiledProgram, max_records: int | None = None
) -> Iterator[IssueRecord]:
    """Yield issue records in global time order.

    Runs the program once on the cycle-level executor's functional model
    to obtain the block-visit sequence, then unrolls the static schedules.
    """
    visits: list[int] = []
    VLIWExecutor(compiled).functional_run(visit_sink=visits.append)

    labels = compiled.program.main.block_labels()
    emitted = 0
    global_cycle = 0
    for label in map(labels.__getitem__, visits):
        block = compiled.program.main.block(label)
        sched = compiled.schedules.blocks[label]
        order = sorted(
            range(len(block.instructions)),
            key=lambda i: (sched.cycle_of[i], sched.slot_of[i], i),
        )
        for i in order:
            if max_records is not None and emitted >= max_records:
                return
            insn = block.instructions[i]
            yield IssueRecord(
                cycle=global_cycle + sched.cycle_of[i],
                cluster=insn.cluster if insn.cluster is not None else 0,
                slot=sched.slot_of[i],
                block=label,
                text=str(insn),
                role=insn.role.value,
            )
            emitted += 1
        global_cycle += sched.length


def render_issue_trace(
    compiled: CompiledProgram, max_records: int = 64
) -> str:
    """Text rendering of the first ``max_records`` issues."""
    lines = [f"{'cycle':>7s}  cl/slot  {'block':16s} instruction"]
    for rec in issue_trace(compiled, max_records=max_records):
        lines.append(
            f"{rec.cycle:7d}  c{rec.cluster}/s{rec.slot}    {rec.block:16s} {rec.text}"
        )
    return "\n".join(lines)
