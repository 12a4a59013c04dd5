"""The shared issue-to-issue latency model for dependence edges.

Both the BUG assignment heuristic (completion-cycle estimates) and the list
scheduler (hard constraints) must price edges identically, otherwise BUG's
greedy choices would be made against a different cost model than the one the
final schedule obeys.  This module is that single pricing function.

``dst.issue >= src.issue + edge_issue_latency(...)`` where:

* ``DATA``  — producer's latency, plus the inter-cluster delay when the
  consumer executes on a different cluster than the producer (the paper's
  remote-register-file access penalty);
* ``ANTI``  — 0 (read happens at issue, before the same-cycle write lands);
* ``OUTPUT``— producer's latency (second write must land strictly later);
* ``MEM``   — 1 after a store-like op (its memory effect lands at end of
  cycle), 0 after a load (a later store may share the cycle: reads are
  performed before writes within a cycle);
* ``CTRL``  — 1 after a check's branch (it must resolve before the guarded
  instruction executes); producer's full latency for the terminator
  barrier (the block's branch leaves only after everything completed).

:func:`block_shape` packages what both consumers derive from a block before
pricing any placement: its DFG, the critical-path heights under
same-cluster latencies, and each instruction's in-block DATA operands.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ScheduleError
from repro.ir.basic_block import BasicBlock
from repro.ir.dfg import DFG, DepKind, Edge
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig


def edge_issue_latency(
    edge: Edge,
    src: Instruction,
    machine: MachineConfig,
    src_cluster: int | None = None,
    dst_cluster: int | None = None,
) -> int:
    """Minimum issue-cycle distance implied by ``edge``.

    Cluster arguments default to the instructions' assigned clusters; pass
    them explicitly when evaluating hypothetical placements (BUG does).
    """
    kind = edge.kind
    if kind is DepKind.DATA:
        lat = machine.latency_of(src.opcode)
        if src_cluster is None:
            src_cluster = src.cluster
        if src_cluster is None or dst_cluster is None:
            raise ScheduleError("DATA edge pricing needs both clusters")
        if src_cluster != dst_cluster:
            lat += machine.inter_cluster_delay
        return lat
    if kind is DepKind.ANTI:
        return 0
    if kind is DepKind.OUTPUT:
        return machine.latency_of(src.opcode)
    if kind is DepKind.MEM:
        return 1 if (src.info.is_store or src.info.is_out) else 0
    if kind is DepKind.CTRL:
        if src.opcode is Opcode.CHKBR:
            return 1
        return machine.latency_of(src.opcode)
    raise ScheduleError(f"unknown dependence kind {kind}")  # pragma: no cover


def same_cluster_edge_latency(edge: Edge, src: Instruction, machine: MachineConfig) -> int:
    """Edge latency assuming no cluster crossing (used for priority heights)."""
    if edge.kind is DepKind.DATA:
        return machine.latency_of(src.opcode)
    return edge_issue_latency(edge, src, machine, src_cluster=0, dst_cluster=0)


@dataclass(frozen=True)
class BlockShape:
    """The cluster-independent facts BUG and the list scheduler need.

    ``heights[i]`` is instruction ``i``'s critical-path height under
    same-cluster latencies; ``data_operands[i]`` holds the registers it
    reads through an in-block DATA edge.  None of it depends on the
    cluster assignment, so CASTED builds one shape per block and reuses it
    across every candidate placement it tries.  It is valid only while the
    block's instruction list is unchanged.
    """

    dfg: DFG
    heights: list[int]
    data_operands: list[frozenset[Reg]]


def block_shape(block: BasicBlock, machine: MachineConfig) -> BlockShape:
    """Build ``block``'s dependence graph, heights and in-block operands."""
    dfg = DFG(block)
    insns = block.instructions
    heights = dfg.heights(
        lambda e: same_cluster_edge_latency(e, insns[e.src], machine)
    )
    data_operands = [
        frozenset(e.reg for e in preds if e.kind is DepKind.DATA)
        for preds in dfg.preds
    ]
    return BlockShape(dfg, heights, data_operands)
