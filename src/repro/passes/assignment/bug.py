"""The Bottom-Up-Greedy (BUG) clustering algorithm — paper Algorithm 2.

Per basic block, instructions are visited in topological order with
preference to the critical path; for each instruction the *completion cycle*
on every candidate cluster is estimated — operand readiness (including the
inter-cluster delay for operands living on the other cluster, both in-block
and cross-block) plus issue-slot availability — and the instruction is
greedily assigned to the cluster where it completes earliest.  The chosen
(cycle, cluster) slot is then reserved.

The estimate reads the *same* priced edges as the final list scheduler
(:func:`repro.passes.latency.block_shape`), so greedy decisions are made
against the cost model the schedule will actually obey.  A placed
instruction prices its edges into its successors once, per cluster it sits
on, and every candidate cluster of a successor reads those sums.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ScheduleError
from repro.ir.basic_block import BasicBlock
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry
from repro.passes.latency import BlockShape, block_shape


@dataclass
class BugBlockResult:
    """Estimated issue cycles (diagnostics; the list scheduler decides last)."""

    issue_estimate: list[int]
    estimated_length: int


def bug_assign_block(
    block: BasicBlock,
    machine: MachineConfig,
    pinned: dict[Reg, int],
    candidate_clusters: tuple[int, ...] | None = None,
    home_hints: dict[Reg, int] | None = None,
    shape: BlockShape | None = None,
) -> BugBlockResult:
    """Assign ``insn.cluster`` for every instruction of ``block`` in place.

    ``pinned`` maps registers to their home cluster; definitions of a pinned
    register are forced onto its home (single-home invariant) and reads of
    cross-block operands are charged the inter-cluster delay against their
    pinned home.  The map is updated as new definitions are placed.

    ``home_hints`` supplies *predicted* homes (from a previous assignment
    iteration) for registers not pinned yet, so cross-block operand costs
    are priced even for blocks processed early.

    ``shape`` is the block's :func:`~repro.passes.latency.block_shape`,
    built here when not given.
    """
    hints = home_hints or {}
    if shape is None:
        shape = block_shape(block, machine)
    # Critical-path priority: height under same-cluster latencies.
    heights = shape.heights
    insns = block.instructions
    n = shape.n
    n_clusters = machine.n_clusters
    if candidate_clusters is None:
        candidate_clusters = tuple(range(n_clusters))
    if any(not 0 <= c < n_clusters for c in candidate_clusters):
        raise ScheduleError(f"candidate clusters {candidate_clusters} out of range")
    delay = machine.inter_cluster_delay
    width = machine.issue_width

    used: list[list[int]] = [[] for _ in range(n_clusters)]  # slots per cycle
    issue_of: list[int] = [-1] * n
    cluster_load = [0] * n_clusters  # total slots reserved so far
    waiting = list(shape.n_preds)
    # Each placed instruction prices its edges into its successors once:
    # the issue cycle they allow if every operand is local, and per
    # cluster ``k`` (flattened, ``j * n_clusters + k``) the cycle and the
    # number of DATA operands of the predecessors placed on ``k``, for
    # candidates that read those remotely.
    local_ready = [0] * n
    remote_at = [0] * (n * n_clusters)
    operands_on = [0] * (n * n_clusters)

    # Ready queue ordered by (critical path first, then program order).
    ready: list[tuple[int, int]] = []
    for i in range(n):
        if not waiting[i]:
            heapq.heappush(ready, (-heights[i], i))

    while ready:
        _, i = heapq.heappop(ready)
        insn = insns[i]

        # Candidate clusters: a pinned destination forces its home cluster.
        cands = candidate_clusters
        for d in insn.dests:
            home = pinned.get(d)
            if home is not None:
                cands = (home,)
                break

        row = i * n_clusters
        remote_row = remote_at[row:row + n_clusters]
        operands_row = operands_on[row:row + n_clusters]
        # Cross-block operands: reading a remote home costs the delay from
        # the top of the block.
        reads_from: list[int] = []
        for r in shape.remote_reads[i]:
            home = pinned.get(r)
            if home is None:
                home = hints.get(r)
            if home is not None:
                reads_from.append(home)
        n_operands = sum(operands_row)

        # Choice key: earliest completion first (the Algorithm 2 heuristic),
        # then fewest cross-cluster operand reads, then the less loaded
        # cluster (ties mean the delay is irrelevant, so balance resources),
        # then the lower index for determinism.
        best: tuple[int, int, int, int] | None = None
        best_issue = 0
        for c in cands:
            ready_cycle = local_ready[i]
            for k in range(n_clusters):
                if k != c and remote_row[k] > ready_cycle:
                    ready_cycle = remote_row[k]
            cross_reads = n_operands - operands_row[c]
            for home in reads_from:
                if home != c:
                    cross_reads += 1
                    if delay > ready_cycle:
                        ready_cycle = delay
            slots = used[c]
            issue = ready_cycle
            while issue < len(slots) and slots[issue] >= width:
                issue += 1
            completion = issue + shape.latency[i]
            key = (completion, cross_reads, cluster_load[c], c)
            if best is None or key < best:
                best = key
                best_issue = issue

        assert best is not None
        cluster = best[3]
        insn.cluster = cluster
        issue_of[i] = best_issue
        slots = used[cluster]
        if best_issue >= len(slots):
            slots.extend([0] * (best_issue + 1 - len(slots)))
        slots[best_issue] += 1
        cluster_load[cluster] += 1
        for d in insn.dests:
            pinned.setdefault(d, cluster)

        for j, lat, data_lat in shape.succs[i]:
            if best_issue + lat > local_ready[j]:
                local_ready[j] = best_issue + lat
            if data_lat >= 0:
                k = j * n_clusters + cluster
                operands_on[k] += 1
                if best_issue + data_lat + delay > remote_at[k]:
                    remote_at[k] = best_issue + data_lat + delay
            waiting[j] -= 1
            if not waiting[j]:
                heapq.heappush(ready, (-heights[j], j))

    length = max(issue_of) + 1 if issue_of else 0
    tel = get_telemetry()
    if tel.enabled:
        tel.count("assign.bug.blocks")
        tel.observe("assign.bug.estimated_length", length)
        if n:
            # Completion-cycle spread: how far greedy placement pushed the
            # last instruction past a perfectly packed lower bound.
            lower = -(-n // (machine.issue_width * machine.n_clusters))
            tel.observe("assign.bug.length_vs_packed", length / max(1, lower))
    return BugBlockResult(issue_estimate=issue_of, estimated_length=length)
