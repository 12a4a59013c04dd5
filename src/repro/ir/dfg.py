"""Per-block data-flow graphs (the structure CASTED's Fig. 2/3 draw).

Nodes are instruction indices within one basic block; edges carry the
dependence kind.  The graph encodes every ordering constraint the VLIW
scheduler and the BUG assignment pass must honour:

* ``DATA`` — true register dependence (carries the register, so the
  scheduler can charge the inter-cluster delay when producer and consumer
  land on different clusters);
* ``ANTI`` / ``OUTPUT`` — register reuse hazards (post-regalloc code reuses
  physical registers heavily);
* ``MEM`` — conservative program order among memory operations and ``OUT``
  (no alias analysis: stores order everything, loads reorder freely between
  stores);
* ``CTRL`` — a check's branch precedes the non-replicated instruction it
  guards, and the block terminator issues only after every other
  instruction has completed (block boundaries are scheduling barriers).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.ir.basic_block import BasicBlock
from repro.isa.instruction import Instruction, Role
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg


class DepKind(enum.Enum):
    DATA = "data"
    ANTI = "anti"
    OUTPUT = "output"
    MEM = "mem"
    CTRL = "ctrl"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DepKind.{self.name}"


class Edge(NamedTuple):
    """Dependence edge ``src -> dst`` (instruction indices in the block)."""

    src: int
    dst: int
    kind: DepKind
    reg: Reg | None = None


def dependence_edges(insns: list[Instruction]) -> list[Edge]:
    """Every dependence edge among ``insns``, grouped by destination.

    The edges into instruction ``i`` precede those into ``i + 1``; no edge
    is a self-loop.  :class:`DFG` indexes this list by node, and
    :func:`repro.passes.latency.block_shape` prices it straight into
    tables without building the graph.
    """
    edges: list[Edge] = []
    add = edges.append
    last_def: dict[Reg, int] = {}
    readers: dict[Reg, list[int]] = {}
    last_store: int | None = None
    loads_since_store: list[int] = []
    # Spill-frame accesses are disambiguated exactly by slot: the frame is
    # private to the allocator, so they only order against the same slot.
    fp_last_store: dict[int | None, int] = {}
    fp_loads: dict[int | None, list[int]] = {}
    pending_checks: list[int] = []  # CHKBRs not yet anchored by an N.R. insn
    # Enum members bound once: class-attribute lookups on an ``Enum`` are slow.
    DATA, ANTI, OUTPUT = DepKind.DATA, DepKind.ANTI, DepKind.OUTPUT
    MEM, CTRL = DepKind.MEM, DepKind.CTRL
    LOADFP, STOREFP, CHKBR = Opcode.LOADFP, Opcode.STOREFP, Opcode.CHKBR
    SPILL = Role.SPILL

    for i, insn in enumerate(insns):
        opcode = insn.opcode
        info = opcode.info
        # Register dependences (an instruction never depends on itself).
        for r in insn.srcs:
            d = last_def.get(r)
            if d is not None:
                add(Edge(d, i, DATA, r))
            reading = readers.get(r)
            if reading is None:
                readers[r] = [i]
            else:
                reading.append(i)
        for r in insn.dests:
            # The readers since the last definition, which this one ends.
            for j in readers.pop(r, ()):
                if j != i:
                    add(Edge(j, i, ANTI, r))
            d = last_def.get(r)
            if d is not None:
                add(Edge(d, i, OUTPUT, r))
            last_def[r] = i
        # Memory / output ordering (OUT is ordered like a store so the
        # output stream keeps program order).
        if opcode is LOADFP:
            slot_id = insn.imm
            if slot_id in fp_last_store:
                add(Edge(fp_last_store[slot_id], i, MEM))
            fp_loads.setdefault(slot_id, []).append(i)
        elif opcode is STOREFP:
            slot_id = insn.imm
            if slot_id in fp_last_store:
                add(Edge(fp_last_store[slot_id], i, MEM))
            for j in fp_loads.get(slot_id, ()):
                add(Edge(j, i, MEM))
            fp_last_store[slot_id] = i
            fp_loads[slot_id] = []
        elif info.is_load:
            if last_store is not None:
                add(Edge(last_store, i, MEM))
            loads_since_store.append(i)
        elif info.is_store or info.is_out:
            if last_store is not None:
                add(Edge(last_store, i, MEM))
            for j in loads_since_store:
                add(Edge(j, i, MEM))
            last_store = i
            loads_since_store = []
        # A check's branch must resolve before the instruction it guards
        # (the next non-replicated side-effecting instruction) executes.
        if opcode is CHKBR:
            pending_checks.append(i)
        elif (
            (info.is_store or info.is_out or info.is_terminator)
            and insn.role is not SPILL
        ):
            for c in pending_checks:
                add(Edge(c, i, CTRL))
            pending_checks = []

    # Block terminator is a barrier: it issues only after every other
    # instruction in the block has completed.
    if insns and insns[-1].info.is_terminator:
        t = len(insns) - 1
        existing = set()
        for e in reversed(edges):  # the edges into ``t`` come last
            if e.dst != t:
                break
            existing.add(e.src)
        for i in range(t):
            if i not in existing:
                add(Edge(i, t, CTRL))
    return edges


class DFG:
    """Dependence graph of one basic block."""

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        n = len(block.instructions)
        self.n = n
        self.edges: list[Edge] = dependence_edges(block.instructions)
        self.succs: list[list[Edge]] = [[] for _ in range(n)]
        self.preds: list[list[Edge]] = [[] for _ in range(n)]
        for edge in self.edges:
            self.succs[edge.src].append(edge)
            self.preds[edge.dst].append(edge)

    # -- queries ---------------------------------------------------------------
    def roots(self) -> list[int]:
        """Nodes with no predecessors."""
        return [i for i in range(self.n) if not self.preds[i]]

    def is_dag(self) -> bool:
        """All edges must point forward in program order."""
        return all(e.src < e.dst for e in self.edges)

    def heights(self, edge_latency) -> list[int]:
        """Critical-path height of each node under ``edge_latency(edge) -> int``.

        Height(n) = max over successor edges of latency + height(succ); leaf
        height is the node's own latency contribution 0.  Used as the list
        scheduler's priority and as BUG's critical-path ordering.
        """
        h = [0] * self.n
        for i in range(self.n - 1, -1, -1):
            best = 0
            for e in self.succs[i]:
                cand = edge_latency(e) + h[e.dst]
                if cand > best:
                    best = cand
            h[i] = best
        return h
