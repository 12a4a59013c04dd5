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
from dataclasses import dataclass

from repro.ir.basic_block import BasicBlock
from repro.isa.instruction import Role
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


@dataclass(frozen=True, slots=True)
class Edge:
    """Dependence edge ``src -> dst`` (instruction indices in the block)."""

    src: int
    dst: int
    kind: DepKind
    reg: Reg | None = None


class DFG:
    """Dependence graph of one basic block."""

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        n = len(block.instructions)
        self.n = n
        self.edges: list[Edge] = []
        self.succs: list[list[Edge]] = [[] for _ in range(n)]
        self.preds: list[list[Edge]] = [[] for _ in range(n)]
        self._build()

    def _add(self, src: int, dst: int, kind: DepKind, reg: Reg | None = None) -> None:
        if src == dst:
            return
        edge = Edge(src, dst, kind, reg)
        self.edges.append(edge)
        self.succs[src].append(edge)
        self.preds[dst].append(edge)

    def _build(self) -> None:
        insns = self.block.instructions
        last_def: dict[Reg, int] = {}
        readers: dict[Reg, list[int]] = {}
        last_store: int | None = None
        loads_since_store: list[int] = []
        # Spill-frame accesses are disambiguated exactly by slot: the frame is
        # private to the allocator, so they only order against the same slot.
        fp_last_store: dict[int, int] = {}
        fp_loads: dict[int, list[int]] = {}
        pending_checks: list[int] = []  # CHKBRs not yet anchored by an N.R. insn

        for i, insn in enumerate(insns):
            info = insn.info
            # Register dependences.
            for r in insn.reads():
                if r in last_def:
                    self._add(last_def[r], i, DepKind.DATA, r)
                readers.setdefault(r, []).append(i)
            for r in insn.writes():
                for j in readers.get(r, ()):
                    self._add(j, i, DepKind.ANTI, r)
                if r in last_def:
                    self._add(last_def[r], i, DepKind.OUTPUT, r)
                last_def[r] = i
                readers[r] = []
            # Memory / output ordering (OUT is ordered like a store so the
            # output stream keeps program order).
            if insn.opcode is Opcode.LOADFP:
                slot_id = insn.imm
                if slot_id in fp_last_store:
                    self._add(fp_last_store[slot_id], i, DepKind.MEM)
                fp_loads.setdefault(slot_id, []).append(i)
            elif insn.opcode is Opcode.STOREFP:
                slot_id = insn.imm
                if slot_id in fp_last_store:
                    self._add(fp_last_store[slot_id], i, DepKind.MEM)
                for j in fp_loads.get(slot_id, ()):
                    self._add(j, i, DepKind.MEM)
                fp_last_store[slot_id] = i
                fp_loads[slot_id] = []
            elif info.is_load:
                if last_store is not None:
                    self._add(last_store, i, DepKind.MEM)
                loads_since_store.append(i)
            elif info.is_store or info.is_out:
                if last_store is not None:
                    self._add(last_store, i, DepKind.MEM)
                for j in loads_since_store:
                    self._add(j, i, DepKind.MEM)
                last_store = i
                loads_since_store = []
            # A check's branch must resolve before the instruction it guards
            # (the next non-replicated side-effecting instruction) executes.
            if insn.opcode is Opcode.CHKBR:
                pending_checks.append(i)
            elif (
                (info.is_store or info.is_out or info.is_terminator)
                and insn.role is not Role.SPILL
            ):
                for c in pending_checks:
                    self._add(c, i, DepKind.CTRL)
                pending_checks = []

        # Block terminator is a barrier: it issues only after every other
        # instruction in the block has completed.
        if insns and insns[-1].info.is_terminator:
            t = len(insns) - 1
            existing = {e.src for e in self.preds[t]}
            for i in range(t):
                if i not in existing:
                    self._add(i, t, DepKind.CTRL)

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
