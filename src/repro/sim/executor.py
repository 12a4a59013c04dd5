"""Cycle-level executor for compiled programs.

Runs a :class:`~repro.pipeline.CompiledProgram` on the lockstep clustered
VLIW: instructions execute in (issue-cycle, program-order) order — which is
always dataflow-safe given the scheduler's constraints (within a cycle every
read happens before any same-cycle write can matter, because true deps never
share a cycle) — and timing is

``cycles = sum over block visits of (static schedule length + memory stalls)``

where a memory access slower than its scheduled (L1-hit) latency stalls the
whole lockstep machine, and misses issued in the *same* VLIW cycle overlap
(non-blocking caches, Table I) — that per-bundle overlap is the memory-level
parallelism CASTED exploits by spreading independent memory operations
across clusters (paper §III-D).

The functional side reuses the reference interpreter's compiled closures, so
functional behaviour is identical by construction to the model the fault
campaigns use; a differential test asserts it anyway.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from repro.errors import SimError, SimTrap
from repro.ir.interp import FaultSpec, Interpreter, RunResult
from repro.isa.opcodes import LatencyClass, Opcode
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry
from repro.pipeline import CompiledProgram
from repro.sim.cache import CacheHierarchy, CacheStats
from repro.ir.interp import ExitKind

_MASK = (1 << 64) - 1

#: Default cycle budget before :meth:`VLIWExecutor.run` reports TIMEOUT
#: (``max_cycles`` overrides it per executor or per run).
DEFAULT_MAX_CYCLES = 2_000_000_000


@dataclass(frozen=True)
class SimResult:
    """Outcome and timing of one cycle-level run."""

    kind: ExitKind
    exit_code: int | None
    output: tuple[int, ...]
    cycles: int
    dyn_instructions: int
    stall_cycles: int
    block_visits: int
    cache: CacheStats

    @property
    def architectural_state(self) -> tuple:
        return (self.kind, self.exit_code, self.output)


class _BlockCode:
    """Pre-extracted execution order + memory metadata for one block."""

    __slots__ = ("label", "fns", "cycles", "mem_kind", "addr_slot", "addr_off", "length", "n")

    def __init__(self, label: str, length: int) -> None:
        self.label = label
        self.fns: list = []
        self.cycles: list[int] = []
        self.mem_kind: list[int] = []  # 0 none, 1 load, 2 store
        self.addr_slot: list[int] = []  # register slot, or -1 for frame ops
        self.addr_off: list[int] = []
        self.length = length
        self.n = 0


class VLIWExecutor:
    """Execute a compiled program with cycle accounting."""

    def __init__(
        self,
        compiled: CompiledProgram,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        overlap_misses: bool = True,
        backend: str | None = None,
    ) -> None:
        self.compiled = compiled
        self.machine: MachineConfig = compiled.machine
        self.max_cycles = max_cycles
        #: Non-blocking caches (Table I): misses issued in the same VLIW
        #: cycle overlap.  The MLP ablation sets this False to serialize
        #: every miss.
        self.overlap_misses = overlap_misses
        self.cache = CacheHierarchy(self.machine.cache)

        # Reuse the interpreter's closure compiler and state arrays.  The
        # interpreter carries the backend choice too, so functional runs
        # (and the fault campaigns built on them) fuse the same way.
        self._interp = Interpreter(
            compiled.program,
            mem_words=compiled.mem_words,
            frame_words=compiled.frame_words,
            backend=backend,
        )
        self.backend = self._interp.backend
        self._entry = compiled.program.main.entry.label
        #: Lazy static (cluster, role) attribution table for telemetry.
        self._issue_table: dict[str, dict[tuple[int, str], int]] | None = None

        lat = self.machine.latencies
        self._sched_lat_load = lat[LatencyClass.LOAD]
        self._sched_lat_store = lat[LatencyClass.STORE]

        #: Partial-progress cells for the fused timed blocks: a trapping
        #: instruction records how many block instructions completed before
        #: it and the stalls flushed so far, so the except-path can
        #: attribute ``dyn`` and ``stall_cycles`` exactly.
        self._progress: list[int] = [0, 0]
        self._fused = None
        if self.backend == "compiled":
            from repro.sim.compiled import fuse_timed_blocks

            self._fused = fuse_timed_blocks(self)

    @cached_property
    def _blocks(self) -> dict[str, _BlockCode]:
        """Per-block execution order and memory metadata for
        :meth:`_run_interp`, built on its first run: the compiled backend
        never reads them."""
        blocks: dict[str, _BlockCode] = {}
        slot_of = self._interp._slot_of
        frame_base = self._interp.frame_base
        for block in self.compiled.program.main.blocks():
            sched = self.compiled.schedules.blocks[block.label]
            cb = self._interp._blocks[block.label]
            code = _BlockCode(block.label, sched.length)
            order = sorted(
                range(len(block.instructions)),
                key=lambda i: (sched.cycle_of[i], i),
            )
            for i in order:
                insn = block.instructions[i]
                code.fns.append(cb.fns[i])
                code.cycles.append(sched.cycle_of[i])
                op = insn.opcode
                if op is Opcode.LOAD:
                    code.mem_kind.append(1)
                    code.addr_slot.append(slot_of[insn.srcs[0]])
                    code.addr_off.append(insn.imm)
                elif op is Opcode.STORE:
                    code.mem_kind.append(2)
                    code.addr_slot.append(slot_of[insn.srcs[0]])
                    code.addr_off.append(insn.imm)
                elif op is Opcode.LOADFP:
                    code.mem_kind.append(1)
                    code.addr_slot.append(-1)
                    code.addr_off.append(frame_base + insn.imm)
                elif op is Opcode.STOREFP:
                    code.mem_kind.append(2)
                    code.addr_slot.append(-1)
                    code.addr_off.append(frame_base + insn.imm)
                else:
                    code.mem_kind.append(0)
                    code.addr_slot.append(-1)
                    code.addr_off.append(0)
            code.n = len(code.fns)
            blocks[code.label] = code
        return blocks

    # -- execution ------------------------------------------------------------
    def functional_run(
        self,
        visit_sink: Callable[[int], None] | None = None,
        faults: tuple[FaultSpec, ...] = (),
        max_steps: int | None = None,
    ) -> RunResult:
        """Functional (untimed) reference run of the compiled program.

        Executes on the embedded reference interpreter — the same closures
        the cycle-accurate :meth:`run` drives — and returns its
        :class:`~repro.ir.interp.RunResult`.  This is the supported way to
        obtain the block-visit sequence (``visit_sink`` receives each
        visited block's index in ``program.main.blocks()`` order) that
        tools like :mod:`repro.sim.tracing` replay against the static
        schedules.
        """
        return self._interp.run(
            faults=faults, max_steps=max_steps, visit_sink=visit_sink
        )

    def run(self, max_cycles: int | None = None) -> SimResult:
        """One fault-free cycle-accurate run."""
        tel = get_telemetry()
        if not tel.enabled:
            return self._run(max_cycles, None, None)
        visit_counts: dict[str, int] = {}
        block_stalls: dict[str, int] = {}
        with tel.span(
            "sim.run", cat="sim", timer="sim.run.seconds",
            scheme=self.compiled.scheme.value,
            issue_width=self.machine.issue_width,
            delay=self.machine.inter_cluster_delay,
        ) as sp:
            result = self._run(max_cycles, visit_counts, block_stalls)
            sp.set(
                kind=result.kind.value,
                cycles=result.cycles,
                stall_cycles=result.stall_cycles,
                dyn_instructions=result.dyn_instructions,
                block_visits=result.block_visits,
            )
            self._record_run_metrics(tel, result, visit_counts, block_stalls)
        return result

    def _record_run_metrics(
        self,
        tel,
        result: SimResult,
        visit_counts: dict[str, int],
        block_stalls: dict[str, int],
    ) -> None:
        """Aggregate counters derived from one finished run.

        Per-cluster/role issue counts come from the static per-block tables
        times the observed visit counts, so the inner loop never pays for
        attribution.
        """
        tel.count("sim.runs")
        tel.count("sim.cycles", result.cycles)
        tel.count("sim.stall_cycles", result.stall_cycles)
        tel.count("sim.dyn_instructions", result.dyn_instructions)
        tel.count("sim.block_visits", result.block_visits)
        issue_table = self._issue_attribution_table()
        for label, visits in visit_counts.items():
            for (cluster, role), n in issue_table[label].items():
                tel.count(f"sim.issue.c{cluster}.{role}", n * visits)
        for label, stalls in block_stalls.items():
            if stalls:
                tel.count(f"sim.stalls.block.{label}", stalls)
        for name, value in result.cache.metric_items():
            tel.count(name, value)

    def _issue_attribution_table(self) -> dict[str, dict[tuple[int, str], int]]:
        """Static per-block (cluster, role) -> instruction count, cached."""
        table = self._issue_table
        if table is None:
            table = {}
            for block in self.compiled.program.main.blocks():
                counts: dict[tuple[int, str], int] = {}
                for insn in block.instructions:
                    key = (
                        insn.cluster if insn.cluster is not None else 0,
                        insn.role.value,
                    )
                    counts[key] = counts.get(key, 0) + 1
                table[block.label] = counts
            self._issue_table = table
        return table

    def _run(
        self,
        max_cycles: int | None,
        visit_counts: dict[str, int] | None,
        block_stalls: dict[str, int] | None,
    ) -> SimResult:
        if self._fused is not None:
            return self._run_compiled(max_cycles, visit_counts, block_stalls)
        return self._run_interp(max_cycles, visit_counts, block_stalls)

    def _run_compiled(
        self,
        max_cycles: int | None,
        visit_counts: dict[str, int] | None,
        block_stalls: dict[str, int] | None,
    ) -> SimResult:
        """Hot loop over fused superblocks; accounting mirrors
        :meth:`_run_interp` exactly (differentially tested)."""
        interp = self._interp
        interp.reset_state()
        self.cache.reset()
        budget = self.max_cycles if max_cycles is None else max_cycles

        cycles = 0
        stalls = 0
        dyn = 0
        visits = 0
        accesses = 0
        label = self._entry
        fused = self._fused
        progress = self._progress

        def finish(kind: ExitKind, code_: int | None) -> SimResult:
            # Every access the hierarchy did not see hit an L1 MRU way.
            self.cache.count_l1_hits(accesses - self.cache.stats.accesses)
            return SimResult(
                kind=kind,
                exit_code=code_,
                output=tuple(interp._O),
                cycles=cycles + stalls,
                dyn_instructions=dyn,
                stall_cycles=stalls,
                block_visits=visits,
                cache=self.cache.stats,
            )

        try:
            while True:
                fn, memory_ops, length = fused[label]
                visits += 1
                if visit_counts is not None:
                    visit_counts[label] = visit_counts.get(label, 0) + 1
                cycles += length
                if cycles + stalls > budget:
                    return finish(ExitKind.TIMEOUT, None)
                jump, done, ds = fn()
                dyn += done
                accesses += memory_ops[done]
                if ds:
                    stalls += ds
                    if block_stalls is not None:
                        block_stalls[label] = block_stalls.get(label, 0) + ds
                if jump is None:
                    raise SimError(f"block {label} fell through")  # pragma: no cover
                if jump == "__detect__":
                    return finish(ExitKind.DETECTED, None)
                if type(jump) is tuple:
                    return finish(ExitKind.OK, jump[1])
                label = jump
        except SimTrap:
            # The trapping instruction left its completed-predecessor count
            # and the block's flushed stalls in the progress cells; the
            # trapping instruction itself does not commit and pending
            # same-cycle overlap is dropped (same as the interpreted loop).
            dyn += progress[0]
            stalls += progress[1]
            accesses += memory_ops[progress[0]]
            return finish(ExitKind.EXCEPTION, None)

    def _run_interp(
        self,
        max_cycles: int | None,
        visit_counts: dict[str, int] | None,
        block_stalls: dict[str, int] | None,
    ) -> SimResult:
        interp = self._interp
        interp.reset_state()
        self.cache.reset()
        R = interp._R
        cache_access = self.cache.access
        budget = self.max_cycles if max_cycles is None else max_cycles
        lat_load = self._sched_lat_load
        lat_store = self._sched_lat_store

        cycles = 0
        stalls = 0
        dyn = 0
        visits = 0
        label = self._entry
        blocks = self._blocks

        def finish(kind: ExitKind, code_: int | None) -> SimResult:
            return SimResult(
                kind=kind,
                exit_code=code_,
                output=tuple(interp._O),
                cycles=cycles + stalls,
                dyn_instructions=dyn,
                stall_cycles=stalls,
                block_visits=visits,
                cache=self.cache.stats,
            )

        stalls_at_entry = 0
        try:
            while True:
                code = blocks[label]
                visits += 1
                if visit_counts is not None:
                    visit_counts[label] = visit_counts.get(label, 0) + 1
                    stalls_at_entry = stalls
                cycles += code.length
                if cycles + stalls > budget:
                    return finish(ExitKind.TIMEOUT, None)
                jump: object = None
                cur_cycle = -1
                cur_extra = 0
                fns = code.fns
                mem_kind = code.mem_kind
                cyc = code.cycles
                addr_slot = code.addr_slot
                addr_off = code.addr_off
                for i in range(code.n):
                    mk = mem_kind[i]
                    if mk:
                        slot = addr_slot[i]
                        if slot >= 0:
                            addr = (R[slot] + addr_off[i]) & _MASK
                        else:
                            addr = addr_off[i]
                        # The closure re-validates the address and traps; we
                        # only charge the cache when the access is legal.
                        if 1 <= addr < interp.mem_words:
                            lat = cache_access(addr, mk == 2)
                            sched = lat_load if mk == 1 else lat_store
                            extra = lat - sched
                            if extra > 0:
                                if not self.overlap_misses:
                                    stalls += extra
                                else:
                                    c = cyc[i]
                                    if c != cur_cycle:
                                        stalls += cur_extra
                                        cur_cycle = c
                                        cur_extra = extra
                                    elif extra > cur_extra:
                                        cur_extra = extra
                    res = fns[i]()
                    dyn += 1
                    if res is not None:
                        jump = res
                        break
                stalls += cur_extra
                if block_stalls is not None and stalls != stalls_at_entry:
                    block_stalls[label] = (
                        block_stalls.get(label, 0) + stalls - stalls_at_entry
                    )
                if jump is None:
                    raise SimError(f"block {label} fell through")  # pragma: no cover
                if jump == "__detect__":
                    return finish(ExitKind.DETECTED, None)
                if type(jump) is tuple:
                    return finish(ExitKind.OK, jump[1])
                label = jump
        except SimTrap as trap:
            _ = trap
            return finish(ExitKind.EXCEPTION, None)
