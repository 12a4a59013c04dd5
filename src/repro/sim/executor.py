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

Two backends compute that sum.  The ``interp`` backend is the
per-instruction oracle: it executes every visit's instructions in schedule
order on the reference interpreter's closures and charges each memory
access to the cache model as it happens.  The ``compiled`` backend splits
what a run computes from how it is timed.  The program's functional
behaviour — which blocks it visits, which address each LOAD and STORE
touches, and how it ends — does not depend on the schedule, so it is
recorded once per program (:class:`FunctionalTrace`, one artifact-store
entry per program content) by the interpreter's fused blocks, and every
schedule of that program replays it: cycles are the visited blocks'
schedule lengths plus stalls, with the accesses laid out in each visit's
schedule order and charged to the cache model in one pass
(:meth:`~repro.sim.cache.CacheHierarchy.replay`).  Only a run that ends
inside a block by a check or a trap times that last visit on the oracle's
loop, from the state the trace recorded at its entry.
"""

from __future__ import annotations

import hashlib
import weakref
from array import array
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np
import numpy.typing as npt

from repro import store
from repro.errors import SimError, SimTrap
from repro.ir.interp import _DETECT, ExitKind, FaultSpec, Interpreter, RunResult
from repro.ir.printer import canonical_program_text
from repro.ir.program import Program
from repro.isa.opcodes import LatencyClass, Opcode
from repro.machine.config import MachineConfig
from repro.obs import get_telemetry
from repro.pipeline import CompiledProgram
from repro.sim.cache import CacheHierarchy, CacheStats

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


@dataclass(eq=False)
class FunctionalTrace:
    """One fault-free functional run of a program, as a timing replay reads it.

    Every schedule of the program shares it: the run's visits, addresses
    and ending do not depend on when each instruction issues.  It is
    read-only.
    """

    #: The block of every visit, as an index into the program's block
    #: labels; the visit that ended the run is the last.
    visits: npt.NDArray[np.unsignedinteger[Any]]
    #: The word address of every LOAD and STORE executed, in program order.
    addresses: npt.NDArray[np.uint32]
    #: How the functional run ended.
    result: RunResult
    #: Registers, memory and output at the entry of the last visit, for a
    #: run a check or a trap ended inside that block; ``None`` otherwise.
    entry_state: tuple[list[int], list[int], tuple[int, ...]] | None = None

    @property
    def nbytes(self) -> int:
        """Estimated size: the two arrays, 8 B per output word and per
        register and memory word of the entry state, 32 B per int object
        above CPython's small-int cache among them, and 600 B of object
        headers (0.9-1.1x of what ``tracemalloc`` counts)."""
        words: list[int] = list(self.result.output)
        if self.entry_state is not None:
            regs, mem, output = self.entry_state
            words += regs + mem + list(output)
        large = sum(1 for v in words if v > 256)
        return (
            self.visits.nbytes + self.addresses.nbytes
            + 8 * len(words) + 32 * large + 600
        )


def record_trace(interp: Interpreter) -> FunctionalTrace:
    """Run ``interp``'s program from reset and record its
    :class:`FunctionalTrace`.

    The run uses the interpreter's fused blocks, emitted with an address
    sink, under its ``max_steps`` watchdog; its ending matches
    :meth:`Interpreter.run`'s.  A run that a check or a trap ends inside a
    block is executed a second time, up to that block's entry, for the
    entry state.
    """
    from repro.sim.compiled import fuse_functional_blocks

    addresses = array("I")
    fused = fuse_functional_blocks(interp, addresses.append)
    table = {
        label: (fused[label], len(interp.program.main.block(label)), index)
        for index, label in enumerate(interp.labels)
    }
    visits = interp.visit_buffer()
    visit = visits.append
    O = interp._O
    budget = interp.max_steps
    interp.reset_state()
    dyn = 0
    n = 0
    label: object = interp.program.main.entry.label
    result: RunResult | None = None
    try:
        while True:
            try:
                fn, n, index = table[label]
            except KeyError:
                break
            visit(index)
            if dyn + n > budget:
                result = RunResult(ExitKind.TIMEOUT, None, tuple(O), dyn, "watchdog")
                break
            label = fn()
            dyn += n
    except SimTrap as trap:
        result = RunResult(ExitKind.EXCEPTION, None, tuple(O), dyn, trap.kind)
    if result is None:
        if label is _DETECT:
            result = RunResult(ExitKind.DETECTED, None, tuple(O), dyn)
        elif type(label) is tuple:
            result = RunResult(ExitKind.OK, label[1], tuple(O), dyn)
        else:  # pragma: no cover - the verifier rejects fall-through blocks
            raise SimError("traced block fell through")
    entry_state = None
    if result.kind in (ExitKind.DETECTED, ExitKind.EXCEPTION):
        start = dyn - n if result.kind is ExitKind.DETECTED else dyn
        # The watchdog stops this run at the entry of the last visit.
        interp.run(max_steps=start + n - 1)
        entry_state = (interp._R[:], interp._M[:], tuple(O))
    return FunctionalTrace(
        np.array(visits), np.frombuffer(addresses, dtype=np.uint32).copy(),
        result, entry_state,
    )


#: Canonical-text digests of the programs simulated so far, by program
#: object: a compiled program is read-only.
_digests: weakref.WeakKeyDictionary[Program, str] = weakref.WeakKeyDictionary()


def _program_digest(program: Program) -> str:
    digest = _digests.get(program)
    if digest is None:
        text = canonical_program_text(program)
        digest = _digests[program] = hashlib.sha256(text.encode()).hexdigest()
    return digest


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


@dataclass(frozen=True)
class _ReplayTables:
    """Per-block numbers and per-access templates a timing replay gathers.

    Indexed by block (in the program's block-label order): schedule
    ``length``, instruction count ``size``, ``outputs`` (OUT instructions),
    ``traced`` (LOAD/STORE instructions, i.e. trace addresses per visit),
    and the block's accesses as ``first`` and ``count`` into the template
    arrays.  Each template entry is one memory access of a visit, in
    schedule order: its rank among the block's traced accesses (``rank``,
    -1 for a frame slot, whose address ``static`` holds), whether it is a
    store, its issue cycle and the latency the schedule assumed for it.
    """

    length: npt.NDArray[np.int64]
    size: npt.NDArray[np.int64]
    outputs: npt.NDArray[np.int64]
    traced: npt.NDArray[np.int64]
    first: npt.NDArray[np.int64]
    count: npt.NDArray[np.int64]
    rank: npt.NDArray[np.int64]
    static: npt.NDArray[np.int64]
    store: npt.NDArray[np.bool_]
    cycle: npt.NDArray[np.int64]
    latency: npt.NDArray[np.int64]


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

        # The interpreter carries the backend choice too, so functional
        # runs (and the fault campaigns built on them) fuse the same way.
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

    def _schedule_order(self, block) -> list[int]:
        sched = self.compiled.schedules.blocks[block.label]
        return sorted(
            range(len(block.instructions)),
            key=lambda i: (sched.cycle_of[i], i),
        )

    @cached_property
    def _blocks(self) -> dict[str, _BlockCode]:
        """Per-block execution order and memory metadata for
        :meth:`_run_interp`, built on its first run."""
        blocks: dict[str, _BlockCode] = {}
        slot_of = self._interp._slot_of
        frame_base = self._interp.frame_base
        for block in self.compiled.program.main.blocks():
            sched = self.compiled.schedules.blocks[block.label]
            cb = self._interp._blocks[block.label]
            code = _BlockCode(block.label, sched.length)
            for i in self._schedule_order(block):
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

    @cached_property
    def _tables(self) -> _ReplayTables:
        """The :class:`_ReplayTables` of this schedule, built on the first
        compiled-backend run."""
        frame_base = self._interp.frame_base
        lat_load, lat_store = self._sched_lat_load, self._sched_lat_store
        per_block: list[tuple[int, ...]] = []
        per_access: list[tuple[int, ...]] = []
        for block in self.compiled.program.main.blocks():
            sched = self.compiled.schedules.blocks[block.label]
            insns = block.instructions
            ranks: dict[int, int] = {}
            outputs = 0
            for i, insn in enumerate(insns):
                op = insn.opcode
                if op is Opcode.LOAD or op is Opcode.STORE:
                    ranks[i] = len(ranks)
                elif op is Opcode.OUT:
                    outputs += 1
            first = len(per_access)
            for i in self._schedule_order(block):
                insn = insns[i]
                if not insn.info.is_mem:
                    continue
                frame = i not in ranks
                store = insn.info.is_store
                per_access.append((
                    -1 if frame else ranks[i], frame_base + insn.imm if frame else 0,
                    store, sched.cycle_of[i], lat_store if store else lat_load,
                ))
            per_block.append((
                sched.length, len(insns), outputs, len(ranks), first,
                len(per_access) - first,
            ))
        # One contiguous int64 row per column.
        blocks = np.array(per_block, dtype=np.int64).reshape(-1, 6).T.copy()
        rank, static, store, cycle, latency = (
            np.array(per_access, dtype=np.int64).reshape(-1, 5).T.copy()
        )
        return _ReplayTables(
            *blocks, rank, static, store.astype(bool), cycle, latency
        )

    # -- execution ------------------------------------------------------------
    def functional_run(
        self,
        visit_sink: Callable[[int], None] | None = None,
        faults: tuple[FaultSpec, ...] = (),
        max_steps: int | None = None,
    ) -> RunResult:
        """Functional (untimed) reference run of the compiled program.

        Executes on the embedded reference interpreter — the same closures
        the ``interp`` backend's :meth:`run` drives — and returns its
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
        if self.backend == "compiled":
            return self._replay(max_cycles, visit_counts, block_stalls)
        return self._run_interp(max_cycles, visit_counts, block_stalls)

    def _trace(self) -> FunctionalTrace:
        """The program's :class:`FunctionalTrace`, from the artifact store
        (counted as ``sim.trace.{hits,misses}``)."""
        interp = self._interp
        key = (
            "sim-trace", _program_digest(self.compiled.program),
            interp.mem_words, self.compiled.frame_words, interp.max_steps,
        )
        return store.get(key, lambda: record_trace(interp), counter="sim.trace")

    def _replay(
        self,
        max_cycles: int | None,
        visit_counts: dict[str, int] | None,
        block_stalls: dict[str, int] | None,
    ) -> SimResult:
        """Time the program's functional trace against this schedule.

        Equal to :meth:`_run_interp` in every :class:`SimResult` field
        (differentially tested).  The visits the trace completes are timed
        in bulk: their accesses are gathered from the per-block templates
        in schedule order and charged through
        :meth:`CacheHierarchy.replay`, and a visit stalls by the largest
        extra latency of each of its cycles (or by every extra latency,
        without miss overlap).  A visit that ends the run inside its block
        runs on :meth:`_run_interp`'s loop from the trace's entry state.
        A trace the functional watchdog cut short does not say how the
        run goes on, so that run is timed by :meth:`_run_interp` whole.
        """
        trace = self._trace()
        end = trace.result.kind
        if end is ExitKind.TIMEOUT:
            return self._run_interp(max_cycles, visit_counts, block_stalls)
        t = self._tables
        budget = self.max_cycles if max_cycles is None else max_cycles
        whole = len(trace.visits) - (end is not ExitKind.OK)
        visits = trace.visits[:whole].astype(np.intp)

        # Each visit's accesses in schedule order, from the templates.
        count = t.count[visits]
        n_access = int(count.sum())
        access_visit = np.repeat(np.arange(whole), count)
        ends = np.cumsum(count)
        template = np.repeat(t.first[visits] - (ends - count), count) + np.arange(n_access)
        rank = t.rank[template]
        addrs = t.static[template]
        traced = rank >= 0
        traced_at = np.cumsum(t.traced[visits]) - t.traced[visits]
        addrs[traced] = trace.addresses[(traced_at[access_visit] + rank)[traced]]
        stores = t.store[template]
        self.cache.reset()
        extra = self.cache.replay(addrs, stores) - t.latency[template]

        # Stalls per visit: the largest extra latency of each cycle, or
        # their sum without miss overlap.
        slow = np.flatnonzero(extra > 0)
        slow_visit, slow_extra = access_visit[slow], extra[slow]
        if self.overlap_misses and len(slow):
            cycle = t.cycle[template[slow]]
            new = np.ones(len(slow), dtype=bool)
            new[1:] = (slow_visit[1:] != slow_visit[:-1]) | (cycle[1:] != cycle[:-1])
            starts = np.flatnonzero(new)
            slow_extra = np.maximum.reduceat(slow_extra, starts)
            slow_visit = slow_visit[starts]
        stalls = np.bincount(slow_visit, weights=slow_extra, minlength=whole).astype(np.int64)

        # A visit times out when its length takes the run past the budget.
        stalls_cum = np.cumsum(stalls)
        length_cum = np.cumsum(t.length[visits])
        at_entry = length_cum + stalls_cum - stalls
        done = int(np.searchsorted(at_entry, budget, side="right"))
        if done < whole:
            cut = int(ends[done - 1]) if done else 0
            self.cache.reset()
            self.cache.replay(addrs[:cut], stores[:cut])
            n_out = int(t.outputs[visits[:done]].sum())
            self._count_visits(visits[: done + 1], stalls[:done], visit_counts, block_stalls)
            stall_cycles = int(stalls_cum[done - 1]) if done else 0
            return SimResult(
                kind=ExitKind.TIMEOUT,
                exit_code=None,
                output=trace.result.output[:n_out],
                cycles=int(at_entry[done]),
                dyn_instructions=int(t.size[visits[:done]].sum()),
                stall_cycles=stall_cycles,
                block_visits=done + 1,
                cache=self.cache.stats,
            )
        self._count_visits(visits, stalls, visit_counts, block_stalls)
        cycles = int(length_cum[-1]) if whole else 0
        stall_cycles = int(stalls_cum[-1]) if whole else 0
        dyn = int(t.size[visits].sum())
        if end is ExitKind.OK:
            return SimResult(
                kind=end,
                exit_code=trace.result.exit_code,
                output=trace.result.output,
                cycles=cycles + stall_cycles,
                dyn_instructions=dyn,
                stall_cycles=stall_cycles,
                block_visits=whole,
                cache=self.cache.stats,
            )
        assert trace.entry_state is not None
        regs, mem, output = trace.entry_state
        interp = self._interp
        interp._R[:] = regs
        interp._M[:] = mem
        interp._O[:] = output
        label = interp.labels[int(trace.visits[-1])]
        return self._run_interp(
            max_cycles, visit_counts, block_stalls,
            resume=(label, cycles, stall_cycles, dyn, whole),
        )

    def _count_visits(
        self,
        visits: npt.NDArray[np.intp],
        stalls: npt.NDArray[np.int64],
        visit_counts: dict[str, int] | None,
        block_stalls: dict[str, int] | None,
    ) -> None:
        """Add replayed visits and their stalls to the telemetry tallies."""
        if visit_counts is None or block_stalls is None:
            return
        labels = self._interp.labels
        n_blocks = len(labels)
        per_block = np.bincount(visits, minlength=n_blocks)
        for index in np.flatnonzero(per_block).tolist():
            visit_counts[labels[index]] = int(per_block[index])
        by_block = np.bincount(visits[: len(stalls)], weights=stalls, minlength=n_blocks)
        for index in np.flatnonzero(by_block).tolist():
            block_stalls[labels[index]] = int(by_block[index])

    def _run_interp(
        self,
        max_cycles: int | None,
        visit_counts: dict[str, int] | None,
        block_stalls: dict[str, int] | None,
        resume: tuple[str, int, int, int, int] | None = None,
    ) -> SimResult:
        """The per-instruction loop: from reset, or, with ``resume`` =
        (label, cycles, stalls, instructions, visits), from the interpreter
        and cache state as they stand at the entry of a visit to ``label``."""
        interp = self._interp
        if resume is None:
            interp.reset_state()
            self.cache.reset()
            label = self._entry
            cycles = stalls = dyn = visits = 0
        else:
            label, cycles, stalls, dyn, visits = resume
        R = interp._R
        cache_access = self.cache.access
        budget = self.max_cycles if max_cycles is None else max_cycles
        lat_load = self._sched_lat_load
        lat_store = self._sched_lat_store
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
