"""Sequential reference interpreter.

Executes a :class:`~repro.ir.program.Program` in program order.  It is

* the **functional reference model** the cycle-level VLIW executor is
  differentially tested against, and
* the **fault-injection engine**: Monte-Carlo campaigns need thousands of
  runs, for which bundle-level timing is irrelevant (outcome classification
  only needs architectural state plus a watchdog), so they run here.

For speed each instruction is pre-compiled into a closure over a flat
register list and a flat memory list; the interpreter sustains millions of
instructions per second, which makes 300-trial campaigns practical.

Fault models: the classic model (paper §IV-C) flips one bit of the output
register of the ``dyn_index``-th committed instruction.  :class:`FaultSpec`
generalizes this to a small taxonomy (see :mod:`repro.faults.models`):
adjacent-bit bursts (``width > 1``), control-flow corruption (``kind="cf"``:
invert a branch decision or redirect a jump), data-memory flips
(``kind="mem"``) and opcode substitution (``kind="opcode"``: the result is
recomputed with a different legal operation).  Multiple faults per run are
supported (the paper injects protected binaries at the original binary's
fault *rate*).
"""

from __future__ import annotations

import enum
import os
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, TypeAlias

import numpy as np
import numpy.typing as npt

from repro.errors import ArithmeticTrap, MemoryFault, SimError, SimTrap
from repro.ir.program import Program
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg, RegClass

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.faults.injector import GoldenRun

_W = 1 << 64
_S = 1 << 63
_MASK = _W - 1

#: Default watchdog budget (dynamic instructions) when the caller gives none.
DEFAULT_MAX_STEPS = 50_000_000

#: Headroom words appended after the data segment when the caller does not
#: size memory explicitly (covers small hand-written tests).
DEFAULT_HEADROOM_WORDS = 64

#: Recognized execution backends.  ``"compiled"`` fuses each basic block
#: into one generated-Python superblock (see :mod:`repro.sim.compiled`);
#: ``"interp"`` dispatches the per-instruction closures one at a time and
#: is kept as the differential-equivalence reference.
VALID_BACKENDS = ("compiled", "interp")


def resolve_backend(backend: str | None = None) -> str:
    """Resolve a backend choice: explicit arg > ``REPRO_SIM_BACKEND`` > compiled."""
    if backend is None:
        backend = os.environ.get("REPRO_SIM_BACKEND") or "compiled"
    if backend not in VALID_BACKENDS:
        raise SimError(
            f"unknown sim backend {backend!r} (expected one of {VALID_BACKENDS})"
        )
    return backend


class ExitKind(enum.Enum):
    """How a run ended — maps onto the paper's outcome taxonomy."""

    OK = "ok"  # reached HALT
    DETECTED = "detected"  # a check (CHKBR) fired
    EXCEPTION = "exception"  # architectural trap
    TIMEOUT = "timeout"  # watchdog expired

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExitKind.{self.name}"


@dataclass(frozen=True)
class RunResult:
    """Outcome of one interpreter run."""

    kind: ExitKind
    exit_code: int | None
    output: tuple[int, ...]
    dyn_instructions: int
    trap: str | None = None

    @property
    def architectural_state(self) -> tuple:
        """The state compared against the golden run to call benign vs SDC."""
        return (self.kind, self.exit_code, self.output)


#: One step of golden memory change: the addresses whose words changed
#: since the previous snapshot, and their new values.
MemDelta: TypeAlias = tuple["array[int]", tuple[int, ...]]


def _apply_deltas(M: list[int], deltas: tuple[MemDelta, ...]) -> None:
    for addrs, vals in deltas:
        for a, v in zip(addrs, vals):
            M[a] = v


@dataclass(frozen=True, slots=True)
class Snapshot:
    """Complete architectural state at a block boundary of a fault-free run.

    ``dyn`` is the number of instructions committed before ``label`` begins;
    restoring the snapshot and executing from ``label`` is bit-identical to
    executing the first ``dyn`` instructions from reset (checkpointed fault
    campaigns rely on this — see ``docs/fault_injection.md``).

    Memory is stored **keyframe and delta**: ``base`` is the full memory
    list of this snapshot's keyframe, and ``deltas`` the per-step changes
    from that keyframe to this snapshot, oldest first — empty for the
    keyframe itself.  The snapshots of one group share ``base`` and the
    prefix of their ``deltas`` by reference, so a golden run holds one full
    memory list per keyframe plus the words that changed between
    snapshots.  :meth:`Interpreter.restore` copies ``base`` with one slice
    assignment, then applies ``deltas``.

    ``regs`` and ``base`` are lists captured once (``R[:]``, ``M[:]``) and,
    with the deltas, are **read-only by contract**: a golden run's
    snapshots are held once per process and shared by every restore and
    every convergence compare, so nothing may write to them.  ``regs`` is
    a list, not a tuple, so the convergence check compares it against the
    live register list with one C-level ``==``.
    """

    dyn: int
    label: str
    regs: list[int]
    base: list[int]
    deltas: tuple[MemDelta, ...]
    output: tuple[int, ...]

    def step(
        self,
        dyn: int,
        label: str,
        regs: list[int],
        delta: MemDelta,
        output: tuple[int, ...],
    ) -> "Snapshot":
        """The next snapshot of this one's group: this memory plus ``delta``."""
        return Snapshot(dyn, label, regs, self.base, self.deltas + (delta,), output)


def visit_counts(
    labels: tuple[str, ...], visits: npt.NDArray[np.unsignedinteger[Any]]
) -> dict[str, int]:
    """Visit count of every visited block, by label, in block order.

    ``visits`` holds block indices into ``labels``, as
    :meth:`Interpreter.run_visits` records them.
    """
    counts = np.bincount(visits, minlength=len(labels)).tolist()
    return {label: n for label, n in zip(labels, counts) if n}


#: Recognized :attr:`FaultSpec.kind` values.
FAULT_KINDS = ("reg", "cf", "mem", "opcode")

#: Alternate operations an ``opcode`` fault may substitute for the original
#: one (applied to the raw source values; the result is masked to 64 bits).
#: The table is part of the fault model's determinism contract — append only.
ALT_OPS: tuple = (
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a & b,
    lambda a, b: a | b,
    lambda a, b: a ^ b,
    lambda a, b: a * b,
)


@dataclass(frozen=True)
class FaultSpec:
    """One transient fault, applied after dynamic instruction ``dyn_index``.

    ``dyn_index`` counts committed instructions from 0.  ``kind`` selects the
    corruption applied at that point:

    ``"reg"`` (default)
        Flip ``width`` adjacent bits of the instruction's output register
        starting at ``bit`` (``width=1`` is the paper's §IV-C model;
        ``width`` 2–4 models a multi-bit burst).  If the instruction writes
        no register the flip lands in a latch the program never reads and is
        dropped (the campaigns sample only output-producing instructions).
        Predicate outputs invert regardless of ``bit``/``width`` (they hold
        a single bit).
    ``"cf"``
        Corrupt the control transfer the instruction performed: a
        conditional branch takes the *other* target (``arg is None``) and a
        jump is redirected to the block label ``arg``.  Dropped if the
        instruction was not a branch/jump or ``arg`` names no block.
    ``"mem"``
        Flip ``bit`` of the data-memory word at address ``arg`` (dropped if
        the address is outside the valid space — ECC on the periphery).
    ``"opcode"``
        Replace the instruction's result with the one another legal
        operation (``ALT_OPS[arg % len(ALT_OPS)]``) produces from its source
        values; source-less instructions degrade to a ``bit`` flip.
    """

    dyn_index: int
    bit: int = 0
    kind: str = "reg"
    width: int = 1
    arg: int | str | None = None

    def __post_init__(self) -> None:
        if self.dyn_index < 0:
            raise ValueError("dyn_index must be >= 0")
        if not 0 <= self.bit < 64:
            raise ValueError("bit must be in [0, 64)")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not 1 <= self.width <= 4:
            raise ValueError("width must be in [1, 4]")
        if self.bit + self.width > 64:
            raise ValueError("bit + width must be <= 64")

    @property
    def mask(self) -> int:
        """The XOR mask a ``reg`` fault applies to the output register."""
        return ((1 << self.width) - 1) << self.bit


_DETECT = "__detect__"


class _CompiledBlock:
    __slots__ = (
        "label", "index", "fns", "dest_slots", "dest_is_pr", "src_slots",
        "targets", "n",
    )

    def __init__(self, label: str, index: int) -> None:
        self.label = label
        self.index = index
        self.fns: list[Callable[[], object]] = []
        self.dest_slots: list[int] = []
        self.dest_is_pr: list[bool] = []
        self.src_slots: list[tuple[int, ...]] = []  # for opcode faults
        self.targets: list[tuple[str, ...]] = []  # for cf faults
        self.n = 0


def _signed_const(x: int) -> int:
    x &= _MASK
    return x - _W if x & _S else x


def _div_s(x: int, y: int) -> int:
    if y == 0:
        raise ArithmeticTrap("division by zero")
    q = abs(x) // abs(y)
    return (-q if (x < 0) != (y < 0) else q) & _MASK


def _rem_s(x: int, y: int) -> int:
    if y == 0:
        raise ArithmeticTrap("remainder by zero")
    q = abs(x) // abs(y)
    q = -q if (x < 0) != (y < 0) else q
    return (x - q * y) & _MASK


def _bin(fn_signed=None, fn_raw=None):
    """Factory-of-factories for two-input ALU/compare opcodes.

    ``fn_raw`` operates on the raw unsigned representation (correct for ops
    whose bit pattern is sign-agnostic); ``fn_signed`` gets two's-complement
    ints and must mask its own result.
    """

    def build(R: list[int], d: int, a: int, b: int | None, imm: int | None):
        if fn_raw is not None:
            if b is None:
                k = imm & _MASK

                def f_ri() -> None:
                    R[d] = fn_raw(R[a], k)

                return f_ri

            def f_rr() -> None:
                R[d] = fn_raw(R[a], R[b])

            return f_rr

        if b is None:
            k = _signed_const(imm)

            def g_ri() -> None:
                x = R[a]
                R[d] = fn_signed(x - _W if x & _S else x, k)

            return g_ri

        def g_rr() -> None:
            x, y = R[a], R[b]
            R[d] = fn_signed(x - _W if x & _S else x, y - _W if y & _S else y)

        return g_rr

    return build


_BIN_FACTORY = {
    Opcode.ADD: _bin(fn_raw=lambda x, y: (x + y) & _MASK),
    Opcode.SUB: _bin(fn_raw=lambda x, y: (x - y) & _MASK),
    Opcode.MUL: _bin(fn_raw=lambda x, y: (x * y) & _MASK),
    Opcode.DIV: _bin(fn_signed=_div_s),
    Opcode.REM: _bin(fn_signed=_rem_s),
    Opcode.AND: _bin(fn_raw=lambda x, y: x & y),
    Opcode.OR: _bin(fn_raw=lambda x, y: x | y),
    Opcode.XOR: _bin(fn_raw=lambda x, y: x ^ y),
    Opcode.SHL: _bin(fn_raw=lambda x, y: (x << (y & 63)) & _MASK),
    Opcode.SHRL: _bin(fn_raw=lambda x, y: x >> (y & 63)),
    Opcode.SHRA: _bin(fn_signed=lambda x, y: (x >> (y & 63)) & _MASK),
    Opcode.MIN: _bin(fn_signed=lambda x, y: min(x, y) & _MASK),
    Opcode.MAX: _bin(fn_signed=lambda x, y: max(x, y) & _MASK),
    Opcode.CMPEQ: _bin(fn_signed=lambda x, y: 1 if x == y else 0),
    Opcode.CMPNE: _bin(fn_signed=lambda x, y: 1 if x != y else 0),
    Opcode.CMPLT: _bin(fn_signed=lambda x, y: 1 if x < y else 0),
    Opcode.CMPLE: _bin(fn_signed=lambda x, y: 1 if x <= y else 0),
    Opcode.CMPGT: _bin(fn_signed=lambda x, y: 1 if x > y else 0),
    Opcode.CMPGE: _bin(fn_signed=lambda x, y: 1 if x >= y else 0),
}


def _un(fn_signed):
    def build(R: list[int], d: int, a: int):
        def f() -> None:
            x = R[a]
            R[d] = fn_signed(x - _W if x & _S else x) & _MASK

        return f

    return build


_UN_FACTORY = {
    Opcode.NEG: _un(lambda x: -x),
    Opcode.ABS: _un(abs),
    Opcode.NOT: _un(lambda x: ~x),
}


class Interpreter:
    """Compile once, run many times (state is reset at the top of each run)."""

    def __init__(
        self,
        program: Program,
        mem_words: int | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        frame_words: int = 0,
        backend: str | None = None,
    ) -> None:
        self.program = program
        layout = program.layout()
        self.frame_base = layout.spill_base
        if mem_words is None:
            mem_words = layout.data_end + frame_words + DEFAULT_HEADROOM_WORDS
        if mem_words < layout.data_end + frame_words:
            raise SimError(
                f"mem_words={mem_words} smaller than data+frame segment "
                f"{layout.data_end + frame_words}"
            )
        self.mem_words = mem_words
        self.max_steps = max_steps
        self._init_mem = program.initial_memory_words()
        self._entry = program.main.entry.label

        # Assign a flat slot to every register before building closures.
        self._slot_of: dict[Reg, int] = {}
        for block in program.main.blocks():
            for insn in block.instructions:
                for r in (*insn.dests, *insn.srcs):
                    self._slot_of.setdefault(r, len(self._slot_of))
        self._R: list[int] = [0] * max(1, len(self._slot_of))
        self._M: list[int] = [0] * mem_words
        self._O: list[int] = []

        for block in program.main.blocks():
            for insn in block.instructions:
                if insn.opcode in (Opcode.LOADFP, Opcode.STOREFP) and not (
                    1 <= self.frame_base + insn.imm < mem_words
                ):
                    raise SimError(f"frame slot {insn.imm} outside memory")
        #: Block labels in program order: a recorded visit is an index here.
        self.labels: tuple[str, ...] = tuple(program.main.block_labels())
        #: Longest block: a chained visit starting below ``x - _maxlen``
        #: commits its whole block before instruction ``x``.
        self._maxlen = max(
            (len(b.instructions) for b in program.main.blocks()), default=0
        )
        #: Shortcuts :meth:`run` took (telemetry): block visits executed on
        #: its chained path, convergence early exits and golden
        #: fast-forwards between faults.
        self.chained_visits = 0
        self.converged = 0
        self.forwards = 0
        #: Golden-memory cursor for convergence compares: ``_gmem`` holds
        #: the keyframe ``_gbase`` with its group's first ``_gsteps``
        #: deltas applied (see :meth:`_golden_mem`).
        self._gmem: list[int] = []
        self._gbase: list[int] | None = None
        self._gsteps = 0

        self.backend = resolve_backend(backend)

    def decode(self) -> None:
        """Build the per-instruction closures now, not on the first run."""
        self._blocks

    @cached_property
    def _blocks(self) -> dict[str, _CompiledBlock]:
        """Per-instruction closures and fault-site tables, built by
        :meth:`decode` or the first :meth:`run`: a
        :class:`~repro.sim.executor.VLIWExecutor` on the compiled backend
        runs its interpreter's closures only to time a last visit that a
        check or a trap ends."""
        blocks: dict[str, _CompiledBlock] = {}
        slot_of = self._slot_of
        for index, block in enumerate(self.program.main.blocks()):
            cb = _CompiledBlock(block.label, index)
            for insn in block.instructions:
                cb.fns.append(self._make_closure(insn))
                if insn.dests:
                    cb.dest_slots.append(slot_of[insn.dests[0]])
                    cb.dest_is_pr.append(insn.dests[0].rclass is RegClass.PR)
                else:
                    cb.dest_slots.append(-1)
                    cb.dest_is_pr.append(False)
                cb.src_slots.append(tuple(slot_of[r] for r in insn.srcs))
                cb.targets.append(
                    tuple(insn.targets)
                    if insn.opcode in (Opcode.JMP, Opcode.BRT, Opcode.BRF)
                    else ()
                )
            cb.n = len(cb.fns)
            blocks[block.label] = cb
        return blocks

    @cached_property
    def chain(self) -> dict[str, tuple[Callable[[], object], int]] | None:
        """``label -> (fused superblock, block length)``, built on first use.

        ``None`` on the ``interp`` backend.  Lazy because many interpreters
        never run through it (a :class:`~repro.sim.executor.VLIWExecutor`
        records its functional trace with blocks fused for that).  The fused
        callables close over the live register/memory/output lists, so they
        observe resets and restores.  Keys are interned so the chained
        loop's lookups of the label constants the fused code returns hit on
        identity.
        """
        if self.backend != "compiled":
            return None
        # Imported lazily: repro.sim.compiled imports helpers from this
        # module, so a top-level import would be circular.
        from repro.sim.compiled import fuse_functional_blocks

        return {
            sys.intern(label): (fn, len(self.program.main.block(label)))
            for label, fn in fuse_functional_blocks(self).items()
        }

    # -- closure construction ---------------------------------------------------
    def _make_closure(self, insn) -> Callable[[], object]:
        R, M, O = self._R, self._M, self._O
        mem_words = self.mem_words
        op = insn.opcode
        srcs = [self._slot_of[r] for r in insn.srcs]
        dest = self._slot_of[insn.dests[0]] if insn.dests else -1
        imm = insn.imm

        if op is Opcode.MOVI:
            v, d = imm & _MASK, dest

            def f_movi() -> None:
                R[d] = v

            return f_movi

        if op is Opcode.MOV or op is Opcode.PMOV:
            a, d = srcs[0], dest

            def f_mov() -> None:
                R[d] = R[a]

            return f_mov

        if op in _BIN_FACTORY:
            if imm is not None:
                return _BIN_FACTORY[op](R, dest, srcs[0], None, imm)
            return _BIN_FACTORY[op](R, dest, srcs[0], srcs[1], None)

        if op in _UN_FACTORY:
            return _UN_FACTORY[op](R, dest, srcs[0])

        if op is Opcode.SELECT:
            d, p, a, b = dest, srcs[0], srcs[1], srcs[2]

            def f_select() -> None:
                R[d] = R[a] if R[p] else R[b]

            return f_select

        if op is Opcode.PNE:
            d, a, b = dest, srcs[0], srcs[1]

            def f_pne() -> None:
                R[d] = 1 if R[a] != R[b] else 0

            return f_pne

        if op is Opcode.LOAD:
            d, a, off = dest, srcs[0], imm

            def f_load() -> None:
                addr = (R[a] + off) & _MASK
                if addr < 1 or addr >= mem_words:
                    raise MemoryFault(f"load from invalid address {addr}")
                R[d] = M[addr]

            return f_load

        if op is Opcode.STORE:
            a, v, off = srcs[0], srcs[1], imm

            def f_store() -> None:
                addr = (R[a] + off) & _MASK
                if addr < 1 or addr >= mem_words:
                    raise MemoryFault(f"store to invalid address {addr}")
                M[addr] = R[v]

            return f_store

        if op is Opcode.LOADFP:
            d = dest
            addr = self.frame_base + imm

            def f_loadfp() -> None:
                R[d] = M[addr]

            return f_loadfp

        if op is Opcode.STOREFP:
            a = srcs[0]
            addr = self.frame_base + imm

            def f_storefp() -> None:
                M[addr] = R[a]

            return f_storefp

        if op is Opcode.OUT:
            a = srcs[0]

            def f_out() -> None:
                O.append(R[a])

            return f_out

        if op is Opcode.JMP:
            target = insn.targets[0]

            def f_jmp() -> str:
                return target

            return f_jmp

        if op is Opcode.BRT:
            p = srcs[0]
            taken, fall = insn.targets

            def f_brt() -> str:
                return taken if R[p] else fall

            return f_brt

        if op is Opcode.BRF:
            p = srcs[0]
            taken, fall = insn.targets

            def f_brf() -> str:
                return fall if R[p] else taken

            return f_brf

        if op is Opcode.HALT:
            result = ("halt", imm)

            def f_halt() -> tuple:
                return result

            return f_halt

        if op is Opcode.CHKBR:
            p = srcs[0]

            def f_chkbr() -> str | None:
                return _DETECT if R[p] else None

            return f_chkbr

        if op is Opcode.NOP:
            def f_nop() -> None:
                return None

            return f_nop

        raise SimError(f"cannot compile opcode {op}")  # pragma: no cover

    # -- execution ---------------------------------------------------------------
    def reset_state(self) -> None:
        """Zero registers and memory, apply global initializers, clear output."""
        R, M = self._R, self._M
        for i in range(len(R)):
            R[i] = 0
        for i in range(len(M)):
            M[i] = 0
        for addr, value in self._init_mem.items():
            M[addr] = value
        self._O.clear()

    def restore(self, snap: Snapshot) -> None:
        """Load architectural state from a :class:`Snapshot`.

        One slice assignment copies the keyframe; the snapshot's deltas
        then overwrite the words that changed since it.
        """
        if len(snap.regs) != len(self._R) or len(snap.base) != len(self._M):
            raise SimError("snapshot shape does not match this interpreter")
        self._R[:] = snap.regs
        M = self._M
        M[:] = snap.base
        _apply_deltas(M, snap.deltas)
        self._O[:] = snap.output

    def _golden_mem(
        self, base: list[int], deltas: tuple[MemDelta, ...]
    ) -> list[int]:
        """The golden memory of the snapshot with ``base`` and ``deltas``.

        Held in this interpreter's cursor list, which advances by deltas:
        boundaries are crossed in order, so a compare usually applies one
        delta.  The cursor starts again from the keyframe only when the
        target lies in another group or behind it.  The returned list is
        the cursor itself — compare against it or copy it, never keep it.
        """
        G = self._gmem
        done = self._gsteps
        if self._gbase is not base or done > len(deltas):
            G[:] = base
            self._gbase = base
            done = 0
        _apply_deltas(G, deltas[done:])
        self._gsteps = len(deltas)
        return G

    def visit_buffer(self) -> "array[int]":
        """An empty ``visit_sink`` target for :meth:`run`: its indices into
        :attr:`labels` are ``uint16``, or ``uint32`` past 65,536 blocks."""
        return array("H" if len(self.labels) <= 1 << 16 else "I")

    def run_visits(
        self, max_steps: int | None = None
    ) -> tuple[RunResult, npt.NDArray[np.unsignedinteger[Any]]]:
        """A fault-free run from reset, and the block it visited each time,
        in execution order (see :meth:`visit_buffer`)."""
        visits = self.visit_buffer()
        result = self.run(max_steps=max_steps, visit_sink=visits.append)
        return result, np.array(visits)

    def run(
        self,
        faults: tuple[FaultSpec, ...] = (),
        max_steps: int | None = None,
        visit_sink: Callable[[int], None] | None = None,
        snapshot_every: int | None = None,
        snapshot_sink: Callable[[Snapshot], None] | None = None,
        resume_from: Snapshot | None = None,
        converge: GoldenRun | None = None,
    ) -> RunResult:
        """Execute from the entry block and classify the ending.

        ``visit_sink`` receives the index (into :attr:`labels`) of every
        block as the run enters it (see :meth:`run_visits`).
        ``snapshot_every``/``snapshot_sink`` pass a full (keyframe-shaped)
        :class:`Snapshot` to ``snapshot_sink`` at the first block boundary
        at or past each multiple of ``snapshot_every`` committed
        instructions (golden-run side of checkpointed injection; the
        injector turns the stream into keyframes and deltas).
        ``resume_from`` starts execution from a
        previously captured snapshot instead of reset state; ``faults``
        whose ``dyn_index`` precedes the snapshot would be silently skipped,
        so callers must pick a snapshot at or before the earliest fault:
        every fault trial resumes from the last golden snapshot at or
        before its first fault (``FaultInjector._resume_point``).  The
        returned ``dyn_instructions`` stays absolute (counted from the
        true program start), keeping outcome classification and detection
        latency identical to a replay from zero.

        ``converge`` (the program's
        :class:`~repro.faults.injector.GoldenRun`) enables the fault
        trials' golden shortcuts.  The run compares its live state against
        the golden run's snapshot (label, registers, memory) each time it
        crosses a snapshot boundary.  A match means the run replays the
        golden continuation instruction for instruction until its next
        fault fires: execution is a deterministic function of (label,
        registers, memory), and output is append-only.  So with every
        fault applied it finishes at once with the golden final result,
        the golden output suffix past the boundary spliced onto what it has
        emitted (a trial whose output already equals the golden prefix
        returns the golden :class:`RunResult` itself).  With a fault still
        pending it fast-forwards to the last golden snapshot at or before
        that fault, appending the golden output in between.  Either way
        the returned :class:`RunResult` is identical to executing the
        skipped instructions; :attr:`converged` and :attr:`forwards` count
        the two shortcuts.  The golden memory a compare needs is rebuilt in
        this interpreter's cursor (:meth:`_golden_mem`), never copied into
        the golden run.  ``converge`` cannot be combined with visit or
        snapshot recording, whose per-block bookkeeping a shortcut would
        skip.

        On the compiled backend without visit or snapshot recording, the
        fault-free stretches of a run execute **chained**: visits run back
        to back through :attr:`chain` with no per-visit bookkeeping, while
        the committed count stays below ``stop``.  ``stop`` keeps the
        longest block clear of the watchdog budget and of the next pending
        fault, and ends at the next convergence boundary, so every block
        that may time out or hold a fault, and every boundary check, still
        runs through the general loop below.  A chained visit that traps
        leaves ``dyn`` at its block start, and one that detects or halts
        counts its whole block, exactly as the general loop does.
        """
        R, M, O = self._R, self._M, self._O
        if resume_from is None:
            self.reset_state()
            dyn = 0
            label = self._entry
        else:
            self.restore(resume_from)
            dyn = resume_from.dyn
            label = resume_from.label

        budget = self.max_steps if max_steps is None else max_steps
        fault_list = sorted(faults, key=lambda f: f.dyn_index)
        fi = 0
        # Sentinel -1 never equals a (1-based) committed count.
        nf = fault_list[0].dyn_index + 1 if fault_list else -1

        blocks = self._blocks
        chain = self.chain

        next_mark = -1
        if snapshot_sink is not None and snapshot_every is not None:
            if snapshot_every < 1:
                raise SimError("snapshot_every must be >= 1")
            next_mark = snapshot_every

        recording = visit_sink is not None or next_mark >= 0
        chained = None if recording else chain
        maxlen = self._maxlen
        budget_stop = budget - maxlen

        conv_keys: list[int] = []
        snaps: list[Snapshot] = []
        ci = 0
        if converge is not None:
            if recording:
                raise SimError("converge cannot be combined with recording")
            conv_keys = converge.dyn_keys
            snaps = converge.snapshots
            # Boundaries at or before the resume point are the pre-fault
            # prefix — never candidates.
            ci = bisect_right(conv_keys, dyn)
        conv_n = len(conv_keys)

        def finish(kind: ExitKind, code: int | None, trap: str | None,
                   dyn: int) -> RunResult:
            return RunResult(kind, code, tuple(O), dyn, trap=trap)

        try:
            while True:
                if conv_n:
                    while ci < conv_n and conv_keys[ci] < dyn:
                        ci += 1
                    if ci < conv_n and conv_keys[ci] == dyn:
                        j = ci
                        ci += 1
                        snap = snaps[j]
                        if (
                            snap.label == label
                            and R == snap.regs
                            and M == self._golden_mem(snap.base, snap.deltas)
                        ):
                            final = converge.golden
                            n_out = len(snap.output)
                            if nf < 0:
                                # All faults applied: the suffix replays the
                                # golden continuation verbatim — finish with
                                # the golden final result, splicing the
                                # golden output suffix onto whatever this
                                # run has emitted so far.
                                self.converged += 1
                                if len(O) == n_out and O == list(
                                    final.output[:n_out]
                                ):
                                    return final
                                return RunResult(
                                    final.kind,
                                    final.exit_code,
                                    tuple(O) + final.output[n_out:],
                                    final.dyn_instructions,
                                    trap=final.trap,
                                )
                            # A fault is pending: the golden run reaches the
                            # last boundary at or before it without firing
                            # it, so jump straight to that boundary.
                            k = bisect_right(conv_keys, nf - 1) - 1
                            if k > j:
                                self.forwards += 1
                                to = snaps[k]
                                R[:] = to.regs
                                M[:] = self._golden_mem(to.base, to.deltas)
                                O.extend(final.output[n_out:len(to.output)])
                                dyn = to.dyn
                                label = to.label
                                ci = k + 1
                stop = -1
                if chained is not None:
                    stop = budget_stop
                    if nf >= 0 and nf - maxlen < stop:
                        stop = nf - maxlen
                    if ci < conv_n and conv_keys[ci] < stop:
                        stop = conv_keys[ci]
                if dyn < stop:
                    visits = 0
                    try:
                        while dyn < stop:
                            try:
                                fn, n = chained[label]
                            except KeyError:
                                # `label` names no block: the last visit
                                # detected, halted or fell through.
                                break
                            label = fn()
                            dyn += n
                            visits += 1
                    finally:
                        self.chained_visits += visits
                    if label in blocks:
                        continue
                    if label is _DETECT:
                        return finish(ExitKind.DETECTED, None, None, dyn)
                    if type(label) is tuple:
                        return finish(ExitKind.OK, label[1], None, dyn)
                    raise SimError("chained block fell through")  # pragma: no cover
                cb = blocks[label]
                if visit_sink is not None:
                    visit_sink(cb.index)
                if next_mark >= 0 and dyn >= next_mark:
                    snapshot_sink(Snapshot(dyn, label, R[:], M[:], (), tuple(O)))
                    next_mark = (dyn // snapshot_every + 1) * snapshot_every
                if dyn + cb.n > budget:
                    return finish(ExitKind.TIMEOUT, None, "watchdog", dyn)
                jump: object = None
                if nf < 0 or nf > dyn + cb.n:
                    # Fast path: no fault lands during this block visit.
                    if chain is not None:
                        jump = chain[label][0]()
                    else:
                        for fn in cb.fns:
                            res = fn()
                            if res is not None:
                                jump = res
                                break
                    dyn += cb.n
                else:
                    dest_slots = cb.dest_slots
                    dest_is_pr = cb.dest_is_pr
                    start = dyn
                    for i, fn in enumerate(cb.fns):
                        res = fn()
                        dyn += 1
                        if dyn == nf:
                            spec = fault_list[fi]
                            kind = spec.kind
                            if kind == "reg":
                                ds = dest_slots[i]
                                if ds >= 0:
                                    if dest_is_pr[i]:
                                        R[ds] ^= 1
                                    else:
                                        R[ds] ^= spec.mask
                            elif kind == "mem":
                                addr = spec.arg
                                if type(addr) is int and 1 <= addr < len(M):
                                    M[addr] ^= 1 << spec.bit
                            elif kind == "cf":
                                if (
                                    type(res) is str
                                    and res is not _DETECT
                                    and res in blocks
                                ):
                                    if spec.arg is None:
                                        tgts = cb.targets[i]
                                        if len(tgts) == 2:
                                            # invert the branch decision
                                            res = (
                                                tgts[0]
                                                if res == tgts[1]
                                                else tgts[1]
                                            )
                                    elif spec.arg in blocks:
                                        res = spec.arg
                            else:  # opcode substitution
                                ds = dest_slots[i]
                                if ds >= 0:
                                    slots = cb.src_slots[i]
                                    if slots:
                                        a = R[slots[0]]
                                        b = R[slots[1]] if len(slots) > 1 else a
                                        alt = ALT_OPS[
                                            (spec.arg or 0) % len(ALT_OPS)
                                        ]
                                        v = alt(a, b) & _MASK
                                        R[ds] = v & 1 if dest_is_pr[i] else v
                                    elif dest_is_pr[i]:
                                        R[ds] ^= 1
                                    else:
                                        R[ds] ^= 1 << spec.bit
                            fi += 1
                            nf = (
                                fault_list[fi].dyn_index + 1
                                if fi < len(fault_list)
                                else -1
                            )
                        if res is not None:
                            jump = res
                            break
                    if jump is None and dyn != start + cb.n:  # pragma: no cover
                        raise SimError("block accounting error")

                if jump is None:
                    raise SimError(f"block {label} fell through")  # pragma: no cover
                if jump is _DETECT:
                    return finish(ExitKind.DETECTED, None, None, dyn)
                if type(jump) is tuple:
                    return finish(ExitKind.OK, jump[1], None, dyn)
                label = jump
        except SimTrap as trap:
            return finish(ExitKind.EXCEPTION, None, trap.kind, dyn)
