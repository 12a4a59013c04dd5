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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

from repro.errors import ArithmeticTrap, MemoryFault, SimError, SimTrap
from repro.ir.program import Program
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg, RegClass

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
    block_trace: tuple[str, ...] = ()

    @property
    def architectural_state(self) -> tuple:
        """The state compared against the golden run to call benign vs SDC."""
        return (self.kind, self.exit_code, self.output)


@dataclass(frozen=True)
class Snapshot:
    """Complete architectural state at a block boundary of a fault-free run.

    ``dyn`` is the number of instructions committed before ``label`` begins;
    restoring the snapshot and executing from ``label`` is bit-identical to
    executing the first ``dyn`` instructions from reset (checkpointed fault
    campaigns rely on this — see ``docs/fault_injection.md``).
    """

    dyn: int
    label: str
    regs: tuple[int, ...]
    mem: tuple[int, ...]
    output: tuple[int, ...]


class ConvergenceIndex:
    """Golden states a faulted run can be checked against mid-flight.

    Built from the golden run's :class:`Snapshot` list (see
    :mod:`repro.sim.batch`).  When :meth:`Interpreter.run` is given one via
    ``converge`` it compares the live registers and memory against the
    golden state each time execution crosses a snapshot boundary *after
    every fault has been applied*.  A match means the remainder of the run
    replays the golden continuation instruction for instruction — execution
    is a deterministic function of (label, registers, memory), and output
    is append-only — so the run finishes immediately with the golden final
    kind / exit code / dyn count and ``output = emitted-so-far + the golden
    output suffix past this boundary``.  A trial whose emitted output
    already equals the golden prefix gets the shared ``final`` object; one
    that diverged in output alone (the silent-corruption shape: a wrong
    value was printed, the architectural state healed) still exits early
    with its own synthesized output.  Purely an early exit either way: a
    run that never matches is byte-identical to one executed without the
    index, and a run that matches returns exactly what executing the
    suffix would have produced (asserted by the engine/oracle parity tests).

    ``hits`` counts early exits taken against this index (telemetry only).
    """

    __slots__ = ("keys", "labels", "regs", "mems", "out_lens", "final", "hits")

    def __init__(self, snapshots: list["Snapshot"], final: "RunResult") -> None:
        self.keys = [s.dyn for s in snapshots]
        self.labels = [s.label for s in snapshots]
        # Stored as lists so the hot-loop comparison against the live
        # register/memory lists is a single C-level == with first-mismatch
        # early exit (no per-check tuple conversion).
        self.regs = [list(s.regs) for s in snapshots]
        self.mems = [list(s.mem) for s in snapshots]
        #: Golden output length at each boundary — the split point for the
        #: synthesized output of an output-diverged but state-converged run.
        self.out_lens = [len(s.output) for s in snapshots]
        self.final = RunResult(
            kind=final.kind,
            exit_code=final.exit_code,
            output=final.output,
            dyn_instructions=final.dyn_instructions,
            trap=final.trap,
            block_trace=(),
        )
        self.hits = 0


class TraceGuide:
    """Golden-trace-guided execution plan for post-fault suffixes.

    Fault trials overwhelmingly keep following the golden control flow even
    after their architectural state diverged: benign faults rejoin it,
    exception trials follow it until the trap, and silent corruption rides
    along it for most of the suffix (the corrupted value flows through the
    same branches).  The guide lets :meth:`Interpreter.run` execute such
    suffixes as a tight loop over the recorded golden block trace — one
    pre-fused callable plus one next-label comparison per block visit —
    instead of the general dispatch loop, peeling back to it the moment a
    block's actual jump disagrees with the trace.

    Misprediction cannot corrupt a run: every callable in ``pairs`` is the
    compiled body for the label recorded at that trace position, so any
    visit the guided loop executes is architecturally exact regardless of
    how the run is aligned against the trace; the trace only *predicts* the
    next label.  Likewise the committed-instruction count stays exact
    because ``vds`` deltas along the trace are the block lengths of the
    visited labels.  Guided chunks stop at golden snapshot boundaries
    (``key_visits``) so the convergence early exit fires at exactly the
    positions the scalar loop would check, and a chunk is only entered when
    it fits under the watchdog budget, so timeout accounting is untouched.

    ``visits`` counts block visits executed under guidance (telemetry).
    """

    __slots__ = ("pairs", "vds", "labels", "occ", "key_visits", "last",
                 "visits")

    def __init__(
        self,
        interp: "Interpreter",
        golden: "RunResult",
        visit_dyn_start,
        snap_keys: list[int],
    ) -> None:
        fused = interp._fused
        if fused is None:
            raise SimError("trace guide requires a fused (compiled) backend")
        trace = golden.block_trace
        if not trace:
            raise SimError("trace guide requires a recorded golden trace")
        n = len(trace)
        # Interning lets the guided loop's `is` comparison short-circuit
        # the common predicted-correctly case (generated code constants
        # that look like identifiers are interned by CPython).
        labels = [sys.intern(lb) for lb in trace]
        self.labels = labels
        self.pairs = [(fused[labels[i]], labels[i + 1]) for i in range(n - 1)]
        vds = [int(x) for x in visit_dyn_start]
        if len(vds) != n:
            raise SimError("visit table does not match the golden trace")
        self.vds = vds
        occ: dict[str, list[int]] = {}
        for i, lb in enumerate(labels):
            occ.setdefault(lb, []).append(i)
        self.occ = occ
        kv: list[int] = []
        for key in snap_keys:
            j = bisect_left(vds, key)
            if j < n and vds[j] == key:
                kv.append(j)
        self.key_visits = kv
        self.last = n - 1
        self.visits = 0


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
        "label", "fns", "dest_slots", "dest_is_pr", "src_slots", "targets", "n"
    )

    def __init__(self, label: str) -> None:
        self.label = label
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

        self._blocks: dict[str, _CompiledBlock] = {}
        for block in program.main.blocks():
            cb = _CompiledBlock(block.label)
            for insn in block.instructions:
                cb.fns.append(self._make_closure(insn))
                if insn.dests:
                    cb.dest_slots.append(self._slot_of[insn.dests[0]])
                    cb.dest_is_pr.append(insn.dests[0].rclass is RegClass.PR)
                else:
                    cb.dest_slots.append(-1)
                    cb.dest_is_pr.append(False)
                cb.src_slots.append(tuple(self._slot_of[r] for r in insn.srcs))
                cb.targets.append(
                    tuple(insn.targets)
                    if insn.opcode in (Opcode.JMP, Opcode.BRT, Opcode.BRF)
                    else ()
                )
            cb.n = len(cb.fns)
            self._blocks[block.label] = cb

        self.backend = resolve_backend(backend)
        self._fused: dict[str, Callable[[], object]] | None = None
        if self.backend == "compiled":
            # Imported lazily: repro.sim.compiled imports helpers from this
            # module, so a top-level import would be circular.
            from repro.sim.compiled import fuse_functional_blocks

            self._fused = fuse_functional_blocks(self)

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
            if not 1 <= addr < mem_words:
                raise SimError(f"frame slot {imm} outside memory")

            def f_loadfp() -> None:
                R[d] = M[addr]

            return f_loadfp

        if op is Opcode.STOREFP:
            a = srcs[0]
            addr = self.frame_base + imm
            if not 1 <= addr < mem_words:
                raise SimError(f"frame slot {imm} outside memory")

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
        """Load architectural state from a :class:`Snapshot`."""
        if len(snap.regs) != len(self._R) or len(snap.mem) != len(self._M):
            raise SimError("snapshot shape does not match this interpreter")
        self._R[:] = snap.regs
        self._M[:] = snap.mem
        self._O[:] = snap.output

    def run(
        self,
        faults: tuple[FaultSpec, ...] = (),
        max_steps: int | None = None,
        record_trace: bool = False,
        snapshot_every: int | None = None,
        snapshot_sink: list[Snapshot] | None = None,
        resume_from: Snapshot | None = None,
        converge: ConvergenceIndex | None = None,
        guide: TraceGuide | None = None,
    ) -> RunResult:
        """Execute from the entry block and classify the ending.

        ``snapshot_every``/``snapshot_sink`` capture a :class:`Snapshot` at
        the first block boundary at or past each multiple of
        ``snapshot_every`` committed instructions (golden-run side of
        checkpointed injection).  ``resume_from`` starts execution from a
        previously captured snapshot instead of reset state; ``faults``
        whose ``dyn_index`` precedes the snapshot would be silently skipped,
        so callers must pick a snapshot at or before the earliest fault.
        The returned ``dyn_instructions`` stays absolute (counted from the
        true program start), keeping outcome classification and detection
        latency identical to a replay from zero.

        ``converge`` (a :class:`ConvergenceIndex`) enables the batched
        engine's golden re-convergence early exit: once every fault has
        been applied, crossing a golden snapshot boundary with state equal
        to the golden state at that point returns the golden final result
        immediately — the continuation would replay the golden run, so the
        returned :class:`RunResult` is identical to executing the suffix.

        ``guide`` (a :class:`TraceGuide`) turns the post-fault suffix into
        trace-guided execution: once every fault is applied, block visits
        that keep matching the golden control flow run through a tight
        chunked loop instead of the general dispatch loop, falling back
        here the moment a jump disagrees with the trace.  Purely a faster
        engine for the same instruction stream (see :class:`TraceGuide`).
        Only the compiled trial engine passes one, and never together with
        trace recording or snapshotting, which need per-block bookkeeping.
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

        trace: list[str] | None = [] if record_trace else None
        blocks = self._blocks
        fused = self._fused

        next_mark = -1
        if snapshot_sink is not None and snapshot_every is not None:
            if snapshot_every < 1:
                raise SimError("snapshot_every must be >= 1")
            next_mark = snapshot_every

        g_pairs = None
        g_vds = g_labels = g_occ = g_keyvisits = None
        g_nkeys = g_last = 0
        g_floor = g_fails = g_skip = 0
        if guide is not None:
            g_pairs = guide.pairs
            g_vds = guide.vds
            g_labels = guide.labels
            g_occ = guide.occ
            g_keyvisits = guide.key_visits
            g_nkeys = len(g_keyvisits)
            g_last = guide.last

        conv_keys = conv_n = None
        ci = 0
        if converge is not None:
            conv_keys = converge.keys
            conv_n = len(conv_keys)
            # Boundaries at or before the resume point are the pre-fault
            # prefix — never candidates.
            while ci < conv_n and conv_keys[ci] <= dyn:
                ci += 1

        def finish(kind: ExitKind, code: int | None, trap: str | None) -> RunResult:
            return RunResult(
                kind,
                code,
                tuple(O),
                dyn,
                trap=trap,
                block_trace=tuple(trace) if trace is not None else (),
            )

        try:
            while True:
                cb = blocks[label]
                if trace is not None:
                    trace.append(label)
                if next_mark >= 0 and dyn >= next_mark:
                    snapshot_sink.append(
                        Snapshot(dyn, label, tuple(R), tuple(M), tuple(O))
                    )
                    next_mark = (dyn // snapshot_every + 1) * snapshot_every
                if conv_keys is not None and nf < 0:
                    # All faults applied: crossing a golden boundary with
                    # golden-equal registers and memory means the suffix
                    # replays the golden continuation verbatim — finish with
                    # the golden final result, splicing the golden output
                    # suffix onto whatever this run has emitted so far.
                    while ci < conv_n and conv_keys[ci] < dyn:
                        ci += 1
                    if ci < conv_n and conv_keys[ci] == dyn:
                        j = ci
                        ci += 1
                        if (
                            converge.labels[j] == label
                            and R == converge.regs[j]
                            and M == converge.mems[j]
                        ):
                            converge.hits += 1
                            final = converge.final
                            n_out = converge.out_lens[j]
                            if len(O) == n_out and O == list(final.output[:n_out]):
                                return final
                            return RunResult(
                                final.kind,
                                final.exit_code,
                                tuple(O) + final.output[n_out:],
                                final.dyn_instructions,
                                trap=final.trap,
                                block_trace=(),
                            )
                if g_skip and nf < 0:
                    g_skip -= 1
                if g_pairs is not None and nf < 0 and g_skip == 0:
                    # Trace-guided fast path: align against the golden
                    # block trace and execute visits in chunks while the
                    # control flow keeps agreeing with it.
                    gi = -1
                    off = 0
                    v = bisect_left(g_vds, dyn, g_floor)
                    if v < g_last and g_vds[v] == dyn and g_labels[v] == label:
                        gi = v
                    else:
                        # Control flow diverged from the trace earlier (or
                        # skipped/repeated visits): re-sync at the next
                        # occurrence of this label.  A wrong alignment only
                        # costs prediction accuracy, never correctness.
                        loc = g_occ.get(label)
                        if loc is not None:
                            k = bisect_left(loc, g_floor)
                            if k < len(loc) and loc[k] < g_last:
                                gi = loc[k]
                                off = dyn - g_vds[gi]
                    if gi < 0:
                        # No trace position left for this label: the run
                        # has left the golden path for good (or overran
                        # its occurrences).  Back off exponentially so a
                        # permanently diverged run stops paying the sync
                        # probe on every block.
                        g_fails += 1
                        g_skip = min(128, 1 << g_fails)
                    else:
                        if off == 0:
                            kk = bisect_right(g_keyvisits, gi)
                            stop = (
                                g_keyvisits[kk] if kk < g_nkeys else g_last
                            )
                        else:
                            # Misaligned runs cannot hit a convergence key
                            # (guarded by exact dyn equality), so chunk by
                            # a fixed stride instead.
                            stop = min(gi + 2048, g_last)
                        if g_vds[stop] + off > budget:
                            # Near the watchdog budget: hand over to the
                            # scalar loop's exact per-block accounting.
                            g_pairs = None
                        else:
                            i = gi
                            res = None
                            try:
                                for fn, exp in g_pairs[gi:stop]:
                                    r = fn()
                                    if r is not exp and r != exp:
                                        res = r
                                        break
                                    i += 1
                            except SimTrap:
                                dyn = g_vds[i] + off
                                raise
                            if res is None:
                                guide.visits += i - gi
                                g_fails = 0
                                dyn = g_vds[stop] + off
                                label = g_labels[stop]
                                g_floor = stop
                                continue
                            # Visit i executed in full; its jump left the
                            # trace (or ended the run).
                            guide.visits += i - gi + 1
                            if i - gi + 1 >= 4:
                                g_fails = 0
                            else:
                                # The alignment guess barely predicted:
                                # treat it like a failed probe.
                                g_fails += 1
                                g_skip = min(128, 1 << g_fails)
                            dyn = g_vds[i + 1] + off
                            g_floor = i + 1
                            if res is _DETECT:
                                return finish(ExitKind.DETECTED, None, None)
                            if type(res) is tuple:
                                return finish(ExitKind.OK, res[1], None)
                            if type(res) is not str:  # pragma: no cover
                                raise SimError(
                                    f"block {g_labels[i]} fell through"
                                )
                            label = res
                            continue
                if dyn + cb.n > budget:
                    return finish(ExitKind.TIMEOUT, None, "watchdog")
                jump: object = None
                if nf < 0 or nf > dyn + cb.n:
                    # Fast path: no fault lands during this block visit.
                    if fused is not None:
                        jump = fused[label]()
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
                    return finish(ExitKind.DETECTED, None, None)
                if type(jump) is tuple:
                    return finish(ExitKind.OK, jump[1], None)
                label = jump
        except SimTrap as trap:
            return finish(ExitKind.EXCEPTION, None, trap.kind)
