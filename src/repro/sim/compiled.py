"""Compiled execution backend: superblock fusion via Python codegen.

The reference interpreter pre-compiles every instruction into a closure and
dispatches them one call at a time.  That dispatch — one CPython frame per
dynamic instruction — is the dominant cost of a Monte-Carlo fault campaign.
This module removes it: each basic block is *fused* into a single generated
Python function ("superblock") in which

* every operand is resolved to a flat register-file index baked into the
  source as a literal (``R[7]``),
* every immediate and memory bound is folded in, and
* opcode dispatch disappears entirely — the block body is straight-line
  Python the bytecode compiler optimizes as a unit.

:func:`fuse_functional_blocks` emits functional semantics only: the fused
callable returns the interpreter's jump protocol (a target label, the
``("halt", code)`` tuple, the detect sentinel, or ``None``, which means the
block fell through, an IR bug).  The reference interpreter's fault-free
fast path runs them; faulted block visits still run on the per-instruction
closures, so fault application is byte-identical to the interpreted
backend.  Emitted with an address sink, the same blocks record the
functional trace the cycle-level executor replays its timing from
(:class:`~repro.sim.executor.FunctionalTrace`).

Generated code objects are memoized in a process-wide **decode cache**
keyed by the generated source (which embeds every constant, so the key is
exact): two interpreters over the same program — e.g. a campaign's golden
profiler and its shard workers, or repeated ``Evaluator`` points — compile
each distinct block once per process.  Hits/misses are exported as the
``sim.decode_cache.hits`` / ``sim.decode_cache.misses`` counters.

Fusion is semantics-preserving by construction and differentially
tested against the interpreted backend (``tests/test_compiled_backend.py``,
plus the fuzz harness in ``tests/test_fuzz_differential.py``).  Every
:class:`~repro.isa.opcodes.Opcode` has a generator path, so every block
fuses; an opcode the generator does not know raises :class:`SimError`.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import MemoryFault, SimError
from repro.ir.interp import _DETECT, _div_s, _rem_s, _signed_const
from repro.isa.opcodes import Opcode
from repro.obs import get_telemetry

_MASK = (1 << 64) - 1
_S = 1 << 63
_W = 1 << 64

#: Process-wide decode cache: generated source -> compiled code object.
_CODE_CACHE: dict[str, object] = {}


def _compile_factory(source: str) -> Callable:
    """Compile ``source`` (decode-cached) and return its ``_factory``."""
    tel = get_telemetry()
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, "<repro.sim.compiled>", "exec")
        _CODE_CACHE[source] = code
        tel.count("sim.decode_cache.misses")
    else:
        tel.count("sim.decode_cache.hits")
    ns: dict = {}
    exec(code, ns)  # noqa: S102 - source is generated from trusted IR
    return ns["_factory"]


# -- shared ALU / move / output emission --------------------------------------

_RAW_RR = {
    Opcode.MUL: "(R[{a}] * R[{b}]) & {m}",
    Opcode.AND: "R[{a}] & R[{b}]",
    Opcode.OR: "R[{a}] | R[{b}]",
    Opcode.XOR: "R[{a}] ^ R[{b}]",
    Opcode.SHL: "(R[{a}] << (R[{b}] & 63)) & {m}",
    Opcode.SHRL: "R[{a}] >> (R[{b}] & 63)",
}

_RAW_RI = {
    Opcode.MUL: "(R[{a}] * {k}) & {m}",
    Opcode.AND: "R[{a}] & {k}",
    Opcode.OR: "R[{a}] | {k}",
    Opcode.XOR: "R[{a}] ^ {k}",
    Opcode.SHL: "(R[{a}] << ({k} & 63)) & {m}",
    Opcode.SHRL: "R[{a}] >> ({k} & 63)",
}

#: Signed two-input ops, written over already sign-decoded operands.  The
#: second operand is either the local ``y`` or a signed immediate literal.
_SIGNED = {
    Opcode.DIV: "div({x}, {y})",
    Opcode.REM: "rem({x}, {y})",
    Opcode.SHRA: "({x} >> ({y} & 63)) & {m}",
    Opcode.MIN: "min({x}, {y}) & {m}",
    Opcode.MAX: "max({x}, {y}) & {m}",
}

#: Compares, written over raw register values.  Registers always hold
#: ``[0, 2**64)``, so equality needs no decoding, and flipping the sign bit
#: (``x ^ 2**63``) maps two's-complement order onto unsigned order.
_CMP = {
    Opcode.CMPEQ: ("==", False),
    Opcode.CMPNE: ("!=", False),
    Opcode.CMPLT: ("<", True),
    Opcode.CMPLE: ("<=", True),
    Opcode.CMPGT: (">", True),
    Opcode.CMPGE: (">=", True),
}

_UNARY = {
    Opcode.NEG: "(-x) & {m}",
    Opcode.ABS: "abs(x) & {m}",
    Opcode.NOT: "(~x) & {m}",
}

#: ADD and SUB wrap at most once, so a compare replaces the 64-bit mask:
#: registers hold ``[0, 2**64)``, a sum lies below ``2**65`` and a
#: difference above ``-2**64``.
_WRAP = {
    Opcode.ADD: ("+", f"t if t < {_W} else t - {_W}"),
    Opcode.SUB: ("-", f"t if t >= 0 else t + {_W}"),
}

_SIGNED_OPS = frozenset(_SIGNED)
_RAW_OPS = frozenset(_RAW_RR)


def _alu_lines(insn, slot_of) -> list[str] | None:
    """Statements for a non-memory, non-control instruction.

    Returns ``None`` for the memory and control-flow opcodes, which
    :func:`_functional_body` handles itself.  Raises :class:`SimError` for an opcode
    nobody can fuse.
    """
    op = insn.opcode
    if op is Opcode.NOP:
        return []
    srcs = [slot_of[r] for r in insn.srcs]
    d = slot_of[insn.dests[0]] if insn.dests else -1
    imm = insn.imm

    if op is Opcode.MOVI:
        return [f"R[{d}] = {imm & _MASK}"]
    if op is Opcode.MOV or op is Opcode.PMOV:
        return [f"R[{d}] = R[{srcs[0]}]"]
    if op in _WRAP:
        sign, wrap = _WRAP[op]
        b = f"R[{srcs[1]}]" if imm is None else imm & _MASK
        return [f"t = R[{srcs[0]}] {sign} {b}", f"R[{d}] = {wrap}"]
    if op in _RAW_OPS:
        if imm is not None:
            tmpl = _RAW_RI[op]
            return [f"R[{d}] = " + tmpl.format(a=srcs[0], k=imm & _MASK, m=_MASK)]
        tmpl = _RAW_RR[op]
        return [f"R[{d}] = " + tmpl.format(a=srcs[0], b=srcs[1], m=_MASK)]
    if op in _CMP:
        rel, signed = _CMP[op]
        if signed:
            x = f"(R[{srcs[0]}] ^ {_S})"
            y = f"(R[{srcs[1]}] ^ {_S})" if imm is None else (imm & _MASK) ^ _S
        else:
            x = f"R[{srcs[0]}]"
            y = f"R[{srcs[1]}]" if imm is None else imm & _MASK
        return [f"R[{d}] = 1 if {x} {rel} {y} else 0"]
    if op in _SIGNED_OPS:
        lines = [f"x = R[{srcs[0]}]", f"if x & {_S}: x -= {_W}"]
        if imm is not None:
            y = repr(_signed_const(imm))
        else:
            y = "y"
            lines += [f"y = R[{srcs[1]}]", f"if y & {_S}: y -= {_W}"]
        if op is Opcode.DIV or op is Opcode.REM:
            # Inline truncated division instead of calling the interp
            # helper: `x % y` is floored, so nudge the remainder toward
            # zero when the signs differ.  The zero check delegates to the
            # helper purely to raise the identical ArithmeticTrap.
            name = "div" if op is Opcode.DIV else "rem"
            if imm is not None:
                if _signed_const(imm) == 0:
                    return lines + [f"{name}(0, 0)"]
                if _signed_const(imm) > 0:
                    adjust = f"if r and x < 0: r -= {y}"
                else:
                    adjust = f"if r and x >= 0: r -= {y}"
            else:
                lines.append(f"if y == 0: {name}(0, 0)")
                adjust = f"if r and (x < 0) != ({y} < 0): r -= {y}"
            lines += [f"r = x % {y}", adjust]
            if op is Opcode.REM:
                lines.append(f"R[{d}] = r & {_MASK}")
            else:
                lines.append(f"R[{d}] = ((x - r) // {y}) & {_MASK}")
            return lines
        lines.append(f"R[{d}] = " + _SIGNED[op].format(x="x", y=y, m=_MASK))
        return lines
    if op in _UNARY:
        return [
            f"x = R[{srcs[0]}]",
            f"if x & {_S}: x -= {_W}",
            f"R[{d}] = " + _UNARY[op].format(m=_MASK),
        ]
    if op is Opcode.SELECT:
        p, a, b = srcs
        return [f"R[{d}] = R[{a}] if R[{p}] else R[{b}]"]
    if op is Opcode.PNE:
        return [f"R[{d}] = 1 if R[{srcs[0]}] != R[{srcs[1]}] else 0"]
    if op is Opcode.OUT:
        return [f"O.append(R[{srcs[0]}])"]
    if op in (
        Opcode.LOAD, Opcode.STORE, Opcode.LOADFP, Opcode.STOREFP,
        Opcode.JMP, Opcode.BRT, Opcode.BRF, Opcode.HALT, Opcode.CHKBR,
    ):
        return None
    raise SimError(f"cannot fuse opcode {op}")


def _addr_lines(base: int, imm: int, mem_words: int, what: str) -> list[str]:
    """Compute and bounds-check a LOAD/STORE address into ``t``.

    Registers always hold ``[0, 2**64)``, so a zero offset needs neither
    the add nor the wrap-around mask.
    """
    addr = f"R[{base}]" if imm == 0 else f"(R[{base}] + ({imm})) & {_MASK}"
    return [
        f"t = {addr}",
        f"if t < 1 or t >= {mem_words}:",
        f"    raise MF('{what} invalid address %d' % t)",
    ]


# -- functional fusion (reference interpreter fast path) ----------------------


def _functional_body(block, slot_of, frame_base: int, mem_words: int,
                     record: bool = False) -> list[str]:
    """Statements of one block; with ``record``, every LOAD and STORE
    passes its checked address to the sink ``A`` before it accesses
    memory."""
    sink = ["A(t)"] if record else []
    lines: list[str] = []
    for insn in block.instructions:
        alu = _alu_lines(insn, slot_of)
        if alu is not None:
            lines += alu
            continue
        op = insn.opcode
        srcs = [slot_of[r] for r in insn.srcs]
        imm = insn.imm
        if op is Opcode.LOAD:
            d = slot_of[insn.dests[0]]
            lines += _addr_lines(srcs[0], imm, mem_words, "load from")
            lines += sink
            lines.append(f"R[{d}] = M[t]")
        elif op is Opcode.STORE:
            lines += _addr_lines(srcs[0], imm, mem_words, "store to")
            lines += sink
            lines.append(f"M[t] = R[{srcs[1]}]")
        elif op is Opcode.LOADFP:
            d = slot_of[insn.dests[0]]
            lines.append(f"R[{d}] = M[{frame_base + imm}]")
        elif op is Opcode.STOREFP:
            lines.append(f"M[{frame_base + imm}] = R[{srcs[0]}]")
        elif op is Opcode.CHKBR:
            lines += [f"if R[{srcs[0]}]:", "    return D"]
        elif op is Opcode.JMP:
            lines.append(f"return {insn.targets[0]!r}")
        elif op is Opcode.BRT:
            taken, fall = insn.targets
            lines.append(f"return {taken!r} if R[{srcs[0]}] else {fall!r}")
        elif op is Opcode.BRF:
            taken, fall = insn.targets
            lines.append(f"return {fall!r} if R[{srcs[0]}] else {taken!r}")
        else:  # HALT: _alu_lines rejects everything outside these nine
            lines.append(f"return ('halt', {imm!r})")
    return lines


def _functional_sources(interp, record: bool) -> dict[str, str]:
    """Generated per-block sources for ``interp``'s program."""
    sources = {}
    slot_of = interp._slot_of
    for block in interp.program.main.blocks():
        body = _functional_body(
            block, slot_of, interp.frame_base, interp.mem_words, record
        )
        if not body:
            body = ["return None"]
        source = "def _factory(R, M, O, D, div, rem, MF, A):\n    def _block():\n"
        source += "".join(f"        {line}\n" for line in body)
        source += "        return None\n    return _block\n"
        sources[block.label] = source
    return sources


def fuse_functional_blocks(
    interp, address_sink: Callable[[int], object] | None = None
) -> dict[str, Callable[[], object]]:
    """Fuse every block of ``interp`` for its fault-free fast path.

    The returned callables close over the interpreter's live register /
    memory / output arrays, so they observe ``reset_state`` and snapshot
    restores for free.  With ``address_sink``, every LOAD and STORE passes
    its word address to it, in program order, once the address is known to
    be valid (the functional trace of :mod:`repro.sim.executor`).
    Compiled code objects are memoized per source (``sim.decode_cache.*``);
    source generation and the closure binding are re-done per interpreter.
    """
    fused: dict[str, Callable[[], object]] = {}
    record = address_sink is not None
    for label, source in _functional_sources(interp, record).items():
        factory = _compile_factory(source)
        fused[label] = factory(
            interp._R, interp._M, interp._O, _DETECT, _div_s, _rem_s,
            MemoryFault, address_sink,
        )
    return fused
