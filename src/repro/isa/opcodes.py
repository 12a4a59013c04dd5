"""Opcode definitions and static metadata.

``OP_INFO`` is the single source of truth for operand shapes, latency classes
and the instruction categories the CASTED error-detection pass dispatches on
(paper §III-B): *control flow*, *store-like* and everything else
(replicable).  Checks are a ``CMPNE``/``CHKBR`` pair, so the "compare + jump"
cost structure of the paper's checking code is preserved.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isa.registers import RegClass

_GP = RegClass.GP
_PR = RegClass.PR


class LatencyClass(enum.Enum):
    """Coarse latency buckets; the machine config maps them to cycles."""

    FAST = "fast"  # single-cycle integer / move / compare
    MUL = "mul"
    DIV = "div"
    LOAD = "load"  # L1-hit latency; misses stall dynamically
    STORE = "store"
    BRANCH = "branch"


class Opcode(enum.Enum):
    """Every instruction the target machine understands."""

    # two-input ALU (immediate allowed in the second slot)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    REM = "rem"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHRL = "shrl"
    SHRA = "shra"
    MIN = "min"
    MAX = "max"
    # one-input ALU
    NEG = "neg"
    ABS = "abs"
    NOT = "not"
    # moves
    MOV = "mov"
    MOVI = "movi"
    SELECT = "select"
    # compares (GP x GP -> PR, immediate allowed in the second slot)
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLE = "cmple"
    CMPGT = "cmpgt"
    CMPGE = "cmpge"
    # predicate ops
    PNE = "pne"
    PMOV = "pmov"
    # memory
    LOAD = "load"
    STORE = "store"
    # frame (spill) slot accesses emitted by the register allocator; the
    # address is frame_base + imm, so no address register is consumed
    LOADFP = "loadfp"
    STOREFP = "storefp"
    # observable output (store-like: leaves the sphere of replication)
    OUT = "out"
    # control flow
    JMP = "jmp"
    BRT = "brt"
    BRF = "brf"
    HALT = "halt"
    # side exit to the fault handler (the "jump" half of a check)
    CHKBR = "chkbr"
    NOP = "nop"

    #: This opcode's ``OP_INFO`` entry, bound on every member once the
    #: table is built, so hot paths reach it without hashing the enum.
    info: OpInfo

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of one opcode."""

    mnemonic: str
    in_classes: tuple[RegClass, ...] = ()
    out_class: RegClass | None = None
    latency: LatencyClass = LatencyClass.FAST
    allow_imm: bool = False  # immediate may replace the LAST register input
    needs_imm: bool = False  # immediate operand is mandatory (MOVI, mem offset)
    is_load: bool = False
    is_store: bool = False
    is_out: bool = False
    is_branch: bool = False  # redirects the whole machine (block terminator)
    is_terminator: bool = False
    is_side_exit: bool = False  # CHKBR: may leave the block without terminating it
    n_targets: int = 0
    commutative: bool = False

    @property
    def is_mem(self) -> bool:
        return self.is_load or self.is_store

    @property
    def is_control(self) -> bool:
        return self.is_branch or self.is_terminator or self.is_side_exit

    @property
    def has_side_effects(self) -> bool:
        return self.is_store or self.is_out or self.is_control

    @property
    def replicable(self) -> bool:
        """May the error-detection pass duplicate this opcode?

        Paper §III-B: control flow, stores (and anything else that escapes
        the sphere of replication, i.e. ``OUT``) are never replicated.
        """
        return not (self.is_control or self.is_store or self.is_out)


def _alu2(mnemonic: str, commutative: bool = False, latency: LatencyClass = LatencyClass.FAST) -> OpInfo:
    return OpInfo(mnemonic, (_GP, _GP), _GP, latency, allow_imm=True, commutative=commutative)


def _alu1(mnemonic: str) -> OpInfo:
    return OpInfo(mnemonic, (_GP,), _GP)


def _cmp(mnemonic: str, commutative: bool = False) -> OpInfo:
    return OpInfo(mnemonic, (_GP, _GP), _PR, allow_imm=True, commutative=commutative)


OP_INFO: dict[Opcode, OpInfo] = {
    Opcode.ADD: _alu2("add", commutative=True),
    Opcode.SUB: _alu2("sub"),
    Opcode.MUL: _alu2("mul", commutative=True, latency=LatencyClass.MUL),
    Opcode.DIV: _alu2("div", latency=LatencyClass.DIV),
    Opcode.REM: _alu2("rem", latency=LatencyClass.DIV),
    Opcode.AND: _alu2("and", commutative=True),
    Opcode.OR: _alu2("or", commutative=True),
    Opcode.XOR: _alu2("xor", commutative=True),
    Opcode.SHL: _alu2("shl"),
    Opcode.SHRL: _alu2("shrl"),
    Opcode.SHRA: _alu2("shra"),
    Opcode.MIN: _alu2("min", commutative=True),
    Opcode.MAX: _alu2("max", commutative=True),
    Opcode.NEG: _alu1("neg"),
    Opcode.ABS: _alu1("abs"),
    Opcode.NOT: _alu1("not"),
    Opcode.MOV: OpInfo("mov", (_GP,), _GP),
    Opcode.MOVI: OpInfo("movi", (), _GP, needs_imm=True),
    Opcode.SELECT: OpInfo("select", (_PR, _GP, _GP), _GP),
    Opcode.CMPEQ: _cmp("cmpeq", commutative=True),
    Opcode.CMPNE: _cmp("cmpne", commutative=True),
    Opcode.CMPLT: _cmp("cmplt"),
    Opcode.CMPLE: _cmp("cmple"),
    Opcode.CMPGT: _cmp("cmpgt"),
    Opcode.CMPGE: _cmp("cmpge"),
    Opcode.PNE: OpInfo("pne", (_PR, _PR), _PR, commutative=True),
    Opcode.PMOV: OpInfo("pmov", (_PR,), _PR),
    Opcode.LOAD: OpInfo("load", (_GP,), _GP, LatencyClass.LOAD, needs_imm=True, is_load=True),
    Opcode.STORE: OpInfo(
        "store", (_GP, _GP), None, LatencyClass.STORE, needs_imm=True, is_store=True
    ),
    Opcode.LOADFP: OpInfo(
        "loadfp", (), _GP, LatencyClass.LOAD, needs_imm=True, is_load=True
    ),
    Opcode.STOREFP: OpInfo(
        "storefp", (_GP,), None, LatencyClass.STORE, needs_imm=True, is_store=True
    ),
    Opcode.OUT: OpInfo("out", (_GP,), None, LatencyClass.STORE, is_out=True),
    Opcode.JMP: OpInfo(
        "jmp", (), None, LatencyClass.BRANCH, is_branch=True, is_terminator=True, n_targets=1
    ),
    Opcode.BRT: OpInfo(
        "brt", (_PR,), None, LatencyClass.BRANCH, is_branch=True, is_terminator=True, n_targets=2
    ),
    Opcode.BRF: OpInfo(
        "brf", (_PR,), None, LatencyClass.BRANCH, is_branch=True, is_terminator=True, n_targets=2
    ),
    Opcode.HALT: OpInfo("halt", (), None, LatencyClass.BRANCH, needs_imm=True, is_terminator=True),
    Opcode.CHKBR: OpInfo("chkbr", (_PR,), None, LatencyClass.BRANCH, is_side_exit=True),
    Opcode.NOP: OpInfo("nop"),
}

# Mnemonic -> opcode, for the textual IR parser.
MNEMONIC_TO_OPCODE: dict[str, Opcode] = {info.mnemonic: op for op, info in OP_INFO.items()}

assert set(OP_INFO) == set(Opcode), "every opcode needs an OP_INFO entry"

for _op, _info in OP_INFO.items():
    _op.info = _info
del _op, _info
