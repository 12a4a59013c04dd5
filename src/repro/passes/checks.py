"""Step (iii) of the error-detection algorithm: check emission.

Paper Algorithm 1, ``emit_check_insns``: before every non-replicated
instruction (stores, observable output, conditional branches), each register
it reads is compared against its shadow; on a mismatch a branch diverts to
the fault handler.  A check is a real compare + jump *pair* (paper §IV-B),
so it costs two issue slots and serializes through the predicate — that is
the source of the h263enc scaling anomaly the paper discusses.

Registers with no shadow (values produced entirely by unprotected library
code) are not checked; faults in them are the residual silent-data-
corruption channel the paper attributes to system libraries.
"""

from __future__ import annotations

from repro.ir.basic_block import DETECT_LABEL
from repro.ir.program import Program
from repro.isa.instruction import Instruction, Role
from repro.isa.opcodes import Opcode
from repro.isa.registers import RegClass
from repro.passes.renaming import ShadowMap

#: Every opcode whose operands leave the sphere of replication: stores,
#: observable output and conditional branches (the paper's and SWIFT's
#: policy).  The linter's consumer rules read this same set.
CHECKED_OPCODES = frozenset((Opcode.STORE, Opcode.OUT, Opcode.BRT, Opcode.BRF))


def emit_checks(program: Program, shadows: ShadowMap) -> int:
    """Insert compare+branch pairs; returns the number of checks (pairs)."""
    function = program.main
    n_checks = 0
    for block in function.blocks():
        out: list[Instruction] = []
        for insn in block.instructions:
            if (
                insn.role is Role.ORIG
                and not insn.from_library
                and insn.opcode in CHECKED_OPCODES
            ):
                # Dedupe the read set (order-preserving): an instruction that
                # reads the same register twice (e.g. ``STORE r1, r1``) needs
                # one check for that register, not two identical pairs.
                for reg in dict.fromkeys(insn.reads()):
                    shadow = shadows.get(reg)
                    if shadow is None:
                        continue
                    if reg.rclass is RegClass.GP:
                        pred = function.new_pr()
                        cmp_insn = Instruction(
                            Opcode.CMPNE,
                            dests=(pred,),
                            srcs=(reg, shadow),
                            role=Role.CHECK,
                            comment=f"check {reg}",
                        )
                    else:
                        pred = function.new_pr()
                        cmp_insn = Instruction(
                            Opcode.PNE,
                            dests=(pred,),
                            srcs=(reg, shadow),
                            role=Role.CHECK,
                            comment=f"check {reg}",
                        )
                    br_insn = Instruction(
                        Opcode.CHKBR,
                        srcs=(pred,),
                        targets=(DETECT_LABEL,),
                        role=Role.CHECK,
                    )
                    out.append(cmp_insn)
                    out.append(br_insn)
                    n_checks += 1
            out.append(insn)
        block.instructions = out
    return n_checks
