"""Step (i) of the error-detection algorithm: instruction replication.

Paper Algorithm 1, ``replicate_insns``: every instruction that is not
control flow, not a store (nor any other operation leaving the sphere of
replication, i.e. ``OUT``), not compiler-generated and not binary-only
library code gets an exact duplicate emitted *just before* it.  Each
original/duplicate pair is recorded in the replicated-instructions table
(paper Fig. 4.a) for the renaming and checking steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.program import Program
from repro.isa.instruction import Instruction, Role


@dataclass
class DuplicationTable:
    """The paper's Fig. 4.a: original instruction -> its replica."""

    dup_of_orig: dict[int, Instruction] = field(default_factory=dict)  # by uid
    orig_of_dup: dict[int, Instruction] = field(default_factory=dict)  # by uid

    def record(self, orig: Instruction, dup: Instruction) -> None:
        self.dup_of_orig[orig.uid] = dup
        self.orig_of_dup[dup.uid] = orig

    def has_duplicate(self, orig: Instruction) -> bool:
        return orig.uid in self.dup_of_orig

    def __len__(self) -> int:
        return len(self.dup_of_orig)


def replicate_instructions(program: Program) -> DuplicationTable:
    """Insert replicas in place; return the replicated-instructions table."""
    table = DuplicationTable()
    for block in program.main.blocks():
        out: list[Instruction] = []
        for insn in block.instructions:
            if insn.protectable:
                dup = insn.clone()
                dup.role = Role.DUP
                dup.dup_of = insn.uid
                out.append(dup)
                table.record(insn, dup)
            out.append(insn)
        block.instructions = out
    return table
