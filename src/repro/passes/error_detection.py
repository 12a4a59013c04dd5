"""The complete error-detection pass (paper Algorithm 1, ``relaxed_main``).

Orchestrates the three steps — replication, isolation-by-renaming, check
emission — and reports the static metrics the paper quotes (code growth of
2x+ before scheduling, §II-A; binary growth 2.4x, §IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PassError
from repro.ir.program import Program
from repro.isa.instruction import Role
from repro.passes.base import FunctionPass, PassContext
from repro.passes.checks import emit_checks
from repro.passes.duplication import DuplicationTable, replicate_instructions
from repro.passes.renaming import ShadowMap, rename_replicas


@dataclass
class ErrorDetectionInfo:
    """Artifacts and static statistics of one error-detection run."""

    table: DuplicationTable
    shadows: ShadowMap
    n_original: int
    n_duplicates: int
    n_shadow_copies: int
    n_checks: int  # compare+branch pairs

    @property
    def code_growth(self) -> float:
        """Static instruction-count ratio versus the unprotected code."""
        after = (
            self.n_original
            + self.n_duplicates
            + self.n_shadow_copies
            + 2 * self.n_checks
        )
        return after / self.n_original if self.n_original else 1.0


class ErrorDetectionPass(FunctionPass):
    """SWIFT-style duplication + renaming + checking (Algorithm 1)."""

    name = "error-detection"

    def run(self, program: Program, ctx: PassContext) -> bool:
        for _, _, insn in program.main.all_instructions():
            if insn.role is not Role.ORIG:
                raise PassError(
                    "error detection already applied (found "
                    f"{insn.role.value} code); the pass is not re-entrant"
                )
        n_original = program.main.instruction_count()
        table = replicate_instructions(program)
        shadows, n_copies = rename_replicas(program, table)
        n_checks = emit_checks(program, shadows)
        info = ErrorDetectionInfo(
            table=table,
            shadows=shadows,
            n_original=n_original,
            n_duplicates=len(table),
            n_shadow_copies=n_copies,
            n_checks=n_checks,
        )
        ctx.artifacts["error_detection"] = info
        ctx.record(
            self.name,
            originals=info.n_original,
            duplicates=info.n_duplicates,
            shadow_copies=info.n_shadow_copies,
            checks=info.n_checks,
            code_growth=round(info.code_growth, 3),
        )
        return info.n_duplicates > 0 or info.n_checks > 0


def redundant_fraction(program: Program) -> float:
    """Fraction of static instructions belonging to the redundant stream."""
    total = 0
    redundant = 0
    for _, _, insn in program.main.all_instructions():
        total += 1
        if insn.role in (Role.DUP, Role.SHADOW_COPY, Role.CHECK):
            redundant += 1
    return redundant / total if total else 0.0
