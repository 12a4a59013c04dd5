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
from repro.passes.checks import FULL_POLICY, CheckPolicy, emit_checks
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
    """SWIFT-style duplication + renaming + checking (Algorithm 1).

    Parameters
    ----------
    check_policy:
        Which non-replicated instruction classes get operand checks
        (default: stores, outputs and branches — the paper's policy).
    protect_slice_depth:
        ``None`` (default) replicates every protectable instruction, as
        CASTED does.  An integer ``k`` replicates only the backward
        dataflow slice of the checked operands up to depth ``k`` — the
        partial-redundancy idea of Shoestring / compiler-assisted ED
        (paper Table III), trading coverage for speed.
    """

    name = "error-detection"

    def __init__(
        self,
        check_policy: CheckPolicy = FULL_POLICY,
        protect_slice_depth: int | None = None,
    ) -> None:
        if protect_slice_depth is not None and protect_slice_depth < 0:
            raise PassError("protect_slice_depth must be >= 0")
        self.check_policy = check_policy
        self.protect_slice_depth = protect_slice_depth

    def _criticality_filter(self, program: Program):
        """uids of instructions within the backward slice of checked operands."""
        depth = self.protect_slice_depth
        if depth is None:
            return None
        checked_opcodes = self.check_policy.checked_opcodes()
        def_map: dict = {}
        for _, _, insn in program.main.all_instructions():
            for d in insn.writes():
                def_map.setdefault(d, []).append(insn)

        marked: set[int] = set()
        frontier = set()
        for _, _, insn in program.main.all_instructions():
            if (
                insn.role is Role.ORIG
                and not insn.from_library
                and insn.opcode in checked_opcodes
            ):
                frontier.update(insn.reads())
        for _ in range(depth):
            next_frontier = set()
            for reg in frontier:
                for writer in def_map.get(reg, ()):
                    if writer.uid not in marked:
                        marked.add(writer.uid)
                        next_frontier.update(writer.reads())
            frontier = next_frontier
        return lambda insn: insn.uid in marked

    def run(self, program: Program, ctx: PassContext) -> bool:
        for _, _, insn in program.main.all_instructions():
            if insn.role is not Role.ORIG:
                raise PassError(
                    "error detection already applied (found "
                    f"{insn.role.value} code); the pass is not re-entrant"
                )
        n_original = program.main.instruction_count()
        should_protect = self._criticality_filter(program)
        table = replicate_instructions(program, should_protect=should_protect)
        shadows, n_copies = rename_replicas(program, table)
        n_checks = emit_checks(program, shadows, policy=self.check_policy)
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
