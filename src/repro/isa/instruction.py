"""The mutable instruction record all compiler passes operate on.

Each instruction carries, besides opcode/operands, the provenance *role* the
CASTED pipeline needs: original program code, replicated code, checking code,
shadow-copy code (Algorithm 1's ``COPY_INSN``) or spill code.  The cluster
assignment written by SCED/DCED/CASTED lives here too.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.errors import IRError
from repro.isa.opcodes import Opcode, OpInfo
from repro.isa.registers import Reg

_uid_counter = itertools.count(1)


class Role(enum.Enum):
    """Provenance of an instruction within the error-detection pipeline."""

    ORIG = "orig"  # straight from the front end
    DUP = "dup"  # replica emitted by the duplication step
    SHADOW_COPY = "copy"  # shadow copy for a value with no replicated producer
    CHECK = "check"  # compare/jump pair guarding a non-replicated instruction
    SPILL = "spill"  # register-allocator spill/reload code

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Role.{self.name}"


# Roles that belong to the *redundant* stream (DCED sends these to cluster 1).
REDUNDANT_ROLES = frozenset({Role.DUP, Role.SHADOW_COPY, Role.CHECK})


@dataclass(eq=False)
class Instruction:
    """One machine instruction.

    Identity (``uid``) is process-unique, survives cloning *only* when
    explicitly requested, and keys the duplication/renaming tables of the
    error-detection pass (paper Fig. 4).
    """

    opcode: Opcode
    dests: tuple[Reg, ...] = ()
    srcs: tuple[Reg, ...] = ()
    imm: int | None = None
    targets: tuple[str, ...] = ()
    role: Role = Role.ORIG
    dup_of: int | None = None  # uid of the original this replicates
    from_library: bool = False  # binary-only library code: never protected
    cluster: int | None = None  # set by the assignment pass
    comment: str = ""
    uid: int = field(default_factory=lambda: next(_uid_counter))

    def __post_init__(self) -> None:
        self.validate()

    # -- structure ---------------------------------------------------------
    @property
    def info(self) -> OpInfo:
        return self.opcode.info

    def validate(self) -> None:
        """Check operand shape against the opcode's ``OpInfo``."""
        info = self.info
        n_reg_in = len(info.in_classes)
        if self.imm is not None and not (info.allow_imm or info.needs_imm):
            raise IRError(f"{self.opcode.name} takes no immediate")
        if info.needs_imm and self.imm is None:
            raise IRError(f"{self.opcode.name} requires an immediate")
        expected_srcs = n_reg_in
        if info.allow_imm and self.imm is not None:
            expected_srcs -= 1  # immediate replaces the last register input
        if len(self.srcs) != expected_srcs:
            raise IRError(
                f"{self.opcode.name} expects {expected_srcs} register sources, "
                f"got {len(self.srcs)}"
            )
        for reg, rc in zip(self.srcs, info.in_classes):
            if reg.rclass is not rc:
                raise IRError(
                    f"{self.opcode.name} source {reg} has class {reg.rclass.name}, "
                    f"expected {rc.name}"
                )
        if info.out_class is None:
            if self.dests:
                raise IRError(f"{self.opcode.name} writes no register")
        else:
            if len(self.dests) != 1:
                raise IRError(f"{self.opcode.name} must write exactly one register")
            if self.dests[0].rclass is not info.out_class:
                raise IRError(
                    f"{self.opcode.name} dest {self.dests[0]} has wrong class"
                )
        n_targets = info.n_targets + (1 if info.is_side_exit else 0)
        if len(self.targets) != n_targets:
            raise IRError(
                f"{self.opcode.name} expects {n_targets} targets, got {len(self.targets)}"
            )

    # -- convenience -------------------------------------------------------
    @property
    def dest(self) -> Reg:
        if not self.dests:
            raise IRError(f"{self.opcode.name} has no destination")
        return self.dests[0]

    def reads(self) -> tuple[Reg, ...]:
        return self.srcs

    def writes(self) -> tuple[Reg, ...]:
        return self.dests

    @property
    def is_check(self) -> bool:
        return self.role is Role.CHECK

    @property
    def is_redundant(self) -> bool:
        return self.role in REDUNDANT_ROLES

    @property
    def protectable(self) -> bool:
        """May the error-detection pass replicate this instruction?

        Only pristine original instructions outside binary libraries whose
        opcode is replicable qualify (paper §III-B categories 1-3).
        """
        return self.role is Role.ORIG and not self.from_library and self.info.replicable

    def clone(self) -> "Instruction":
        """Fresh-uid structural copy (used by the duplication step)."""
        return Instruction(
            opcode=self.opcode,
            dests=self.dests,
            srcs=self.srcs,
            imm=self.imm,
            targets=self.targets,
            role=self.role,
            dup_of=self.dup_of,
            from_library=self.from_library,
            cluster=self.cluster,
            comment=self.comment,
        )

    def replace_srcs(self, mapping: dict[Reg, Reg]) -> None:
        """Rewrite source registers in place through ``mapping``."""
        self.srcs = tuple(mapping.get(r, r) for r in self.srcs)

    def replace_dests(self, mapping: dict[Reg, Reg]) -> None:
        """Rewrite destination registers in place through ``mapping``."""
        self.dests = tuple(mapping.get(r, r) for r in self.dests)

    def __str__(self) -> str:
        parts = [self.info.mnemonic]
        ops: list[str] = [str(d) for d in self.dests]
        ops += [str(s) for s in self.srcs]
        if self.imm is not None:
            ops.append(f"#{self.imm}")
        ops += [f"@{t}" for t in self.targets]
        if ops:
            parts.append(", ".join(ops))
        tags = []
        if self.role is not Role.ORIG:
            tags.append(self.role.value)
        if self.from_library:
            tags.append("lib")
        if self.cluster is not None:
            tags.append(f"cl{self.cluster}")
        if tags:
            parts.append(f"; [{' '.join(tags)}]")
        return " ".join(parts)

    __repr__ = __str__
