"""Functions: ordered collections of basic blocks plus a virtual-register pool."""

from __future__ import annotations

from typing import Iterator

from repro.errors import IRError
from repro.ir.basic_block import BasicBlock
from repro.isa.instruction import Instruction
from repro.isa.registers import GP, PR, Reg, RegClass


class Function:
    """A single function in layout order.

    Block order matters: it is the order used for linear-scan numbering and
    for deterministic iteration everywhere.  The first block is the entry.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._blocks: dict[str, BasicBlock] = {}
        self._next_vreg = {RegClass.GP: 0, RegClass.PR: 0}

    # -- blocks --------------------------------------------------------------
    def add_block(self, label: str) -> BasicBlock:
        if label in self._blocks:
            raise IRError(f"duplicate block label {label!r} in {self.name}")
        block = BasicBlock(label)
        self._blocks[label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        try:
            return self._blocks[label]
        except KeyError:
            raise IRError(f"no block {label!r} in {self.name}") from None

    def has_block(self, label: str) -> bool:
        return label in self._blocks

    @property
    def entry(self) -> BasicBlock:
        if not self._blocks:
            raise IRError(f"function {self.name} has no blocks")
        return next(iter(self._blocks.values()))

    def blocks(self) -> Iterator[BasicBlock]:
        return iter(self._blocks.values())

    def block_labels(self) -> list[str]:
        return list(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    # -- registers -------------------------------------------------------------
    def new_gp(self) -> Reg:
        """Allocate a fresh virtual general-purpose register."""
        idx = self._next_vreg[RegClass.GP]
        self._next_vreg[RegClass.GP] = idx + 1
        return GP(idx)

    def new_pr(self) -> Reg:
        """Allocate a fresh virtual predicate register."""
        idx = self._next_vreg[RegClass.PR]
        self._next_vreg[RegClass.PR] = idx + 1
        return PR(idx)

    def new_reg_like(self, reg: Reg) -> Reg:
        """Fresh virtual register of the same class as ``reg``."""
        return self.new_gp() if reg.rclass is RegClass.GP else self.new_pr()

    def vreg_counts(self) -> tuple[int, int]:
        """Virtual registers allocated so far: (general-purpose, predicate)."""
        return self._next_vreg[RegClass.GP], self._next_vreg[RegClass.PR]

    def reserve_vregs(self, rclass: RegClass, count: int) -> None:
        """Bump the allocation counter past externally created registers."""
        self._next_vreg[rclass] = max(self._next_vreg[rclass], count)

    # -- copying -----------------------------------------------------------------
    def clone(self) -> "Function":
        """Deep structural copy with fresh instruction uids.

        ``dup_of`` links between replicas and originals are remapped onto the
        new uids so error-detection artifacts survive cloning.
        """
        other = Function(self.name)
        other._next_vreg = dict(self._next_vreg)
        uid_map: dict[int, int] = {}
        clones = []
        for block in self._blocks.values():
            nb = other.add_block(block.label)
            for insn in block.instructions:
                c = insn.clone()
                uid_map[insn.uid] = c.uid
                clones.append(c)
                nb.instructions.append(c)
        for c in clones:
            if c.dup_of is not None:
                c.dup_of = uid_map.get(c.dup_of, c.dup_of)
        return other

    # -- traversal helpers -------------------------------------------------------
    def all_instructions(self) -> Iterator[tuple[BasicBlock, int, Instruction]]:
        """Yield ``(block, index, instruction)`` in layout order."""
        for block in self._blocks.values():
            for idx, insn in enumerate(block.instructions):
                yield block, idx, insn

    def instruction_count(self) -> int:
        return sum(len(b) for b in self._blocks.values())

    def __str__(self) -> str:
        parts = [f"func {self.name} {{"]
        parts += [str(b) for b in self._blocks.values()]
        parts.append("}")
        return "\n".join(parts)

    __repr__ = __str__
