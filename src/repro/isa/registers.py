"""Register model.

The compiler works on an unbounded supply of *virtual* registers; the
linear-scan allocator rewrites them to *physical* registers drawn from each
cluster's register file (the paper's Table I: 64 GP + 32 PR per cluster; the
64 FP registers are unused by our integer workloads and are not modelled).

A register is identified by ``(rclass, index, virtual)``.  Physical registers
additionally carry the cluster that owns them.  ``Reg`` is immutable and
hashable so it can key renaming tables (the paper's Fig. 4 data structures).

The compiler hashes registers tens of millions of times per figure grid, so
``Reg`` computes its hash once, at construction.  The value is exactly the
one the generated dataclass hash would return,
``hash((rclass, index, virtual, cluster))``: the iteration order of register
sets follows it, and compiled output must not depend on how fast a hash is
computed.  ``RegClass`` hashes by name, which ``PYTHONHASHSEED`` salts, so a
pickled register is rebuilt through its constructor and rehashed in the
receiving process; the cached int never crosses a process boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class RegClass(enum.Enum):
    """Architectural register classes."""

    GP = "r"  # 64-bit general purpose
    PR = "p"  # 1-bit predicate

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RegClass.{self.name}"


@dataclass(frozen=True, slots=True)
class Reg:
    """A virtual or physical register operand.

    Attributes
    ----------
    rclass:
        GP or PR.
    index:
        Virtual-register number, or physical index within the owning
        cluster's file.
    virtual:
        True before register allocation.
    cluster:
        Owning cluster for physical registers; ``-1`` for virtual ones.
    """

    rclass: RegClass
    index: int
    virtual: bool = True
    cluster: int = -1
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"negative register index {self.index}")
        if not self.virtual and self.cluster < 0:
            raise ValueError("physical register requires a cluster")
        if self.virtual and self.cluster >= 0:
            raise ValueError("virtual register must not carry a cluster")
        object.__setattr__(
            self, "_hash", hash((self.rclass, self.index, self.virtual, self.cluster))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[type[Reg], tuple[RegClass, int, bool, int]]:
        return (Reg, (self.rclass, self.index, self.virtual, self.cluster))

    @property
    def is_gp(self) -> bool:
        return self.rclass is RegClass.GP

    @property
    def is_pr(self) -> bool:
        return self.rclass is RegClass.PR

    def __str__(self) -> str:
        prefix = "v" if self.virtual else f"c{self.cluster}."
        return f"{prefix}{self.rclass.value}{self.index}"

    __repr__ = __str__


def GP(index: int, *, virtual: bool = True, cluster: int = -1) -> Reg:
    """Shorthand constructor for a general-purpose register."""
    return Reg(RegClass.GP, index, virtual, cluster)


def PR(index: int, *, virtual: bool = True, cluster: int = -1) -> Reg:
    """Shorthand constructor for a predicate register."""
    return Reg(RegClass.PR, index, virtual, cluster)
