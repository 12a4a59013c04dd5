"""Dynamic instruction-mix profiling.

Characterizes a program by what it *executes* (not what it contains): the
operation-category frequencies the paper's workload discussion builds on —
memory density, branch density, multiply share — plus the role split of
protected binaries (how much of the dynamic stream is replica/check code).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimError
from repro.ir.interp import ExitKind, Interpreter, visit_counts
from repro.ir.program import Program
from repro.isa.opcodes import LatencyClass, Opcode
from repro.utils.tables import format_table

#: Category of each opcode for mix reporting.
_CATEGORY: dict[Opcode, str] = {}
for _op in Opcode:
    from repro.isa.opcodes import OP_INFO

    _info = OP_INFO[_op]
    if _info.is_load:
        _CATEGORY[_op] = "load"
    elif _info.is_store:
        _CATEGORY[_op] = "store"
    elif _info.is_out:
        _CATEGORY[_op] = "out"
    elif _op is Opcode.CHKBR:
        _CATEGORY[_op] = "check-branch"
    elif _info.is_branch or _info.is_terminator:
        _CATEGORY[_op] = "control"
    elif _info.latency is LatencyClass.MUL:
        _CATEGORY[_op] = "mul"
    elif _info.latency is LatencyClass.DIV:
        _CATEGORY[_op] = "div"
    else:
        _CATEGORY[_op] = "alu"


@dataclass(frozen=True)
class MixProfile:
    """Dynamic mix of one run."""

    name: str
    total: int
    by_category: dict = field(default_factory=dict)
    by_role: dict = field(default_factory=dict)

    def fraction(self, category: str) -> float:
        return self.by_category.get(category, 0) / self.total if self.total else 0.0

    def role_fraction(self, role: str) -> float:
        return self.by_role.get(role, 0) / self.total if self.total else 0.0

    @property
    def memory_density(self) -> float:
        return self.fraction("load") + self.fraction("store")

    @property
    def branch_density(self) -> float:
        return self.fraction("control") + self.fraction("check-branch")


def dynamic_mix(
    program: Program,
    name: str = "program",
    mem_words: int | None = None,
    frame_words: int = 0,
    max_steps: int = 50_000_000,
) -> MixProfile:
    """Run once and histogram the executed instructions."""
    interp = Interpreter(
        program, mem_words=mem_words, frame_words=frame_words, max_steps=max_steps
    )
    result, visits = interp.run_visits()
    if result.kind not in (ExitKind.OK, ExitKind.DETECTED):
        raise SimError(f"profiling run ended with {result.kind}")

    # Per-block static histograms, weighted by visit counts.
    by_category: dict[str, int] = {}
    by_role: dict[str, int] = {}
    block_cat: dict[str, dict[str, int]] = {}
    block_role: dict[str, dict[str, int]] = {}
    for block in program.main.blocks():
        cats: dict[str, int] = {}
        roles: dict[str, int] = {}
        for insn in block.instructions:
            c = _CATEGORY[insn.opcode]
            cats[c] = cats.get(c, 0) + 1
            roles[insn.role.value] = roles.get(insn.role.value, 0) + 1
        block_cat[block.label] = cats
        block_role[block.label] = roles

    total = 0
    for label, n in visit_counts(interp.labels, visits).items():
        for c, k in block_cat[label].items():
            by_category[c] = by_category.get(c, 0) + n * k
            total += n * k
        for r, k in block_role[label].items():
            by_role[r] = by_role.get(r, 0) + n * k

    return MixProfile(name=name, total=total, by_category=by_category, by_role=by_role)


_MIX_COLUMNS = ("alu", "mul", "div", "load", "store", "control", "check-branch", "out")


def render_mix_table(profiles: list[MixProfile], title: str = "Dynamic instruction mix") -> str:
    rows = []
    for p in profiles:
        rows.append(
            [p.name, p.total]
            + [f"{p.fraction(c) * 100:.1f}%" for c in _MIX_COLUMNS]
        )
    return format_table(["program", "dyn"] + list(_MIX_COLUMNS), rows, title=title)


def render_role_table(profiles: list[MixProfile], title: str = "Dynamic role split") -> str:
    roles = ("orig", "dup", "copy", "check", "spill")
    rows = [
        [p.name] + [f"{p.role_fraction(r) * 100:.1f}%" for r in roles]
        for p in profiles
    ]
    return format_table(["program"] + list(roles), rows, title=title)
