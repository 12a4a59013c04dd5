"""Textual IR emission (inverse of :mod:`repro.ir.parser`).

Format example::

    program {
      global buf[256]
      global tab[3] = { 1, 2, 3 }
      func main {
        entry:
          movi vr0, #5
          add vr1, vr0, vr0 !dup !cl1
          brt vp0, @loop, @exit
      }
    }

Tags after ``!`` carry role/library/cluster metadata so a parse/print cycle
is lossless for everything the pipeline cares about.
"""

from __future__ import annotations

import re

from repro.ir.function import Function
from repro.ir.program import Program
from repro.isa.instruction import Instruction, Role


def format_instruction(insn: Instruction) -> str:
    ops: list[str] = [str(d) for d in insn.dests]
    ops += [str(s) for s in insn.srcs]
    if insn.imm is not None:
        ops.append(f"#{insn.imm}")
    ops += [f"@{t}" for t in insn.targets]
    text = insn.info.mnemonic
    if ops:
        text += " " + ", ".join(ops)
    tags: list[str] = []
    if insn.role is not Role.ORIG:
        tags.append(insn.role.value)
    if insn.from_library:
        tags.append("lib")
    if insn.cluster is not None:
        tags.append(f"cl{insn.cluster}")
    if insn.dup_of is not None:
        tags.append(f"of{insn.dup_of}")
    for tag in tags:
        text += f" !{tag}"
    return text


def print_function(function: Function, indent: str = "  ") -> str:
    lines = [f"func {function.name} {{"]
    for block in function.blocks():
        lines.append(f"{indent}{block.label}:")
        for insn in block:
            lines.append(f"{indent}{indent}{format_instruction(insn)}")
    lines.append("}")
    return "\n".join(lines)


def print_program(program: Program) -> str:
    lines = ["program {"]
    for g in program.globals.values():
        if g.init:
            init = ", ".join(str(v) for v in g.init)
            lines.append(f"  global {g.name}[{g.n_words}] = {{ {init} }}")
        else:
            lines.append(f"  global {g.name}[{g.n_words}]")
    for fn in program.functions():
        body = print_function(fn)
        lines += ["  " + line for line in body.splitlines()]
    lines.append("}")
    return "\n".join(lines)


#: ``!of<uid>`` tags print process-global instruction uids, which differ
#: between otherwise-identical compiles of the same source.  ``dup_of`` is
#: compiler-pass metadata the simulator and injector never read, so a
#: first-appearance renumbering keeps canonical text content-exact while
#: letting repeated compiles of the same program share one identity.
_DUP_OF_TAG = re.compile(r"!of(\d+)")


def canonical_program_text(program: Program) -> str:
    """Printed program text with ``!of<uid>`` tags renumbered canonically.

    The content-addressed identity everything that stores per-program
    state hashes: golden runs and campaign injectors are keyed in the
    artifact store (:mod:`repro.store`) by a digest of this text, so two
    compiles of the same source land on the same entry even though their
    raw instruction uids differ.
    """
    ids: dict[str, str] = {}
    return _DUP_OF_TAG.sub(
        lambda m: "!of" + ids.setdefault(m.group(1), str(len(ids))),
        print_program(program),
    )
