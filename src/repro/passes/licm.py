"""Loop-invariant code motion (part of the ``-O1`` pipeline).

Hoists pure, non-trapping, loop-invariant computations into the loop's
preheader.  Deliberately conservative on the non-SSA IR — an instruction is
hoisted only when

1. its opcode is pure and cannot trap (no loads: a zero-trip loop must not
   introduce a memory fault; no DIV/REM: ditto for arithmetic traps);
2. every source is invariant: defined only outside the loop, or by an
   already-hoisted instruction;
3. it is the *only* definition of its destination inside the loop;
4. every use of the destination is inside the loop (so executing the
   definition on a zero-trip path changes nothing observable);
5. the destination is not live into the loop header (no loop-carried use
   precedes the definition).

Hoisting iterates, so chains of invariant instructions move together.
Loops whose header has more than one out-of-loop predecessor (no unique
preheader) are skipped; the minic code generator always produces one.
"""

from __future__ import annotations

from repro.ir.cfg import CFG
from repro.ir.liveness import compute_liveness
from repro.ir.program import Program
from repro.isa.instruction import Instruction, Role
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.passes.base import FunctionPass, PassContext

_HOISTABLE = frozenset(
    {
        Opcode.MOVI, Opcode.MOV, Opcode.PMOV, Opcode.ADD, Opcode.SUB,
        Opcode.MUL, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL,
        Opcode.SHRL, Opcode.SHRA, Opcode.MIN, Opcode.MAX, Opcode.NEG,
        Opcode.ABS, Opcode.NOT, Opcode.SELECT,
        Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT, Opcode.CMPLE,
        Opcode.CMPGT, Opcode.CMPGE, Opcode.PNE,
    }
)


class LoopInvariantCodeMotion(FunctionPass):
    name = "licm"

    def run(self, program: Program, ctx: PassContext) -> bool:
        function = program.main
        cfg = CFG(function)
        loops = cfg.natural_loops()
        if not loops:
            ctx.record(self.name, hoisted=0)
            return False

        live = compute_liveness(function, cfg)

        # Uses/defs of every register across the whole function, by block.
        defs_in_block: dict[str, dict[Reg, int]] = {}
        uses_in_block: dict[str, dict[Reg, int]] = {}
        for block in function.blocks():
            d: dict[Reg, int] = {}
            u: dict[Reg, int] = {}
            for insn in block.instructions:
                for r in insn.writes():
                    d[r] = d.get(r, 0) + 1
                for r in insn.reads():
                    u[r] = u.get(r, 0) + 1
            defs_in_block[block.label] = d
            uses_in_block[block.label] = u

        hoisted_total = 0
        # Inner loops first (smaller bodies), so invariants escape outward
        # across several LICM iterations of the surrounding pipeline.
        for header, body in sorted(loops, key=lambda hv: len(hv[1])):
            hoisted_total += self._process_loop(
                function, cfg, live, defs_in_block, uses_in_block, header, body
            )

        ctx.record(self.name, hoisted=hoisted_total)
        return hoisted_total > 0

    def _process_loop(
        self, function, cfg, live, defs_in_block, uses_in_block, header, body
    ) -> int:
        outside_preds = [p for p in cfg.preds[header] if p not in body]
        if len(outside_preds) != 1:
            return 0
        preheader = function.block(outside_preds[0])

        # This loop's def counts inside its body and use counts outside it,
        # kept exact below as instructions move to the preheader.
        defs_in_loop: dict[Reg, int] = {}
        uses_outside_loop: dict[Reg, int] = {}
        for lb, counts in defs_in_block.items():
            if lb in body:
                for r, n in counts.items():
                    defs_in_loop[r] = defs_in_loop.get(r, 0) + n
        for lb, counts in uses_in_block.items():
            if lb not in body:
                for r, n in counts.items():
                    uses_outside_loop[r] = uses_outside_loop.get(r, 0) + n

        live_into_header = live.live_in[header]
        hoisted_regs: set[Reg] = set()
        hoisted = 0
        changed = True
        while changed:
            changed = False
            for label in body:
                block = function.block(label)
                keep: list[Instruction] = []
                for insn in block.instructions:
                    if self._can_hoist(
                        insn,
                        defs_in_loop,
                        uses_outside_loop,
                        hoisted_regs,
                        live_into_header,
                    ):
                        # insert before the preheader's terminator
                        preheader.instructions.insert(
                            len(preheader.instructions) - 1, insn
                        )
                        hoisted_regs.add(insn.dest)
                        # keep the global maps exact for enclosing loops,
                        # and this loop's counters exact for its next query
                        defs_in_block[label][insn.dest] -= 1
                        defs_in_loop[insn.dest] -= 1
                        ph = defs_in_block[preheader.label]
                        ph[insn.dest] = ph.get(insn.dest, 0) + 1
                        phu = uses_in_block[preheader.label]
                        for r in insn.reads():
                            uses_in_block[label][r] -= 1
                            phu[r] = phu.get(r, 0) + 1
                            uses_outside_loop[r] = uses_outside_loop.get(r, 0) + 1
                        hoisted += 1
                        changed = True
                    else:
                        keep.append(insn)
                block.instructions = keep
        return hoisted

    def _can_hoist(
        self, insn, defs_in_loop, uses_outside_loop, hoisted_regs, live_into_header
    ) -> bool:
        if insn.role is not Role.ORIG or insn.opcode not in _HOISTABLE:
            return False
        if not insn.dests:
            return False
        dest = insn.dest
        if dest in live_into_header:
            return False  # loop-carried
        if defs_in_loop.get(dest, 0) != 1:
            return False
        if uses_outside_loop.get(dest, 0) != 0:
            return False
        for r in insn.reads():
            if r in hoisted_regs:
                continue
            if defs_in_loop.get(r, 0) != 0:
                return False
        return True
