"""Linear-scan register allocation with iterative spilling.

Each virtual register is allocated from the register file of its *home*
cluster (the cluster all of its definitions were assigned to — the
single-home invariant from :mod:`repro.passes.assignment.base`), so the four
pools are (cluster, class) pairs of 64 GP / 32 PR registers (paper Table I).

Spills use the dedicated frame opcodes ``STOREFP``/``LOADFP`` (frame slots
are compiler-private memory right after the data segment), tagged
``Role.SPILL`` — the paper's "compiler-generated" category: never replicated,
never checked.  Spill traffic goes through the cache hierarchy, which is how
the register pressure added by duplication turns into the performance
variation the paper reports (§IV-B1).

Error detection doubles GP pressure, so spilling is exercised heavily; the
allocator spills the interval that ends furthest in the future (Poletto &
Sarkar) and retries until everything fits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import RegAllocError
from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.liveness import compute_liveness
from repro.ir.program import Program
from repro.isa.instruction import Instruction, Role
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg, RegClass
from repro.passes.assignment.base import collect_def_clusters
from repro.passes.base import FunctionPass, PassContext


@dataclass
class RegAllocResult:
    """Artifacts of one allocation (stored in ``ctx.artifacts['regalloc']``)."""

    frame_words: int
    n_spilled: int
    n_spill_instructions: int
    rounds: int
    max_pressure: dict[tuple[int, str], int] = field(default_factory=dict)


@dataclass
class _Interval:
    reg: Reg
    home: int
    start: int
    end: int
    phys: int = -1


@dataclass
class _Pool:
    """One (cluster, class) register file during a scan."""

    free: deque[int]
    #: Its physical registers, each built on first use.
    regs: list[Reg | None]
    pressure_key: tuple[int, str]
    #: A lower bound on the ends of ``active``: while it is not below an
    #: interval's start, nothing can expire.
    soonest: int
    active: list[_Interval] = field(default_factory=list)

    def reg(self, iv: _Interval) -> Reg:
        reg = self.regs[iv.phys]
        if reg is None:
            reg = self.regs[iv.phys] = Reg(
                iv.reg.rclass, iv.phys, virtual=False, cluster=iv.home
            )
        return reg


class LinearScanAllocator(FunctionPass):
    name = "regalloc"

    def __init__(self, max_rounds: int = 25, reuse_policy: str = "fifo") -> None:
        if reuse_policy not in ("fifo", "lifo"):
            raise RegAllocError(f"unknown reuse policy {reuse_policy!r}")
        self.max_rounds = max_rounds
        #: "fifo" (round-robin, default) maximizes reuse distance and thereby
        #: minimizes false anti/output dependencies in the schedules;
        #: "lifo" (hot reuse) exists for the ablation benchmark.
        self.reuse_policy = reuse_policy

    # -- public ---------------------------------------------------------------
    def run(self, program: Program, ctx: PassContext) -> bool:
        if ctx.machine is None:
            raise RegAllocError("register allocation needs a machine config")
        machine = ctx.machine
        pool_size = {RegClass.GP: machine.gp_per_cluster, RegClass.PR: machine.pr_per_cluster}

        next_slot = 0
        n_spilled_total = 0
        n_spill_insns = 0
        result: RegAllocResult | None = None

        for round_no in range(1, self.max_rounds + 1):
            homes = collect_def_clusters(program)
            intervals = self._build_intervals(program.main, homes)
            ok, mapping, to_spill, pressure = self._scan(intervals, pool_size)
            if ok:
                self._apply(program.main, mapping)
                result = RegAllocResult(
                    frame_words=next_slot,
                    n_spilled=n_spilled_total,
                    n_spill_instructions=n_spill_insns,
                    rounds=round_no,
                    max_pressure=pressure,
                )
                break
            for reg in to_spill:
                if reg.rclass is RegClass.PR:
                    raise RegAllocError(
                        "predicate register pressure exceeds the file; PR "
                        "spilling is not supported (would need PR<->GP moves)"
                    )
                n_spill_insns += self._spill_everywhere(program.main, reg, next_slot)
                next_slot += 1
                n_spilled_total += 1
        else:
            raise RegAllocError(
                f"allocation did not converge in {self.max_rounds} rounds"
            )

        ctx.artifacts["regalloc"] = result
        ctx.record(
            self.name,
            frame_words=result.frame_words,
            spilled=result.n_spilled,
            spill_instructions=result.n_spill_instructions,
            rounds=result.rounds,
        )
        return True

    # -- intervals --------------------------------------------------------------
    def _build_intervals(
        self, function: Function, homes: dict[Reg, int]
    ) -> list[_Interval]:
        cfg = CFG(function)
        live = compute_liveness(function, cfg)

        # The walk touches each block's live-in registers at its first
        # position, its instructions' operands at theirs, then its live-out
        # registers at its last position, so positions never decrease: a
        # register's first touch starts its interval and its last ends it.
        pos = 0
        lo: dict[Reg, int] = {}
        hi: dict[Reg, int] = {}
        for block in function.blocks():
            for r in live.live_in[block.label]:
                lo.setdefault(r, pos)
                hi[r] = pos
            for insn in block.instructions:
                for r in insn.srcs:
                    lo.setdefault(r, pos)
                    hi[r] = pos
                for r in insn.dests:
                    lo.setdefault(r, pos)
                    hi[r] = pos
                pos += 1
            for r in live.live_out[block.label]:
                lo.setdefault(r, pos - 1)
                hi[r] = pos - 1

        intervals: list[_Interval] = []
        for r in lo:
            if not r.virtual:
                raise RegAllocError(f"register {r} is already physical")
            home = homes.get(r)
            if home is None:
                # Read but never written: the verifier rejects such programs,
                # so this only happens for dead registers — skip.
                continue
            intervals.append(_Interval(r, home, lo[r], hi[r]))
        intervals.sort(key=lambda iv: (iv.start, iv.end, str(iv.reg)))
        return intervals

    # -- the scan -----------------------------------------------------------------
    def _scan(
        self,
        intervals: list[_Interval],
        pool_size: dict[RegClass, int],
    ):
        # FIFO free pools: the least-recently-freed register is reused first
        # (round-robin).  This maximizes reuse distance, which minimizes the
        # false anti/output dependencies the post-allocation scheduler would
        # otherwise have to honour — LIFO reuse measurably serializes the
        # VLIW schedules.
        pools: dict[tuple[int, RegClass], _Pool] = {}
        pressure: dict[tuple[int, str], int] = {}
        mapping: dict[Reg, Reg] = {}
        to_spill: list[Reg] = []

        for iv in intervals:
            rclass = iv.reg.rclass
            pool = pools.get((iv.home, rclass))
            if pool is None:
                size = pool_size[rclass]
                pool = pools[iv.home, rclass] = _Pool(
                    deque(range(size)), [None] * size, (iv.home, rclass.name), iv.end
                )
            act = pool.active
            # Expire intervals that ended before this one starts.
            if pool.soonest < iv.start:
                still = []
                for other in act:
                    if other.end < iv.start:
                        pool.free.append(other.phys)
                    else:
                        still.append(other)
                act[:] = still
                pool.soonest = min((o.end for o in still), default=iv.end)
            if iv.end < pool.soonest:
                pool.soonest = iv.end

            if pool.free:
                iv.phys = (
                    pool.free.popleft()
                    if self.reuse_policy == "fifo"
                    else pool.free.pop()
                )
                act.append(iv)
                mapping[iv.reg] = pool.reg(iv)
                pkey = pool.pressure_key
                pressure[pkey] = max(pressure.get(pkey, 0), len(act))
            else:
                # Spill the interval that ends furthest in the future.
                victim = max(act + [iv], key=lambda o: o.end)
                if victim is iv:
                    to_spill.append(iv.reg)
                else:
                    act.remove(victim)
                    mapping.pop(victim.reg, None)
                    to_spill.append(victim.reg)
                    iv.phys = victim.phys
                    act.append(iv)
                    mapping[iv.reg] = pool.reg(iv)

        return (not to_spill, mapping, to_spill, pressure)

    # -- spill code -----------------------------------------------------------------
    def _spill_everywhere(self, function: Function, reg: Reg, slot: int) -> int:
        """Replace every def/use of ``reg`` with frame traffic; returns #insns."""
        added = 0
        for block in function.blocks():
            out: list[Instruction] = []
            for insn in block.instructions:
                reads = reg in insn.srcs
                writes = reg in insn.dests
                if not reads and not writes:
                    out.append(insn)
                    continue
                if reads:
                    tmp = function.new_reg_like(reg)
                    out.append(
                        Instruction(
                            Opcode.LOADFP,
                            dests=(tmp,),
                            imm=slot,
                            role=Role.SPILL,
                            cluster=insn.cluster,
                            comment=f"reload {reg}",
                        )
                    )
                    insn.replace_srcs({reg: tmp})
                    added += 1
                out.append(insn)
                if writes:
                    tmp2 = function.new_reg_like(reg)
                    insn.replace_dests({reg: tmp2})
                    out.append(
                        Instruction(
                            Opcode.STOREFP,
                            srcs=(tmp2,),
                            imm=slot,
                            role=Role.SPILL,
                            cluster=insn.cluster,
                            comment=f"spill {reg}",
                        )
                    )
                    added += 1
            block.instructions = out
        return added

    # -- rewrite -----------------------------------------------------------------
    def _apply(self, function: Function, mapping: dict[Reg, Reg]) -> None:
        for _, _, insn in function.all_instructions():
            insn.replace_srcs(mapping)
            insn.replace_dests(mapping)
