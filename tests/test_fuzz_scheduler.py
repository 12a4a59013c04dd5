"""Property tests: random straight-line blocks through assignment +
scheduling must always validate and preserve sequential semantics.

Unlike the minic fuzzer (whole programs), this targets the scheduler and
BUG directly with adversarial single-block shapes: deep dependence chains,
wide independent fans, heavy register reuse, memory ops, check-like side
exits — under random machine shapes.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ir.builder import IRBuilder
from repro.ir.interp import Interpreter
from repro.ir.program import GlobalArray, Program
from repro.isa.registers import Reg
from repro.machine.config import MachineConfig
from repro.passes.assignment.bug import bug_assign_block
from repro.passes.schedule_check import validate_block_schedule
from repro.passes.scheduler import schedule_block
from tests.test_compile_equivalence import (
    reference_bug_assign_block,
    reference_schedule_block,
)

_N_REGS = 6
_MEM_WORDS = 8


@st.composite
def random_block_program(draw):
    """A straight-line program over a small register pool + tiny memory."""
    b = IRBuilder("main")
    f = b.function
    b.add_and_enter("entry")
    regs = [f.new_gp() for _ in range(_N_REGS)]
    for i, r in enumerate(regs):
        b.movi_to(r, draw(st.integers(-9, 9)))

    n_ops = draw(st.integers(3, 25))
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["alu", "alu", "alu", "store", "load", "out"]))
        if kind == "alu":
            op = draw(st.sampled_from(["add", "sub", "mul", "xor", "and_", "min_"]))
            a = draw(st.sampled_from(regs))
            c = draw(st.sampled_from(regs))
            dest = draw(st.sampled_from(regs))  # heavy reuse on purpose
            b.mov_to(dest, getattr(b, op)(a, c))
        elif kind == "store":
            addr = b.add(b.and_(draw(st.sampled_from(regs)), _MEM_WORDS - 1), 1)
            b.store(addr, draw(st.sampled_from(regs)))
        elif kind == "load":
            addr = b.add(b.and_(draw(st.sampled_from(regs)), _MEM_WORDS - 1), 1)
            dest = draw(st.sampled_from(regs))
            b.mov_to(dest, b.load(addr))
        else:
            b.out(draw(st.sampled_from(regs)))
    b.out(regs[0])
    b.halt(0)
    return Program(f, [GlobalArray("mem", _MEM_WORDS)])


@st.composite
def machines(draw):
    return MachineConfig(
        n_clusters=draw(st.integers(1, 3)),
        issue_width=draw(st.integers(1, 4)),
        inter_cluster_delay=draw(st.integers(0, 5)),
    )


class TestRandomBlocks:
    @given(random_block_program(), machines())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_bug_plus_scheduler_always_legal(self, program, machine):
        block = program.main.entry
        pinned: dict[Reg, int] = {}
        bug_assign_block(block, machine, pinned)
        sched = schedule_block(block, machine, pinned)
        validate_block_schedule(block, sched, machine, pinned)
        # schedule length can never beat the issue-bandwidth bound
        n = len(block.instructions)
        assert sched.length >= n / (machine.n_clusters * machine.issue_width)

    @given(random_block_program(), machines(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_scheduler_and_bug_equal_reference(self, program, machine, rng):
        block = program.main.entry
        pinned: dict[Reg, int] = {}
        ref_pinned: dict[Reg, int] = {}
        ref = reference_bug_assign_block(block, machine, ref_pinned)
        ref_clusters = [insn.cluster for insn in block.instructions]
        assert bug_assign_block(block, machine, pinned) == ref
        assert pinned == ref_pinned
        assert [insn.cluster for insn in block.instructions] == ref_clusters
        assert schedule_block(block, machine, pinned) == reference_schedule_block(
            block, machine, pinned
        )
        # Random clusters and homes, as CASTED's candidates produce them.
        for insn in block.instructions:
            insn.cluster = rng.randrange(machine.n_clusters)
        homes = {r: rng.randrange(machine.n_clusters)
                 for r in sorted(ref_pinned, key=str) if rng.random() < 0.5}
        assert schedule_block(block, machine, homes) == reference_schedule_block(
            block, machine, homes
        )

    @given(random_block_program(), machines())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_full_pipeline_preserves_semantics(self, program, machine):
        from repro.pipeline import Scheme, compile_program
        from repro.sim.executor import VLIWExecutor

        golden = Interpreter(program).run()
        schemes = [Scheme.NOED, Scheme.SCED]
        if machine.n_clusters >= 2:
            schemes += [Scheme.DCED, Scheme.CASTED]
        for scheme in schemes:
            cp = compile_program(program, scheme, machine)
            sim = VLIWExecutor(cp).run()
            assert sim.kind is golden.kind, scheme
            assert sim.output == golden.output, scheme

    @given(random_block_program())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_wider_machines_never_slower_statically(self, program):
        lengths = []
        for iw in (1, 2, 4):
            machine = MachineConfig(issue_width=iw, inter_cluster_delay=1)
            prog = program.clone()
            block = prog.main.entry
            pinned: dict[Reg, int] = {}
            bug_assign_block(block, machine, pinned)
            lengths.append(schedule_block(block, machine, pinned).length)
        # BUG is greedy, so small non-monotonicity happens (a wider machine
        # can bait it into cluster-splitting a short block); allow slack.
        assert lengths[2] <= lengths[0] * 1.1 + 2
