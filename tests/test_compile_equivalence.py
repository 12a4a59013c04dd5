"""The compile path's shortcuts equal the straightforward computations.

Each shortcut is checked on every kernel at three stages: the front-end
IR, the CASTED program after error detection and assignment (before
register allocation), and the register-allocated program.

* ``MustDefined.transfer_block`` (one union with the block's definitions)
  equals the fold of ``transfer_insn`` over the block;
* ``compute_liveness`` (block use/def summaries) equals solving
  ``LiveVars`` with its per-instruction transfer;
* ``undefined_uses`` (one mutable set per block) reports exactly what a
  per-instruction ``instruction_facts`` replay reports, and the verifier
  names that first offender, also on IR with definitions deleted;
* ``schedule_block`` and ``bug_assign_block`` given a prebuilt
  :class:`~repro.passes.latency.BlockShape` equal the same calls that
  build their own, under seeded random cluster assignments and homes, with
  one shape reused across all of them (as CASTED reuses it).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.dataflow import (
    EMPTY_FACT,
    DataflowAnalysis,
    LiveVars,
    MustDefined,
    solve,
    undefined_uses,
)
from repro.errors import IRError
from repro.ir.cfg import CFG
from repro.ir.liveness import compute_liveness
from repro.ir.verifier import verify_function
from repro.machine.config import paper_machine
from repro.passes.assignment.bug import bug_assign_block
from repro.passes.latency import block_shape
from repro.passes.scheduler import schedule_block
from repro.pipeline import Scheme, compile_program
from repro.workloads import get_workload, workload_names

STAGES = ("frontend", "post-ed-casted", "post-regalloc")


@pytest.fixture(scope="module")
def casted_compiles():
    machine = paper_machine(2, 2)
    return {
        wl: compile_program(
            get_workload(wl).program, Scheme.CASTED, machine,
            capture_pre_regalloc=True,
        )
        for wl in workload_names()
    }


@pytest.fixture(params=[(wl, st) for wl in workload_names() for st in STAGES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def program(request, casted_compiles):
    """A private clone of one kernel at one stage (tests may mutate it)."""
    wl, stage = request.param
    if stage == "frontend":
        return get_workload(wl).program.clone()
    cp = casted_compiles[wl]
    return (cp.pre_regalloc if stage == "post-ed-casted" else cp.program).clone()


def _reference_undefined_uses(function):
    """Reference: replay ``transfer_insn`` through ``instruction_facts``."""
    facts = solve(function, MustDefined(function))
    bad = []
    reachable = CFG(function).reachable()
    for block in function.blocks():
        if block.label not in reachable:
            continue
        for idx, insn, fact in facts.instruction_facts(block.label):
            for r in insn.reads():
                if r not in fact:
                    bad.append((block.label, idx, insn, r))
    return bad


def test_must_defined_block_transfer_equals_insn_fold(program):
    for function in program.functions():
        analysis = MustDefined(function)
        solved = solve(function, analysis)
        for block in function.blocks():
            for fact in (EMPTY_FACT, analysis.initial(function), solved.entry[block.label]):
                fold = DataflowAnalysis.transfer_block(analysis, block, fact)
                assert analysis.transfer_block(block, fact) == fold


def test_compute_liveness_equals_per_insn_solve(program):
    for function in program.functions():
        live = compute_liveness(function)
        ref = solve(function, LiveVars())
        labels = function.block_labels()
        assert live.live_in == {lb: ref.entry[lb] for lb in labels}
        assert live.live_out == {lb: ref.exit[lb] for lb in labels}


def test_undefined_uses_equals_per_insn_replay(program):
    function = program.main
    assert undefined_uses(function) == _reference_undefined_uses(function) == []
    rng = random.Random(15)
    defining = [
        (block, insn)
        for block in function.blocks()
        for insn in block.instructions[:-1]
        if insn.writes()
    ]
    rejected = 0
    for block, insn in rng.sample(defining, min(6, len(defining))):
        block.instructions.remove(insn)
        ref = _reference_undefined_uses(function)
        assert undefined_uses(function) == ref
        if ref:
            rejected += 1
            label, _, bad_insn, reg = ref[0]
            with pytest.raises(IRError) as err:
                verify_function(function)
            assert str(err.value) == (
                f"register {reg} may be used before definition in {label}: {bad_insn}"
            )
    assert rejected


@pytest.mark.parametrize("iw,delay", [(2, 2), (1, 3)])
def test_shape_reuse_equals_fresh_build(program, iw, delay):
    machine = paper_machine(iw, delay)
    rng = random.Random(iw * 10 + delay)
    function = program.main
    regs = sorted(
        {r for _, _, insn in function.all_instructions() for r in insn.reads()},
        key=str,
    )
    for block in function.blocks():
        shape = block_shape(block, machine)
        for _ in range(2):
            for insn in block.instructions:
                insn.cluster = rng.randrange(machine.n_clusters)
            homes = {r: rng.randrange(machine.n_clusters)
                     for r in regs if rng.random() < 0.5}
            assert schedule_block(block, machine, homes, shape) == schedule_block(
                block, machine, homes
            )
            pins = {r: c for r, c in homes.items() if rng.random() < 0.5}
            pinned = dict(pins)
            fresh = bug_assign_block(block, machine, pinned, home_hints=homes)
            fresh_clusters = [i.cluster for i in block.instructions]
            pinned_again = dict(pins)
            reused = bug_assign_block(
                block, machine, pinned_again, home_hints=homes, shape=shape
            )
            assert reused == fresh and pinned_again == pinned
            assert [i.cluster for i in block.instructions] == fresh_clusters
