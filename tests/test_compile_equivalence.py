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
  one shape reused across all of them (as CASTED reuses it);
* the event-driven ``schedule_block`` and the table-driven
  ``bug_assign_block`` equal the cycle-by-cycle list scheduler and the
  edge-by-edge BUG they replaced (kept below as ``reference_schedule_block``
  and ``reference_bug_assign_block``) on every block, at issue widths
  {1, 2, 4} x delays {1, 4}, under seeded random clusters and homes;
* a CASTED compile that schedules every candidate afresh equals one that
  memoizes candidate schedules.
"""

from __future__ import annotations

import random

import pytest

import heapq

from repro.analysis.dataflow import (
    EMPTY_FACT,
    DataflowAnalysis,
    LiveVars,
    MustDefined,
    solve,
    undefined_uses,
)
from repro.errors import IRError, ScheduleError
from repro.ir.cfg import CFG
from repro.ir.dfg import DFG, DepKind
from repro.ir.liveness import compute_liveness
from repro.ir.printer import canonical_program_text
from repro.ir.verifier import verify_function
from repro.machine.config import paper_machine
from repro.passes.assignment import casted
from repro.passes.assignment.bug import BugBlockResult, bug_assign_block
from repro.passes.latency import block_shape, edge_issue_latency, same_cluster_edge_latency
from repro.passes.scheduler import BlockSchedule, schedule_block
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


# -- the algorithms the table-driven kernels replaced --------------------------


def _reference_heights(dfg, insns, machine):
    return dfg.heights(lambda e: same_cluster_edge_latency(e, insns[e.src], machine))


def reference_schedule_block(block, machine, homes):
    """The cycle-by-cycle list scheduler: every cycle pops the whole ready
    heap and pushes back what cannot issue, pricing each edge as it goes."""
    dfg = DFG(block)
    insns = block.instructions
    heights = _reference_heights(dfg, insns, machine)
    n = dfg.n
    delay = machine.inter_cluster_delay
    base_ready = [0] * n
    defined_in_block = set()
    for i, insn in enumerate(insns):
        data_ops = {e.reg for e in dfg.preds[i] if e.kind is DepKind.DATA}
        for r in insn.reads():
            if r in data_ops or r in defined_in_block:
                continue
            home = homes.get(r)
            if home is not None and home != insn.cluster:
                base_ready[i] = max(base_ready[i], delay)
        defined_in_block.update(insn.writes())

    used = {}
    cycle_of = [-1] * n
    slot_of = [-1] * n
    unscheduled_preds = [len(dfg.preds[i]) for i in range(n)]
    ready_at = list(base_ready)
    ready = []
    for i in range(n):
        if unscheduled_preds[i] == 0:
            heapq.heappush(ready, (-heights[i], i))
    n_done = 0
    cycle = 0
    while n_done < n:
        deferred = []
        while ready:
            prio, i = heapq.heappop(ready)
            cluster = insns[i].cluster
            if ready_at[i] > cycle or used.get((cycle, cluster), 0) >= machine.issue_width:
                deferred.append((prio, i))
                continue
            slot = used.get((cycle, cluster), 0)
            used[cycle, cluster] = slot + 1
            cycle_of[i] = cycle
            slot_of[i] = slot
            n_done += 1
            for e in dfg.succs[i]:
                j = e.dst
                lat = edge_issue_latency(
                    e, insns[i], machine,
                    src_cluster=insns[i].cluster, dst_cluster=insns[j].cluster,
                )
                ready_at[j] = max(ready_at[j], cycle + lat)
                unscheduled_preds[j] -= 1
                if unscheduled_preds[j] == 0:
                    heapq.heappush(ready, (-heights[j], j))
        for item in deferred:
            heapq.heappush(ready, item)
        if n_done < n:
            cycle += 1
    return BlockSchedule(
        label=block.label,
        cycle_of=tuple(cycle_of),
        slot_of=tuple(slot_of),
        length=(max(cycle_of) + 1) if n else 1,
    )


def reference_bug_assign_block(block, machine, pinned, home_hints=None):
    """Algorithm 2 pricing every predecessor edge again for each candidate
    cluster, against a dictionary of reserved (cycle, cluster) slots."""
    hints = home_hints or {}
    dfg = DFG(block)
    insns = block.instructions
    heights = _reference_heights(dfg, insns, machine)
    delay = machine.inter_cluster_delay
    used = {}
    issue_of = [-1] * dfg.n
    cluster_load = [0] * machine.n_clusters
    n_unassigned_preds = [len(dfg.preds[i]) for i in range(dfg.n)]
    ready = []
    for i in range(dfg.n):
        if n_unassigned_preds[i] == 0:
            heapq.heappush(ready, (-heights[i], i))
    defined_in_block = set()
    while ready:
        _, i = heapq.heappop(ready)
        insn = insns[i]
        cands = tuple(range(machine.n_clusters))
        for d in insn.writes():
            if pinned.get(d) is not None:
                cands = (pinned[d],)
                break
        in_block_ops = {e.reg for e in dfg.preds[i] if e.kind is DepKind.DATA}
        best = None
        best_issue = 0
        for c in cands:
            ready_cycle = 0
            cross_reads = 0
            for e in dfg.preds[i]:
                src = insns[e.src]
                lat = edge_issue_latency(
                    e, src, machine, src_cluster=src.cluster, dst_cluster=c
                )
                ready_cycle = max(ready_cycle, issue_of[e.src] + lat)
                if e.kind is DepKind.DATA and src.cluster != c:
                    cross_reads += 1
            for r in insn.reads():
                if r in in_block_ops or r in defined_in_block:
                    continue
                home = pinned.get(r)
                if home is None:
                    home = hints.get(r)
                if home is not None and home != c:
                    ready_cycle = max(ready_cycle, delay)
                    cross_reads += 1
            issue = ready_cycle
            while used.get((issue, c), 0) >= machine.issue_width:
                issue += 1
            completion = issue + machine.latency_of(insn.opcode)
            key = (completion, cross_reads, cluster_load[c], c)
            if best is None or key < best:
                best = key
                best_issue = issue
        cluster = best[3]
        insn.cluster = cluster
        issue_of[i] = best_issue
        used[best_issue, cluster] = used.get((best_issue, cluster), 0) + 1
        cluster_load[cluster] += 1
        for d in insn.writes():
            pinned.setdefault(d, cluster)
            defined_in_block.add(d)
        for e in dfg.succs[i]:
            n_unassigned_preds[e.dst] -= 1
            if n_unassigned_preds[e.dst] == 0:
                heapq.heappush(ready, (-heights[e.dst], e.dst))
    length = max(issue_of) + 1 if issue_of else 0
    return BugBlockResult(issue_estimate=issue_of, estimated_length=length)


def _random_placements(function, machine, rng, rounds):
    """Yield ``rounds`` seeded random (clusters, homes) per block, applied."""
    regs = sorted(
        {r for _, _, insn in function.all_instructions() for r in insn.reads()},
        key=str,
    )
    for block in function.blocks():
        for _ in range(rounds):
            for insn in block.instructions:
                insn.cluster = rng.randrange(machine.n_clusters)
            homes = {r: rng.randrange(machine.n_clusters)
                     for r in regs if rng.random() < 0.5}
            yield block, homes


@pytest.mark.parametrize("iw", [1, 2, 4])
@pytest.mark.parametrize("delay", [1, 4])
def test_event_driven_scheduler_equals_cycle_by_cycle(program, iw, delay):
    machine = paper_machine(iw, delay)
    rng = random.Random(100 * iw + delay)
    function = program.main
    # The assignment the program carries (all on cluster 0 for the
    # front-end IR), then seeded random ones.
    homes = {}
    for _, _, insn in function.all_instructions():
        if insn.cluster is None:
            insn.cluster = 0
        for d in insn.writes():
            homes.setdefault(d, insn.cluster)
    for block in function.blocks():
        assert schedule_block(block, machine, homes) == reference_schedule_block(
            block, machine, homes
        )
    for block, homes in _random_placements(function, machine, rng, 2):
        assert schedule_block(block, machine, homes) == reference_schedule_block(
            block, machine, homes
        )


@pytest.mark.parametrize("iw,delay", [(1, 1), (2, 4), (4, 1)])
def test_table_driven_bug_equals_edge_by_edge(program, iw, delay):
    machine = paper_machine(iw, delay)
    rng = random.Random(10 * iw + delay)
    for block, homes in _random_placements(program.main, machine, rng, 1):
        pins = {r: c for r, c in homes.items() if rng.random() < 0.5}
        ref_pins = dict(pins)
        ref = reference_bug_assign_block(block, machine, ref_pins, home_hints=homes)
        ref_clusters = [i.cluster for i in block.instructions]
        got = bug_assign_block(block, machine, pins, home_hints=homes)
        assert got == ref and pins == ref_pins
        assert [i.cluster for i in block.instructions] == ref_clusters


def test_scheduler_rejects_unassigned_and_out_of_range_clusters(casted_compiles):
    machine = paper_machine(2, 2)
    block = casted_compiles["mcf"].program.clone().main.entry
    block.instructions[0].cluster = machine.n_clusters
    with pytest.raises(ScheduleError, match="out of range"):
        schedule_block(block, machine, {})
    block.instructions[0].cluster = None
    with pytest.raises(ScheduleError, match="unassigned"):
        schedule_block(block, machine, {})


class _Unmemoized(casted._ScheduleMemo):
    """Schedules every candidate afresh."""

    def length(self, label, shape, clusters, home_of):
        self.lengths.clear()
        return super().length(label, shape, clusters, home_of)


@pytest.mark.parametrize("workload", workload_names())
def test_casted_schedule_memo_changes_nothing(workload, monkeypatch):
    source = get_workload(workload).program
    machine = paper_machine(2, 2)

    def signature(cp):
        return (
            canonical_program_text(cp.program),
            [(lb, s.cycle_of, s.slot_of, s.length)
             for lb, s in cp.schedules.blocks.items()],
            cp.stats,
            cp.pass_stats,
        )

    memoized = signature(compile_program(source, Scheme.CASTED, machine))
    monkeypatch.setattr(casted, "_ScheduleMemo", _Unmemoized)
    assert signature(compile_program(source, Scheme.CASTED, machine)) == memoized
