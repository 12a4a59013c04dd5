"""The golden-run record: its visit array, sampling sums and size estimate.

A :class:`~repro.faults.injector.GoldenRun` keeps the golden block visits
as one compact array of block indices and derives the sampling sums from
it.  These tests hold the fault samplers built on that record to a
reference that walks the visit *labels* as plain Python lists with
``bisect``, and check the size estimate the artifact store bounds memory
by against ``tracemalloc``.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import tracemalloc
from array import array
from bisect import bisect_right

import numpy as np
import pytest

from repro import store
from repro.faults import injector as injector_mod
from repro.faults.injector import FaultInjector
from repro.ir.interp import ALT_OPS, FaultSpec, Interpreter, Snapshot
from repro.isa.opcodes import Opcode
from repro.isa.registers import RegClass
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.utils.rng import make_rng
from repro.workloads import get_workload, workload_names

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=2)
DRAWS = 500


def _compiled(workload: str, scheme: Scheme = Scheme.CASTED):
    return compile_program(get_workload(workload).program, scheme, MACHINE)


class _ReferenceSampler:
    """The fault models' draws, re-derived from the visit labels alone."""

    def __init__(self, cp) -> None:
        interp = Interpreter(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
            backend="interp",
        )
        recorded: list[int] = []
        interp.run(visit_sink=recorded.append)
        self.trace = [interp.labels[i] for i in recorded]
        blocks = {b.label: b.instructions for b in cp.program.main.blocks()}
        self.all_labels = sorted(blocks)
        self.dests = {
            label: [
                (i, insn.dests[0].rclass is RegClass.PR)
                for i, insn in enumerate(insns) if insn.dests
            ]
            for label, insns in blocks.items()
        }
        self.cfs = {
            label: [
                (i, insn.targets[0] if insn.opcode is Opcode.JMP else None)
                for i, insn in enumerate(insns)
                if insn.opcode in (Opcode.BRT, Opcode.BRF, Opcode.JMP)
            ]
            for label, insns in blocks.items()
        }
        self.starts: list[int] = []
        self.dest_cum: list[int] = []
        self.cf_cum: list[int] = []
        dyn = dest = cf = 0
        for label in self.trace:
            self.starts.append(dyn)
            dyn += len(blocks[label])
            dest += len(self.dests[label])
            cf += len(self.cfs[label])
            self.dest_cum.append(dest)
            self.cf_cum.append(cf)

    def _pick(self, cum: list[int], table: dict, rng) -> tuple[int, str, tuple]:
        site = int(rng.integers(cum[-1]))
        visit = bisect_right(cum, site)
        within = site - (cum[visit - 1] if visit else 0)
        label = self.trace[visit]
        entry = table[label][within]
        return self.starts[visit] + entry[0], label, entry

    def reg_bit(self, rng) -> FaultSpec:
        dyn, _, (_, is_pr) = self._pick(self.dest_cum, self.dests, rng)
        return FaultSpec(dyn_index=dyn, bit=0 if is_pr else int(rng.integers(64)))

    def burst(self, rng) -> FaultSpec:
        base = self.reg_bit(rng)
        width = int(rng.integers(2, 5))
        return FaultSpec(base.dyn_index, bit=min(base.bit, 64 - width), width=width)

    def opcode(self, rng) -> FaultSpec:
        base = self.reg_bit(rng)
        alt = int(rng.integers(len(ALT_OPS)))
        return FaultSpec(base.dyn_index, bit=base.bit, kind="opcode", arg=alt)

    def cf(self, rng) -> FaultSpec:
        dyn, _, (_, target) = self._pick(self.cf_cum, self.cfs, rng)
        arg = None
        if target is not None:
            others = [lb for lb in self.all_labels if lb != target]
            arg = others[int(rng.integers(len(others)))]
        return FaultSpec(dyn_index=dyn, kind="cf", arg=arg)

    def site(self, dyn_index: int) -> tuple[str, int]:
        visit = bisect_right(self.starts, dyn_index) - 1
        return self.trace[visit], dyn_index - self.starts[visit]


@pytest.mark.parametrize("workload", workload_names())
def test_samplers_match_a_label_walking_reference(workload):
    """500 draws per model give the reference's exact ``FaultSpec``
    sequence, ``site_of`` maps each back to its sampled site, and the
    visit counts sum to the golden visit count."""
    cp = _compiled(workload)
    ref = _ReferenceSampler(cp)
    for model in ("reg-bit", "burst", "opcode", "cf"):
        inj = FaultInjector(
            cp.program, cp.mem_words, cp.frame_words, fault_model=model
        )
        draw = getattr(ref, model.replace("-", "_"))
        got_rng = make_rng(11, workload, model)
        want_rng = make_rng(11, workload, model)
        got = [inj.model.sample(inj, got_rng) for _ in range(DRAWS)]
        want = [draw(want_rng) for _ in range(DRAWS)]
        assert got == want, model
        assert [inj.site_of(s.dyn_index) for s in got] == [
            ref.site(s.dyn_index) for s in want
        ]
    counts = inj.visit_counts()
    assert sum(counts.values()) == len(inj.golden_run.visits) == len(ref.trace)
    assert counts == {lb: ref.trace.count(lb) for lb in set(ref.trace)}


def _traced(build):
    """``build()`` and the bytes it leaves allocated."""
    tracemalloc.start()
    try:
        value = build()
        return value, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    ("workload", "scheme"),
    [
        pytest.param(w, s, id=w if s is Scheme.CASTED else f"{w}-noed")
        for w in workload_names()
        for s in (Scheme.CASTED, Scheme.NOED)
    ],
)
def test_size_estimates_track_tracemalloc(workload, scheme):
    """``GoldenRun.nbytes`` stays within 0.9-1.1x, and
    ``FaultInjector.nbytes`` within 0.7-1.3x, of what ``tracemalloc``
    counts for the object."""
    cp = _compiled(workload, scheme)
    interp = Interpreter(
        cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
    )
    # Build the closures and fuse (and decode-cache) the blocks outside
    # the measurement: they belong to the interpreter.
    interp.decode()
    assert interp.chain
    run, traced = _traced(lambda: injector_mod._execute_golden(interp))
    assert run.visits.dtype == np.uint16
    assert 0.9 <= run.nbytes / traced <= 1.1, (run.nbytes, traced)

    store._held.clear()
    store._pinned.clear()
    inj, traced = _traced(
        lambda: FaultInjector(cp.program, cp.mem_words, cp.frame_words)
    )
    assert 0.7 <= inj.nbytes / traced <= 1.3, (inj.nbytes, traced)


def test_snapshots_are_slotted_and_survive_copy_and_pickle():
    """A golden run holds dozens of snapshots: they carry no ``__dict__``,
    and stay frozen, copyable and picklable as slotted dataclasses."""
    snap = Snapshot(
        dyn=5, label="loop", regs=[1, 2], base=[0, 7, 0, 0],
        deltas=((array("I", [2]), (9,)),), output=(3,),
    )
    assert not hasattr(snap, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.dyn = 6  # type: ignore[misc]
    for clone in (copy.copy(snap), copy.deepcopy(snap), pickle.loads(pickle.dumps(snap))):
        assert clone == snap
    step = snap.step(9, "exit", [4, 5], (array("I", [1]), (8,)), (3, 4))
    assert step.base is snap.base and len(step.deltas) == 2
