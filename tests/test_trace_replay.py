"""The compiled backend's timing replay of a recorded functional trace.

A cycle-level run on the compiled backend times the program's
:class:`~repro.sim.executor.FunctionalTrace` against the schedule instead
of executing it.  Every :class:`~repro.sim.executor.SimResult` field must
equal the ``interp`` oracle's, whatever ends the run, and one trace serves
every schedule of a program.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro import obs
from repro.ir.builder import IRBuilder
from repro.ir.interp import ExitKind
from repro.ir.program import GlobalArray, Program
from repro.machine.config import CacheLevelConfig, MachineConfig, itanium2_cache
from repro.isa.opcodes import LatencyClass
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor, record_trace
from repro.workloads import get_workload, workload_names
from tests.conftest import build_loop_program


def _ending_program(ending: str, iterations: int = 30) -> Program:
    """A loop over ``buf`` followed by a block that ends the run.

    The last block stores, loads and outputs before its ending, so a run
    that a check (``detect``) or an invalid load (``trap``) ends inside it
    has accesses and output to account for; ``halt`` runs it to the end.
    """
    b = IRBuilder("main")
    f = b.function
    b.add_and_enter("entry")
    i = f.new_gp()
    acc = f.new_gp()
    b.movi_to(i, 0)
    b.movi_to(acc, 0)
    b.jmp("loop")
    b.add_and_enter("loop")
    addr = b.add(b.mul(i, 17), 1)
    b.store(addr, b.add(acc, i))
    b.mov_to(acc, b.add(acc, b.load(b.add(i, 1))))
    b.out(acc)
    b.mov_to(i, b.add(i, 1))
    b.brt(b.cmplt(i, iterations), "loop", "last")
    b.add_and_enter("last")
    b.store(b.add(i, 2), acc)
    b.out(b.load(b.sub(b.mul(i, 17), 16)))  # the loop's last store
    if ending == "detect":
        b.chkbr(b.cmpne(acc, 0))
    elif ending == "trap":
        b.out(b.load(b.sub(acc, acc)))  # word 0 is invalid
    b.out(acc)
    b.halt(0)
    return Program(f, [GlobalArray("buf", 1000)])


def _slow_l1() -> MachineConfig:
    l1 = CacheLevelConfig("L1", 16 * 1024, 64, 4, 3)
    cache = replace(itanium2_cache(), levels=(l1, *itanium2_cache().levels[1:]))
    return MachineConfig(issue_width=2, cache=cache)


def _odd_sets() -> MachineConfig:
    l1 = CacheLevelConfig("L1", 24 * 1024, 64, 4, 1)
    cache = replace(itanium2_cache(), levels=(l1, *itanium2_cache().levels[1:]))
    return MachineConfig(issue_width=2, cache=cache)


MACHINES = {
    "table-1": MachineConfig(issue_width=2, inter_cluster_delay=2),
    "slow-l1": _slow_l1(),
    "odd-sets": _odd_sets(),
}


def _both(cp, **kwargs):
    """The compiled run (asserted equal from a recorded and from a stored
    trace) and the oracle's."""
    fused = VLIWExecutor(cp, backend="compiled", **kwargs).run()
    assert VLIWExecutor(cp, backend="compiled", **kwargs).run() == fused
    return fused, VLIWExecutor(cp, backend="interp", **kwargs).run()


class TestEveryEndingMatchesTheOracle:
    @pytest.mark.parametrize("machine", list(MACHINES), ids=str)
    @pytest.mark.parametrize("overlap", [True, False], ids=["overlap", "serial"])
    @pytest.mark.parametrize("ending,kind", [
        ("halt", ExitKind.OK),
        ("detect", ExitKind.DETECTED),
        ("trap", ExitKind.EXCEPTION),
    ])
    def test_program_ending(self, ending, kind, overlap, machine):
        cp = compile_program(
            _ending_program(ending), Scheme.NOED, MACHINES[machine], optimize=False
        )
        fused, ref = _both(cp, overlap_misses=overlap)
        assert ref.kind is kind
        assert fused == ref

    @pytest.mark.parametrize("ending", ["halt", "detect", "trap"])
    @pytest.mark.parametrize("max_cycles", [1, 50, 400])
    def test_cycle_budget(self, ending, max_cycles):
        cp = compile_program(
            _ending_program(ending), Scheme.NOED, MACHINES["table-1"], optimize=False
        )
        fused, ref = _both(cp, max_cycles=max_cycles)
        assert ref.kind is ExitKind.TIMEOUT
        assert fused == ref

    def test_cycle_budget_inside_the_last_visit(self):
        """A budget that only the last visit's length exceeds."""
        cp = compile_program(
            _ending_program("trap"), Scheme.NOED, MACHINES["table-1"], optimize=False
        )
        full = VLIWExecutor(cp, backend="interp").run()
        last = cp.schedules.blocks["last"].length
        budget = full.cycles - last
        fused, ref = _both(cp, max_cycles=budget)
        assert ref.kind is ExitKind.TIMEOUT
        assert fused == ref

    def test_watchdog_timeout(self):
        cp = compile_program(build_loop_program(1000), Scheme.NOED, MACHINES["table-1"])
        fused, ref = _both(cp, max_cycles=50)
        assert ref.kind is ExitKind.TIMEOUT
        assert fused == ref

    def test_trace_cut_by_the_step_watchdog(self):
        """A trace the functional watchdog ended cannot say how the run goes
        on; the run is then timed on the oracle's loop."""
        cp = compile_program(build_loop_program(1000), Scheme.NOED, MACHINES["table-1"])
        ex = VLIWExecutor(cp, backend="compiled", max_cycles=5_000)
        ex._interp.max_steps = 300
        assert ex._trace().result.kind is ExitKind.TIMEOUT
        assert ex.run() == VLIWExecutor(cp, backend="interp", max_cycles=5_000).run()

    @pytest.mark.parametrize("workload", workload_names())
    def test_serial_misses_on_every_kernel(self, workload):
        cp = compile_program(get_workload(workload).program, Scheme.DCED, MACHINES["table-1"])
        fused, ref = _both(cp, overlap_misses=False)
        assert fused == ref

    def test_telemetry_matches_the_oracle(self):
        """Visit counts and per-block stalls come from the replay's arrays."""
        cp = compile_program(
            _ending_program("detect"), Scheme.NOED, _slow_l1(), optimize=False
        )

        def counters(backend: str) -> dict:
            tel = obs.configure()
            try:
                VLIWExecutor(cp, backend=backend).run()
                return {
                    k: v for k, v in tel.metrics.counters.items()
                    if k.startswith(("sim.issue.", "sim.stalls.", "sim.cycles",
                                     "sim.dyn", "sim.block", "sim.cache."))
                }
            finally:
                obs.reset()

        fused = counters("compiled")
        assert any(k.startswith("sim.stalls.block.") for k in fused)
        assert fused == counters("interp")


class TestOneTracePerProgram:
    def test_a_kernels_dced_points_record_one_trace_and_one_stage(self):
        source = get_workload("mcf").program
        tel = obs.configure()
        try:
            for iw in (1, 2, 3, 4):
                for delay in (1, 2, 3, 4):
                    machine = MachineConfig(issue_width=iw, inter_cluster_delay=delay)
                    VLIWExecutor(compile_program(source, Scheme.DCED, machine)).run()
            counters = dict(tel.metrics.counters)
        finally:
            obs.reset()
        assert counters["compile.stage.misses"] == 1
        assert counters["compile.stage.hits"] == 15
        assert counters["sim.trace.misses"] == 1
        assert counters["sim.trace.hits"] == 15
        assert counters["sim.runs"] == 16

    def test_trace_matches_the_functional_run(self):
        cp = compile_program(
            get_workload("parser").program, Scheme.CASTED, MACHINES["table-1"]
        )
        ex = VLIWExecutor(cp)
        trace = ex._trace()
        functional, visits = ex._interp.run_visits()
        assert trace.result == functional
        assert list(trace.visits) == list(visits)
        assert trace.entry_state is None


def _traced_trace(interp):
    """A fresh trace of ``interp``'s program and the bytes it holds.

    The program is traced once beforehand, so its blocks are fused and
    decoded; the interpreter's state is reset inside the measurement, so
    the int objects the run left in its registers and memory, which the
    trace does not hold, are not counted."""
    record_trace(interp)

    def build():
        trace = record_trace(interp)
        interp.reset_state()
        return trace

    return _traced(build)


def _traced(build):
    """``build()`` and the bytes it leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        value = build()
        gc.collect()
        return value, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("workload", workload_names())
def test_trace_size_estimate_tracks_tracemalloc(workload):
    cp = compile_program(
        get_workload(workload).program, Scheme.CASTED, MACHINES["table-1"]
    )
    trace, traced = _traced_trace(VLIWExecutor(cp)._interp)
    assert 0.9 <= trace.nbytes / traced <= 1.1, (trace.nbytes, traced)


def test_trace_with_entry_state_size_estimate_tracks_tracemalloc():
    cp = compile_program(
        _ending_program("detect"), Scheme.NOED, MACHINES["table-1"], optimize=False
    )
    trace, traced = _traced_trace(VLIWExecutor(cp)._interp)
    assert trace.entry_state is not None
    assert 0.9 <= trace.nbytes / traced <= 1.1, (trace.nbytes, traced)


def test_slow_l1_stalls_every_access():
    """An L1 hit slower than the scheduled load latency stalls, MRU hits
    included."""
    cp = compile_program(_ending_program("halt"), Scheme.NOED, _slow_l1(), optimize=False)
    fused = VLIWExecutor(cp).run()
    hits = fused.cache.hits["L1"]
    assert hits and fused.stall_cycles > 0
    assert _slow_l1().latencies[LatencyClass.LOAD] < 3
