import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimError
from repro.ir.builder import IRBuilder
from repro.ir.interp import ExitKind, FaultSpec, Interpreter
from repro.ir.program import GlobalArray, Program
from repro.isa.opcodes import Opcode
from tests.conftest import build_loop_program


def straightline(emit):
    b = IRBuilder("main")
    b.add_and_enter("entry")
    emit(b)
    if not b.current.is_terminated:
        b.halt(0)
    return Program(b.function)


class TestBasicExecution:
    def test_loop_result(self, loop_program):
        r = Interpreter(loop_program).run()
        assert r.kind is ExitKind.OK
        assert r.exit_code == 0
        assert r.output == (sum(i * i for i in range(10)),)

    def test_dyn_count_exact(self):
        prog = straightline(lambda b: b.out(b.movi(1)))
        r = Interpreter(prog).run()
        assert r.dyn_instructions == 3  # movi, out, halt

    def test_trace_recording(self, loop_program):
        interp = Interpreter(loop_program)
        r, visits = interp.run_visits()
        assert r == interp.run()
        trace = [interp.labels[v] for v in visits]
        assert trace[0] == "entry"
        assert trace.count("loop") == 10
        assert trace[-1] == "exit"
        assert visits.dtype == np.uint16

    def test_exit_code(self):
        prog = straightline(lambda b: b.halt(7))
        assert Interpreter(prog).run().exit_code == 7

    def test_runs_are_independent(self, loop_program):
        interp = Interpreter(loop_program)
        r1 = interp.run()
        r2 = interp.run()
        assert r1.output == r2.output
        assert r1.dyn_instructions == r2.dyn_instructions

    def test_global_initializers_applied(self):
        b = IRBuilder("main")
        b.add_and_enter("entry")
        addr = b.movi(1)
        b.out(b.load(addr))
        b.out(b.load(addr, 1))
        b.halt(0)
        prog = Program(b.function, [GlobalArray("g", 2, (11, 22))])
        assert Interpreter(prog).run().output == (11, 22)

    def test_memory_reset_between_runs(self):
        b = IRBuilder("main")
        b.add_and_enter("entry")
        addr = b.movi(1)
        old = b.load(addr)
        b.store(addr, b.add(old, 1))
        b.out(b.load(addr))
        b.halt(0)
        prog = Program(b.function, [GlobalArray("g", 1)])
        interp = Interpreter(prog)
        assert interp.run().output == (1,)
        assert interp.run().output == (1,)


class TestTraps:
    def test_load_out_of_bounds(self):
        prog = straightline(lambda b: b.out(b.load(b.movi(10**9))))
        r = Interpreter(prog).run()
        assert r.kind is ExitKind.EXCEPTION
        assert r.trap == "memory-fault"

    def test_null_access(self):
        prog = straightline(lambda b: b.out(b.load(b.movi(0))))
        assert Interpreter(prog).run().kind is ExitKind.EXCEPTION

    def test_store_negative_address(self):
        prog = straightline(lambda b: b.store(b.movi(-5), b.movi(1)))
        assert Interpreter(prog).run().kind is ExitKind.EXCEPTION

    def test_division_by_zero(self):
        prog = straightline(lambda b: b.out(b.div(b.movi(3), b.movi(0))))
        r = Interpreter(prog).run()
        assert r.kind is ExitKind.EXCEPTION
        assert r.trap == "arithmetic-trap"

    def test_watchdog(self):
        def emit(b):
            b.jmp("spin")
            b.add_and_enter("spin")
            b.jmp("spin")

        prog = straightline(emit)
        r = Interpreter(prog, max_steps=1000).run()
        assert r.kind is ExitKind.TIMEOUT
        assert r.trap == "watchdog"

    def test_per_run_step_override(self, loop_program):
        interp = Interpreter(loop_program)
        assert interp.run(max_steps=5).kind is ExitKind.TIMEOUT
        assert interp.run().kind is ExitKind.OK

    def test_too_small_memory_rejected(self, loop_program):
        with pytest.raises(SimError):
            Interpreter(loop_program, mem_words=2)


class TestFaultInjection:
    def test_fault_changes_output(self, loop_program):
        interp = Interpreter(loop_program)
        golden = interp.run()
        # flip a high bit of the very first movi (i := 0 becomes huge)
        r = interp.run(faults=(FaultSpec(0, 40),))
        assert r.architectural_state != golden.architectural_state

    def test_fault_on_no_dest_instruction_is_dropped(self):
        prog = straightline(lambda b: (b.store(b.movi(1), b.movi(5)), b.out(b.movi(9))))
        # give the program a global so address 1 is valid
        prog = Program(prog.main.clone(), [GlobalArray("g", 2)])
        interp = Interpreter(prog)
        golden = interp.run()
        # dyn index 2 is the store (movi, movi, store, ...)
        r = interp.run(faults=(FaultSpec(2, 5),))
        assert r.output == golden.output

    def test_predicate_fault_flips_branch(self, loop_program):
        interp = Interpreter(loop_program)
        golden = interp.run()
        # find the dyn index of the first cmplt: entry(3) + loop body...
        # easier: scan for a run whose outcome differs with bit 0 flips
        changed = False
        for dyn in range(3, 30):
            r = interp.run(faults=(FaultSpec(dyn, 0),))
            if r.architectural_state != golden.architectural_state:
                changed = True
                break
        assert changed

    def test_multiple_faults(self, loop_program):
        interp = Interpreter(loop_program)
        r = interp.run(faults=(FaultSpec(0, 1), FaultSpec(4, 2), FaultSpec(9, 3)))
        assert r.kind in (ExitKind.OK, ExitKind.EXCEPTION, ExitKind.TIMEOUT)

    def test_fault_determinism(self, loop_program):
        interp = Interpreter(loop_program)
        a = interp.run(faults=(FaultSpec(7, 13),))
        b = interp.run(faults=(FaultSpec(7, 13),))
        assert a.architectural_state == b.architectural_state

    def test_fault_beyond_execution_ignored(self, loop_program):
        interp = Interpreter(loop_program)
        golden = interp.run()
        r = interp.run(faults=(FaultSpec(10**6, 3),))
        assert r.architectural_state == golden.architectural_state

    @given(st.integers(0, 70), st.integers(0, 63))
    @settings(max_examples=30, deadline=None)
    def test_any_single_fault_is_classified(self, dyn, bit):
        prog = build_loop_program()
        interp = Interpreter(prog, max_steps=100_000)
        r = interp.run(faults=(FaultSpec(dyn, bit),))
        assert r.kind in ExitKind


class TestFrameOps:
    def test_loadfp_storefp(self):
        def emit(b):
            x = b.movi(77)
            b.emit(Opcode.STOREFP, srcs=(x,), imm=0)
            y = b.function.new_gp()
            b.emit(Opcode.LOADFP, (y,), imm=0)
            b.out(y)

        prog = straightline(emit)
        r = Interpreter(prog, frame_words=2).run()
        assert r.output == (77,)

    def test_frame_outside_memory_rejected(self):
        def emit(b):
            x = b.movi(1)
            b.emit(Opcode.STOREFP, srcs=(x,), imm=500)

        prog = straightline(emit)
        with pytest.raises(SimError):
            Interpreter(prog, frame_words=0, mem_words=16)
