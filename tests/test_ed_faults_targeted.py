"""Targeted fault scenarios: does detection catch exactly what it claims?

These tests pin the *mechanism*: a fault in the original stream diverges
from the shadow and is caught at the next check; a fault in the replicated
stream is caught the same way; a fault in library code slips through to the
output — the three cases the paper's coverage discussion rests on.
"""

import pytest

from repro.faults.classify import Outcome
from repro.frontend import compile_source
from repro.ir.interp import ExitKind, FaultSpec, Interpreter
from repro.isa.instruction import Role
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=1)

SOURCE = """
global sink[4];
lib func libmix(x) {
    return x * 2862933555777941757 + 777;
}
func main() {
    var a = 1234;
    var b = a * 17 + 5;       // protected computation
    var c = libmix(b);        // library computation
    sink[1] = b;              // checked store of protected value
    out(c);
    out(b);
    return 0;
}
"""


@pytest.fixture(scope="module")
def compiled():
    return compile_program(compile_source(SOURCE), Scheme.SCED, MACHINE)


@pytest.fixture(scope="module")
def interp(compiled):
    return Interpreter(
        compiled.program,
        mem_words=compiled.mem_words,
        frame_words=compiled.frame_words,
    )


def linear_instructions(compiled, interp):
    """Instruction at each dynamic index (straight-line program)."""
    _, visits = interp.run_visits()
    flat = []
    for label in (interp.labels[v] for v in visits):
        flat.extend(compiled.program.main.block(label).instructions)
    return flat


def outcomes_for_role(compiled, interp, role, bit=13):
    golden = interp.run()
    flat = linear_instructions(compiled, interp)
    results = []
    for dyn, insn in enumerate(flat):
        if insn.role is role and insn.dests:
            r = interp.run(faults=(FaultSpec(dyn, bit),))
            if r.kind is ExitKind.DETECTED:
                results.append(Outcome.DETECTED)
            elif r.kind is ExitKind.EXCEPTION:
                results.append(Outcome.EXCEPTION)
            elif r.architectural_state == golden.architectural_state:
                # Stricter than classify(): full architectural equality,
                # not just output equality.
                results.append(Outcome.BENIGN)
            else:
                results.append(Outcome.SDC)
    return results


class TestMechanism:
    def test_original_stream_faults_never_silent(self, compiled, interp):
        outcomes = outcomes_for_role(compiled, interp, Role.ORIG)
        # ORIG includes library instructions? No: from_library is a separate
        # flag; filter happens below in the library test.  Here, any fault
        # on a *protected* original value that reaches a store/out is caught.
        protected = [
            o for o, insn in zip(
                outcomes,
                [
                    i
                    for i in linear_instructions(compiled, interp)
                    if i.role is Role.ORIG and i.dests
                ],
            )
            if not insn_is_lib(insn)
        ]
        assert Outcome.SDC not in protected

    def test_replica_stream_faults_never_silent(self, compiled, interp):
        outcomes = outcomes_for_role(compiled, interp, Role.DUP)
        assert outcomes  # replicas exist
        assert set(outcomes) <= {Outcome.DETECTED, Outcome.BENIGN, Outcome.EXCEPTION}

    def test_check_predicate_faults_cause_detection_not_sdc(self, compiled, interp):
        outcomes = outcomes_for_role(compiled, interp, Role.CHECK)
        # flipping a check predicate fires the check (false positive) or is
        # benign (the CHKBR already consumed it); never silent corruption
        assert set(outcomes) <= {Outcome.DETECTED, Outcome.BENIGN}

    def test_library_faults_can_slip_through(self, compiled, interp):
        golden = interp.run()
        flat = linear_instructions(compiled, interp)
        slipped = False
        for dyn, insn in enumerate(flat):
            if insn_is_lib(insn) and insn.dests:
                r = interp.run(faults=(FaultSpec(dyn, 23),))
                if (
                    r.kind is ExitKind.OK
                    and r.architectural_state != golden.architectural_state
                ):
                    slipped = True
                    break
        assert slipped, "the unprotected-library SDC channel must exist"


def insn_is_lib(insn):
    return insn.from_library
