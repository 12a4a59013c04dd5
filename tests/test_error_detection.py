"""The CASTED error-detection pass (paper Algorithm 1) invariants."""

import pytest

from repro.frontend import compile_source
from repro.ir.basic_block import DETECT_LABEL
from repro.ir.interp import ExitKind, Interpreter
from repro.ir.program import Program
from repro.ir.verifier import verify_program
from repro.isa.instruction import Role
from repro.isa.opcodes import Opcode
from repro.passes.base import PassContext
from repro.passes.checks import CHECKED_OPCODES
from repro.passes.error_detection import ErrorDetectionPass, redundant_fraction
from tests.conftest import build_loop_program


def apply_ed(program: Program):
    ctx = PassContext()
    ErrorDetectionPass().run(program, ctx)
    verify_program(program)
    return ctx.artifacts["error_detection"]


@pytest.fixture
def protected_loop():
    prog = build_loop_program()
    info = apply_ed(prog)
    return prog, info


class TestReplication:
    def test_every_protectable_instruction_duplicated(self, protected_loop):
        prog, info = protected_loop
        for _, _, insn in prog.main.all_instructions():
            if insn.role is Role.ORIG and insn.protectable:
                assert info.table.has_duplicate(insn), str(insn)

    def test_duplicate_precedes_original(self, protected_loop):
        prog, info = protected_loop
        for block in prog.main.blocks():
            seen_dups = {}
            for insn in block.instructions:
                if insn.role is Role.DUP:
                    seen_dups[insn.dup_of] = insn
                elif insn.role is Role.ORIG and insn.uid in info.table.dup_of_orig:
                    assert insn.uid in seen_dups, "replica must come before original"

    def test_nonreplicated_categories(self, protected_loop):
        prog, _ = protected_loop
        for _, _, insn in prog.main.all_instructions():
            if insn.role is Role.DUP:
                assert insn.info.replicable
                assert insn.opcode not in (
                    Opcode.STORE, Opcode.OUT, Opcode.BRT, Opcode.JMP, Opcode.HALT,
                )

    def test_same_opcode_and_imm(self, protected_loop):
        prog, info = protected_loop
        for dup_uid, orig in info.table.orig_of_dup.items():
            dup = info.table.dup_of_orig[orig.uid]
            assert dup.opcode is orig.opcode
            assert dup.imm == orig.imm


class TestIsolation:
    def test_replicas_never_write_original_registers(self, protected_loop):
        prog, _ = protected_loop
        orig_written = set()
        for _, _, insn in prog.main.all_instructions():
            if insn.role is Role.ORIG:
                orig_written.update(insn.writes())
        for _, _, insn in prog.main.all_instructions():
            if insn.role in (Role.DUP, Role.SHADOW_COPY):
                for d in insn.writes():
                    assert d not in orig_written, f"{insn} clobbers original state"

    def test_replicas_read_only_shadow_registers(self, protected_loop):
        prog, info = protected_loop
        shadow_regs = set(info.shadows.shadow_of.values())
        for _, _, insn in prog.main.all_instructions():
            if insn.role is Role.DUP:
                for r in insn.reads():
                    assert r in shadow_regs, f"{insn} reads non-shadow {r}"

    def test_shadow_map_classes_match(self, protected_loop):
        _, info = protected_loop
        for orig, shadow in info.shadows.shadow_of.items():
            assert orig.rclass is shadow.rclass
            assert orig != shadow

    def test_library_values_get_shadow_copies_when_consumed(self):
        prog = compile_source(
            """
            lib func lib3(x) { return x * 3; }
            func main() {
                var a = lib3(5);
                var b = a + 1;       // protected code consumes the lib value
                out(b);
                return 0;
            }
            """
        )
        info = apply_ed(prog)
        copies = [
            i for _, _, i in prog.main.all_instructions()
            if i.role is Role.SHADOW_COPY
        ]
        assert copies, "COPY_INSN path must trigger for library-produced values"
        assert info.n_shadow_copies == len(copies)


class TestChecks:
    def test_checks_are_compare_plus_jump(self, protected_loop):
        prog, info = protected_loop
        cmps = jumps = 0
        for _, _, insn in prog.main.all_instructions():
            if insn.role is Role.CHECK:
                if insn.opcode is Opcode.CHKBR:
                    jumps += 1
                    assert insn.targets == (DETECT_LABEL,)
                else:
                    assert insn.opcode in (Opcode.CMPNE, Opcode.PNE)
                    cmps += 1
        assert cmps == jumps == info.n_checks

    def test_every_checked_operand_has_shadow(self, protected_loop):
        prog, info = protected_loop
        for _, _, insn in prog.main.all_instructions():
            if insn.role is Role.CHECK and insn.opcode is not Opcode.CHKBR:
                orig_reg, shadow_reg = insn.srcs
                assert info.shadows.get(orig_reg) == shadow_reg

    def test_store_operands_checked(self, protected_loop):
        prog, info = protected_loop
        for block in prog.main.blocks():
            insns = block.instructions
            for idx, insn in enumerate(insns):
                if insn.opcode is Opcode.STORE and insn.role is Role.ORIG:
                    checked = set()
                    j = idx - 1
                    while j >= 0 and insns[j].role in (Role.CHECK,):
                        if insns[j].opcode is not Opcode.CHKBR:
                            checked.add(insns[j].srcs[0])
                        j -= 1
                    for r in insn.reads():
                        if r in info.shadows:
                            assert r in checked, f"{r} unchecked before {insn}"

    def test_branch_predicates_checked(self, protected_loop):
        prog, info = protected_loop
        pne = [
            i for _, _, i in prog.main.all_instructions()
            if i.role is Role.CHECK and i.opcode is Opcode.PNE
        ]
        assert pne, "the loop branch predicate must be checked"

    def test_duplicate_reads_checked_once(self):
        """``STORE x, x`` reads x twice but needs one compare+branch pair.

        Before the read-set dedupe, each occurrence got its own identical
        pair: two extra issue slots and a second serializing predicate for
        zero extra coverage.
        """
        from repro.ir.builder import IRBuilder

        def program():
            b = IRBuilder("main")
            b.add_and_enter("entry")
            x = b.movi(3)
            b.store(x, x)  # address and value are the same register
            b.halt(0)
            from repro.ir.program import GlobalArray

            return Program(b.function, [GlobalArray("buf", 8)])

        prog = program()
        info = apply_ed(prog)
        store_checks = [
            i for _, _, i in prog.main.all_instructions()
            if i.role is Role.CHECK and i.opcode is Opcode.CMPNE
        ]
        assert info.n_checks == 1
        assert len(store_checks) == 1
        # And the deduped program still detects what the duplicate pair
        # would have: the one check compares x against its shadow.
        orig_reg, shadow_reg = store_checks[0].srcs
        assert info.shadows.get(orig_reg) == shadow_reg

    def test_library_code_gets_no_checks(self):
        prog = compile_source(
            """
            global g[2];
            lib func store_lib(v) { g[0] = v; return v; }
            func main() { var a = store_lib(4); out(a); return 0; }
            """
        )
        apply_ed(prog)
        for block in prog.main.blocks():
            insns = block.instructions
            for idx, insn in enumerate(insns):
                if insn.opcode is Opcode.STORE and insn.from_library:
                    before = insns[max(0, idx - 2):idx]
                    assert all(i.role is not Role.CHECK for i in before)


    def test_checked_opcodes(self):
        """One set says which operands leave the sphere of replication;
        check emission and the linter's consumer rules both read it."""
        from repro.analysis import protection

        assert CHECKED_OPCODES == {Opcode.STORE, Opcode.OUT, Opcode.BRT, Opcode.BRF}
        assert protection.CHECKED_OPCODES is CHECKED_OPCODES


class TestSemanticsAndStats:
    def test_fault_free_semantics_preserved(self):
        for maker in (build_loop_program,):
            prog = maker()
            golden = Interpreter(prog).run()
            apply_ed(prog)
            r = Interpreter(prog).run()
            assert r.kind is golden.kind
            assert r.output == golden.output
            assert r.exit_code == golden.exit_code

    def test_workload_semantics_preserved(self):
        from repro.workloads import get_workload

        w = get_workload("parser")
        prog = w.program.clone()
        golden = Interpreter(w.program).run()
        apply_ed(prog)
        assert Interpreter(prog).run().output == golden.output

    def test_code_growth_factor(self, protected_loop):
        _, info = protected_loop
        # The paper reports >2x static growth before scheduling (§II-A).
        assert info.code_growth > 1.5
        assert info.code_growth < 4.0

    def test_redundant_fraction(self, protected_loop):
        prog, _ = protected_loop
        frac = redundant_fraction(prog)
        assert 0.3 < frac < 0.7

    def test_no_checks_fire_fault_free(self, protected_loop):
        prog, _ = protected_loop
        assert Interpreter(prog).run().kind is ExitKind.OK

    def test_second_run_refused(self, protected_loop):
        # Double protection is meaningless; the pass must refuse to re-run.
        from repro.errors import PassError

        prog, _ = protected_loop
        with pytest.raises(PassError, match="not re-entrant"):
            apply_ed(prog)
