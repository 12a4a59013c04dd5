"""The static fault-coverage prover: taint rules, verdicts, mutations,
cross-validation against measured trials, formats, CLI, scheme registry."""

import json

import pytest

from repro.analysis.coverage import (
    MODEL_SITE_KINDS,
    CoverageReport,
    cross_validate,
    prove_compiled,
    prove_function,
    prove_program,
)
from repro.analysis.formats import (
    PROVE_FORMATTERS,
    format_prove_json,
    format_prove_sarif,
    format_prove_text,
)
from repro.analysis.mutate import drop_nth_check, drop_nth_replica
from repro.analysis.protection import Severity
from repro.analysis.taint import find_detectors
from repro.cli import main
from repro.errors import SimError
from repro.faults.classify import SITE_ADMISSIBLE, Outcome, SiteClass
from repro.faults.injector import FaultInjector
from repro.ir.builder import IRBuilder
from repro.ir.program import Program
from repro.isa.instruction import Role
from repro.isa.opcodes import Opcode
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.schemes import (
    SchemeInfo,
    get_scheme_info,
    register_scheme,
    scheme_names,
)
from tests.conftest import build_loop_program

PROTECTED = [Scheme.CASTED, Scheme.SCED, Scheme.DCED]


def build_checked_program(with_check: bool = True) -> Program:
    """x -> y with a full second stream and (optionally) a check on y."""
    b = IRBuilder("main")
    fn = b.function
    b.add_and_enter("entry")
    x = b.movi(5)
    y = b.add(x, 3)
    x2, y2 = fn.new_gp(), fn.new_gp()
    b.emit(Opcode.MOVI, (x2,), imm=5, role=Role.DUP)
    b.emit(Opcode.ADD, (y2,), srcs=(x2,), imm=3, role=Role.DUP)
    if with_check:
        p = fn.new_pr()
        b.emit(Opcode.CMPNE, (p,), (y, y2), role=Role.CHECK)
        b.chkbr(p)
    b.out(y)
    b.halt(0)
    return Program(fn)


def verdict_by_uid(program: Program, kind: str = "reg"):
    return {
        v.site.uid: v for v in prove_function(program.main, kind)
    }


class TestTaintVerdicts:
    """Per-site classification on hand-built IR."""

    def test_checked_sites_detected(self):
        program = build_checked_program()
        verdicts = verdict_by_uid(program)
        # Every value-producing site feeds the check (or is its predicate):
        # all sites are provably detected.
        assert {v.verdict for v in verdicts.values()} == {SiteClass.DETECTED}

    def test_unchecked_site_escapes(self):
        program = build_checked_program(with_check=False)
        verdicts = verdict_by_uid(program)
        escaping = [
            v for v in verdicts.values()
            if v.verdict is SiteClass.SDC_POSSIBLE
        ]
        assert escaping, "OUT-reaching taint must be SDC_POSSIBLE"
        assert any("out-escape" in (v.escape or "") for v in escaping)
        assert all(v.witness for v in escaping)

    def test_dead_value_masked(self):
        b = IRBuilder("main")
        b.add_and_enter("entry")
        b.movi(7)  # never read
        live = b.movi(1)
        b.out(live)
        b.halt(0)
        verdicts = verdict_by_uid(Program(b.function))
        assert any(
            v.verdict is SiteClass.MASKED for v in verdicts.values()
        )

    def test_tainted_address_is_trap_escape(self):
        b = IRBuilder("main")
        b.add_and_enter("entry")
        addr = b.movi(1)
        b.load(addr)  # result dead — only the trap matters
        ok = b.movi(0)
        b.out(ok)
        b.halt(0)
        verdicts = verdict_by_uid(Program(b.function))
        addr_site = verdicts[_uid_of(b, Opcode.MOVI, 0)]
        assert addr_site.verdict is SiteClass.SDC_POSSIBLE
        assert addr_site.n_traps >= 1

    def test_shared_source_defeats_check(self):
        # A shadow stream copied from the original value (no independent
        # replica): one fault corrupts both compare operands, so the check
        # proves nothing and the prover must stay conservative.
        b = IRBuilder("main")
        fn = b.function
        b.add_and_enter("entry")
        x = b.movi(5)
        y = b.add(x, 3)
        y2 = fn.new_gp()
        b.emit(Opcode.ADD, (y2,), srcs=(x,), imm=3, role=Role.DUP)
        p = fn.new_pr()
        b.emit(Opcode.CMPNE, (p,), (y, y2), role=Role.CHECK)
        b.chkbr(p)
        b.out(y)
        b.halt(0)
        verdicts = verdict_by_uid(Program(fn))
        x_site = next(
            v for v in verdicts.values() if v.site.opcode == "MOVI"
        )
        assert x_site.verdict is SiteClass.SDC_POSSIBLE

    def test_detector_requires_redundant_producer(self):
        # A check compare whose operands no DUP/SHADOW_COPY writes is not
        # trusted as a detector.
        b = IRBuilder("main")
        fn = b.function
        b.add_and_enter("entry")
        x = b.movi(5)
        y = b.add(x, 3)
        p = fn.new_pr()
        b.emit(Opcode.CMPNE, (p,), (y, y), role=Role.CHECK)
        b.chkbr(p)
        b.out(y)
        b.halt(0)
        assert find_detectors(fn) == frozenset()

    def test_cf_sites_exposed(self):
        program = build_loop_program()
        verdicts = prove_function(program.main, "cf")
        assert verdicts, "loop program has branches"
        assert all(
            v.verdict is SiteClass.SDC_POSSIBLE for v in verdicts
        )

    def test_mem_pseudo_site(self):
        exposed = prove_function(build_loop_program().main, "mem")
        assert len(exposed) == 1
        assert exposed[0].verdict is SiteClass.SDC_POSSIBLE
        b = IRBuilder("main")
        b.add_and_enter("entry")
        b.out(b.movi(1))
        b.halt(0)
        pure = prove_function(Program(b.function).main, "mem")
        assert pure[0].verdict is SiteClass.MASKED


def _uid_of(builder: IRBuilder, opcode: Opcode, nth: int) -> int:
    seen = 0
    for _, _, insn in builder.function.all_instructions():
        if insn.opcode is opcode:
            if seen == nth:
                return insn.uid
            seen += 1
    raise AssertionError(f"no {opcode} #{nth}")


class TestAdmissibleOutcomes:
    def test_detected_never_admits_corruption(self):
        assert Outcome.SDC not in SITE_ADMISSIBLE[SiteClass.DETECTED]
        assert Outcome.TIMEOUT not in SITE_ADMISSIBLE[SiteClass.DETECTED]

    def test_masked_only_benign(self):
        assert SITE_ADMISSIBLE[SiteClass.MASKED] == frozenset(
            {Outcome.BENIGN}
        )

    def test_sdc_possible_admits_everything(self):
        assert SITE_ADMISSIBLE[SiteClass.SDC_POSSIBLE] == frozenset(Outcome)


@pytest.fixture(scope="module")
def compiled_loop():
    return compile_program(
        build_loop_program(),
        Scheme.CASTED,
        MachineConfig(issue_width=2, inter_cluster_delay=1),
        capture_pre_regalloc=True,
    )


class TestMutationsFlip:
    """Dropping one protection element flips at least one static verdict
    from DETECTED to SDC_POSSIBLE (the prover's mutation acceptance)."""

    def _verdicts(self, program):
        return {v.site.uid: v.verdict for v in prove_function(program.main, "reg")}

    def test_drop_replica_flips_site(self, compiled_loop):
        baseline = self._verdicts(compiled_loop.pre_regalloc)
        snap = compiled_loop.pre_regalloc.clone()
        # Clones get fresh uids, so re-prove the clone as its own baseline.
        before = self._verdicts(snap)
        assert drop_nth_replica(snap, 0)
        after = self._verdicts(snap)
        flipped = [
            uid
            for uid, verdict in after.items()
            if verdict is SiteClass.SDC_POSSIBLE
            and before.get(uid) is SiteClass.DETECTED
        ]
        assert flipped, "dropping a replica must expose at least one site"
        assert SiteClass.DETECTED in set(baseline.values())

    def test_drop_check_flips_site(self, compiled_loop):
        snap = compiled_loop.pre_regalloc.clone()
        before = self._verdicts(snap)
        assert drop_nth_check(snap, 0)
        after = self._verdicts(snap)
        flipped = [
            uid
            for uid, verdict in after.items()
            if verdict is SiteClass.SDC_POSSIBLE
            and before.get(uid) is SiteClass.DETECTED
        ]
        assert flipped, "dropping a check must expose at least one site"


class TestWorkloadProofs:
    def test_protected_vs_unprotected_coverage(self, machine):
        from repro.workloads import get_workload

        program = get_workload("mcf").program
        unprotected = prove_compiled(
            compile_program(program, Scheme.NOED, machine),
            fault_models=["reg-bit"],
        ).proofs["reg-bit"]
        protected = prove_compiled(
            compile_program(program, Scheme.CASTED, machine),
            fault_models=["reg-bit"],
        ).proofs["reg-bit"]
        assert unprotected.static_coverage < 0.3
        assert protected.static_coverage > 0.8
        assert protected.counts()["detected"] > 0

    def test_report_exit_codes(self, machine):
        from repro.workloads import get_workload

        compiled = compile_program(
            get_workload("mcf").program, Scheme.CASTED, machine
        )
        report = prove_compiled(compiled, fault_models=["reg-bit"])
        assert report.exit_code(fail_on=Severity.ERROR) == 0
        # Exposed protectable sites surface as warnings.
        if report.counts()["warning"]:
            assert report.exit_code(fail_on=Severity.WARNING) == 1

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="site population"):
            prove_program(build_loop_program(), "casted", ["gamma-ray"])


class TestCrossValidation:
    @pytest.fixture(scope="class")
    def compiled(self):
        return compile_program(
            build_loop_program(),
            Scheme.CASTED,
            MachineConfig(issue_width=2, inter_cluster_delay=1),
        )

    @pytest.mark.parametrize("model", sorted(MODEL_SITE_KINDS))
    def test_sound_on_loop(self, compiled, model):
        try:
            inj = FaultInjector(
                compiled.program,
                compiled.mem_words,
                compiled.frame_words,
                fault_model=model,
            )
        except SimError:
            pytest.skip(f"{model} unusable on this program")
        report = prove_compiled(
            compiled, fault_models=[model], weights=inj.visit_counts()
        )
        val = cross_validate(inj, report.proofs[model], n_trials=40, seed=3)
        assert val.violations == []
        assert val.n_trials == 40

    def test_model_mismatch_rejected(self, compiled):
        inj = FaultInjector(
            compiled.program, compiled.mem_words, compiled.frame_words
        )
        report = prove_compiled(compiled, fault_models=["cf"])
        with pytest.raises(ValueError, match="proof is for"):
            cross_validate(inj, report.proofs["cf"], n_trials=1, seed=0)

    def test_site_of_maps_the_golden_trace(self, compiled):
        inj = FaultInjector(
            compiled.program, compiled.mem_words, compiled.frame_words
        )
        counts = inj.visit_counts()
        run = inj.golden_run
        assert sum(counts.values()) == len(run.visits)
        label, index = inj.site_of(0)
        assert label == run.labels[run.visits[0]]
        assert index == 0
        with pytest.raises(SimError):
            inj.site_of(-1)
        with pytest.raises(SimError):
            inj.site_of(inj.golden.dyn_instructions)


class TestFormats:
    @pytest.fixture(scope="class")
    def report(self) -> CoverageReport:
        compiled = compile_program(
            build_loop_program(),
            Scheme.CASTED,
            MachineConfig(issue_width=2, inter_cluster_delay=1),
        )
        return prove_compiled(compiled)

    def test_text(self, report):
        text = format_prove_text(report)
        assert "static coverage" in text
        assert "reg-bit" in text

    def test_json_roundtrip(self, report):
        doc = json.loads(format_prove_json(report))
        assert set(doc["models"]) == set(MODEL_SITE_KINDS)
        reg = doc["models"]["reg-bit"]
        assert 0.0 <= reg["static_coverage"] <= 1.0
        assert reg["sites"]

    def test_sarif_driver(self, report):
        doc = json.loads(format_prove_sarif(report))
        assert doc["runs"][0]["tool"]["driver"]["name"] == "repro-prove"

    def test_formatter_table(self):
        assert set(PROVE_FORMATTERS) == {"text", "json", "sarif"}


class TestProveCLI:
    def test_text_output(self, capsys):
        assert main(["prove", "workload:mcf", "--scheme", "casted"]) == 0
        out = capsys.readouterr().out
        assert "static coverage" in out

    def test_json_output(self, capsys):
        assert (
            main(
                [
                    "prove",
                    "workload:mcf",
                    "--scheme",
                    "noed",
                    "--format",
                    "json",
                    "--models",
                    "reg-bit",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["models"]) == ["reg-bit"]

    def test_validate_runs_clean(self, capsys):
        assert (
            main(
                [
                    "prove",
                    "workload:mcf",
                    "--scheme",
                    "casted",
                    "--validate",
                    "25",
                    "--seed",
                    "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 violation(s)" in out


class TestSchemeRegistry:
    def test_names_cover_pipeline_schemes(self):
        assert set(scheme_names()) == {s.value for s in Scheme}

    def test_info_drives_scheme_properties(self):
        assert Scheme.NOED.protected is False
        assert Scheme.CASTED.protected is True
        assert Scheme.CASTED.info.cluster_policy == "adaptive"
        assert Scheme.DCED.info.min_clusters == 2
        assert get_scheme_info("sced").replicates is True

    def test_unknown_scheme_raises(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            get_scheme_info("tmr")

    def test_register_validates_policy(self):
        with pytest.raises(ValueError, match="cluster policy"):
            register_scheme(
                SchemeInfo(
                    name="bogus",
                    description="",
                    replicates=True,
                    check_placement="pre-consumer",
                    cluster_policy="diagonal",
                )
            )
