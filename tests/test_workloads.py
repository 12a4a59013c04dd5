"""Workload registry + per-kernel character assertions (paper Table II)."""

import pytest

from repro.ir.interp import ExitKind, Interpreter
from repro.isa.opcodes import Opcode
from repro.workloads import all_workloads, get_workload, workload_names

EXPECTED = {
    "cjpeg": "MediaBench2",
    "h263dec": "MediaBench2",
    "mpeg2dec": "MediaBench2",
    "h263enc": "MediaBench2",
    "vpr": "SPEC CINT2000",
    "mcf": "SPEC CINT2000",
    "parser": "SPEC CINT2000",
}


class TestRegistry:
    def test_all_seven_present(self):
        assert set(workload_names()) == set(EXPECTED)

    def test_suites(self):
        for w in all_workloads():
            assert w.suite == EXPECTED[w.name]

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("gcc")

    def test_program_cached(self):
        w = get_workload("mcf")
        assert w.program is w.program

    def test_all_have_library_code(self):
        for w in all_workloads():
            libs = [
                i for _, _, i in w.program.main.all_instructions() if i.from_library
            ]
            assert libs, f"{w.name} must exercise the unprotected-library channel"


class TestExecution:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_runs_clean(self, name):
        r = Interpreter(get_workload(name).program).run()
        assert r.kind is ExitKind.OK
        assert r.exit_code == 0
        assert len(r.output) >= 3, "needs enough output for SDC detection"

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_deterministic(self, name):
        a = Interpreter(get_workload(name).program).run()
        b = Interpreter(get_workload(name).program).run()
        assert a.output == b.output

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_size_in_budget(self, name):
        r = Interpreter(get_workload(name).program).run()
        assert 20_000 < r.dyn_instructions < 400_000, r.dyn_instructions


def _dynamic_mix(name):
    """Dynamic opcode-category frequencies of a workload."""
    prog = get_workload(name).program
    interp = Interpreter(prog)
    _, visits = interp.run_visits()
    counts = {"mem": 0, "branch": 0, "mul": 0, "total": 0}
    for label in (interp.labels[v] for v in visits):
        for insn in prog.main.block(label).instructions:
            counts["total"] += 1
            if insn.info.is_mem:
                counts["mem"] += 1
            if insn.info.is_branch:
                counts["branch"] += 1
            if insn.opcode is Opcode.MUL:
                counts["mul"] += 1
    return counts


class TestCharacter:
    """The traits the paper's discussion relies on."""

    def test_mcf_is_serial(self):
        """mcf barely speeds up with issue width (paper §IV-B2)."""
        from repro.eval.metrics import ilp_scaling
        from repro.eval import Evaluator
        from repro.pipeline import Scheme

        ev = Evaluator(cache=False)
        scaling = ilp_scaling(ev, "mcf", Scheme.NOED)
        assert scaling[-1] < 1.4

    def test_encoders_multiply_heavy(self):
        mix = _dynamic_mix("cjpeg")
        assert mix["mul"] / mix["total"] > 0.10

    def test_h263enc_branch_dense(self):
        enc = _dynamic_mix("h263enc")
        dec = _dynamic_mix("h263dec")
        assert enc["branch"] / enc["total"] > dec["branch"] / dec["total"]

    def test_parser_branchy(self):
        mix = _dynamic_mix("parser")
        assert mix["branch"] / mix["total"] > 0.10

    def test_h263enc_check_dense_after_ed(self):
        """More branches -> more checks -> denser checking code (§IV-B2)."""
        from repro.passes.base import PassContext
        from repro.passes.error_detection import ErrorDetectionPass

        def check_density(name):
            prog = get_workload(name).program.clone()
            ctx = PassContext()
            ErrorDetectionPass().run(prog, ctx)
            info = ctx.artifacts["error_detection"]
            return info.n_checks / info.n_original

        assert check_density("h263enc") > check_density("cjpeg")

    def test_cjpeg_masks_faults(self):
        """Encoding benchmarks mask more faults (paper §IV-C)."""
        from repro.faults.injector import FaultInjector
        from repro.faults.classify import Outcome

        res = {}
        for name in ("cjpeg", "mcf"):
            inj = FaultInjector(get_workload(name).program)
            res[name] = inj.run_campaign(trials=150, seed=7)
        assert (
            res["cjpeg"].fraction(Outcome.BENIGN)
            > res["mcf"].fraction(Outcome.BENIGN)
        )
