"""Differential equivalence of the compiled (fused-superblock) backend.

The compiled backend is pure mechanism — generated Python per basic block —
so its only correctness story is *bit-identical equality* with the
per-instruction closure interpreter it replaces.  These tests pin that
equality at both semantic levels (functional RunResult, cycle-level
SimResult) across every workload x scheme combination, plus the telemetry
surfaces the backend adds (decode-cache counters, per-block issue
attribution).  Random-program differential coverage lives in
``test_fuzz_differential.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.ir.interp import Interpreter, resolve_backend
from repro.errors import SimError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import GP, PR, RegClass
from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.sim.compiled import _functional_body, _timed_body
from repro.sim.executor import VLIWExecutor
from repro.workloads import get_workload, workload_names

MACHINE = MachineConfig(issue_width=2, inter_cluster_delay=2)


def _compiled(workload: str, scheme: Scheme):
    return compile_program(get_workload(workload).program, scheme, MACHINE)


class TestBackendResolution:
    def test_default_is_compiled(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        assert resolve_backend() == "compiled"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "interp")
        assert resolve_backend() == "interp"
        # an explicit argument beats the environment
        assert resolve_backend("compiled") == "compiled"

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimError, match="unknown sim backend"):
            resolve_backend("turbo")

    def test_executor_reports_backend(self):
        cp = _compiled("mcf", Scheme.NOED)
        assert VLIWExecutor(cp, backend="compiled").backend == "compiled"
        assert VLIWExecutor(cp, backend="interp").backend == "interp"


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("workload", workload_names())
    def test_frontend_runresults_identical(self, workload):
        program = get_workload(workload).program
        ref, ref_visits = Interpreter(program, backend="interp").run_visits()
        fused, fused_visits = Interpreter(program, backend="compiled").run_visits()
        assert fused == ref  # kind, exit code, output, dyn count
        assert np.array_equal(fused_visits, ref_visits)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_protected_runresults_identical(self, scheme):
        cp = _compiled("parser", scheme)
        kwargs = dict(mem_words=cp.mem_words, frame_words=cp.frame_words)
        ref = Interpreter(cp.program, backend="interp", **kwargs).run()
        fused = Interpreter(cp.program, backend="compiled", **kwargs).run()
        assert fused == ref


class TestTimedEquivalence:
    @pytest.mark.parametrize("workload", workload_names())
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_simresults_identical(self, workload, scheme):
        cp = _compiled(workload, scheme)
        ref = VLIWExecutor(cp, backend="interp").run()
        fused = VLIWExecutor(cp, backend="compiled").run()
        # Full dataclass equality: exit kind, exit code, output, cycles,
        # dyn instructions, stall cycles, block visits, cache stats.
        assert fused == ref

    def test_mlp_ablation_config_identical(self):
        cp = _compiled("mcf", Scheme.CASTED)
        ref = VLIWExecutor(cp, backend="interp", overlap_misses=False).run()
        fused = VLIWExecutor(cp, backend="compiled", overlap_misses=False).run()
        assert fused == ref

    def test_issue_attribution_identical(self):
        """Telemetry counters (incl. per-cluster issue attribution) match."""
        cp = _compiled("parser", Scheme.CASTED)

        def counters(backend: str) -> dict:
            tel = obs.configure()
            try:
                VLIWExecutor(cp, backend=backend).run()
                return {
                    k: v for k, v in tel.metrics.counters.items()
                    if k.startswith(("sim.issue.", "sim.stalls.", "sim.cycles",
                                     "sim.dyn", "sim.block"))
                }
            finally:
                obs.reset()

        assert counters("compiled") == counters("interp")


class TestDecodeCache:
    def test_repeat_construction_hits_cache(self):
        program = get_workload("mcf").program
        Interpreter(program, backend="compiled").chain  # cache the blocks
        tel = obs.configure()
        try:
            Interpreter(program, backend="compiled").chain
            hits = tel.metrics.counters.get("sim.decode_cache.hits", 0)
            misses = tel.metrics.counters.get("sim.decode_cache.misses", 0)
        finally:
            obs.reset()
        assert hits > 0
        assert misses == 0

    def test_functional_superblocks_fuse_on_first_use(self):
        """A cycle-level executor never fuses the functional superblocks
        of its embedded interpreter unless a functional run needs them."""
        cp = _compiled("mcf", Scheme.CASTED)
        tel = obs.configure()
        try:
            ex = VLIWExecutor(cp, backend="compiled")
            ex.run()
            assert tel.metrics.counters.get("sim.fuse_cache.misses", 0) == 0
            assert tel.metrics.counters.get("sim.fuse_cache.hits", 0) == 0
            assert ex.functional_run() == VLIWExecutor(
                cp, backend="interp"
            ).functional_run()
            assert ex._interp.chain is not None
        finally:
            obs.reset()


def _one_of(op: Opcode) -> Instruction:
    """A well-formed instruction of ``op`` over fresh registers."""
    info = op.info
    make = {RegClass.GP: GP, RegClass.PR: PR}
    srcs = tuple(make[rc](i) for i, rc in enumerate(info.in_classes))
    dests = (make[info.out_class](9),) if info.out_class is not None else ()
    n_targets = info.n_targets + (1 if info.is_side_exit else 0)
    return Instruction(
        op, dests=dests, srcs=srcs, imm=1 if info.needs_imm else None,
        targets=tuple(f"b{i}" for i in range(n_targets)),
    )


def _emit_both(insn) -> list[list[str]]:
    """Fuse a one-instruction block on the functional and timed emitters."""
    block = SimpleNamespace(instructions=[insn])
    slot_of = {r: i for i, r in enumerate((*insn.dests, *insn.srcs))}
    return [
        _functional_body(block, slot_of, frame_base=8, mem_words=64),
        _timed_body(
            block, [0], [0], slot_of, frame_base=8, mem_words=64,
            lat_load=2, lat_store=1, overlap=True,
        ),
    ]


class TestEveryOpcodeFuses:
    """Every opcode has a generator path on both emitters, so no block
    ever needs a per-instruction fallback."""

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
    def test_one_instruction_of_each_opcode_fuses(self, op):
        for body in _emit_both(_one_of(op)):
            source = "def _block():\n" + "".join(
                f"    {line}\n" for line in [*body, "return None"]
            )
            compile(source, "<fused>", "exec")

    def test_unknown_opcode_raises_simerror(self):
        bogus = SimpleNamespace(opcode="bogus", dests=(), srcs=(), imm=None)
        block = SimpleNamespace(instructions=[bogus])
        with pytest.raises(SimError, match="cannot fuse"):
            _functional_body(block, {}, frame_base=8, mem_words=64)
        with pytest.raises(SimError, match="cannot fuse"):
            _timed_body(
                block, [0], [0], {}, frame_base=8, mem_words=64,
                lat_load=2, lat_store=1, overlap=True,
            )
