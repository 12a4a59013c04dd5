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

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.ir.interp import Interpreter, resolve_backend
from repro.errors import SimError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.ir.builder import IRBuilder
from repro.ir.program import GlobalArray, Program
from repro.isa.opcodes import LatencyClass
from repro.isa.registers import GP, PR, RegClass
from repro.machine.config import CacheLevelConfig, MachineConfig, itanium2_cache
from repro.pipeline import Scheme, compile_program
from repro.sim.cache import CacheHierarchy
from repro.sim.compiled import _functional_body
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


#: Word addresses of five lines that share L1 set 1 of the Table I cache
#: (64 sets of 8-word lines, 4 ways): one more than a set holds.
_SET1 = {"A": 8, "B": 8 + 512, "C": 8 + 1024, "D": 8 + 1536, "E": 8 + 2048}


def _set_conflict_loop(iterations: int = 20, reread: bool = False) -> Program:
    """A loop that dirties line A by an MRU hit and then evicts it.

    Each iteration loads A, stores to A (an MRU hit: the previous access
    to its set touched A), optionally loads A again (another MRU hit), and
    then walks B A C D E B C D through the same 4-way set: the non-MRU hit
    on A reorders LRU, E evicts B and the second B evicts the dirty A.
    Every address depends on the previous load, and stores order all
    memory operations, so the schedule keeps this access order.
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
    zero = b.movi(0)
    a = b.add(zero, _SET1["A"])
    v = b.load(a)
    b.store(a, b.add(v, 1))
    total = v
    if reread:
        again = b.load(a)
        zero = b.and_(again, 0)
        total = b.add(total, again)
    for line in "BACDEBCD":
        w = b.load(b.add(zero, _SET1[line]))
        zero = b.and_(w, 0)
        total = b.add(total, w)
    b.mov_to(acc, b.add(acc, total))
    b.mov_to(i, b.add(i, 1))
    b.brt(b.cmplt(i, iterations), "loop", "exit")
    b.add_and_enter("exit")
    b.out(acc)
    b.halt(0)
    return Program(f, [GlobalArray("buf", 2600)])


def _counting_access(monkeypatch) -> list[int]:
    """Count :meth:`CacheHierarchy.access` calls from here on."""
    calls = [0]
    access = CacheHierarchy.access

    def counted(self, word_addr, is_store):
        calls[0] += 1
        return access(self, word_addr, is_store)

    monkeypatch.setattr(CacheHierarchy, "access", counted)
    return calls


class TestL1MruFastPath:
    """The trace replay serves L1 hits without a call into the cache model,
    the MRU ones in bulk; ``_run_interp`` calls
    :meth:`CacheHierarchy.access` for every access and is the oracle."""

    def test_dirty_mru_line_evicted_from_its_set_matches_interp(self, monkeypatch):
        machine = MachineConfig(issue_width=1, inter_cluster_delay=1)
        cp = compile_program(
            _set_conflict_loop(reread=True), Scheme.NOED, machine, optimize=False
        )
        ref = VLIWExecutor(cp, backend="interp").run()
        calls = _counting_access(monkeypatch)
        fused = VLIWExecutor(cp, backend="compiled").run()
        # Every SimResult field, the cache's hits, misses, accesses and
        # writebacks included.
        assert fused == ref
        # 11 accesses per iteration.  The load of A misses (the previous
        # iteration evicted A), so the store to A and the load after it
        # are MRU hits.  The store is the first store of its run of hits,
        # so it is replayed in order and dirties A: each eviction of A
        # writes back.  Only the L1 misses call the cache model.
        assert ref.cache.accesses == 220
        assert ref.cache.hits["L1"] > 20
        assert calls[0] == ref.cache.misses["L1"]
        assert ref.cache.writebacks == 20

    def test_slow_or_odd_l1_matches_interp(self):
        """Any L1 geometry and latency: an L1 slower than the scheduled
        load latency (every access stalls, MRU hits included), three ways,
        and 96 sets."""
        for l1 in (
            CacheLevelConfig("L1", 16 * 1024, 64, 4, 2),
            CacheLevelConfig("L1", 12 * 1024, 64, 3, 1),
            CacheLevelConfig("L1", 24 * 1024, 64, 4, 1),
        ):
            cache = replace(itanium2_cache(), levels=(l1, *itanium2_cache().levels[1:]))
            machine = MachineConfig(issue_width=1, cache=cache)
            cp = compile_program(
                _set_conflict_loop(reread=True), Scheme.NOED, machine, optimize=False
            )
            fused = VLIWExecutor(cp, backend="compiled").run()
            assert fused == VLIWExecutor(cp, backend="interp").run()
            if l1.latency > machine.latencies[LatencyClass.LOAD]:
                assert fused.stall_cycles >= fused.cache.accesses


class TestLazyConstruction:
    def test_compiled_executor_builds_no_closures_or_block_tables(self):
        """The compiled backend replays a trace its fused blocks record:
        the embedded interpreter's per-instruction closures and the
        executor's own block tables are built on the first run that reads
        them."""
        cp = _compiled("mcf", Scheme.CASTED)
        ex = VLIWExecutor(cp, backend="compiled")
        result = ex.run()
        assert "_blocks" not in vars(ex)
        assert "_blocks" not in vars(ex._interp)
        assert result == VLIWExecutor(cp, backend="interp").run()
        ex.functional_run()
        assert "_blocks" in vars(ex._interp)

    def test_frame_slot_outside_memory_fails_at_construction(self):
        b = IRBuilder("main")
        b.add_and_enter("entry")
        b.emit(Opcode.STOREFP, srcs=(b.movi(1),), imm=5)
        b.halt(0)
        program = Program(b.function)
        Interpreter(program, mem_words=7)
        with pytest.raises(SimError, match="frame slot 5 outside memory"):
            Interpreter(program, mem_words=6)


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
        ex = VLIWExecutor(cp, backend="compiled")
        ex.run()
        assert "chain" not in vars(ex._interp)
        assert ex.functional_run() == VLIWExecutor(
            cp, backend="interp"
        ).functional_run()
        assert ex._interp.chain is not None


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
    """Fuse a one-instruction block with and without the trace's address
    sink."""
    block = SimpleNamespace(instructions=[insn])
    slot_of = {r: i for i, r in enumerate((*insn.dests, *insn.srcs))}
    return [
        _functional_body(block, slot_of, frame_base=8, mem_words=64, record=record)
        for record in (False, True)
    ]


class TestEveryOpcodeFuses:
    """Every opcode has a generator path, with and without the address
    sink, so no block ever needs a per-instruction fallback."""

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
        for record in (False, True):
            with pytest.raises(SimError, match="cannot fuse"):
                _functional_body(block, {}, frame_base=8, mem_words=64, record=record)
