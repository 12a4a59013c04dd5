"""Differential fuzzing of the whole pipeline.

Hypothesis generates random (but always well-formed) minic programs; each
one must behave *identically* under

* the sequential reference interpreter on front-end IR (golden),
* the full pipeline (optimizations -> error detection -> assignment ->
  regalloc -> scheduling) for every scheme, executed both by the reference
  interpreter and by the cycle-level VLIW executor.

Any divergence pinpoints a mis-compilation in some pass combination; the
schedule validator additionally checks every produced schedule.  This is
the single highest-leverage test in the suite: it has no opinion about
*what* the programs compute, only that protection must never change it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.frontend import compile_source
from repro.ir.interp import ExitKind, Interpreter
from repro.machine.config import MachineConfig
from repro.passes.schedule_check import validate_compiled
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor

# ---------------------------------------------------------------------------
# Random program generation.
#
# Programs draw from a fixed set of scalar variables (a..f), one global
# array, arithmetic that cannot trap unexpectedly (division is by a non-zero
# constant), bounded loops (the loop variable is reserved and always
# terminates), and library calls.  Every generated program halts.
# ---------------------------------------------------------------------------

_VARS = ["va", "vb", "vc", "vd"]
_ARRAY_SIZE = 16


@st.composite
def _expr(draw, depth: int) -> str:
    choices = ["lit", "var", "arr"]
    if depth < 2:
        choices += ["bin", "bin", "cmp", "call", "unary"]
    kind = draw(st.sampled_from(choices))
    if kind == "lit":
        return str(draw(st.integers(-64, 64)))
    if kind == "var":
        return draw(st.sampled_from(_VARS))
    if kind == "arr":
        idx = draw(_expr(depth + 1))
        return f"arr[({idx}) & {_ARRAY_SIZE - 1}]"
    if kind == "unary":
        op = draw(st.sampled_from(["-", "~", "!"]))
        return f"{op}({draw(_expr(depth + 1))})"
    if kind == "cmp":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        return f"(({draw(_expr(depth + 1))}) {op} ({draw(_expr(depth + 1))}))"
    if kind == "call":
        return f"mix({draw(_expr(depth + 1))})"
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "%", "/", ">>", "<<"]))
    left = draw(_expr(depth + 1))
    if op in ("%", "/"):
        return f"(({left}) {op} {draw(st.integers(1, 9))})"
    if op in (">>", "<<"):
        return f"(({left}) {op} {draw(st.integers(0, 7))})"
    return f"(({left}) {op} ({draw(_expr(depth + 1))}))"


@st.composite
def _stmt(draw, depth: int, loop_id: list[int]) -> str:
    choices = ["assign", "assign", "store", "out"]
    if depth < 2:
        choices += ["if", "loop"]
    kind = draw(st.sampled_from(choices))
    pad = "    " * (depth + 1)
    if kind == "assign":
        var = draw(st.sampled_from(_VARS))
        return f"{pad}{var} = {draw(_expr(0))};"
    if kind == "store":
        idx = draw(_expr(1))
        return f"{pad}arr[({idx}) & {_ARRAY_SIZE - 1}] = {draw(_expr(0))};"
    if kind == "out":
        return f"{pad}out({draw(_expr(0))});"
    if kind == "if":
        cond = draw(_expr(0))
        body = draw(_block(depth + 1, loop_id))
        if draw(st.booleans()):
            other = draw(_block(depth + 1, loop_id))
            return f"{pad}if ({cond}) {{\n{body}\n{pad}}} else {{\n{other}\n{pad}}}"
        return f"{pad}if ({cond}) {{\n{body}\n{pad}}}"
    # bounded loop with a reserved, monotone induction variable
    loop_id[0] += 1
    iv = f"it{loop_id[0]}"
    n = draw(st.integers(1, 6))
    body = draw(_block(depth + 1, loop_id))
    return (
        f"{pad}for (var {iv} = 0; {iv} < {n}; {iv} = {iv} + 1) {{\n"
        f"{body}\n{pad}}}"
    )


@st.composite
def _block(draw, depth: int, loop_id: list[int]) -> str:
    n = draw(st.integers(1, 3 if depth else 5))
    return "\n".join(draw(_stmt(depth, loop_id)) for _ in range(n))


@st.composite
def minic_programs(draw) -> str:
    loop_id = [0]
    body = draw(_block(0, loop_id))
    decls = "\n".join(f"    var {v} = {draw(st.integers(-20, 20))};" for v in _VARS)
    return f"""
global arr[{_ARRAY_SIZE}] = {{ 3, 1, 4, 1, 5, 9, 2, 6 }};
lib func mix(x) {{
    return x * 1103515245 + 12345;
}}
func main() {{
{decls}
{body}
    out(va + vb);
    out(vc ^ vd);
    return 0;
}}
"""


MACHINES = [
    MachineConfig(issue_width=1, inter_cluster_delay=1),
    MachineConfig(issue_width=2, inter_cluster_delay=3),
]


class TestDifferentialFuzz:
    @given(minic_programs())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_all_schemes_agree_with_golden(self, source):
        program = compile_source(source)
        golden = Interpreter(program).run(max_steps=2_000_000)
        assert golden.kind in (ExitKind.OK, ExitKind.EXCEPTION)
        machine = MACHINES[len(source) % len(MACHINES)]
        for scheme in Scheme:
            cp = compile_program(program, scheme, machine)
            validate_compiled(cp.program, cp.schedules, machine)
            ref = Interpreter(
                cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
            ).run(max_steps=4_000_000)
            assert ref.kind is golden.kind, (scheme, ref.trap)
            if golden.kind is ExitKind.OK:
                assert ref.output == golden.output, scheme
                assert ref.exit_code == golden.exit_code, scheme
                sim = VLIWExecutor(cp).run()
                assert sim.output == golden.output, scheme
                assert sim.kind is ExitKind.OK, scheme

    @given(minic_programs())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_tiny_register_files_still_correct(self, source):
        """Heavy spilling must never change behaviour."""
        from repro.errors import PassError

        program = compile_source(source)
        golden = Interpreter(program).run(max_steps=2_000_000)
        if golden.kind is not ExitKind.OK:
            return
        machine = MachineConfig(
            issue_width=2, inter_cluster_delay=1, gp_per_cluster=8, pr_per_cluster=6
        )
        try:
            cp = compile_program(program, Scheme.SCED, machine)
        except PassError as exc:
            # PR spilling is documented as unsupported: a branch-heavy
            # program can legitimately exhaust a 6-entry predicate file.
            # The property under test is about *GP* spilling.
            if "predicate register pressure" in str(exc):
                return
            raise
        sim = VLIWExecutor(cp).run()
        assert sim.output == golden.output

    @given(minic_programs())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_compiled_backend_agrees_with_interpreter(self, source):
        """The fused-superblock backend is bit-identical to the closure
        interpreter — functionally on front-end IR and cycle-exactly on a
        protected, scheduled binary."""
        program = compile_source(source)
        ref, ref_visits = Interpreter(program, backend="interp").run_visits(
            max_steps=2_000_000
        )
        fused, fused_visits = Interpreter(program, backend="compiled").run_visits(
            max_steps=2_000_000
        )
        assert fused == ref
        assert np.array_equal(fused_visits, ref_visits)
        if ref.kind is not ExitKind.OK:
            return
        machine = MACHINES[len(source) % len(MACHINES)]
        cp = compile_program(program, Scheme.CASTED, machine)
        sim_ref = VLIWExecutor(cp, backend="interp").run()
        sim_fused = VLIWExecutor(cp, backend="compiled").run()
        assert sim_fused == sim_ref

    @given(minic_programs(), st.integers(0, 2**32))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_checkpointed_campaigns_match_replay_on_fuzzed_programs(
        self, source, seed
    ):
        """Compiled-engine campaigns are bit-identical to the interp oracle's
        replay-from-zero, whatever the program shape (snapshots forced on
        even for tiny programs: about eight per golden run)."""
        from repro.faults import injector as injector_mod
        from repro.faults.injector import FaultInjector

        program = compile_source(source)
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        cp = compile_program(program, Scheme.CASTED, machine)
        golden = Interpreter(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
        ).run(max_steps=2_000_000)
        if golden.kind is not ExitKind.OK:
            return
        plain = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
            backend="interp",
        )
        saved = injector_mod.SNAPSHOT_INTERVAL
        injector_mod.SNAPSHOT_INTERVAL = max(1, golden.dyn_instructions // 8)
        try:
            ckpt = FaultInjector(
                cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words,
                backend="compiled",
            )
        finally:
            injector_mod.SNAPSHOT_INTERVAL = saved
        a = plain.run_campaign(trials=6, seed=seed)
        b = ckpt.run_campaign(trials=6, seed=seed)
        assert (a.counts, a.total_faults_injected, a.detection_latency_sum) == (
            b.counts, b.total_faults_injected, b.detection_latency_sum
        )

    @given(minic_programs(), st.integers(0, 2**32))
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_single_fault_never_escapes_undetected_to_wrong_exit(self, source, seed):
        """A protected binary's fault outcomes stay within the taxonomy and
        campaigns never crash, whatever the program shape."""
        from repro.faults.injector import FaultInjector

        program = compile_source(source)
        machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
        cp = compile_program(program, Scheme.CASTED, machine)
        golden = Interpreter(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
        ).run(max_steps=2_000_000)
        if golden.kind is not ExitKind.OK:
            return
        injector = FaultInjector(
            cp.program, mem_words=cp.mem_words, frame_words=cp.frame_words
        )
        res = injector.run_campaign(trials=5, seed=seed)
        assert sum(res.counts.values()) == 5
