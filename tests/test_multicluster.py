"""CASTED on more than two clusters (the paper's "wide range of core
counts" contribution; its evaluation fixes 2, ours generalizes)."""

import functools

import pytest

from repro.errors import PassError
from repro.ir.interp import Interpreter
from repro.machine.config import MachineConfig
from repro.passes.schedule_check import validate_compiled
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.workloads import get_workload
from tests.conftest import build_loop_program


@functools.cache
def _casted_cycles(workload: str, n_clusters: int) -> int:
    machine = MachineConfig(
        n_clusters=n_clusters, issue_width=1, inter_cluster_delay=1
    )
    cp = compile_program(get_workload(workload).program, Scheme.CASTED, machine)
    return VLIWExecutor(cp).run().cycles


@pytest.mark.parametrize("n_clusters", [1, 2, 3, 4])
class TestClusterCounts:
    def test_noed_sced_any_cluster_count(self, n_clusters):
        machine = MachineConfig(
            n_clusters=n_clusters, issue_width=2, inter_cluster_delay=1
        )
        golden = Interpreter(build_loop_program()).run()
        for scheme in (Scheme.NOED, Scheme.SCED):
            cp = compile_program(build_loop_program(), scheme, machine)
            validate_compiled(cp.program, cp.schedules, machine)
            assert VLIWExecutor(cp).run().output == golden.output

    def test_casted_any_cluster_count(self, n_clusters):
        machine = MachineConfig(
            n_clusters=n_clusters, issue_width=1, inter_cluster_delay=1
        )
        if n_clusters < 2:
            with pytest.raises(PassError, match="needs at least 2 clusters"):
                compile_program(build_loop_program(), Scheme.CASTED, machine)
            return
        golden = Interpreter(build_loop_program()).run()
        cp = compile_program(build_loop_program(), Scheme.CASTED, machine)
        validate_compiled(cp.program, cp.schedules, machine)
        assert VLIWExecutor(cp).run().output == golden.output


class TestScalingBehaviour:
    def test_casted_uses_extra_clusters_when_starved(self):
        # With measured block weights the mixed placement wins the safety
        # net and spreads over all four clusters; the static loop-depth
        # proxy is too coarse to guarantee that on this workload.
        from repro.pipeline import collect_block_profile

        prog = get_workload("h263enc").program
        machine = MachineConfig(
            n_clusters=4, issue_width=1, inter_cluster_delay=1
        )
        cp = compile_program(
            prog, Scheme.CASTED, machine,
            block_profile=collect_block_profile(prog),
        )
        used = {
            i.cluster for _, _, i in cp.program.main.all_instructions()
        }
        assert len(used) >= 3

    @pytest.mark.parametrize("n_clusters", [3, 4])
    @pytest.mark.parametrize("workload", ["h263enc", "mcf"])
    def test_more_clusters_never_hurt_much(self, workload, n_clusters):
        """Extra clusters are opt-in resources: cycles should not regress
        beyond greedy noise."""
        assert _casted_cycles(workload, n_clusters) <= (
            _casted_cycles(workload, 2) * 1.05
        )

    def test_dced_stays_dual_core(self):
        machine = MachineConfig(
            n_clusters=4, issue_width=1, inter_cluster_delay=1
        )
        cp = compile_program(build_loop_program(), Scheme.DCED, machine)
        used = {i.cluster for _, _, i in cp.program.main.all_instructions()}
        assert used == {0, 1}  # it is a dual-core technique by definition
