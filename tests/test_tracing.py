"""Issue-trace tool."""

import pytest

from repro.machine.config import MachineConfig
from repro.pipeline import Scheme, compile_program
from repro.sim.executor import VLIWExecutor
from repro.sim.tracing import issue_trace, render_issue_trace
from tests.conftest import build_loop_program


@pytest.fixture(scope="module")
def compiled():
    machine = MachineConfig(issue_width=2, inter_cluster_delay=1)
    return compile_program(build_loop_program(3), Scheme.DCED, machine)


class TestIssueTrace:
    def test_monotone_cycles(self, compiled):
        records = list(issue_trace(compiled))
        cycles = [r.cycle for r in records]
        assert cycles == sorted(cycles)

    def test_counts_match_execution(self, compiled):
        records = list(issue_trace(compiled))
        sim = VLIWExecutor(compiled).run()
        assert len(records) == sim.dyn_instructions

    def test_final_cycle_matches_compute_time(self, compiled):
        records = list(issue_trace(compiled))
        sim = VLIWExecutor(compiled).run()
        assert records[-1].cycle == sim.cycles - sim.stall_cycles - 1

    def test_slot_capacity_respected(self, compiled):
        from collections import Counter

        per_cell = Counter(
            (r.cycle, r.cluster) for r in issue_trace(compiled)
        )
        width = compiled.machine.issue_width
        assert all(v <= width for v in per_cell.values())

    def test_max_records(self, compiled):
        assert len(list(issue_trace(compiled, max_records=5))) == 5

    def test_zero_max_records_yields_nothing(self, compiled):
        assert list(issue_trace(compiled, max_records=0)) == []

    def test_roles_present(self, compiled):
        roles = {r.role for r in issue_trace(compiled)}
        assert {"orig", "dup", "check"} <= roles


class TestRendering:
    def test_render(self, compiled):
        text = render_issue_trace(compiled, max_records=12)
        lines = text.splitlines()
        assert len(lines) == 13  # header + 12 records
        assert "cycle" in lines[0]
        assert "entry" in text
