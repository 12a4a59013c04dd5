"""The shared edge pricing model (BUG and the scheduler must agree)."""

import pytest

from repro.errors import ScheduleError
from repro.ir.dfg import DepKind, Edge
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import GP, PR
from repro.machine.config import MachineConfig
from repro.passes.latency import edge_issue_latency, same_cluster_edge_latency


@pytest.fixture
def machine():
    return MachineConfig(issue_width=2, inter_cluster_delay=3)


def _edge(kind):
    return Edge(0, 1, kind, GP(0) if kind is DepKind.DATA else None)


def add():
    return Instruction(Opcode.ADD, dests=(GP(0),), srcs=(GP(1), GP(2)))


def mul():
    return Instruction(Opcode.MUL, dests=(GP(0),), srcs=(GP(1), GP(2)))


class TestDataEdges:
    def test_same_cluster_is_producer_latency(self, machine):
        assert edge_issue_latency(
            _edge(DepKind.DATA), add(), machine, src_cluster=0, dst_cluster=0
        ) == 1
        assert edge_issue_latency(
            _edge(DepKind.DATA), mul(), machine, src_cluster=1, dst_cluster=1
        ) == 3

    def test_cross_cluster_adds_delay(self, machine):
        assert edge_issue_latency(
            _edge(DepKind.DATA), add(), machine, src_cluster=0, dst_cluster=1
        ) == 1 + 3
        assert edge_issue_latency(
            _edge(DepKind.DATA), mul(), machine, src_cluster=1, dst_cluster=0
        ) == 3 + 3

    def test_missing_clusters_rejected(self, machine):
        with pytest.raises(ScheduleError):
            edge_issue_latency(_edge(DepKind.DATA), add(), machine)


class TestOtherKinds:
    def test_anti_is_free(self, machine):
        assert edge_issue_latency(
            _edge(DepKind.ANTI), add(), machine, src_cluster=0, dst_cluster=1
        ) == 0

    def test_output_is_producer_latency(self, machine):
        assert edge_issue_latency(
            _edge(DepKind.OUTPUT), mul(), machine, src_cluster=0, dst_cluster=1
        ) == 3

    def test_mem_after_store_is_one(self, machine):
        store = Instruction(Opcode.STORE, srcs=(GP(0), GP(1)), imm=0)
        assert edge_issue_latency(
            _edge(DepKind.MEM), store, machine, src_cluster=0, dst_cluster=0
        ) == 1

    def test_mem_after_load_is_free(self, machine):
        load = Instruction(Opcode.LOAD, dests=(GP(0),), srcs=(GP(1),), imm=0)
        assert edge_issue_latency(
            _edge(DepKind.MEM), load, machine, src_cluster=0, dst_cluster=0
        ) == 0

    def test_ctrl_after_check_branch_is_one(self, machine):
        chk = Instruction(
            Opcode.CHKBR, srcs=(PR(0),), targets=("__detect__",)
        )
        assert edge_issue_latency(
            _edge(DepKind.CTRL), chk, machine, src_cluster=0, dst_cluster=0
        ) == 1

    def test_ctrl_terminator_barrier_uses_full_latency(self, machine):
        assert edge_issue_latency(
            _edge(DepKind.CTRL), mul(), machine, src_cluster=0, dst_cluster=0
        ) == 3


class TestSameClusterShortcut:
    def test_matches_zero_delay_pricing(self, machine):
        for kind in (DepKind.DATA, DepKind.ANTI, DepKind.OUTPUT, DepKind.CTRL):
            assert same_cluster_edge_latency(
                _edge(kind), mul(), machine
            ) == edge_issue_latency(
                _edge(kind), mul(), machine, src_cluster=0, dst_cluster=0
            )

    def test_ignores_delay(self):
        fast = MachineConfig(issue_width=1, inter_cluster_delay=0)
        slow = MachineConfig(issue_width=1, inter_cluster_delay=4)
        assert same_cluster_edge_latency(
            _edge(DepKind.DATA), add(), fast
        ) == same_cluster_edge_latency(_edge(DepKind.DATA), add(), slow)
