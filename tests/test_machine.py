import pytest

from repro.errors import MachineConfigError
from repro.isa.opcodes import LatencyClass, Opcode
from repro.machine.config import (
    CacheHierarchyConfig,
    CacheLevelConfig,
    MachineConfig,
    itanium2_cache,
    paper_machine,
)


class TestCacheConfig:
    def test_table1_geometry(self):
        cache = itanium2_cache()
        l1, l2, l3 = cache.levels
        assert (l1.size_bytes, l1.block_bytes, l1.associativity, l1.latency) == (
            16 * 1024, 64, 4, 1,
        )
        assert (l2.size_bytes, l2.block_bytes, l2.associativity, l2.latency) == (
            256 * 1024, 128, 8, 5,
        )
        assert (l3.size_bytes, l3.block_bytes, l3.associativity, l3.latency) == (
            3 * 1024 * 1024, 128, 12, 12,
        )
        assert cache.memory_latency == 150

    def test_n_sets(self):
        l1 = itanium2_cache().levels[0]
        assert l1.n_sets == 16 * 1024 // (64 * 4)

    def test_bad_geometry(self):
        with pytest.raises(MachineConfigError):
            CacheLevelConfig("x", 1000, 64, 4, 1)  # size not multiple
        with pytest.raises(MachineConfigError):
            CacheLevelConfig("x", 0, 64, 4, 1)

    def test_latencies_must_increase(self):
        l1 = CacheLevelConfig("L1", 1024, 64, 4, 5)
        l2 = CacheLevelConfig("L2", 4096, 64, 4, 5)
        with pytest.raises(MachineConfigError):
            CacheHierarchyConfig(levels=(l1, l2))

    def test_memory_latency_check(self):
        l1 = CacheLevelConfig("L1", 1024, 64, 4, 5)
        with pytest.raises(MachineConfigError):
            CacheHierarchyConfig(levels=(l1,), memory_latency=3)


class TestMachineConfig:
    def test_paper_defaults(self):
        m = paper_machine()
        assert m.n_clusters == 2
        assert m.gp_per_cluster == 64
        assert m.pr_per_cluster == 32

    def test_latency_of(self):
        m = paper_machine()
        assert m.latency_of(Opcode.ADD) == 1
        assert m.latency_of(Opcode.MUL) == 3
        assert m.latency_of(Opcode.DIV) == 12
        assert m.latency_of(Opcode.LOAD) == 1

    def test_with_(self):
        m = paper_machine().with_(issue_width=4)
        assert m.issue_width == 4
        assert m.inter_cluster_delay == paper_machine().inter_cluster_delay

    def test_validation(self):
        with pytest.raises(MachineConfigError):
            MachineConfig(issue_width=0)
        with pytest.raises(MachineConfigError):
            MachineConfig(inter_cluster_delay=-1)
        with pytest.raises(MachineConfigError):
            MachineConfig(n_clusters=0)
        with pytest.raises(MachineConfigError):
            MachineConfig(latencies={LatencyClass.FAST: 1})  # missing classes

    def test_describe_mentions_cache(self):
        text = paper_machine().describe()
        assert "L1" in text and "150" in text
