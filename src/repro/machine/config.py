"""Machine configuration (the paper's Table I).

The target is a 2-cluster lockstep VLIW with configurable per-cluster issue
width and inter-cluster register-access delay, a per-cluster register file of
64 GP + 32 PR (the 64 FP registers are unused by the integer workloads), and
the Itanium2 three-level cache hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import MachineConfigError
from repro.isa.opcodes import LatencyClass, Opcode


@dataclass(frozen=True)
class CacheLevelConfig:
    """One cache level; sizes in bytes, latency in cycles (total at hit)."""

    name: str
    size_bytes: int
    block_bytes: int
    associativity: int
    latency: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.block_bytes <= 0 or self.associativity <= 0:
            raise MachineConfigError(f"non-positive geometry in {self.name}")
        if self.size_bytes % (self.block_bytes * self.associativity):
            raise MachineConfigError(
                f"{self.name}: size must be a multiple of block*assoc"
            )
        if self.latency <= 0:
            raise MachineConfigError(f"{self.name}: latency must be positive")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.block_bytes * self.associativity)


@dataclass(frozen=True)
class CacheHierarchyConfig:
    """Ordered levels (closest first) plus main-memory latency."""

    levels: tuple[CacheLevelConfig, ...]
    memory_latency: int = 150

    def __post_init__(self) -> None:
        if not self.levels:
            raise MachineConfigError("at least one cache level required")
        for near, far in zip(self.levels, self.levels[1:]):
            if far.latency <= near.latency:
                raise MachineConfigError("cache latencies must increase outward")
        if self.memory_latency <= self.levels[-1].latency:
            raise MachineConfigError("memory latency must exceed last-level cache")


def itanium2_cache() -> CacheHierarchyConfig:
    """Table I: 16K/64B/4-way/1c, 256K/128B/8-way/5c, 3M/128B/12-way/12c, 150c."""
    return CacheHierarchyConfig(
        levels=(
            CacheLevelConfig("L1", 16 * 1024, 64, 4, 1),
            CacheLevelConfig("L2", 256 * 1024, 128, 8, 5),
            CacheLevelConfig("L3", 3 * 1024 * 1024, 128, 12, 12),
        ),
        memory_latency=150,
    )


#: Default cycles for each latency class.  LOAD equals the L1 hit latency;
#: anything slower is charged dynamically by the cache model.
DEFAULT_LATENCIES: dict[LatencyClass, int] = {
    LatencyClass.FAST: 1,
    LatencyClass.MUL: 3,
    LatencyClass.DIV: 12,
    LatencyClass.LOAD: 1,
    LatencyClass.STORE: 1,
    LatencyClass.BRANCH: 1,
}


@dataclass(frozen=True)
class MachineConfig:
    """Full processor configuration.

    ``issue_width`` is *per cluster* and ``inter_cluster_delay`` is the extra
    latency of reading the other cluster's register file — the two knobs the
    paper sweeps (1-4 each).
    """

    n_clusters: int = 2
    issue_width: int = 2
    inter_cluster_delay: int = 1
    gp_per_cluster: int = 64
    pr_per_cluster: int = 32
    latencies: dict[LatencyClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCIES)
    )
    cache: CacheHierarchyConfig = field(default_factory=itanium2_cache)

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise MachineConfigError("need at least one cluster")
        if self.issue_width < 1:
            raise MachineConfigError("issue width must be >= 1")
        if self.inter_cluster_delay < 0:
            raise MachineConfigError("inter-cluster delay must be >= 0")
        if self.gp_per_cluster < 2 or self.pr_per_cluster < 2:
            raise MachineConfigError("register files unrealistically small")
        missing = set(LatencyClass) - set(self.latencies)
        if missing:
            raise MachineConfigError(f"latencies missing for {sorted(missing, key=str)}")
        for lc, cycles in self.latencies.items():
            if cycles < 1:
                raise MachineConfigError(f"latency of {lc} must be >= 1")

    # -- queries ---------------------------------------------------------------
    def latency_of(self, opcode: Opcode) -> int:
        """Static (best-case) latency in cycles of ``opcode``."""
        return self.latencies[opcode.info.latency]

    def with_(self, **changes) -> "MachineConfig":
        """Functional update (sweeps mutate issue width / delay a lot)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Human-readable summary (used by the Table I bench)."""
        lines = [
            f"clusters:            {self.n_clusters}",
            f"issue width/cluster: {self.issue_width}",
            f"inter-cluster delay: {self.inter_cluster_delay}",
            f"registers/cluster:   {self.gp_per_cluster} GP, {self.pr_per_cluster} PR",
        ]
        for lvl in self.cache.levels:
            lines.append(
                f"{lvl.name}: {lvl.size_bytes // 1024}KB, {lvl.block_bytes}B blocks, "
                f"{lvl.associativity}-way, {lvl.latency} cycles"
            )
        lines.append(f"memory latency:      {self.cache.memory_latency} cycles")
        return "\n".join(lines)


def paper_machine(issue_width: int = 2, delay: int = 1) -> MachineConfig:
    """The configuration family evaluated in the paper (Figs. 6-10)."""
    return MachineConfig(
        n_clusters=2, issue_width=issue_width, inter_cluster_delay=delay
    )
