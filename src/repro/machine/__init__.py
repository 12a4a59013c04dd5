"""Target-machine description: clusters, latencies, caches, issue resources."""

from repro.machine.config import (
    CacheLevelConfig,
    CacheHierarchyConfig,
    MachineConfig,
    itanium2_cache,
    paper_machine,
)

__all__ = [
    "MachineConfig",
    "CacheLevelConfig",
    "CacheHierarchyConfig",
    "itanium2_cache",
    "paper_machine",
]
