"""Set-associative write-back cache hierarchy (paper Table I).

Three inclusive-fill levels with LRU replacement plus main memory.  An
access returns its total latency: the latency of the closest level that
hits, or the memory latency on a full miss.  Stores write-allocate and mark
lines dirty; write-back traffic is counted but (as is conventional for
simple timing models) not charged latency — buffers hide it.

The ISA is word-addressed; one word is 8 bytes (``BYTES_PER_WORD``), so the
byte-based Table I geometry is converted on access.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.program import BYTES_PER_WORD
from repro.machine.config import CacheHierarchyConfig, CacheLevelConfig


@dataclass
class CacheStats:
    """Per-level hit/miss counters plus write-back count."""

    hits: dict[str, int] = field(default_factory=dict)
    misses: dict[str, int] = field(default_factory=dict)
    writebacks: int = 0
    accesses: int = 0

    def hit_rate(self, level: str) -> float:
        h = self.hits.get(level, 0)
        m = self.misses.get(level, 0)
        return h / (h + m) if h + m else 0.0

    def metric_items(self, prefix: str = "sim.cache") -> list[tuple[str, int]]:
        """Flatten the counters under telemetry naming (``sim.cache.L1.hits``)."""
        items: list[tuple[str, int]] = [
            (f"{prefix}.accesses", self.accesses),
            (f"{prefix}.writebacks", self.writebacks),
        ]
        items += [(f"{prefix}.{lv}.hits", n) for lv, n in self.hits.items()]
        items += [(f"{prefix}.{lv}.misses", n) for lv, n in self.misses.items()]
        return items


class _Level:
    __slots__ = ("cfg", "sets", "n_sets", "block_bytes")

    def __init__(self, cfg: CacheLevelConfig) -> None:
        self.cfg = cfg
        self.n_sets = cfg.n_sets
        self.block_bytes = cfg.block_bytes
        # Each set maps tag -> dirty flag; dict preserves insertion order,
        # which we maintain as LRU order (oldest first).
        self.sets: list[dict[int, bool]] = [dict() for _ in range(self.n_sets)]

    def lookup(self, block_addr: int) -> bool:
        """True on hit; refreshes LRU position."""
        set_idx = block_addr % self.n_sets
        tag = block_addr // self.n_sets
        s = self.sets[set_idx]
        if tag in s:
            dirty = s.pop(tag)
            s[tag] = dirty  # move to MRU position
            return True
        return False

    def fill(self, block_addr: int, dirty: bool) -> tuple[bool, int | None]:
        """Insert a line; returns (evicted_dirty, evicted_block_addr)."""
        set_idx = block_addr % self.n_sets
        tag = block_addr // self.n_sets
        s = self.sets[set_idx]
        if tag in s:
            s[tag] = s.pop(tag) or dirty
            return (False, None)
        evicted_dirty = False
        evicted_addr: int | None = None
        if len(s) >= self.cfg.associativity:
            old_tag, old_dirty = next(iter(s.items()))
            del s[old_tag]
            evicted_dirty = old_dirty
            evicted_addr = old_tag * self.n_sets + set_idx
        s[tag] = dirty
        return (evicted_dirty, evicted_addr)

    def set_dirty(self, block_addr: int) -> None:
        set_idx = block_addr % self.n_sets
        tag = block_addr // self.n_sets
        s = self.sets[set_idx]
        if tag in s:
            s[tag] = s.pop(tag)
            s[tag] = True

    def flush(self) -> None:
        for s in self.sets:
            s.clear()


class CacheHierarchy:
    """The full L1/L2/L3 + memory stack.

    ``l1_mru`` holds, per L1 set, the block address of the set's most
    recently used line (-1 while the set is empty).  Every :meth:`access`
    leaves its own line there, so an access whose block matches its set's
    entry hits the MRU way: LRU order does not change, and the access
    amounts to one L1 hit (plus, for a store, a dirty bit).  The cycle
    simulator's fused blocks take that shortcut inline and report the
    hits through :meth:`count_l1_hits`.
    """

    def __init__(self, config: CacheHierarchyConfig) -> None:
        self.config = config
        self.levels = [_Level(cfg) for cfg in config.levels]
        self.l1_mru: list[int] = [-1] * self.levels[0].n_sets
        self.stats = CacheStats(
            hits={cfg.name: 0 for cfg in config.levels},
            misses={cfg.name: 0 for cfg in config.levels},
        )

    def reset(self) -> None:
        for level in self.levels:
            level.flush()
        self.l1_mru[:] = [-1] * len(self.l1_mru)
        self.stats = CacheStats(
            hits={lv.cfg.name: 0 for lv in self.levels},
            misses={lv.cfg.name: 0 for lv in self.levels},
        )

    def count_l1_hits(self, n: int) -> None:
        """Count ``n`` L1 hits served outside :meth:`access` (MRU hits)."""
        self.stats.accesses += n
        self.stats.hits[self.levels[0].cfg.name] += n

    def access(self, word_addr: int, is_store: bool) -> int:
        """Access one word; returns total latency in cycles."""
        byte_addr = word_addr * BYTES_PER_WORD
        self.stats.accesses += 1

        hit_idx: int | None = None
        latency = self.config.memory_latency
        for i, level in enumerate(self.levels):
            block_addr = byte_addr // level.block_bytes
            if level.lookup(block_addr):
                self.stats.hits[level.cfg.name] += 1
                hit_idx = i
                latency = level.cfg.latency
                break
            self.stats.misses[level.cfg.name] += 1

        # Fill every level closer than the hit point (or all on full miss).
        fill_until = hit_idx if hit_idx is not None else len(self.levels)
        for i in range(fill_until - 1, -1, -1):
            level = self.levels[i]
            block_addr = byte_addr // level.block_bytes
            evicted_dirty, _ = level.fill(block_addr, dirty=False)
            if evicted_dirty:
                self.stats.writebacks += 1

        l1 = self.levels[0]
        block_addr = byte_addr // l1.block_bytes
        if is_store:
            # Write-allocate, write-back: dirty the line in the closest level.
            l1.set_dirty(block_addr)
        self.l1_mru[block_addr % l1.n_sets] = block_addr
        return latency
