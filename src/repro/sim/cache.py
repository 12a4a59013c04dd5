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

import numpy as np
import numpy.typing as npt

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
    """The full L1/L2/L3 + memory stack."""

    def __init__(self, config: CacheHierarchyConfig) -> None:
        self.config = config
        self.levels = [_Level(cfg) for cfg in config.levels]
        self.stats = CacheStats(
            hits={cfg.name: 0 for cfg in config.levels},
            misses={cfg.name: 0 for cfg in config.levels},
        )

    def reset(self) -> None:
        if self.stats.accesses:  # otherwise every level is still empty
            for level in self.levels:
                level.flush()
        self.stats = CacheStats(
            hits={lv.cfg.name: 0 for lv in self.levels},
            misses={lv.cfg.name: 0 for lv in self.levels},
        )

    def _by_l1_set(
        self, word_addrs: npt.NDArray[np.int64]
    ) -> tuple[npt.NDArray[np.intp], npt.NDArray[np.bool_]]:
        """The stream's order grouped by L1 set (stream order within a
        set), and which accesses in that order are L1 MRU hits."""
        l1 = self.levels[0]
        blocks = word_addrs * BYTES_PER_WORD // l1.block_bytes
        sets = blocks % l1.n_sets
        order = np.argsort(sets, kind="stable")
        block = blocks[order]
        # Equal blocks share a set, so an equal neighbour is in the same set.
        hit = np.zeros(len(order), dtype=bool)
        hit[1:] = block[1:] == block[:-1]
        return order, hit

    def l1_mru_hits(self, word_addrs: npt.NDArray[np.int64]) -> npt.NDArray[np.bool_]:
        """Which accesses of the stream ``word_addrs`` hit the MRU line of
        their L1 set: those whose previous access to the same set, within
        the stream, touched the same L1 block.

        Every access leaves its line most recently used in its L1 set (a
        hit moves it there, a fill puts it there), so such an access is an
        L1 hit that changes no LRU order.  The first access to a set in the
        stream is never counted, whatever the cache holds.
        """
        order, hit = self._by_l1_set(word_addrs)
        mru = np.empty_like(hit)
        mru[order] = hit
        return mru

    def replay(
        self, word_addrs: npt.NDArray[np.int64], stores: npt.NDArray[np.bool_]
    ) -> npt.NDArray[np.int64]:
        """Access each word of ``word_addrs`` in order (``stores`` marks the
        stores) and return every access's latency.

        The state and statistics end exactly as from one :meth:`access`
        per word, but no L1 hit makes that call.  The L1 MRU hits
        (:meth:`l1_mru_hits`) are found for the whole stream at once: they
        cost the L1 latency, change nothing and are counted in bulk.  A
        store among them must still dirty its line, so in each run of MRU
        hits (the hits that follow one non-MRU access of their set) the
        first store joins the other accesses, unless the access that led
        the run was a store.  Those go through the cache in order; an L1
        hit among them moves its line to the MRU way and a store dirties
        it, as :meth:`access` would, and anything else calls it.
        """
        n = len(word_addrs)
        order, hit = self._by_l1_set(word_addrs)
        stored = stores[order]
        dirtying = np.flatnonzero(hit & stored)
        if len(dirtying):
            run = np.cumsum(~hit)[dirtying]
            first = np.ones(len(run), dtype=bool)
            first[1:] = run[1:] != run[:-1]
            dirtying, run = dirtying[first], run[first]
            # A run whose leading access stored has its line dirty already.
            heads = np.flatnonzero(~hit)
            hit[dirtying[~stored[heads[run - 1]]]] = False
        in_order = order[~hit]
        in_order.sort()
        l1 = self.levels[0]
        sets, n_sets = l1.sets, l1.n_sets
        addrs = word_addrs[in_order]
        blocks = (addrs * BYTES_PER_WORD // l1.block_bytes).tolist()
        access = self.access
        missed: list[int] = []
        missed_latency: list[int] = []
        for k, (addr, block, is_store) in enumerate(
            zip(addrs.tolist(), blocks, stores[in_order].tolist())
        ):
            ways = sets[block % n_sets]
            tag = block // n_sets
            if tag in ways:
                ways[tag] = ways.pop(tag) or is_store
            else:
                missed.append(k)
                missed_latency.append(access(addr, is_store))
        latency = np.full(n, l1.cfg.latency, dtype=np.int64)
        latency[in_order[missed]] = missed_latency
        served = n - len(missed)
        self.stats.accesses += served
        self.stats.hits[l1.cfg.name] += served
        return latency

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

        if is_store:
            # Write-allocate, write-back: dirty the line in the closest level.
            l1 = self.levels[0]
            l1.set_dirty(byte_addr // l1.block_bytes)
        return latency
