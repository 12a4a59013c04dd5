"""Differential fuzzing of the cache hierarchy against a naive reference.

The reference model is written for obviousness (explicit LRU lists, no
shared state tricks); the production model for speed.  Random access
streams must produce identical latencies and statistics.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.config import CacheHierarchyConfig, CacheLevelConfig
from repro.sim.cache import CacheHierarchy


class _ReferenceLevel:
    def __init__(self, cfg: CacheLevelConfig) -> None:
        self.cfg = cfg
        self.n_sets = cfg.n_sets
        # per set: list of [tag, dirty], index 0 = LRU
        self.sets: list[list[list]] = [[] for _ in range(self.n_sets)]

    def find(self, block: int):
        s = self.sets[block % self.n_sets]
        tag = block // self.n_sets
        for entry in s:
            if entry[0] == tag:
                return entry
        return None

    def touch(self, block: int) -> None:
        s = self.sets[block % self.n_sets]
        tag = block // self.n_sets
        for i, entry in enumerate(s):
            if entry[0] == tag:
                s.append(s.pop(i))
                return

    def insert(self, block: int) -> bool:
        """Returns True if a dirty line was evicted."""
        s = self.sets[block % self.n_sets]
        tag = block // self.n_sets
        for i, entry in enumerate(s):
            if entry[0] == tag:
                s.append(s.pop(i))
                return False
        dirty_evicted = False
        if len(s) >= self.cfg.associativity:
            victim = s.pop(0)
            dirty_evicted = victim[1]
        s.append([tag, False])
        return dirty_evicted

    def set_dirty(self, block: int) -> None:
        entry = self.find(block)
        if entry:
            self.touch(block)
            entry[1] = True


class _ReferenceHierarchy:
    def __init__(self, config: CacheHierarchyConfig) -> None:
        self.config = config
        self.levels = [_ReferenceLevel(c) for c in config.levels]
        self.writebacks = 0

    def access(self, word_addr: int, is_store: bool) -> int:
        byte_addr = word_addr * 8
        hit_at = None
        latency = self.config.memory_latency
        for i, level in enumerate(self.levels):
            block = byte_addr // level.cfg.block_bytes
            if level.find(block) is not None:
                level.touch(block)
                hit_at = i
                latency = level.cfg.latency
                break
        fill_until = hit_at if hit_at is not None else len(self.levels)
        for i in range(fill_until - 1, -1, -1):
            block = byte_addr // self.levels[i].cfg.block_bytes
            if self.levels[i].insert(block):
                self.writebacks += 1
        if is_store:
            l1 = self.levels[0]
            l1.set_dirty(byte_addr // l1.cfg.block_bytes)
        return latency


def tiny_config() -> CacheHierarchyConfig:
    return CacheHierarchyConfig(
        levels=(
            CacheLevelConfig("L1", 512, 64, 2, 1),
            CacheLevelConfig("L2", 2048, 128, 2, 5),
        ),
        memory_latency=40,
    )


accesses = st.lists(
    st.tuples(st.integers(0, 200), st.booleans()), min_size=1, max_size=400
)


class TestCacheAgainstReference:
    @given(accesses)
    @settings(max_examples=80, deadline=None)
    def test_latencies_match(self, stream):
        fast = CacheHierarchy(tiny_config())
        ref = _ReferenceHierarchy(tiny_config())
        for addr, is_store in stream:
            assert fast.access(addr, is_store) == ref.access(addr, is_store)

    @given(accesses)
    @settings(max_examples=40, deadline=None)
    def test_writebacks_match(self, stream):
        fast = CacheHierarchy(tiny_config())
        ref = _ReferenceHierarchy(tiny_config())
        for addr, is_store in stream:
            fast.access(addr, is_store)
            ref.access(addr, is_store)
        assert fast.stats.writebacks == ref.writebacks

    @given(accesses)
    @settings(max_examples=40, deadline=None)
    def test_stats_consistent(self, stream):
        fast = CacheHierarchy(tiny_config())
        for addr, is_store in stream:
            fast.access(addr, is_store)
        assert fast.stats.accesses == len(stream)
        for name in ("L1", "L2"):
            h = fast.stats.hits[name]
            m = fast.stats.misses[name]
            assert h + m <= len(stream)
            assert h >= 0 and m >= 0


def odd_config() -> CacheHierarchyConfig:
    """Three L1 sets of three ways: no power of two to shift by."""
    return CacheHierarchyConfig(
        levels=(
            CacheLevelConfig("L1", 576, 64, 3, 1),
            CacheLevelConfig("L2", 2048, 128, 2, 5),
        ),
        memory_latency=40,
    )


class TestL1MruShortcut:
    """The trace replay's L1 MRU classification and its bulk replay of an
    address stream, against the reference model."""

    @given(accesses, st.sampled_from([tiny_config, odd_config]))
    @settings(max_examples=80, deadline=None)
    def test_mru_list_names_each_sets_most_recent_line(self, stream, config):
        """An access is classified an MRU hit exactly when the reference
        cache holds its line in the most recently used way of its set."""
        fast = CacheHierarchy(config())
        ref = _ReferenceHierarchy(config())
        l1 = ref.levels[0]
        addrs = np.array([a for a, _ in stream], dtype=np.int64)
        expected = []
        for addr, is_store in stream:
            block = addr * 8 // l1.cfg.block_bytes
            ways = l1.sets[block % l1.n_sets]
            expected.append(bool(ways) and ways[-1][0] == block // l1.n_sets)
            ref.access(addr, is_store)
        assert fast.l1_mru_hits(addrs).tolist() == expected

    @given(accesses, st.sampled_from([tiny_config, odd_config]))
    @settings(max_examples=80, deadline=None)
    def test_shortcut_matches_reference(self, stream, config):
        fast = CacheHierarchy(config())
        plain = CacheHierarchy(config())
        ref = _ReferenceHierarchy(config())
        half = len(stream) // 2
        latencies: list[int] = []
        # Two replays in a row: the second starts from a warm cache.
        for part in (stream[:half], stream[half:]):
            addrs = np.array([a for a, _ in part], dtype=np.int64)
            stores = np.array([s for _, s in part], dtype=bool)
            latencies += fast.replay(addrs, stores).tolist()
        assert latencies == [ref.access(a, s) for a, s in stream]
        for addr, is_store in stream:
            plain.access(addr, is_store)
        assert fast.stats == plain.stats
        assert fast.stats.writebacks == ref.writebacks
        for mine, theirs in zip(fast.levels, plain.levels):
            assert [list(s.items()) for s in mine.sets] == [
                list(s.items()) for s in theirs.sets
            ]
