"""Memory substrate tests: main memory, cache tag model, hierarchy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HardwareConfig
from repro.errors import ConfigurationError, MemoryFault
from repro.memory import Cache, MainMemory, MemoryHierarchy

#: A few aligned addresses and small values (zero included), so random
#: write sequences often collide, overwrite and zero out.
_ADDRESSES = (0x0, 0x8, 0x10, 0x18, 0x20, 0x28)
_ADDRS = st.sampled_from(_ADDRESSES)
_VALUES = st.sampled_from([0, 1, 2, (1 << 64) - 1])
#: ``1 << 64`` masks to zero on write
_WRITES = st.lists(st.tuples(_ADDRS, _VALUES | st.just(1 << 64)),
                   max_size=12)


class TestMainMemory:
    def test_unwritten_reads_zero(self):
        assert MainMemory().read(0x100) == 0

    def test_write_read_round_trip(self):
        mem = MainMemory()
        mem.write(0x88, 1234)
        assert mem.read(0x88) == 1234

    def test_values_masked_to_64_bits(self):
        mem = MainMemory()
        mem.write(0, 1 << 70)
        assert mem.read(0) == (1 << 70) & ((1 << 64) - 1)

    def test_misaligned_raises(self):
        with pytest.raises(MemoryFault):
            MainMemory().read(3)
        with pytest.raises(MemoryFault):
            MainMemory().write(9, 1)

    def test_out_of_segment_raises(self):
        with pytest.raises(MemoryFault):
            MainMemory().read(1 << 40)

    def test_image_loading(self):
        mem = MainMemory(image={0x10: 5})
        assert mem.read(0x10) == 5

    def test_nonzero_snapshot_sorted_and_filtered(self):
        mem = MainMemory()
        mem.write(0x20, 2)
        mem.write(0x10, 1)
        mem.write(0x30, 0)
        assert mem.nonzero_snapshot() == ((0x10, 1), (0x20, 2))

    def test_writing_zero_removes_the_word(self):
        mem = MainMemory()
        mem.write(0x10, 1)
        mem.write(0x20, 2)
        mem.write(0x10, 0)
        assert len(mem) == 1
        assert mem.read(0x10) == 0
        assert mem.image() == {0x20: 2}

    def test_zero_image_words_dropped_on_construction(self):
        mem = MainMemory(image={0x10: 0, 0x20: 7, 0x30: 0})
        assert len(mem) == 1
        assert mem.image() == {0x20: 7}

    @settings(max_examples=60, deadline=None)
    @given(base=st.dictionaries(_ADDRS, _VALUES, max_size=6),
           left=_WRITES, right=_WRITES)
    def test_image_equality_matches_sorted_snapshot(self, base, left,
                                                    right):
        # two clones of one image, fed independent writes (zeros,
        # overwrites, never-written addresses): dict equality of the
        # images must decide exactly what the sorted snapshot decides,
        # and both exactly what reading every word back decides
        a = MainMemory(image=base)
        b = a.clone()
        for mem, writes in ((a, left), (b, right)):
            for address, value in writes:
                mem.write(address, value)
        same_words = ([a.read(x) for x in _ADDRESSES]
                      == [b.read(x) for x in _ADDRESSES])
        assert (a.image() == b.image()) == same_words
        assert (a.nonzero_snapshot() == b.nonzero_snapshot()) == same_words


class TestCache:
    def make(self, size_kb=1, assoc=2, line=64, latency=3):
        return Cache("t", size_kb, assoc, line, latency)

    def test_cold_miss_then_hit(self):
        cache = self.make()
        assert cache.access(0x100) is False
        assert cache.access(0x100) is True

    def test_same_line_shares_hit(self):
        cache = self.make(line=64)
        cache.access(0x100)
        assert cache.access(0x100 + 63) is True

    def test_lru_eviction_within_set(self):
        cache = self.make(size_kb=1, assoc=2, line=64)  # 8 sets
        set_stride = 8 * 64
        a, b, c = 0, set_stride, 2 * set_stride  # same set, three lines
        cache.access(a)
        cache.access(b)
        cache.access(a)          # a most recent
        cache.access(c)          # evicts b
        assert cache.probe(a) and cache.probe(c)
        assert not cache.probe(b)

    def test_stats_counts(self):
        cache = self.make()
        cache.access(0)
        cache.access(0)
        cache.access(4096 * 64)
        assert cache.stats.accesses == 3
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.miss_rate == pytest.approx(2 / 3)

    def test_flush_empties(self):
        cache = self.make()
        cache.access(0)
        cache.flush()
        assert not cache.probe(0)
        assert cache.resident_lines == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            Cache("bad", size_kb=1, assoc=3, line_bytes=64, latency=1)

    def test_probe_is_non_destructive(self):
        cache = self.make()
        assert cache.probe(0) is False
        assert cache.stats.accesses == 0


class TestHierarchy:
    def test_latencies_sum_down_the_levels(self):
        hw = HardwareConfig()
        hier = MemoryHierarchy(hw)
        first = hier.access(0x1000, now=0)
        assert first.level == "mem"
        assert first.latency == hw.l1d_latency + hw.l2_latency + hw.memory_latency
        again = hier.access(0x1000, now=first.latency + 1)
        assert again.level == "l1"
        assert again.latency == hw.l1d_latency

    def test_access_during_fill_pays_remaining_latency(self):
        hw = HardwareConfig()
        hier = MemoryHierarchy(hw)
        first = hier.access(0x1000, now=100)
        mid = hier.access(0x1000, now=100 + first.latency // 2)
        assert mid.level == "l1"
        assert mid.latency == first.latency - first.latency // 2
        late = hier.access(0x1000, now=100 + first.latency)
        assert late.latency == hw.l1d_latency

    def test_spaces_do_not_alias(self):
        hier = MemoryHierarchy(HardwareConfig())
        hier.access(0x1000, space=0)
        assert hier.access(0x1000, now=10_000, space=1).level != "l1"

    def test_l2_hit_after_l1_eviction(self):
        hw = HardwareConfig(l1d_size_kb=1, l1d_assoc=1, l2_size_kb=64)
        hier = MemoryHierarchy(hw)
        sets = (1 * 1024) // 64
        hier.access(0)
        hier.access(sets * 64)      # evicts line 0 from direct-mapped L1
        result = hier.access(0)
        assert result.level == "l2"

    def test_ideal_mode_always_l1(self):
        hier = MemoryHierarchy(ideal=True)
        for address in range(0, 1 << 20, 4096):
            assert hier.access(address).level == "l1"
        assert hier.l1.stats.miss_rate == 0.0

    def test_warm_pretouches(self):
        hier = MemoryHierarchy()
        hier.warm([0x40, 0x80])
        assert hier.access(0x40).l1_hit
