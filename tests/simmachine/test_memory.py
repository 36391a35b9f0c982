"""Memory-hierarchy model: residency, LRU eviction, costs, transitions."""

import pytest

from repro.errors import ConfigurationError
from repro.simmachine.memory import DataRegion, MemoryHierarchy

KB = 1024


def two_level(l1=64 * KB, l2=1024 * KB, bt1=1e-9, bt2=4e-9, mem=16e-9, wf=1.0):
    return MemoryHierarchy(
        [("L1", l1, bt1), ("L2", l2, bt2)], memory_byte_time=mem, write_factor=wf
    )


class TestConstruction:
    def test_requires_levels(self):
        with pytest.raises(ConfigurationError):
            MemoryHierarchy([], memory_byte_time=1e-9)

    def test_capacities_must_increase(self):
        with pytest.raises(ConfigurationError, match="increase outward"):
            MemoryHierarchy(
                [("L1", 1024, 1e-9), ("L2", 512, 4e-9)], memory_byte_time=1e-8
            )

    def test_byte_times_must_increase(self):
        with pytest.raises(ConfigurationError, match="increase outward"):
            MemoryHierarchy(
                [("L1", 512, 4e-9), ("L2", 1024, 1e-9)], memory_byte_time=1e-8
            )

    def test_memory_slower_than_last_level(self):
        with pytest.raises(ConfigurationError, match="memory_byte_time"):
            MemoryHierarchy([("L1", 512, 4e-9)], memory_byte_time=2e-9)

    def test_capacities_property(self):
        mh = two_level()
        assert mh.capacities == (64 * KB, 1024 * KB)


class TestDataRegion:
    def test_needs_name(self):
        with pytest.raises(ConfigurationError):
            DataRegion("", 10)

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            DataRegion("x", -1)

    def test_zero_size_allowed(self):
        mh = two_level()
        res = mh.touch(DataRegion("empty", 0))
        assert res.time == 0.0
        assert res.hit_fraction == 1.0


class TestTouchCosts:
    def test_cold_touch_costs_memory_time(self):
        mh = two_level()
        region = DataRegion("a", 10 * KB)
        res = mh.touch(region)
        assert res.from_memory == 10 * KB
        assert res.time == pytest.approx(10 * KB * 16e-9)

    def test_second_touch_hits_l1(self):
        mh = two_level()
        region = DataRegion("a", 10 * KB)
        mh.touch(region)
        res = mh.touch(region)
        assert res.from_memory == 0
        assert res.served_by_level == (10 * KB, 0)
        assert res.time == pytest.approx(10 * KB * 1e-9)

    def test_region_bigger_than_l1_spills_to_l2(self):
        mh = two_level()
        region = DataRegion("big", 100 * KB)
        mh.touch(region)
        res = mh.touch(region)
        assert res.served_by_level[0] == 64 * KB
        assert res.served_by_level[1] == 36 * KB
        assert res.from_memory == 0

    def test_region_bigger_than_l2_partially_misses(self):
        mh = two_level()
        region = DataRegion("huge", 2048 * KB)
        mh.touch(region)
        res = mh.touch(region)
        assert res.served_by_level[1] == 1024 * KB - 64 * KB
        assert res.from_memory == 2048 * KB - 1024 * KB

    def test_write_factor_applies_to_memory_bytes_only(self):
        mh = two_level(wf=2.0)
        region = DataRegion("w", 10 * KB)
        cold = mh.touch(region, write=True)
        assert cold.time == pytest.approx(10 * KB * 16e-9 * 2.0)
        warm = mh.touch(region, write=True)
        # No memory traffic -> no write penalty.
        assert warm.time == pytest.approx(10 * KB * 1e-9)

    def test_partial_touch(self):
        mh = two_level()
        region = DataRegion("p", 100 * KB)
        res = mh.touch(region, nbytes=10 * KB)
        assert res.total == 10 * KB
        assert res.from_memory == 10 * KB

    def test_touch_clamps_to_region_size(self):
        mh = two_level()
        region = DataRegion("c", 4 * KB)
        res = mh.touch(region, nbytes=100 * KB)
        assert res.total == 4 * KB

    def test_negative_touch_rejected(self):
        mh = two_level()
        with pytest.raises(ConfigurationError):
            mh.touch(DataRegion("n", KB), nbytes=-5)

    def test_hit_fraction(self):
        mh = two_level()
        region = DataRegion("f", 10 * KB)
        assert mh.touch(region).hit_fraction == 0.0
        assert mh.touch(region).hit_fraction == 1.0


class TestLRU:
    def test_eviction_of_cold_region(self):
        mh = two_level(l1=10 * KB, l2=20 * KB, mem=16e-9)
        a, b, c = (DataRegion(n, 8 * KB) for n in "abc")
        mh.touch(a)
        mh.touch(b)
        mh.touch(c)
        # L2 holds 20KB: c (MRU, 8) + b (8) + a (4 left after partial evict).
        assert mh.resident_bytes(1, "c") == 8 * KB
        assert mh.resident_bytes(1, "b") == 8 * KB
        assert mh.resident_bytes(1, "a") == 4 * KB

    def test_touch_moves_to_mru(self):
        mh = two_level(l1=10 * KB, l2=16 * KB)
        a, b, c = (DataRegion(n, 8 * KB) for n in "abc")
        mh.touch(a)
        mh.touch(b)
        mh.touch(a)  # refresh a; b becomes LRU
        mh.touch(c)
        assert mh.resident_bytes(1, "a") == 8 * KB
        assert mh.resident_bytes(1, "b") == 0
        assert mh.resident_bytes(1, "c") == 8 * KB

    def test_producer_consumer_reuse(self):
        """The constructive-coupling mechanism: reader after writer hits."""
        mh = two_level()
        shared = DataRegion("shared", 32 * KB)
        private = DataRegion("private", 16 * KB)
        mh.touch(shared, write=True)   # kernel i produces
        res = mh.touch(shared)          # kernel j consumes immediately
        assert res.from_memory == 0
        mh.flush()
        mh.touch(shared, write=True)
        mh.touch(private)
        res2 = mh.touch(shared)
        assert res2.from_memory == 0  # still fits beside private

    def test_flush_clears_everything(self):
        mh = two_level()
        region = DataRegion("r", 10 * KB)
        mh.touch(region)
        mh.flush()
        assert mh.resident_bytes(0, "r") == 0
        assert mh.touch(region).from_memory == 10 * KB


class TestCapacityTransitions:
    """Working set crossing a capacity changes the warm-touch cost regime."""

    def test_three_regimes(self):
        mh = two_level(l1=16 * KB, l2=64 * KB)
        costs = {}
        for label, size in (("fits_l1", 8 * KB), ("fits_l2", 48 * KB), ("spills", 256 * KB)):
            mh.flush()
            region = DataRegion(label, size)
            mh.touch(region)
            costs[label] = mh.touch(region).time / size
        assert costs["fits_l1"] < costs["fits_l2"] < costs["spills"]

    def test_per_byte_cost_bounds(self):
        mh = two_level()
        region = DataRegion("r", 8 * KB)
        mh.touch(region)
        warm = mh.touch(region)
        assert warm.time / region.nbytes == pytest.approx(1e-9)
