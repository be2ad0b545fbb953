"""Tests for the Large Object Heap."""

import itertools

from repro.runtime.heap import HeapConfig, ManagedHeap
from repro.trace import OP_STORE

from tests.opstream import pull

from tests.opstream import program_ops


def make_heap():
    return ManagedHeap(HeapConfig())


class TestLohAllocator:
    def test_size_classes_power_of_two(self):
        assert ManagedHeap._loh_size_class(4096) == 4096
        assert ManagedHeap._loh_size_class(4097) == 8192
        assert ManagedHeap._loh_size_class(100) == 4096    # floor class

    def test_alloc_in_loh_region(self):
        h = make_heap()
        addr = h.loh_alloc(8192)
        assert addr >= h.loh_base

    def test_distinct_segments(self):
        h = make_heap()
        a = h.loh_alloc(8192)
        b = h.loh_alloc(8192)
        assert b >= a + 8192

    def test_free_then_realloc_reuses_segment(self):
        h = make_heap()
        a = h.loh_alloc(8192)
        h.loh_free(a, 8192)
        b = h.loh_alloc(8192)
        assert b == a
        assert h.stats.loh_reuses == 1

    def test_free_list_is_per_size_class(self):
        h = make_heap()
        a = h.loh_alloc(8192)
        h.loh_free(a, 8192)
        c = h.loh_alloc(32768)        # different class: no reuse
        assert c != a
        assert h.stats.loh_reuses == 0

    def test_stats(self):
        h = make_heap()
        h.loh_alloc(10_000)
        assert h.stats.loh_allocations == 1
        assert h.stats.loh_bytes == 16384      # rounded to class
        assert h.loh_used == 16384

    def test_loh_separate_from_gen0(self):
        h = make_heap()
        small = h.allocate(64)
        big = h.loh_alloc(8192)
        assert big >= h.loh_base > small


class TestClrLargeAllocation:
    def make_clr(self):
        from repro.runtime.clr import Clr, shared_clr_image
        from repro.runtime.gc import GcConfig
        return Clr(shared_clr_image(), HeapConfig(), GcConfig(),
                   long_lived_count=64, long_lived_slot=32, seed=1)

    def test_alloc_large_zero_fills(self):
        clr = self.make_clr()
        ops = pull(clr.alloc_large_into, 8192)
        stores = [op for op in ops if op[0] == OP_STORE]
        assert len(stores) == 8192 // 64
        addr, size = clr._last_loh
        assert size == 8192
        assert all(addr <= op[1] < addr + 8192 for op in stores)

    def test_free_large_enables_reuse(self):
        clr = self.make_clr()
        pull(clr.alloc_large_into, 8192)
        first = clr._last_loh
        clr.free_large(*first)
        pull(clr.alloc_large_into, 8192)
        assert clr._last_loh[0] == first[0]

    def test_allocate_batch_routes_big_objects_to_loh(self):
        clr = self.make_clr()
        # Mean far above the LOH threshold: essentially every allocation
        # is large.
        pull(clr.allocate_batch_into, 10, mean_size=50_000)
        assert clr.heap.stats.loh_allocations >= 5


class TestAspnetLohUsage:
    def test_big_response_benchmark_uses_loh(self):
        from repro.workloads.aspnet import aspnet_specs
        from repro.workloads.program import build_program
        spec = next(s for s in aspnet_specs()
                    if s.name == "MvcJsonNetOutput2M")
        prog = build_program(spec, seed=1)
        for _ in itertools.islice(program_ops(prog), 250_000):
            pass
        stats = prog.clr.heap.stats
        assert stats.loh_allocations >= 1
        # The buffer is recycled across requests (free-list reuse).
        if stats.loh_allocations >= 2:
            assert stats.loh_reuses >= 1

    def test_small_response_benchmark_avoids_loh(self):
        from repro.workloads.aspnet import aspnet_specs
        from repro.workloads.program import build_program
        spec = next(s for s in aspnet_specs() if s.name == "Json")
        prog = build_program(spec, seed=1)
        for _ in itertools.islice(program_ops(prog), 60_000):
            pass
        assert prog.clr.heap.stats.loh_allocations <= 2
