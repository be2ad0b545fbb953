"""Tests for the garbage collector model (§VII-B mechanisms)."""

import pytest

from repro.codegen import CodeRegion
from repro.runtime.gc import (GarbageCollector, GcConfig,
                              OutOfManagedMemory, SERVER, WORKSTATION)
from repro.runtime.heap import HeapConfig, LongLivedSet, ManagedHeap
from repro.trace import (OP_BLOCK, OP_EVENT, OP_LOAD, OP_STORE,
                         EV_GC_COMPLETED, EV_GC_TRIGGERED)

from tests.opstream import pull

MB = 1024 * 1024


def make_gc(flavor=WORKSTATION, max_heap=2000 * MB):
    code = CodeRegion(0x6000_0000, 64 * 1024, seed=3)
    return GarbageCollector(GcConfig(flavor=flavor, max_heap_bytes=max_heap),
                            code)


def run_collect(gc, heap, live, compact=True):
    return pull(gc.collect_into, heap, live, compact=compact)


class TestBudgets:
    def test_server_budget_smaller_than_workstation(self):
        ws = GcConfig(flavor=WORKSTATION).gen0_budget()
        srv = GcConfig(flavor=SERVER).gen0_budget()
        assert srv < ws
        ratio = ws / srv
        # §VII-B: server GC triggers ~6.18x more often.
        assert 4.0 < ratio < 8.0

    def test_budget_grows_with_heap(self):
        budgets = [GcConfig(max_heap_bytes=s * MB).gen0_budget()
                   for s in (200, 2_000, 20_000)]
        assert budgets[0] < budgets[1] <= budgets[2]

    def test_min_heap_server_larger(self):
        live = 50 * MB
        ws = GcConfig(flavor=WORKSTATION).min_heap_required(live)
        srv = GcConfig(flavor=SERVER).min_heap_required(live)
        assert srv > ws


class TestOomBehavior:
    """§VII-B: some categories cannot run at a 200 MiB cap."""

    def test_large_live_set_fails_small_heap(self):
        gc = make_gc(max_heap=200 * MB)
        with pytest.raises(OutOfManagedMemory):
            gc.check_heap_fits(150 * MB)

    def test_server_fails_where_workstation_fits(self):
        live = 52 * MB
        make_gc(WORKSTATION, 200 * MB).check_heap_fits(live)
        with pytest.raises(OutOfManagedMemory):
            make_gc(SERVER, 200 * MB).check_heap_fits(live)

    def test_large_heap_always_fits(self):
        make_gc(SERVER, 20_000 * MB).check_heap_fits(150 * MB)


class TestCollection:
    def test_emits_trigger_and_complete_events(self):
        gc = make_gc()
        heap = ManagedHeap(HeapConfig())
        live = LongLivedSet(500, 64, heap.gen2_alloc(500 * 64))
        ops = run_collect(gc, heap, live)
        kinds = [op[1] for op in ops if op[0] == OP_EVENT]
        assert kinds[0] == EV_GC_TRIGGERED
        assert EV_GC_COMPLETED in kinds

    def test_ephemeral_collection_promotes_nursery_survivors(self):
        gc = make_gc()
        heap = ManagedHeap(HeapConfig())
        live = LongLivedSet(500, 64, heap.gen2_alloc(500 * 64))
        scattered_addrs = [heap.allocate(64) for _ in range(3)]
        live.scatter([1, 100, 400], scattered_addrs)
        run_collect(gc, heap, live)
        # Nothing remains in the nursery; survivors moved to gen2.
        assert live.scattered_indices(heap.gen0_base) == []
        assert all(a < heap.gen0_base for a in live.addrs)

    def test_full_collection_slides_back_to_packed_base(self):
        gc = make_gc()
        heap = ManagedHeap(HeapConfig())
        live = LongLivedSet(500, 64, heap.gen2_alloc(500 * 64))
        live.scatter([1, 100, 400], [heap.allocate(64) for _ in range(3)])
        gc.stats.triggered = GarbageCollector.FULL_GC_PERIOD - 1
        run_collect(gc, heap, live)          # this one is a full GC
        assert live.fragmentation == 1.0
        assert gc.stats.gen2_collections == 1

    def test_no_compact_mode_keeps_addresses(self):
        gc = make_gc()
        heap = ManagedHeap(HeapConfig())
        live = LongLivedSet(500, 64, heap.gen2_alloc(500 * 64))
        live.scatter([1], [0x9000_0000])
        before = list(live.addrs)
        run_collect(gc, heap, live, compact=False)
        assert list(live.addrs) == before

    def test_collection_resets_nursery(self):
        gc = make_gc()
        heap = ManagedHeap(HeapConfig(gen0_budget_bytes=512))
        live = LongLivedSet(10, 64, heap.gen2_alloc(640))
        for _ in range(20):
            heap.allocate(64)
        assert heap.needs_collection
        run_collect(gc, heap, live)
        assert not heap.needs_collection

    def test_full_gc_mark_touches_live_objects(self):
        gc = make_gc()
        heap = ManagedHeap(HeapConfig())
        live = LongLivedSet(100, 64, heap.gen2_alloc(6400))
        gc.stats.triggered = GarbageCollector.FULL_GC_PERIOD - 1
        ops = run_collect(gc, heap, live)
        loads = {op[1] for op in ops if op[0] == OP_LOAD}
        assert any(0 <= a - heap.gen2_base < 6400 for a in loads)

    def test_ephemeral_mark_traces_only_nursery(self):
        gc = make_gc()
        heap = ManagedHeap(HeapConfig())
        live = LongLivedSet(100, 64, heap.gen2_alloc(6400))
        nursery_addr = heap.allocate(64)
        live.scatter([5], [nursery_addr])
        ops = run_collect(gc, heap, live)
        loads = {op[1] for op in ops if op[0] == OP_LOAD}
        assert nursery_addr in loads
        gen2_loads = [a for a in loads if 0 <= a - heap.gen2_base < 6400]
        assert len(gen2_loads) <= 1          # gen2 residents not traced

    def test_server_emits_less_inline_work(self):
        heap_ws = ManagedHeap(HeapConfig())
        heap_srv = ManagedHeap(HeapConfig())
        live_ws = LongLivedSet(2000, 64, heap_ws.gen2_alloc(2000 * 64))
        live_srv = LongLivedSet(2000, 64, heap_srv.gen2_alloc(2000 * 64))

        def inline_instr(ops):
            return sum(op[2] for op in ops if op[0] == OP_BLOCK)

        ws_ops = run_collect(make_gc(WORKSTATION), heap_ws, live_ws)
        srv_ops = run_collect(make_gc(SERVER), heap_srv, live_srv)
        assert inline_instr(srv_ops) < inline_instr(ws_ops)

    def test_stats_accumulate(self):
        gc = make_gc()
        heap = ManagedHeap(HeapConfig())
        live = LongLivedSet(100, 64, heap.gen2_alloc(6400))
        run_collect(gc, heap, live)
        run_collect(gc, heap, live)
        assert gc.stats.triggered == 2
        assert gc.stats.gc_instructions > 0
