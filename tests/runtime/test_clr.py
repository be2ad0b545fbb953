"""Tests for the CLR facade."""

from repro.codegen import MixProfile
from repro.kernel.syscalls import SyscallModel
from repro.runtime.clr import Clr, ClrImage, shared_clr_image
from repro.runtime.gc import GcConfig
from repro.runtime.heap import HeapConfig
from repro.runtime.jit import Method
from repro.trace import (OP_EVENT, EV_CONTENTION, EV_EXCEPTION,
                         EV_GC_ALLOCATION_TICK, EV_GC_TRIGGERED,
                         EV_JIT_STARTED)

from tests.opstream import pull


def make_clr(**kw):
    defaults = dict(long_lived_count=200, long_lived_slot=32,
                    churn_per_call=0.0, seed=5)
    defaults.update(kw)
    return Clr(shared_clr_image(), HeapConfig(gen0_budget_bytes=64 * 1024),
               GcConfig(), **defaults)


def add_method(clr, mid=0):
    m = Method(id=mid, size_bytes=400, seed=mid, mix=MixProfile())
    clr.register_method(m)
    return m


def events_of(ops, kind):
    return [op for op in ops if op[0] == OP_EVENT and op[1] == kind]


class TestImage:
    def test_subsystem_regions_disjoint(self):
        image = ClrImage()
        spans = sorted((r.base, r.base + r.size_bytes)
                       for r in image.regions.values())
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_expected_subsystems(self):
        image = ClrImage()
        for name in ("alloc", "gc", "jit", "exception", "threading"):
            assert name in image.regions

    def test_shared_image_cached(self):
        assert shared_clr_image() is shared_clr_image()
        assert shared_clr_image(code_bloat=1.9) \
            is not shared_clr_image(code_bloat=1.0)

    def test_code_bloat_grows_text(self):
        assert ClrImage(code_bloat=2.0).text_bytes \
            > ClrImage(code_bloat=1.0).text_bytes


class TestMethodCalls:
    def test_first_call_jits(self):
        clr = make_clr()
        m = add_method(clr)
        ops = pull(clr.enter_method_into, m)
        assert events_of(ops, EV_JIT_STARTED)
        assert m.region is not None

    def test_second_call_no_jit(self):
        clr = make_clr()
        m = add_method(clr)
        pull(clr.enter_method_into, m)
        ops = pull(clr.enter_method_into, m)
        assert not events_of(ops, EV_JIT_STARTED)

    def test_call_count_tracked(self):
        clr = make_clr()
        m = add_method(clr)
        for _ in range(3):
            pull(clr.enter_method_into, m)
        assert m.call_count == 3

    def test_tiering_rejits_at_threshold(self):
        clr = make_clr()
        m = add_method(clr)
        pull(clr.enter_method_into, m)
        first_base = m.region.base
        m.call_count = clr.jit.TIER1_THRESHOLD
        ops = pull(clr.enter_method_into, m)
        assert events_of(ops, EV_JIT_STARTED)
        assert m.region.base != first_base


class TestChurn:
    def test_churn_scatters_live_set(self):
        clr = make_clr(churn_per_call=5.0)
        m = add_method(clr)
        assert clr.live_set.fragmentation == 1.0
        pull(clr.enter_method_into, m)
        assert clr.live_set.fragmentation > 1.0

    def test_fractional_churn_accumulates(self):
        clr = make_clr(churn_per_call=0.5)
        m = add_method(clr)
        pull(clr.enter_method_into, m)
        frag1 = clr.live_set.fragmentation
        pull(clr.enter_method_into, m)
        assert clr.live_set.fragmentation >= frag1


class TestAllocationAndGc:
    def test_allocation_emits_ticks(self):
        clr = make_clr()
        ops = pull(clr.allocate_batch_into, 3000, mean_size=64)
        assert events_of(ops, EV_GC_ALLOCATION_TICK)

    def test_gc_triggered_when_budget_exceeded(self):
        clr = make_clr()
        ops = pull(clr.allocate_batch_into, 2000, mean_size=64)
        assert events_of(ops, EV_GC_TRIGGERED)
        assert not clr.heap.needs_collection

    def test_gc_promotes_churned_objects_out_of_nursery(self):
        clr = make_clr(churn_per_call=50.0)
        m = add_method(clr)
        pull(clr.enter_method_into, m)
        assert clr.live_set.scattered_indices(clr.heap.gen0_base)
        pull(clr.allocate_batch_into, 2000, mean_size=64)
        assert not clr.live_set.scattered_indices(clr.heap.gen0_base)

    def test_compaction_disabled_ablation(self):
        clr = make_clr(churn_per_call=50.0, compaction_enabled=False)
        m = add_method(clr)
        pull(clr.enter_method_into, m)
        frag = clr.live_set.fragmentation
        pull(clr.allocate_batch_into, 2000, mean_size=64)
        assert clr.live_set.fragmentation == frag


class TestExceptionalFlow:
    def test_exception_event_and_code(self):
        clr = make_clr()
        ops = pull(clr.throw_exception_into)
        assert events_of(ops, EV_EXCEPTION)
        assert clr.stats.exceptions_thrown == 1

    def test_contention_event(self):
        clr = make_clr()
        ops = pull(clr.contend_lock_into)
        assert events_of(ops, EV_CONTENTION)

    def test_contention_uses_futex_when_syscalls_present(self):
        clr = make_clr(syscalls=SyscallModel())
        ops = pull(clr.contend_lock_into)
        kernel_blocks = [op for op in ops if op[0] == 0 and op[4]]
        assert kernel_blocks
