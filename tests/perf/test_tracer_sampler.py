"""Tests for the LTTng-like tracer and the counter sampler."""

import pytest

from repro.kernel.vm import VirtualMemory
from repro.perf.sampler import SERIES_NAMES, CounterSampler, SampleSeries
from repro.perf.tracer import LttngTracer
from repro.runtime.events import RuntimeEventCounts
from repro.trace import (OP_BLOCK, OP_EVENT, OP_LOAD, EV_GC_TRIGGERED,
                         EV_JIT_STARTED)
from repro.uarch.machine import i9_9980xe
from repro.uarch.pipeline import Core

from tests.opstream import consume


class TestTracer:
    def test_records_events_with_timestamps(self):
        tr = LttngTracer(freq_hz=1e9)
        tr.hook(EV_JIT_STARTED, 42, cycles=2e6)
        assert len(tr.events) == 1
        ev = tr.events[0]
        assert ev.kind == EV_JIT_STARTED
        assert ev.payload == 42
        assert ev.timestamp == pytest.approx(2e-3)

    def test_counts_table1_kinds(self):
        tr = LttngTracer(freq_hz=1e9)
        tr.hook(EV_JIT_STARTED, None, 0)
        tr.hook(EV_GC_TRIGGERED, None, 10)
        tr.hook(EV_GC_TRIGGERED, None, 20)
        assert tr.counts.jit_started == 1
        assert tr.counts.gc_triggered == 2

    def test_unknown_kind_recorded_not_counted(self):
        tr = LttngTracer(freq_hz=1e9)
        tr.hook("custom/event", None, 0)
        assert len(tr.events) == 1

    def test_filters(self):
        tr = LttngTracer(freq_hz=1e9)
        tr.hook(EV_JIT_STARTED, None, 0)
        tr.hook(EV_GC_TRIGGERED, None, 1)
        assert tr.count_of(EV_JIT_STARTED) == 1
        assert len(tr.events_of(EV_GC_TRIGGERED)) == 1

    def test_clear(self):
        tr = LttngTracer(freq_hz=1e9)
        tr.hook(EV_JIT_STARTED, None, 0)
        tr.clear()
        assert not tr.events
        assert tr.counts.jit_started == 0

    def test_integrates_with_core_event_hook(self):
        core = Core(i9_9980xe(), VirtualMemory())
        tr = LttngTracer(core.machine.max_freq_hz)
        core.event_hook = tr.hook
        consume(core, [(OP_EVENT, EV_JIT_STARTED, 1),
                      (OP_BLOCK, 0x4000_0000, 10, 48, False)])
        assert tr.count_of(EV_JIT_STARTED) == 1


class TestSampler:
    def run_sampled(self, interval=2e-6, n_blocks=4000):
        core = Core(i9_9980xe(), VirtualMemory())
        events = RuntimeEventCounts()
        sampler = CounterSampler(core, events, interval_seconds=interval)
        ops = []
        for i in range(n_blocks):
            ops.append((OP_BLOCK, 0x4000_0000 + (i % 32) * 64, 10, 48,
                        False))
            ops.append((OP_LOAD, 0x8000_0000 + (i * 64) % (1 << 16)))
        consume(core, ops)
        return sampler.finish(), core

    def test_produces_multiple_buckets(self):
        series, _ = self.run_sampled()
        assert len(series) >= 3

    def test_all_columns_same_length(self):
        series, _ = self.run_sampled()
        lengths = {name: len(series[name]) for name in SERIES_NAMES}
        assert len(set(lengths.values())) == 1

    def test_instruction_deltas_sum_to_total(self):
        series, core = self.run_sampled()
        assert sum(series["instructions"]) \
            == pytest.approx(core.counts.instructions)

    def test_timestamps_monotonic(self):
        series, _ = self.run_sampled()
        ts = series.timestamps()
        assert ts == sorted(ts)
        assert ts[0] == 0.0

    def test_mpki_columns_non_negative(self):
        series, _ = self.run_sampled()
        for name in ("branch_mpki", "l1i_mpki", "llc_mpki"):
            assert all(v >= 0 for v in series[name])

    def test_series_getitem_unknown_raises(self):
        s = SampleSeries(1e-3)
        with pytest.raises(KeyError):
            s["nope"]
