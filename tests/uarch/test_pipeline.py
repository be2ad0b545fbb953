"""Tests for the core pipeline model and its Top-Down accounting."""

import pytest

from repro.kernel.vm import VirtualMemory
from repro.trace import (OP_BLOCK, OP_BRANCH, OP_EVENT, OP_LOAD, OP_STORE)
from repro.uarch.machine import i9_9980xe
from repro.uarch.pipeline import Core, WorkloadHints
from repro.uarch.topdown import profile_core

from tests.opstream import consume


def make_core():
    return Core(i9_9980xe(), VirtualMemory())


def simple_block(pc=0x40000000, n=10, nbytes=48, kernel=False):
    return (OP_BLOCK, pc, n, nbytes, kernel)


class TestInstructionAccounting:
    def test_block_counts_instructions(self):
        core = make_core()
        consume(core, [simple_block(n=10)])
        assert core.counts.instructions == 10

    def test_memops_and_branches_count_as_instructions(self):
        core = make_core()
        consume(core, [
            simple_block(n=5),
            (OP_LOAD, 0x1000),
            (OP_STORE, 0x2000),
            (OP_BRANCH, 0x40000030, 0x40000050, True),
        ])
        c = core.counts
        assert c.instructions == 8
        assert c.loads == 1 and c.stores == 1 and c.branches == 1

    def test_kernel_attribution(self):
        core = make_core()
        consume(core, [
            simple_block(n=10, kernel=True),
            (OP_LOAD, 0x1000),               # inherits kernel mode
            simple_block(pc=0x40001000, n=5, kernel=False),
            (OP_LOAD, 0x1000),               # now user mode
        ])
        assert core.counts.kernel_instructions == 11
        assert core.counts.instructions == 17

    def test_max_instructions_stops_at_block_boundary(self):
        core = make_core()
        ops = [simple_block(pc=0x40000000 + i * 64) for i in range(100)]
        done = consume(core, iter(ops), max_instructions=35)
        assert 35 <= done <= 45

    def test_unknown_op_rejected(self):
        core = make_core()
        with pytest.raises(ValueError):
            consume(core, [(99, 0)])


class TestMemoryPath:
    def test_load_miss_reaches_dram_and_counts(self):
        core = make_core()
        consume(core, [(OP_LOAD, 0x5000)])
        assert core.l1d.stats.demand_misses == 1
        assert core.dram.stats.reads >= 1

    def test_repeat_load_hits_l1(self):
        core = make_core()
        consume(core, [(OP_LOAD, 0x5000), (OP_LOAD, 0x5000)])
        assert core.l1d.stats.demand_misses == 1

    def test_store_marks_dirty_path(self):
        core = make_core()
        consume(core, [(OP_STORE, 0x5000)])
        assert core.counts.stores == 1

    def test_dtlb_walk_and_page_fault_on_first_touch(self):
        core = make_core()
        consume(core, [(OP_LOAD, 0x7000_0000)])
        assert core.counts.dtlb_load_walks == 1
        assert core.vm.stats.faults == 1

    def test_premapped_page_no_fault(self):
        vm = VirtualMemory()
        vm.premap_range(0x7000_0000, 4096)
        core = Core(i9_9980xe(), vm)
        consume(core, [(OP_LOAD, 0x7000_0000)])
        assert core.vm.stats.faults == 0

    def test_dtlb_store_walks_counted_separately(self):
        core = make_core()
        consume(core, [(OP_STORE, 0x9000_0000)])
        assert core.counts.dtlb_store_walks == 1
        assert core.counts.dtlb_load_walks == 0


class TestFetchPath:
    def test_icache_misses_on_cold_code(self):
        core = make_core()
        consume(core, [simple_block(pc=0x4000_0000, nbytes=256)])
        assert core.l1i.stats.demand_misses >= 1

    def test_warm_code_hits(self):
        core = make_core()
        block = simple_block(pc=0x4000_0000, nbytes=64)
        consume(core, [block, block, block])
        assert core.l1i.stats.demand_misses <= 1

    def test_itlb_walk_on_new_code_page(self):
        core = make_core()
        consume(core, [simple_block(pc=0x4000_0000),
                      simple_block(pc=0x4010_0000)])
        assert core.counts.itlb_walks >= 2


class TestBranchPath:
    def test_mispredict_charges_bad_speculation(self):
        core = make_core()
        # Alternating branch at one PC: unpredictable.
        ops = []
        for i in range(50):
            ops.append((OP_BRANCH, 0x40000000, 0x40000100, i % 2 == 0))
        consume(core, ops)
        assert core.stalls["bad_speculation"] > 0

    def test_btb_miss_charges_resteer(self):
        core = make_core()
        consume(core, [(OP_BRANCH, 0x40000000, 0x40000100, True)])
        assert core.stalls["fe_resteer"] > 0


class TestCyclesAndTopDown:
    def test_cycles_positive_and_cpi_sane(self):
        core = make_core()
        core.set_hints(WorkloadHints())
        ops = [simple_block(pc=0x40000000 + (i % 8) * 64) for i in range(200)]
        consume(core, ops)
        assert core.cycles > 0
        assert 0.2 < core.cpi < 50

    def test_topdown_level1_sums_to_one(self):
        core = make_core()
        ops = []
        for i in range(100):
            ops.append(simple_block(pc=0x40000000 + (i % 16) * 64))
            ops.append((OP_LOAD, 0x5000 + (i * 64) % 4096))
            ops.append((OP_BRANCH, 0x40000030 + (i % 16) * 64,
                        0x40000000, i % 3 == 0))
        consume(core, ops)
        td = profile_core(core)
        total = (td.retiring + td.bad_speculation + td.frontend_bound
                 + td.backend_bound)
        assert abs(total - 1.0) < 1e-6

    def test_frontend_backend_split_consistent(self):
        core = make_core()
        consume(core, [simple_block()])
        td = profile_core(core)
        assert abs(td.frontend_bound
                   - (td.frontend_latency + td.frontend_bandwidth)) < 1e-9
        assert abs(td.backend_bound
                   - (td.backend_memory + td.backend_core)) < 1e-9

    def test_breakdowns_sum_to_one(self):
        core = make_core()
        ops = [simple_block(pc=0x40000000 + i * 64) for i in range(50)]
        ops += [(OP_LOAD, i * 64) for i in range(200)]
        consume(core, ops)
        td = profile_core(core)
        assert abs(sum(td.frontend_breakdown().values()) - 1.0) < 1e-6
        assert abs(sum(td.backend_breakdown().values()) - 1.0) < 1e-6

    def test_seconds_uses_frequency(self):
        core = make_core()
        consume(core, [simple_block()])
        assert core.seconds() == pytest.approx(
            core.cycles / core.machine.max_freq_hz)
        assert core.seconds(use_max_freq=False) == pytest.approx(
            core.cycles / core.machine.nominal_freq_hz)


class TestHooks:
    def test_event_hook_receives_events(self):
        core = make_core()
        seen = []
        core.event_hook = lambda kind, payload, cyc: seen.append(kind)
        consume(core, [(OP_EVENT, "gc/triggered", 1), simple_block()])
        assert seen == ["gc/triggered"]

    def test_cycle_hook_fires_periodically(self):
        core = make_core()
        ticks = []
        core.set_cycle_hook(lambda c: ticks.append(c.cycles), 50.0)
        ops = [simple_block(pc=0x40000000 + (i % 4) * 64)
               for i in range(500)]
        consume(core, ops)
        assert len(ticks) >= 2
        assert ticks == sorted(ticks)


class TestResetSemantics:
    def test_reset_clears_counts_keeps_cache_state(self):
        core = make_core()
        block = simple_block(pc=0x4000_0000, nbytes=64)
        consume(core, [block, (OP_LOAD, 0x5000)])
        core.reset_stats()
        assert core.counts.instructions == 0
        assert core.cycles == 0
        # Warm state preserved: the same accesses now hit.
        consume(core, [block, (OP_LOAD, 0x5000)])
        assert core.l1d.stats.demand_misses == 0

    def test_reset_clears_vm_fault_stats_keeps_mappings(self):
        core = make_core()
        consume(core, [(OP_LOAD, 0x7000_0000)])
        core.reset_stats()
        assert core.vm.stats.faults == 0
        consume(core, [(OP_LOAD, 0x7000_0040)])
        assert core.vm.stats.faults == 0     # page already mapped
